"""Pinned study parameters, the study runner and its output digest.

Shared by the benchmark's child processes (``study.py``, ``server.py``)
and by ``golden.py``.  Nothing here imports ``repro`` at module level:
the orchestrator (``run.py``) imports this module too, and must run —
and fail cleanly — where ``src/`` is absent.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import pathlib
from typing import Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "digests.json"

#: Dynamicity window: the last 16 days of the paper's 2021 Q1 window, the
#: fewest on which the snapshot pool still runs two workers.
DYNAMICITY_WINDOW = (dt.date(2021, 3, 16), dt.date(2021, 4, 1))
#: Supplemental campaign: the first day of the paper's campaign weeks.
CAMPAIGN_WINDOW = (dt.date(2021, 11, 1), dt.date(2021, 11, 2))
#: Trailing snapshot days the leak identifier samples (the study default).
LEAK_SAMPLE_DAYS = 7


def study_config(seed: int, *, workers: int = 1, cache_root: Optional[str] = None):
    """The pinned :class:`~repro.core.pipeline.StudyConfig` for one world seed.

    The paper world at default scale, with both windows above.  No fault
    plan is set; the benchmark strips ``REPRO_*`` variables from its
    children so the environment cannot supply one either.
    """
    from repro.core.pipeline import StudyConfig
    from repro.scan.cache import CampaignCache, SnapshotCache

    root = pathlib.Path(cache_root) if cache_root else None
    return StudyConfig(
        seed=seed,
        max_workers=workers,
        dynamicity_start=DYNAMICITY_WINDOW[0],
        dynamicity_end=DYNAMICITY_WINDOW[1],
        leak_sample_days=LEAK_SAMPLE_DAYS,
        supplemental_start=CAMPAIGN_WINDOW[0],
        supplemental_end=CAMPAIGN_WINDOW[1],
        snapshot_workers=workers,
        campaign_workers=workers,
        snapshot_cache=SnapshotCache(root / "snapshots") if root else None,
        campaign_cache=CampaignCache(root / "campaigns") if root else None,
    )


def run_study(study) -> dict:
    """Every stage of one study, world to lingering times; returns the outputs."""
    study.world
    study.daily_series()
    dynamicity = study.dynamicity()
    leaks = study.leaks()
    breakdown = study.type_breakdown()
    study.supplemental()
    study.groups()
    funnel = study.funnel()
    lingering = study.lingering()
    return {
        "dynamicity": dynamicity,
        "leaks": leaks,
        "breakdown": breakdown,
        "funnel": funnel,
        "lingering": lingering,
    }


def study_digest_payload(outputs: dict) -> dict:
    """The study outputs the golden digest covers, as plain JSON values."""
    leaks = outputs["leaks"]
    funnel = outputs["funnel"]
    return {
        "dynamic_prefixes": sorted(outputs["dynamicity"].dynamic_prefixes()),
        "leaks": {
            suffix: {
                "records": leaks.suffix_stats[suffix].records,
                "unique_names": leaks.suffix_stats[suffix].unique_name_count,
                "ratio": leaks.suffix_stats[suffix].ratio,
            }
            for suffix in leaks.identified
        },
        "figure4": {
            net_type.value: share for net_type, share in outputs["breakdown"].items()
        },
        "table5": {
            "all_groups": funnel.all_groups,
            "successful": funnel.successful,
            "reverted": funnel.reverted,
            "reliable": funnel.reliable,
        },
        "lingering_minutes": list(outputs["lingering"].minutes),
    }


def study_problems(payload: dict) -> list:
    """Invariants any seed's study must satisfy (goldens cover two seeds only)."""
    problems = []
    if not payload["dynamic_prefixes"]:
        problems.append("no dynamic /24 was flagged")
    if not payload["leaks"]:
        problems.append("no leaking suffix was identified")
    if payload["leaks"] and abs(sum(payload["figure4"].values()) - 100.0) > 1e-6:
        problems.append("Figure 4 shares do not sum to 100%")
    table5 = payload["table5"]
    funnel = [table5[key] for key in ("all_groups", "successful", "reverted", "reliable")]
    if funnel != sorted(funnel, reverse=True) or funnel[-1] < 1:
        problems.append(f"Table 5 funnel is not a non-empty narrowing funnel: {funnel}")
    if len(payload["lingering_minutes"]) != table5["reliable"]:
        problems.append("lingering minutes do not match the reliable groups")
    return problems


def digest(value) -> str:
    """sha256 of the canonical JSON encoding of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def goldens() -> dict:
    """``{seed: {"world", "study", "serve_ingest"}}`` from the committed file."""
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["seeds"]
