"""The run manifest: provenance + metrics + spans, serialised to JSON.

A :class:`RunManifest` is the artifact ``--metrics-out PATH`` (or the
``REPRO_METRICS_OUT`` environment variable) writes: everything needed
to audit a measurement run after the fact —

* ``run``     — provenance: seed, world fingerprint, fault profile,
  command, windows;
* ``metrics`` — the deterministic registry snapshot (simulation
  counts, resolver rcode breakdowns, probe/lookup totals);
* ``spans``   — the deterministic stage tree (names, labels, counts);
* ``timings`` — the **only** section allowed to differ between
  equivalent runs: wall-clock per span, worker counts, cache traffic.

Diff discipline: two runs of the same study — serial, ``--workers N``
or cache-replay — produce manifests whose payloads are bit-identical
once ``timings`` is removed (``jq 'del(.timings)'``), which is pinned
by the equivalence tests.  JSON is dumped with sorted keys so the
comparison really is byte-level.
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Optional

#: Bump when the manifest schema changes.
MANIFEST_VERSION = 1


class RunManifest:
    """A complete, serialisable record of one measurement run."""

    __slots__ = ("run_info", "metrics", "spans", "timings")

    def __init__(
        self,
        *,
        run_info: Optional[dict] = None,
        metrics: Optional[dict] = None,
        spans: Optional[List[dict]] = None,
        timings: Optional[dict] = None,
    ):
        self.run_info = dict(run_info or {})
        self.metrics = metrics or {"counters": {}, "gauges": {}, "histograms": {}}
        self.spans = list(spans or [])
        self.timings = dict(timings or {})

    # -- serialisation ---------------------------------------------------------

    def to_payload(self) -> dict:
        """The full manifest, ``timings`` included."""
        payload = self.deterministic_payload()
        payload["timings"] = self.timings
        return payload

    def deterministic_payload(self) -> dict:
        """The manifest minus ``timings`` — identical across serial,
        parallel and cache-replay runs of the same study."""
        return {
            "manifest_version": MANIFEST_VERSION,
            "run": self.run_info,
            "metrics": self.metrics,
            "spans": self.spans,
        }

    def to_json(self, *, include_timings: bool = True) -> str:
        payload = self.to_payload() if include_timings else self.deterministic_payload()
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, path) -> pathlib.Path:
        target = pathlib.Path(path)
        if target.parent != pathlib.Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json(), encoding="utf-8")
        return target

    # -- deserialisation -------------------------------------------------------

    @classmethod
    def from_payload(cls, payload: dict) -> "RunManifest":
        version = payload.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {version!r} (expected {MANIFEST_VERSION})"
            )
        return cls(
            run_info=payload.get("run", {}),
            metrics=payload.get("metrics"),
            spans=payload.get("spans", []),
            timings=payload.get("timings", {}),
        )

    @classmethod
    def read(cls, path) -> "RunManifest":
        text = pathlib.Path(path).read_text(encoding="utf-8")
        return cls.from_payload(json.loads(text))
