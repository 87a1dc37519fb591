"""Per-cell scoring: privacy exposure versus operational utility.

Each evaluation-matrix cell produces a collected snapshot series and a
supplemental campaign dataset; this module condenses them into one
:class:`CellScore`:

Privacy side (what the outside observer still learns):

* ``unique_names`` — given names recovered from sampled PTR records
  (:class:`~repro.core.names.GivenNameMatcher`, Section 5);
* ``dynamic_24s`` — /24s the dynamicity heuristic flags (Section 4);
* ``trackable_devices`` — matched device labels seen on enough
  distinct days to follow over time
  (:class:`~repro.core.tracking.DeviceTracker`, Section 7 — the
  "Brian" attack);
* ``lingering_median`` — how long departed devices' records linger
  (:func:`~repro.core.stats.lingering_summary`, Figure 7).

Utility side (what the operator still gets out of reverse DNS):

* ``resolution_success`` — share of campaign rDNS lookups that were
  *answered* (NOERROR or NXDOMAIN; SERVFAIL/TIMEOUT/REFUSED are
  failures);
* ``ptr_freshness`` — share of successfully observed activity groups
  whose PTR reverted after the device left (stale records are the
  operational cost the paper's Section 8 weighs against privacy).

Degenerate cells never raise: a zero-leak zone, a 0/1-sample
bootstrap or an empty lingering analysis flows through the PR 4
degenerate-stats handling (:class:`~repro.core.stats.Interval` with
``degenerate=True``) and surfaces as ``flags`` on the score, which the
ranked report renders instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.dynamicity import DynamicityAnalyzer
from repro.core.grouping import GroupBuilder
from repro.core.names import GivenNameMatcher, find_all
from repro.core.stats import Interval, lingering_summary, proportion_ci
from repro.core.timing import lingering_analysis
from repro.core.tracking import DeviceTracker
from repro.dns.resolver import ResolutionStatus
from repro.eval.matrix import MatrixCell, MatrixSpec

#: Statuses that count as an *answered* reverse lookup: the zone spoke
#: authoritatively.  NXDOMAIN is an answer ("no record"), not a failure.
_ANSWERED = (ResolutionStatus.NOERROR, ResolutionStatus.NXDOMAIN)


def _finite(value: float) -> Optional[float]:
    """NaN → ``None`` so payloads stay strict JSON (no ``NaN`` tokens)."""
    return None if value != value else float(value)


def _interval_payload(interval: Interval) -> Dict[str, object]:
    return {
        "estimate": _finite(interval.estimate),
        "low": _finite(interval.low),
        "high": _finite(interval.high),
        "confidence": interval.confidence,
        "degenerate": interval.degenerate,
    }


@dataclass
class CellScore:
    """One cell's condensed outcome (everything the report renders)."""

    cell_id: str
    world: str
    policy: str
    faults: str
    # privacy
    unique_names: int
    dynamic_24s: int
    total_24s: int
    trackable_devices: int
    lingering_median: Interval
    lingering_samples: int
    # utility
    resolution_success: Interval
    ptr_freshness: Interval
    peak_records: int
    # composites
    exposure: float
    utility: float
    verdict: str
    flags: Tuple[str, ...]

    def to_payload(self) -> Dict[str, object]:
        return {
            "cell_id": self.cell_id,
            "world": self.world,
            "policy": self.policy,
            "faults": self.faults,
            "privacy": {
                "unique_names": self.unique_names,
                "dynamic_24s": self.dynamic_24s,
                "total_24s": self.total_24s,
                "trackable_devices": self.trackable_devices,
                "lingering_median_minutes": _interval_payload(self.lingering_median),
                "lingering_samples": self.lingering_samples,
            },
            "utility": {
                "resolution_success": _interval_payload(self.resolution_success),
                "ptr_freshness": _interval_payload(self.ptr_freshness),
                "peak_records": self.peak_records,
            },
            "exposure": self.exposure,
            "utility_score": self.utility,
            "verdict": self.verdict,
            "flags": list(self.flags),
        }


def score_cell(cell: MatrixCell, spec: MatrixSpec, series, dataset) -> CellScore:
    """Score one cell from its collected series and campaign dataset."""
    flags: List[str] = []

    # -- privacy: dynamics (Section 4) -----------------------------------
    analyzer = DynamicityAnalyzer(spec.dynamicity_thresholds)
    dyn_report = analyzer.analyze(series)
    dynamic_24s = dyn_report.dynamic_count
    total_24s = dyn_report.total_observed

    # -- privacy: identities (Section 5) ---------------------------------
    matcher = GivenNameMatcher()
    sample = series.sample_records(series.days[-spec.leak_sample_days:])
    hostnames = [sample.names[index].lower() for index in set(sample.ids.tolist())]
    unique_names = int(find_all(hostnames, matcher.names).any(axis=0).sum())
    if unique_names == 0:
        flags.append("zero-leaks")

    # -- privacy: trackability (Section 7) -------------------------------
    tracker = DeviceTracker(dataset.rdns)
    matched_names = sorted(
        {
            name
            for observation in dataset.rdns
            if observation.ok
            for name in matcher.match(observation.hostname)
        }
    )
    trackable_labels = set()
    for name in matched_names:
        for label, device in tracker.track(name).items():
            if len(device.days_seen()) >= spec.track_min_days:
                trackable_labels.add(label)
    trackable_devices = len(trackable_labels)

    # -- privacy: lingering windows (Figure 7) ---------------------------
    builder = GroupBuilder()
    groups = builder.build(dataset)
    usable = builder.usable(groups)
    analysis = lingering_analysis(usable)
    summary = lingering_summary(analysis)
    lingering_median = summary["median_minutes"]
    lingering_samples = len(analysis.minutes)
    if not groups:
        flags.append("no-groups")
    if lingering_median.degenerate:
        # Covers both the empty analysis and the 0/1-sample bootstrap.
        flags.append("lingering-degenerate")

    # -- utility: resolution success -------------------------------------
    total_lookups = len(dataset.rdns)
    answered = sum(
        1 for observation in dataset.rdns if observation.status in _ANSWERED
    )
    resolution_success = proportion_ci(answered, total_lookups)
    if resolution_success.degenerate:
        flags.append("no-rdns-observations")

    # -- utility: PTR freshness ------------------------------------------
    successful = [group for group in groups if group.successful]
    reverted = sum(1 for group in successful if group.reverted)
    ptr_freshness = proportion_ci(reverted, len(successful))
    if ptr_freshness.degenerate:
        flags.append("freshness-degenerate")

    daily_totals = series.daily_totals()
    peak_records = max(daily_totals.values()) if daily_totals else 0

    # -- composites -------------------------------------------------------
    identity = min(1.0, unique_names / max(1, spec.identity_norm))
    dynamics = min(1.0, dynamic_24s / max(1, spec.dynamics_norm))
    tracking = min(1.0, trackable_devices / max(1, spec.identity_norm))
    exposure = round((identity + dynamics + tracking) / 3.0, 4)

    utility_parts = [
        interval.estimate
        for interval in (resolution_success, ptr_freshness)
        if not interval.degenerate
    ]
    utility = round(sum(utility_parts) / len(utility_parts), 4) if utility_parts else 0.0

    if unique_names > 0 and dynamic_24s > 0:
        verdict = "identities+dynamics"
    elif dynamic_24s > 0:
        verdict = "dynamics"
    elif unique_names > 0:
        verdict = "identities"
    else:
        verdict = "none"

    return CellScore(
        cell_id=cell.cell_id,
        world=cell.world,
        policy=cell.policy,
        faults=cell.faults,
        unique_names=unique_names,
        dynamic_24s=dynamic_24s,
        total_24s=total_24s,
        trackable_devices=trackable_devices,
        lingering_median=lingering_median,
        lingering_samples=lingering_samples,
        resolution_success=resolution_success,
        ptr_freshness=ptr_freshness,
        peak_records=peak_records,
        exposure=exposure,
        utility=utility,
        verdict=verdict,
        flags=tuple(flags),
    )


def score_from_payload(payload: Dict[str, object]) -> CellScore:
    """Rebuild a :class:`CellScore` from :meth:`CellScore.to_payload`.

    The matrix runner's worker processes return score payloads (plain
    JSON-able dicts) rather than pickled dataclasses, so the
    coordinator — and anything replaying ``eval_matrix.json`` —
    reconstructs scores through this single path.
    """

    def number(value: object) -> float:
        return float("nan") if value is None else float(value)

    def interval(fields: Dict[str, object]) -> Interval:
        return Interval(
            estimate=number(fields["estimate"]),
            low=number(fields["low"]),
            high=number(fields["high"]),
            confidence=float(fields["confidence"]),
            degenerate=bool(fields["degenerate"]),
        )

    privacy = payload["privacy"]
    utility = payload["utility"]
    return CellScore(
        cell_id=payload["cell_id"],
        world=payload["world"],
        policy=payload["policy"],
        faults=payload["faults"],
        unique_names=int(privacy["unique_names"]),
        dynamic_24s=int(privacy["dynamic_24s"]),
        total_24s=int(privacy["total_24s"]),
        trackable_devices=int(privacy["trackable_devices"]),
        lingering_median=interval(privacy["lingering_median_minutes"]),
        lingering_samples=int(privacy["lingering_samples"]),
        resolution_success=interval(utility["resolution_success"]),
        ptr_freshness=interval(utility["ptr_freshness"]),
        peak_records=int(utility["peak_records"]),
        exposure=float(payload["exposure"]),
        utility=float(payload["utility_score"]),
        verdict=payload["verdict"],
        flags=tuple(payload["flags"]),
    )
