"""Domain logic for the query service.

Each service owns one analysis surface and reads the collected
:class:`~repro.scan.snapshot.SnapshotSeries` directly through
:attr:`~repro.serve.repositories.SnapshotRepository.series`:

* :class:`DynamicityService` — per-prefix and whole-window dynamicity,
  backed by an :class:`~repro.core.dynamicity.IncrementalDynamicityAnalyzer`
  seeded from the collected series.  :meth:`DynamicityService.ingest`
  folds one new snapshot day in at O(prefixes) — the incremental-ingest
  contract — and its report stays bit-identical to a full
  :class:`~repro.core.dynamicity.DynamicityAnalyzer` recompute over the
  extended series (pinned by ``tests/serve/test_ingest_parity.py``).
* :class:`LeakService` — the Section 5 drill-down (leak verdicts,
  given-name and device-term hits) over the trailing sample window,
  kept in a :class:`~repro.core.leaks.LeakWindow` that an ingest
  slides by one day, judging only the hostnames the new day brings;
  its report is the batch :meth:`~repro.core.leaks.LeakIdentifier.identify`
  fold over the window's columns.
* :class:`OccupancyService` — daily occupancy curves from the count
  matrix, plus hourly curves from the supplemental campaign, which it
  runs (or replays from its cache) on the first hourly query.

Derived reports are memoised against the series length: every GET is a
cache hit until the next ingest grows the window, and the hit/miss
traffic is counted in the shared metrics registry
(``serve_report_cache_total``).
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from repro.core.dynamicity import (
    DynamicityReport,
    DynamicityThresholds,
    IncrementalDynamicityAnalyzer,
)
from repro.core.leaks import LeakIdentifier, LeakReport, LeakThresholds, LeakWindow
from repro.core.names import GivenNameMatcher
from repro.core.occupancy import hourly_activity
from repro.obs import Observability, resolve_obs
from repro.scan.cache import CampaignCache
from repro.scan.campaign import SupplementalCampaign, SupplementalDataset
from repro.serve.repositories import SnapshotRepository, normalise_slash24

T = TypeVar("T")


class ServiceError(Exception):
    """A domain error carrying the HTTP status the handler should map it to."""

    def __init__(self, status: int, message: str, **detail):
        super().__init__(message)
        self.status = status
        self.message = message
        self.detail = dict(detail)

    def payload(self) -> dict:
        payload = {"error": self.message}
        payload.update(self.detail)
        return payload


def dynamicity_summary(report: DynamicityReport) -> dict:
    """The canonical JSON shape of one dynamicity verdict.

    Shared by the incremental path (ingest responses, ``/prefix``
    fallbacks) and the batch-recompute parity tests: two reports are
    bit-identical exactly when these payloads are.
    """
    return {
        "total_observed": report.total_observed,
        "dynamic_count": report.dynamic_count,
        "eligible_count": len(report.prefixes),
        "cadence_days": report.cadence_days,
        "effective_min_change_transitions": report.effective_min_change_transitions,
        "dynamic_prefixes": report.dynamic_prefixes(),
        "thresholds": {
            "min_daily_addresses": report.thresholds.min_daily_addresses,
            "change_percent": report.thresholds.change_percent,
            "min_change_days": report.thresholds.min_change_days,
        },
    }


def leaks_payload(
    report: LeakReport, sample_days: List[str], *, suffix: Optional[str] = None
) -> dict:
    """The ``/leaks`` body, whole or for one suffix.

    Like :func:`dynamicity_summary`, shared by the service and the
    batch-recompute parity tests.
    """
    if suffix is not None:
        stats = report.suffix_stats.get(suffix)
        if stats is None:
            raise ServiceError(
                404,
                f"suffix {suffix!r} holds no name-matching records in "
                "the sample window",
                known_suffixes=sorted(report.suffix_stats),
            )
        return {
            "suffix": suffix,
            "identified": suffix in report.identified,
            "records": stats.records,
            "unique_names": stats.unique_name_count,
            "ratio": stats.ratio,
        }
    return {
        "identified": report.identified,
        "sample_days": sample_days,
        "thresholds": {
            "min_unique_names": report.thresholds.min_unique_names,
            "min_ratio": report.thresholds.min_ratio,
        },
        "suffixes": {
            name: {
                "records": stats.records,
                "unique_names": stats.unique_name_count,
                "ratio": stats.ratio,
                "identified": name in report.identified,
            }
            for name, stats in sorted(report.suffix_stats.items())
        },
    }


def _ranked(counter: Counter, top: Optional[int]) -> List[List[object]]:
    ranked = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
    if top is not None:
        ranked = ranked[:top]
    return [[name, count] for name, count in ranked]


def names_payload(
    report: LeakReport, sample_days: List[str], *, top: Optional[int] = None
) -> dict:
    """The ``/names`` body: given-name and device-term rankings."""
    return {
        "sample_days": sample_days,
        "names": {
            "all": _ranked(report.all_name_counts, top),
            "identified": _ranked(report.filtered_name_counts, top),
        },
        "device_terms": {
            "all": _ranked(report.all_device_term_counts, top),
            "identified": _ranked(report.filtered_device_term_counts, top),
        },
    }


class _MemoCell:
    """One length-versioned memo with hit/miss accounting.

    The cached value stays valid while the series holds the same
    number of days; an ingest bumps the length and naturally expires
    every cell.  Hits and misses land in the shared
    ``serve_report_cache_total`` counter, labelled per report, so the
    warm-path behaviour is observable (and benchmarkable).
    """

    __slots__ = ("_name", "_version", "_value")

    def __init__(self, name: str):
        self._name = name
        self._version: Optional[int] = None
        self._value = None

    def get(self, version: int, compute: Callable[[], T], obs: Observability) -> T:
        outcome = "hit" if self._version == version else "miss"
        obs.metrics.counter("serve_report_cache_total").labels(
            report=self._name, outcome=outcome
        ).inc()
        if outcome == "miss":
            self._value = compute()
            self._version = version
        return self._value


def _validated_counts(counts: Mapping[str, int]) -> Dict[str, int]:
    """An explicit count column keyed by canonical /24, or a 400.

    Every key must name a /24, no two keys may name the same one, and
    every count must be a non-negative integer (``bool`` is not).
    """
    column: Dict[str, int] = {}
    keys: Dict[str, str] = {}
    for key, count in counts.items():
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ServiceError(400, f"count for {key!r} must be a non-negative integer")
        try:
            prefix = normalise_slash24(key)
        except ValueError as error:
            raise ServiceError(400, f"invalid /24 prefix {key!r}: {error}") from error
        if prefix in keys:
            raise ServiceError(
                400,
                f"keys {keys[prefix]!r} and {key!r} both name {prefix}",
                prefix=prefix,
                keys=[keys[prefix], key],
            )
        keys[prefix] = key
        column[prefix] = count
    return column


class DynamicityService:
    """Per-prefix dynamicity plus the one-day-at-a-time ingest path."""

    def __init__(
        self,
        snapshots: SnapshotRepository,
        *,
        thresholds: Optional[DynamicityThresholds] = None,
        obs: Optional[Observability] = None,
    ):
        self.snapshots = snapshots
        self.thresholds = thresholds or DynamicityThresholds()
        self.obs = resolve_obs(obs)
        series = snapshots.series
        self._analyzer = IncrementalDynamicityAnalyzer(
            self.thresholds, cadence_days=series.cadence_days
        )
        # Seed the analyzer by replaying the collected window day by
        # day through the same column append as live ingest; each
        # report then scans the retained columns once.
        for day in series.days:
            self._analyzer.ingest(day, series.counts_view(day))
        self._report = _MemoCell("dynamicity")

    # -- reads ----------------------------------------------------------------

    def report(self) -> DynamicityReport:
        return self._report.get(
            len(self.snapshots.series), self._analyzer.report, self.obs
        )

    def summary(self) -> dict:
        return dynamicity_summary(self.report())

    def prefix_payload(self, raw_prefix: str, *, include_history: bool = False) -> dict:
        """The verdict for one /24, 404-ing with actionable detail."""
        try:
            prefix = normalise_slash24(raw_prefix)
        except ValueError as error:
            raise ServiceError(400, f"invalid /24 prefix: {error}") from error
        series = self.snapshots.series
        history = self.snapshots.history(prefix)
        if history is None:
            raise ServiceError(
                404,
                f"prefix {prefix} was never observed",
                prefix=prefix,
                observed_prefixes=len(series.prefix_table()),
            )
        report = self.report()
        info = report.prefixes.get(prefix)
        payload = {
            "prefix": prefix,
            "days": len(series),
            "cadence_days": report.cadence_days,
            "max_daily": max(history) if history else 0,
            # Prefixes below the min-daily floor are discarded by step 1
            # of the heuristic and carry no change evidence.
            "eligible": info is not None,
            "is_dynamic": info.is_dynamic if info is not None else False,
            "change_days": info.change_days if info is not None else None,
            "observed_days": info.observed_days if info is not None else None,
            "effective_min_change_transitions": report.effective_min_change_transitions,
        }
        if include_history:
            payload["history"] = {
                "days": [day.isoformat() for day in series.days],
                "counts": history,
            }
        return payload

    # -- the incremental-ingest contract --------------------------------------

    def ingest(
        self, day: dt.date, counts: Optional[Mapping[str, int]] = None
    ) -> dict:
        """Fold one snapshot day in and return the updated verdict.

        ``counts`` defaults to deriving the day from the simulated
        world (the production path — a new OpenINTEL-style snapshot
        lands); an explicit mapping supports external feeds.  The day
        must extend the window at the declared cadence: both the series
        and the analyzer enforce it, and the precondition is checked
        *before* either is mutated so a rejected ingest leaves no
        torn state.
        """
        series = self.snapshots.series
        expected = self.snapshots.next_day
        if expected is not None and day != expected:
            raise ServiceError(
                409,
                f"day {day.isoformat()} does not extend the window: the "
                f"{series.cadence_days}-day cadence expects "
                f"{expected.isoformat()} next",
                expected_day=expected.isoformat(),
                last_day=series.days[-1].isoformat(),
            )
        if counts is None:
            column = self.snapshots.append_derived_day(day)
        else:
            column = self.snapshots.append_counts(day, _validated_counts(counts))
        self._analyzer.ingest(day, column)
        self.obs.metrics.counter("serve_ingested_days_total").inc()
        summary = self.summary()
        return {
            "ingested": day.isoformat(),
            "days": len(series),
            "day_responses": series.count_matrix().day_total(len(series) - 1),
            "dynamicity": summary,
        }


class LeakService:
    """Leak verdicts over the trailing sample window (Section 5)."""

    def __init__(
        self,
        snapshots: SnapshotRepository,
        dynamicity: DynamicityService,
        *,
        thresholds: LeakThresholds,
        sample_days: int,
        obs: Optional[Observability] = None,
    ):
        if sample_days < 1:
            raise ValueError("sample_days must be at least 1")
        self.snapshots = snapshots
        self.dynamicity = dynamicity
        self.sample_days = sample_days
        self.obs = resolve_obs(obs)
        #: The trailing ``sample_days`` days, folded one day at a time.
        self.window = LeakWindow(LeakIdentifier(GivenNameMatcher(), thresholds))
        self._report = _MemoCell("leaks")

    def report(self) -> LeakReport:
        return self._report.get(len(self.snapshots.series), self._compute, self.obs)

    def _compute(self) -> LeakReport:
        # Slide the window onto the trailing days: fold the entering
        # days in before the leaving ones out, so hostnames held by
        # both keep their memoised verdicts.
        series = self.snapshots.series
        days = series.days[-self.sample_days:]
        held = self.window.days
        for day in days:
            if day not in held:
                self.window.add_day(day, series.sample_records([day]))
        for day in held:
            if day not in days:
                self.window.retract_day(day)
        return self.window.report(self.dynamicity.report().dynamic_prefixes())

    def sample_window(self) -> List[str]:
        days = self.snapshots.series.days[-self.sample_days:]
        return [day.isoformat() for day in days]

    def payload(self, *, suffix: Optional[str] = None) -> dict:
        return leaks_payload(self.report(), self.sample_window(), suffix=suffix)

    def names_payload(self, *, top: Optional[int] = None) -> dict:
        """Given-name and device-term hit counts (Figures 2-3)."""
        if top is not None and top < 1:
            raise ServiceError(400, "top must be a positive integer")
        return names_payload(self.report(), self.sample_window(), top=top)


class OccupancyService:
    """Occupancy curves: daily from the count matrix, hourly on demand.

    The hourly curves come from ``campaign`` over ``window``.  The
    dataset is only materialised when an hourly query for a campaign
    network first needs it; a :class:`~repro.scan.cache.CampaignCache`
    (when given) makes that a replay rather than a re-simulation.
    """

    def __init__(
        self,
        snapshots: SnapshotRepository,
        campaign: SupplementalCampaign,
        *,
        window: Tuple[dt.date, dt.date],
        cache: Optional[CampaignCache] = None,
        obs: Optional[Observability] = None,
    ):
        self.snapshots = snapshots
        self.campaign = campaign
        self.window = window
        self.cache = cache
        self.obs = resolve_obs(obs)
        self._daily = _MemoCell("occupancy")
        self._dataset: Optional[SupplementalDataset] = None

    def daily_payload(self, *, prefix: Optional[str] = None) -> dict:
        if prefix is not None:
            return self._prefix_payload(prefix)
        return self._daily.get(
            len(self.snapshots.series), self._compute_daily, self.obs
        )

    def _compute_daily(self) -> dict:
        totals = self.snapshots.series.daily_totals()
        days = sorted(totals)
        values = [totals[day] for day in days]
        peak = max(values, default=0)
        return {
            "scope": "daily",
            "days": [day.isoformat() for day in days],
            "totals": values,
            "relative_percent": [
                (100.0 * value / peak) if peak else 0.0 for value in values
            ],
            "peak": peak,
        }

    def _prefix_payload(self, raw_prefix: str) -> dict:
        try:
            prefix = normalise_slash24(raw_prefix)
        except ValueError as error:
            raise ServiceError(400, f"invalid /24 prefix: {error}") from error
        history = self.snapshots.history(prefix)
        if history is None:
            raise ServiceError(404, f"prefix {prefix} was never observed", prefix=prefix)
        peak = max(history, default=0)
        return {
            "scope": "daily",
            "prefix": prefix,
            "days": [day.isoformat() for day in self.snapshots.series.days],
            "totals": history,
            "relative_percent": [
                (100.0 * value / peak) if peak else 0.0 for value in history
            ],
            "peak": peak,
        }

    def dataset(self) -> SupplementalDataset:
        """The campaign dataset: run or replayed once, then memoised."""
        if self._dataset is not None:
            outcome = "memo"
        else:
            self._dataset = self.campaign.run(*self.window, cache=self.cache)
            outcome = "hit" if self.campaign.last_metrics.cache_hit else "miss"
        self.obs.metrics.counter("serve_campaign_cache_total").labels(
            outcome=outcome
        ).inc()
        return self._dataset

    def hourly_payload(self, network: str, *, source: str = "rdns") -> dict:
        if source not in ("rdns", "icmp"):
            raise ServiceError(400, "source must be 'rdns' or 'icmp'")
        if network not in self.campaign.network_names:
            raise ServiceError(
                404,
                f"network {network!r} is not part of the campaign",
                networks=sorted(self.campaign.network_names),
            )
        icmp_hours, rdns_hours = hourly_activity(self.dataset(), network)
        hours = rdns_hours if source == "rdns" else icmp_hours
        start, end = self.window
        return {
            "scope": "hourly",
            "network": network,
            "source": source,
            "window": [start.isoformat(), end.isoformat()],
            "hours": {str(hour): count for hour, count in sorted(hours.items())},
        }
