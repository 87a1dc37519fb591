"""The dynamicity heuristic of Section 4.1.

Three steps over a three-month window of daily /24 PTR counts:

1. Discard /24 prefixes never exceeding ``min_daily_addresses`` (10)
   addresses on any day; record the maximum for the rest.
2. For each remaining /24, compute the day-by-day absolute difference
   in address count, as a percentage of the recorded maximum.
3. Label the /24 *dynamic* if the change percentage exceeds X (10%) on
   at least Y (7) days.

The paper validates these thresholds against its campus network and
notes they deliberately produce a lower bound (strict thresholds, high
confidence).

Two analyzers share one columnar core, :func:`_scan_columns`, which
sweeps the :class:`~repro.scan.storage.CountMatrix` count columns with
NumPy (per-prefix maxima, then transition counting against them):

* :class:`DynamicityAnalyzer` — the batch analyzer over a whole
  series, with no per-day dict materialisation.
* :class:`IncrementalDynamicityAnalyzer` — ingests one day at a time
  for long-running deployments, enforcing order and cadence, and
  :meth:`~IncrementalDynamicityAnalyzer.report` scans the retained
  columns (all of them, or a rolling window).

Both are pinned against a row-oriented ``{date: {prefix: count}}``
oracle by ``tests/core/test_dynamicity_columnar.py``.
"""

from __future__ import annotations

import datetime as dt
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.scan.snapshot import SnapshotSeries
from repro.scan.storage import CountMatrix, PrefixTable

DailyCounts = Mapping[dt.date, Mapping[str, int]]


@dataclass(frozen=True)
class DynamicityThresholds:
    """The X/Y/minimum-size knobs of the heuristic (paper defaults)."""

    min_daily_addresses: int = 10
    change_percent: float = 10.0  # X
    min_change_days: int = 7      # Y

    def __post_init__(self) -> None:
        if self.min_daily_addresses < 1:
            raise ValueError("min_daily_addresses must be at least 1")
        if not 0 < self.change_percent <= 100:
            raise ValueError("change_percent must be in (0, 100]")
        if self.min_change_days < 1:
            raise ValueError("min_change_days must be at least 1")


@dataclass
class PrefixDynamicity:
    """Per-/24 evidence accumulated by the analyzer.

    ``change_days`` counts snapshot-to-snapshot transitions whose
    change exceeds X% (at daily cadence, exactly the paper's "days");
    ``observed_days`` is the calendar span the snapshots cover — for a
    weekly series of 5 snapshots that is 29 days, not 5.
    """

    prefix: str
    max_daily: int
    change_days: int
    observed_days: int
    is_dynamic: bool


@dataclass
class DynamicityReport:
    """The outcome of one analysis window."""

    thresholds: DynamicityThresholds
    prefixes: Dict[str, PrefixDynamicity] = field(default_factory=dict)
    #: /24s seen at all, including those dropped in step 1.
    total_observed: int = 0
    #: Snapshot spacing of the analysed series (1 = daily, 7 = weekly).
    cadence_days: int = 1
    #: The Y threshold actually applied, in snapshot transitions —
    #: ``min_change_days`` rescaled when the cadence is coarser than
    #: daily (see :meth:`DynamicityAnalyzer.analyze`).
    effective_min_change_transitions: int = 7

    def dynamic_prefixes(self) -> List[str]:
        return sorted(
            prefix for prefix, info in self.prefixes.items() if info.is_dynamic
        )

    @property
    def dynamic_count(self) -> int:
        return sum(1 for info in self.prefixes.values() if info.is_dynamic)

    def is_dynamic(self, prefix: str) -> bool:
        info = self.prefixes.get(prefix)
        return info.is_dynamic if info else False


def _effective_min_transitions(
    thresholds: DynamicityThresholds,
    cadence_days: int,
    allow_coarse_cadence: bool,
) -> int:
    """The Y threshold in snapshot transitions for this cadence.

    The paper's thresholds are calibrated for **daily** snapshots: Y
    (``min_change_days``) counts days with >X% change, and each
    snapshot-to-snapshot transition spans exactly one day.  A weekly
    (Rapid7-style) series has 7× fewer transitions per window, so
    judging it against the same Y silently under-detects dynamic
    space.  A cadence coarser than daily therefore raises unless
    ``allow_coarse_cadence=True``, in which case Y is rescaled to
    ``ceil(min_change_days / cadence_days)`` transitions (a
    lower-bound-preserving adjustment) and a ``UserWarning`` records
    the rescaling.
    """
    if cadence_days <= 1:
        return thresholds.min_change_days
    if not allow_coarse_cadence:
        raise ValueError(
            f"series cadence is {cadence_days} days but the Y threshold "
            f"(min_change_days={thresholds.min_change_days}) assumes daily snapshots; "
            "pass allow_coarse_cadence=True to rescale Y to the cadence"
        )
    min_transitions = max(1, math.ceil(thresholds.min_change_days / cadence_days))
    warnings.warn(
        f"analysing a {cadence_days}-day-cadence series: Y threshold "
        f"rescaled from {thresholds.min_change_days} change days to "
        f"{min_transitions} snapshot transition(s)",
        UserWarning,
        stacklevel=3,
    )
    return min_transitions


def _scan_columns(
    prefixes: PrefixTable,
    columns: Sequence,
    thresholds: DynamicityThresholds,
    *,
    cadence_days: int,
    min_transitions: int,
    observed_days: int,
    total_observed: Optional[int] = None,
) -> DynamicityReport:
    """The columnar heuristic core: two sweeps over count columns.

    Sweep one records each prefix's maximum daily count; sweep two
    counts transitions exceeding X% of that maximum.  Columns may be
    ragged (a column is as long as the prefix table was on its day);
    missing cells read as zero, exactly like the reference
    implementation's ``counts.get(prefix, 0)``.

    ``total_observed`` defaults to the number of prefixes with a
    non-zero count in ``columns`` — the right value for a windowed
    scan, where the table may hold prefixes only seen outside the
    window.  Whole-series callers pass ``len(prefixes)`` instead.
    """
    # A dense day x prefix grid: short (ragged) columns are
    # zero-padded, the same implicit zero the reference's
    # ``counts.get(prefix, 0)`` reads.  Counts fit uint32, so every
    # value converts to float64 exactly, and NumPy's elementwise
    # ``100.0 * |delta| / max > threshold`` performs the identical
    # IEEE-754 double operations as the reference's scalar
    # expression — vectorisation cannot move a boundary case.
    width = len(prefixes)
    day_count = len(columns)
    grid = np.zeros((day_count, width), dtype=np.int64)
    for index, column in enumerate(columns):
        if len(column):
            grid[index, : len(column)] = column
    maxima = grid.max(axis=0) if day_count else np.zeros(width, dtype=np.int64)
    if total_observed is None:
        total_observed = int(np.count_nonzero(maxima))

    report = DynamicityReport(
        thresholds,
        total_observed=total_observed,
        cadence_days=cadence_days,
        effective_min_change_transitions=min_transitions,
    )
    # step 1: discard small prefixes
    eligible = np.nonzero(maxima > thresholds.min_daily_addresses)[0]
    if not eligible.size:
        return report

    # steps 2 and 3: per-transition percentage change against the
    # eligible prefixes' maxima, counted down the day axis.
    subgrid = grid[:, eligible]
    if day_count > 1:
        deltas = np.abs(np.diff(subgrid, axis=0)).astype(np.float64)
        exceeds = 100.0 * deltas / maxima[eligible] > thresholds.change_percent
        changes = exceeds.sum(axis=0)
    else:
        changes = np.zeros(eligible.size, dtype=np.int64)

    values = prefixes.values
    for position, prefix_id in enumerate(eligible):
        prefix = values[prefix_id]
        change_days = int(changes[position])
        report.prefixes[prefix] = PrefixDynamicity(
            prefix=prefix,
            max_daily=int(maxima[prefix_id]),
            change_days=change_days,
            observed_days=observed_days,
            is_dynamic=change_days >= min_transitions,
        )
    return report


class DynamicityAnalyzer:
    """Applies the three-step heuristic to a daily count series."""

    def __init__(self, thresholds: DynamicityThresholds = DynamicityThresholds()):
        self.thresholds = thresholds

    def analyze(
        self,
        series: Union[SnapshotSeries, DailyCounts],
        *,
        cadence_days: Optional[int] = None,
        allow_coarse_cadence: bool = False,
    ) -> DynamicityReport:
        """Run the heuristic over a /24 count series.

        Accepts a :class:`~repro.scan.snapshot.SnapshotSeries` or a
        plain ``{date: {prefix: count}}`` mapping.  Days are processed
        in date order; a /24 absent on a day counts as zero addresses
        (its records disappeared entirely).

        ``cadence_days`` is taken from the series when not given
        explicitly (mapping inputs must be regularly spaced — mixed
        gaps raise); a cadence coarser than daily raises unless
        ``allow_coarse_cadence=True`` rescales the Y threshold (see
        :func:`_effective_min_transitions`).

        A :class:`~repro.scan.snapshot.SnapshotSeries` is analysed
        straight off its internal :class:`~repro.scan.storage.CountMatrix`
        — no per-day dict copies; a mapping is interned into a
        transient matrix first.
        """
        if isinstance(series, SnapshotSeries):
            days = series.days
            matrix = series.count_matrix()
            if cadence_days is None:
                cadence_days = series.cadence_days
        else:
            days = sorted(series)
            matrix = CountMatrix.from_day_dicts(series[day] for day in days)
            if cadence_days is None:
                cadence_days = self._infer_cadence(days)
        if not days:
            raise ValueError("the series holds no days")
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        min_transitions = _effective_min_transitions(
            self.thresholds, cadence_days, allow_coarse_cadence
        )
        return _scan_columns(
            matrix.prefixes,
            [matrix.column(index) for index in range(matrix.day_count)],
            self.thresholds,
            cadence_days=cadence_days,
            min_transitions=min_transitions,
            observed_days=(len(days) - 1) * cadence_days + 1,
            total_observed=len(matrix.prefixes),
        )

    @staticmethod
    def _infer_cadence(days: Sequence[dt.date]) -> int:
        """The uniform gap between consecutive days of a mapping input.

        The old implementation took the *minimum* gap, so an irregular
        mapping (a missing day in a daily series) was silently analysed
        as if regular — under-counting transitions.  Mixed spacing now
        raises, mirroring ``SnapshotSeries._ingest_day``'s cadence
        validation; callers with genuinely irregular data must fill the
        gaps or pass ``cadence_days`` explicitly.
        """
        if len(days) < 2:
            return 1
        gaps = {(later - earlier).days for earlier, later in zip(days, days[1:])}
        if len(gaps) != 1:
            raise ValueError(
                "mapping input has mixed snapshot spacing (consecutive gaps of "
                f"{sorted(gaps)} days); the heuristic's transition counting "
                "assumes a regular cadence — fill the missing days or pass "
                "cadence_days explicitly"
            )
        return gaps.pop()


class IncrementalDynamicityAnalyzer:
    """One-day-at-a-time dynamicity for long-running deployments.

    :meth:`ingest` checks a day's order and cadence and appends its
    ``{prefix: count}`` mapping as one column of a
    :class:`~repro.scan.storage.CountMatrix`; :meth:`report` runs the
    columnar core over the retained columns.  ``report(window=k)``
    re-evaluates the last ``k`` snapshots only — a rolling-window view.

    Equivalence with :class:`DynamicityAnalyzer` over the same days is
    pinned by ``tests/core/test_dynamicity_columnar.py``.
    """

    def __init__(
        self,
        thresholds: DynamicityThresholds = DynamicityThresholds(),
        *,
        cadence_days: int = 1,
        allow_coarse_cadence: bool = False,
    ):
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        self.thresholds = thresholds
        self.cadence_days = cadence_days
        self.allow_coarse_cadence = allow_coarse_cadence
        self._matrix = CountMatrix()
        self._days: List[dt.date] = []

    @property
    def days(self) -> List[dt.date]:
        return list(self._days)

    def ingest(self, day: dt.date, counts: Mapping[str, int]) -> None:
        """Append one day's counts, enforcing order and cadence."""
        if self._days:
            gap = (day - self._days[-1]).days
            if gap <= 0:
                raise ValueError(f"day {day} is not after {self._days[-1]}")
            if gap != self.cadence_days:
                raise ValueError(
                    f"snapshot spacing {gap}d contradicts the declared "
                    f"cadence of {self.cadence_days}d"
                )
        self._matrix.append_day(counts)
        self._days.append(day)

    def report(self, *, window: Optional[int] = None) -> DynamicityReport:
        """The heuristic's verdict over everything ingested so far.

        ``window`` restricts the evaluation to the most recent
        ``window`` snapshots (a rolling re-evaluation; ``total_observed``
        then counts prefixes seen *within* the window, matching a batch
        run over just those days).
        """
        if not self._days:
            raise ValueError("the series holds no days")
        min_transitions = _effective_min_transitions(
            self.thresholds, self.cadence_days, self.allow_coarse_cadence
        )
        day_count = self._matrix.day_count
        if window is None:
            first, total_observed = 0, len(self._matrix.prefixes)
        elif window < 1:
            raise ValueError("window must be at least 1 snapshot")
        else:
            first, total_observed = max(0, day_count - window), None
        columns = [self._matrix.column(index) for index in range(first, day_count)]
        return _scan_columns(
            self._matrix.prefixes,
            columns,
            self.thresholds,
            cadence_days=self.cadence_days,
            min_transitions=min_transitions,
            observed_days=(len(columns) - 1) * self.cadence_days + 1,
            total_observed=total_observed,
        )
