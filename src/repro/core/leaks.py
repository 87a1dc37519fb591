"""Identifying privacy-leaking networks (Section 5.1).

Starting from /24s flagged by the dynamicity heuristic, the pipeline:

1. keeps PTR records inside dynamic /24s;
2. excludes router-level records (generic location/interface terms);
3. matches the rest against the given-name list, and notes the
   Figure-3 device terms each record carries (both are lower-cased
   substring tests, as in :meth:`GivenNameMatcher.match` and
   :func:`~repro.core.terms.device_terms_in`);
4. aggregates per hostname suffix: record count, uniquely matched
   names, and their ratio;
5. selects suffixes with at least ``min_unique_names`` unique matches
   (the paper uses 50 at Internet scale) and
6. a unique-names-to-records ratio of at least ``min_ratio`` (0.1) —
   the defence against city-name confounds such as *jackson* repeated
   across a router farm.

The report also retains the Figure-2 and Figure-3 series: given-name
and device-term counts before ("all matches") and after ("filtered
matches") the thresholds.

The sample is columns, not records: a
:class:`~repro.scan.snapshot.RecordSample` of ``u32`` addresses and
ids into the names they index.  Steps 2-3 depend only on the hostname,
so :meth:`LeakIdentifier.judge` judges each distinct name once, in
bulk, into a :class:`Verdicts` table.  Steps 1 and 4-6 then fold the
integer columns with ``np.bincount``: records per suffix, given name
and device term, with each record keyed on ``address >> 8`` against
the dynamic /24s.  :meth:`LeakIdentifier.identify` is that fold.  A
:class:`LeakWindow` keeps each retained snapshot day as its columns
and memoises the verdicts of the names they hold; its report is the
same fold over the union of its days.  The query service slides one
window a day at a time.
"""

from __future__ import annotations

import ipaddress
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, KeysView, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.names import LABEL_BREAK, GivenNameMatcher, find_all
from repro.core.terms import has_router_term, hostname_suffix, is_router_level
from repro.datasets.terms import DEVICE_TERMS
from repro.netsim.network import slash24_of
from repro.scan.snapshot import RecordSample


@dataclass(frozen=True)
class LeakThresholds:
    """Selection thresholds of Section 5.1 (steps 5 and 6).

    The paper's ``min_unique_names=50`` operates at full-Internet scale
    with thousands of clients per network; scaled-down worlds pass a
    proportionally smaller value.
    """

    min_unique_names: int = 50
    min_ratio: float = 0.1

    def __post_init__(self) -> None:
        if self.min_unique_names < 1:
            raise ValueError("min_unique_names must be at least 1")
        if not 0 < self.min_ratio <= 1:
            raise ValueError("min_ratio must be in (0, 1]")


@dataclass
class SuffixStats:
    """Per-suffix aggregation (step 4)."""

    suffix: str
    records: int = 0
    unique_names: Set[str] = field(default_factory=set)
    name_counts: Counter = field(default_factory=Counter)
    device_term_counts: Counter = field(default_factory=Counter)

    @property
    def unique_name_count(self) -> int:
        return len(self.unique_names)

    @property
    def ratio(self) -> float:
        if not self.records:
            return 0.0
        return len(self.unique_names) / self.records

    def meets(self, thresholds: LeakThresholds) -> bool:
        return (
            self.unique_name_count >= thresholds.min_unique_names
            and self.ratio >= thresholds.min_ratio
        )


@dataclass
class LeakReport:
    """The outcome of the drill-down."""

    thresholds: LeakThresholds
    suffix_stats: Dict[str, SuffixStats]
    identified: List[str]
    #: Figure 2: per-name counts over all records vs identified networks.
    all_name_counts: Counter
    filtered_name_counts: Counter
    #: Figure 3: device-term counts in name-carrying records.
    all_device_term_counts: Counter
    filtered_device_term_counts: Counter

    @property
    def identified_count(self) -> int:
        return len(self.identified)

    def stats_for(self, suffix: str) -> SuffixStats:
        return self.suffix_stats[suffix]


#: The suffix code of a name with no suffix: one matching no given name
#: (its records contribute nothing), or a router-level one (it feeds
#: only the Figure 2-3 "all" series).
NO_NAME = -2
ROUTER_LEVEL = -1


class Verdicts(NamedTuple):
    """Steps 2-3 for distinct names, one row per name.

    ``suffix[row]`` is the name's suffix code (an index into
    :attr:`LeakIdentifier.suffixes`), :data:`ROUTER_LEVEL` or
    :data:`NO_NAME`.  ``rows`` and ``which`` list the patterns each
    name-matching row contains, indexing :attr:`LeakIdentifier.patterns`:
    the given names, then the device terms.
    """

    suffix: np.ndarray
    rows: np.ndarray
    which: np.ndarray

    def extended(self, other: "Verdicts") -> "Verdicts":
        """These rows, then ``other``'s."""
        return Verdicts(
            np.concatenate([self.suffix, other.suffix]),
            np.concatenate([self.rows, other.rows + len(self.suffix)]),
            np.concatenate([self.which, other.which]),
        )

    def take(self, rows: np.ndarray) -> "Verdicts":
        """The verdicts of ``rows`` (ascending), renumbered from 0."""
        renumber = np.full(len(self.suffix), -1, dtype=np.intp)
        renumber[rows] = np.arange(len(rows))
        kept = renumber[self.rows]
        return Verdicts(self.suffix[rows], kept[kept >= 0], self.which[kept >= 0])


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values.

    A sort, not a plain ``np.unique``: its hash path imports
    ``numpy.ma`` on first use, about 10 ms in a fresh process.
    """
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _in_dynamic(blocks: np.ndarray, dynamic_24s: Iterable[str]) -> np.ndarray:
    """Whether each ``address >> 8`` block is a dynamic /24.

    Keys are parsed once to blocks; a key not in :func:`slash24_of`
    form matches no record.
    """
    dynamic = set()
    for key in dynamic_24s:
        try:
            block = int(ipaddress.IPv4Address(key[:-3])) >> 8
        except ValueError:
            continue
        if slash24_of(block << 8) == key:
            dynamic.add(block)
    # A sentinel above every block keeps each search position in range.
    table = np.array([*sorted(dynamic), 1 << 24], dtype=np.uint64)
    return table[np.searchsorted(table, blocks)] == blocks


class LeakIdentifier:
    """Steps 1-6 over a sample of PTR records."""

    def __init__(
        self,
        matcher: GivenNameMatcher = None,
        thresholds: LeakThresholds = LeakThresholds(),
    ):
        self.matcher = matcher or GivenNameMatcher()
        self.thresholds = thresholds
        #: What :class:`Verdicts` hits index: given names, then device terms.
        self.patterns: List[str] = [*self.matcher.names, *DEVICE_TERMS]
        #: Every suffix judged so far, by code: all tables this identifier
        #: judges share the codes, so they concatenate as they are.
        self.suffixes: Dict[str, int] = {}

    def identify(
        self,
        records: Iterable[Tuple[object, str]],
        dynamic_24s: Iterable[str],
        *,
        verdicts: Optional[Verdicts] = None,
    ) -> LeakReport:
        """Drill down from (address, hostname) records to leaking suffixes.

        ``records`` is a :class:`~repro.scan.snapshot.RecordSample` or
        any iterable of ``(address, hostname)`` pairs, which becomes one
        here.  ``dynamic_24s`` is the set of /24 keys the dynamicity
        heuristic flagged; records outside it still feed the Figure-2
        "all matches" series but cannot contribute to identification.
        Each distinct (address, hostname) pair counts once.  The names
        the sample's ids use are judged here, unless ``verdicts`` (a
        :class:`LeakWindow`'s memo) already holds them, row for id.
        """
        sample = RecordSample.of(records)
        keys = _distinct(
            (sample.addresses.astype(np.uint64) << np.uint64(32)) | sample.ids.astype(np.uint64)
        )
        ids = (keys & np.uint64(0xFFFFFFFF)).astype(np.intp)
        if verdicts is None:
            used, ids = np.unique(ids, return_inverse=True)
            verdicts = self.judge([sample.names[index] for index in used.tolist()])
        return self._fold(ids, _in_dynamic(keys >> np.uint64(40), dynamic_24s), verdicts)

    def judge(self, hostnames: Sequence[str]) -> Verdicts:
        """Steps 2-3 for distinct ``hostnames``, in bulk: one row per name.

        Row for row equal to judging each hostname alone: the given
        names and device terms its lower-cased form contains and, unless
        it is router level, its :func:`~repro.core.terms.hostname_suffix`.
        Only name-matching names get terms, a suffix and a router-level
        test.  A name whose parent zone (the labels after the first) has
        three or more labels takes its suffix from the zone and is router
        level when its first label or the zone is, so those two are
        computed once per zone; shorter names are judged whole.
        """
        first_index: Dict[str, int] = {}
        zone_index: Dict[str, int] = {}
        first_rows, zone_rows = [], []
        for name in hostnames:
            first, _, zone = name.lower().partition(LABEL_BREAK)
            first_rows.append(first_index.setdefault(first, len(first_index)))
            zone_rows.append(zone_index.setdefault(zone, len(zone_index)))
        firsts, zones = list(first_index), list(zone_index)
        first_rows, zone_rows = np.array(first_rows, np.intp), np.array(zone_rows, np.intp)

        # No pattern contains a '.', so a name holds one exactly when its
        # first label or its zone does: sweep each distinct label once.
        in_first = find_all(firsts, self.patterns)
        in_zone = find_all(zones, self.patterns)
        names = len(self.matcher.names)
        matched = np.flatnonzero(
            in_first[:, :names].any(axis=1)[first_rows] | in_zone[:, :names].any(axis=1)[zone_rows]
        )
        rows, which = np.nonzero(in_first[first_rows[matched]] | in_zone[zone_rows[matched]])

        zone_suffix = np.full(len(zones), NO_NAME, dtype=np.int64)
        zone_router = np.zeros(len(zones), dtype=bool)
        for index in _distinct(zone_rows[matched]).tolist():
            zone = zones[index].rstrip(LABEL_BREAK)
            if zone.count(LABEL_BREAK) >= 2:  # it holds the whole suffix
                zone_suffix[index] = self._code(hostname_suffix(zone))
                zone_router[index] = is_router_level(zone)
        first_router = np.zeros(len(firsts), dtype=bool)
        matched_firsts = _distinct(first_rows[matched]).tolist()
        first_router[matched_firsts] = [has_router_term(firsts[index]) for index in matched_firsts]
        suffix = np.full(len(hostnames), NO_NAME, dtype=np.int64)
        router = first_router[first_rows[matched]] | zone_router[zone_rows[matched]]
        suffix[matched] = np.where(router, ROUTER_LEVEL, zone_suffix[zone_rows[matched]])
        for row in matched[zone_suffix[zone_rows[matched]] == NO_NAME].tolist():
            hostname = hostnames[row]
            router = is_router_level(hostname)
            suffix[row] = ROUTER_LEVEL if router else self._code(hostname_suffix(hostname))
        return Verdicts(suffix, matched[rows], which)

    def _code(self, suffix: str) -> int:
        return self.suffixes.setdefault(suffix, len(self.suffixes))

    def _fold(self, rows: np.ndarray, dynamic: np.ndarray, verdicts: Verdicts) -> LeakReport:
        """Steps 1 and 4-6 over distinct records: their verdict rows and dynamic flags."""
        held = np.bincount(rows, minlength=len(verdicts.suffix))
        held_dynamic = np.bincount(rows[dynamic], minlength=len(verdicts.suffix))
        patterns, names = self.patterns, len(self.matcher.names)
        everywhere = np.bincount(
            verdicts.which, weights=held[verdicts.rows], minlength=len(patterns)
        ).astype(np.int64).tolist()

        # Steps 1, 2 and 4: dynamic, non-router records per suffix.
        scored = verdicts.suffix >= 0
        records = np.bincount(verdicts.suffix[scored], weights=held_dynamic[scored])
        codes, weights = verdicts.suffix[verdicts.rows], held_dynamic[verdicts.rows]
        keep = (codes >= 0) & (weights > 0)
        keys, inverse = np.unique(
            codes[keep] * len(patterns) + verdicts.which[keep], return_inverse=True
        )
        counts = np.bincount(inverse, weights=weights[keep], minlength=len(keys))
        by_code = list(self.suffixes)
        merged: Dict[str, SuffixStats] = {}
        for key, count in zip(keys.tolist(), counts.astype(np.int64).tolist()):
            code, index = divmod(key, len(patterns))
            suffix = by_code[code]
            stats = merged.get(suffix)
            if stats is None:
                stats = merged[suffix] = SuffixStats(suffix, records=int(records[code]))
            tally = stats.name_counts if index < names else stats.device_term_counts
            tally[patterns[index]] = count
        suffix_stats = {suffix: merged[suffix] for suffix in sorted(merged)}
        for stats in suffix_stats.values():
            stats.unique_names = set(stats.name_counts)

        # Steps 5-6.
        thresholds = self.thresholds
        identified = [
            suffix for suffix, stats in suffix_stats.items() if stats.meets(thresholds)
        ]
        filtered_names: Counter = Counter()
        filtered_terms: Counter = Counter()
        for suffix in identified:
            filtered_names.update(suffix_stats[suffix].name_counts)
            filtered_terms.update(suffix_stats[suffix].device_term_counts)

        return LeakReport(
            thresholds=thresholds,
            suffix_stats=suffix_stats,
            identified=identified,
            all_name_counts=Counter(
                {pattern: count for pattern, count in zip(patterns[:names], everywhere) if count}
            ),
            filtered_name_counts=filtered_names,
            all_device_term_counts=Counter(
                {pattern: count for pattern, count in zip(patterns[names:], everywhere[names:]) if count}
            ),
            filtered_device_term_counts=filtered_terms,
        )


class LeakWindow:
    """The leak drill-down over a sliding window of snapshot days.

    Each retained day is its record columns: its address column and, for
    each record, the row of its hostname's memoised verdict.  A day's
    distinct ids map to rows through the names they index, so the memo
    is keyed by hostname: two days whose ids name different strings (a
    counts-only day's records are encoded against a private copy of the
    pool) never share a verdict.  Adding a day judges, in bulk, only the
    hostnames no retained day holds yet; retracting one drops the
    verdicts no remaining day holds.  :meth:`report` is
    :meth:`LeakIdentifier.identify` over the union of the retained days
    with the memoised verdicts.
    """

    def __init__(self, identifier: LeakIdentifier):
        self.identifier = identifier
        #: day -> (its address column, its records' verdict rows)
        self._days: Dict[Hashable, Tuple[np.ndarray, np.ndarray]] = {}
        #: hostname -> its verdict's row, in row order
        self._rows: Dict[str, int] = {}
        self._verdicts = identifier.judge([])

    @property
    def days(self) -> List[Hashable]:
        """The retained days, in the order they were added."""
        return list(self._days)

    @property
    def memoised_hostnames(self) -> KeysView[str]:
        """The hostnames holding a memoised verdict: those the retained days hold."""
        return self._rows.keys()

    def add_day(self, day: Hashable, records: Iterable[Tuple[object, str]]) -> None:
        """Fold one day's records (a sample, or ``(address, hostname)`` pairs) in."""
        if day in self._days:
            raise ValueError(f"day {day} is already in the window")
        sample = RecordSample.of(records)
        ids, inverse = np.unique(sample.ids, return_inverse=True)
        hostnames = list(map(sample.names.__getitem__, ids.tolist()))
        rows = self._rows
        fresh = [name for name, row in zip(hostnames, map(rows.get, hostnames)) if row is None]
        if fresh:
            rows.update(zip(fresh, range(len(rows), len(rows) + len(fresh))))
            self._verdicts = self._verdicts.extended(self.identifier.judge(fresh))
        id_rows = np.fromiter(map(rows.__getitem__, hostnames), dtype=np.intp, count=len(hostnames))
        self._days[day] = (sample.addresses, id_rows[inverse])

    def retract_day(self, day: Hashable) -> None:
        """Fold one retained day back out of the window."""
        del self._days[day]
        held = _distinct(
            np.concatenate([rows for _, rows in self._days.values()] or [np.empty(0, np.intp)])
        )
        if len(held) == len(self._rows):
            return
        renumber = np.full(len(self._rows), -1, dtype=np.intp)
        renumber[held] = np.arange(len(held))
        hostnames = list(self._rows)
        self._rows = dict(zip(map(hostnames.__getitem__, held.tolist()), range(len(held))))
        self._verdicts = self._verdicts.take(held)
        self._days = {
            held_day: (addresses, renumber[rows])
            for held_day, (addresses, rows) in self._days.items()
        }

    def report(self, dynamic: Iterable[str]) -> LeakReport:
        """Steps 1-6 over the retained days for one dynamic /24 set."""
        columns = list(self._days.values())
        sample = RecordSample(
            np.concatenate([addresses for addresses, _ in columns] or [np.empty(0, np.uint32)]),
            np.concatenate([rows for _, rows in columns] or [np.empty(0, np.intp)]),
            list(self._rows),
        )
        return self.identifier.identify(sample, dynamic, verdicts=self._verdicts)
