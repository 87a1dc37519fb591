"""Identifying privacy-leaking networks (Section 5.1).

Starting from /24s flagged by the dynamicity heuristic, the pipeline:

1. keeps PTR records inside dynamic /24s;
2. excludes router-level records (generic location/interface terms);
3. matches the rest against the given-name list, and notes the
   Figure-3 device terms each record carries (both are lower-cased
   substring tests: :meth:`GivenNameMatcher.match` and
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

Steps 2-3 depend only on the hostname, so each hostname gets one
memoised verdict, and a :class:`LeakWindow` folds verdicts into per-/24
partials that steps 1 and 4-6 sum on demand.  The query service slides
one window a day at a time; :meth:`LeakIdentifier.identify` is the same
fold over one sample.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, KeysView, List, Optional, Set, Tuple

from repro.core.names import GivenNameMatcher
from repro.core.terms import device_terms_in, hostname_suffix, is_router_level
from repro.netsim.network import slash24_of


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


#: One hostname's verdict: its matched given names, its device terms
#: (both sorted tuples) and its suffix (``None`` for router-level names,
#: which feed only the Figure 2-3 "all" series).  A hostname matching no
#: given name has no verdict (``None``): its records contribute to nothing.
Verdict = Tuple[Tuple[str, ...], Tuple[str, ...], Optional[str]]

Record = Tuple[object, str]


class LeakIdentifier:
    """Steps 1-6 over a sample of PTR records: one fold into a fresh window."""

    def __init__(
        self,
        matcher: GivenNameMatcher = None,
        thresholds: LeakThresholds = LeakThresholds(),
    ):
        self.matcher = matcher or GivenNameMatcher()
        self.thresholds = thresholds

    def identify(
        self,
        records: Iterable[Record],
        dynamic_24s: Iterable[str],
    ) -> LeakReport:
        """Drill down from (address, hostname) records to leaking suffixes.

        ``dynamic_24s`` is the set of /24 keys the dynamicity heuristic
        flagged; records outside it still feed the Figure-2 "all
        matches" series but cannot contribute to identification.  Each
        distinct (address, hostname) pair counts once.
        """
        window = LeakWindow(self)
        window.add_day(None, records)
        return window.report(dynamic_24s)

    def verdict(self, hostname: str) -> Optional[Verdict]:
        """Steps 2-3 for one hostname, independent of its address."""
        names = self.matcher.match(hostname)
        if not names:
            return None
        suffix = None if is_router_level(hostname) else hostname_suffix(hostname)
        # Tuples, not sets: the window memoises one verdict per hostname.
        terms = device_terms_in(hostname)
        return tuple(sorted(names)), tuple(sorted(terms)), suffix


class _Partial:
    """One suffix's records, name and device-term counts inside one /24."""

    __slots__ = ("records", "names", "terms")

    def __init__(self) -> None:
        self.records = 0
        self.names: Counter = Counter()
        self.terms: Counter = Counter()


def _discount(counter: Counter, keys: Iterable[str]) -> None:
    """Take one of each key out of ``counter``, deleting counts that reach 0."""
    for key in keys:
        if counter[key] == 1:
            del counter[key]
        else:
            counter[key] -= 1


class LeakWindow:
    """The leak drill-down over a sliding window of snapshot days.

    A record's contribution depends only on its hostname's
    :meth:`~LeakIdentifier.verdict` and its /24, so the window keeps
    per-/24 partials instead of records: adding a day folds in the
    (address, hostname) pairs no retained day held yet, retracting a
    day folds out the pairs no other retained day holds, and
    :meth:`report` sums the partials of whichever /24s are dynamic at
    that moment.  Verdicts are memoised for the hostnames the retained
    days hold, and dropped with the last day holding them.
    """

    def __init__(self, identifier: LeakIdentifier):
        self.identifier = identifier
        #: day -> (its distinct hostnames, its name-matching pairs)
        self._days: Dict[Hashable, Tuple[Tuple[str, ...], Tuple[Record, ...]]] = {}
        #: name-matching pair -> times the retained days hold it
        self._pairs: Dict[Record, int] = {}
        #: /24 key -> {suffix: partial}
        self._partials: Dict[str, Dict[str, _Partial]] = {}
        self._all_names: Counter = Counter()
        self._all_terms: Counter = Counter()
        self._verdicts: Dict[str, Optional[Verdict]] = {}
        #: hostname -> number of retained days holding it
        self._holders: Dict[str, int] = {}

    @property
    def days(self) -> List[Hashable]:
        """The retained days, in the order they were added."""
        return list(self._days)

    @property
    def memoised_hostnames(self) -> KeysView[str]:
        """The hostnames holding a memoised verdict: those the retained days hold."""
        return self._verdicts.keys()

    def add_day(self, day: Hashable, records: Iterable[Record]) -> None:
        """Fold one day's (address, hostname) records into the window."""
        if day in self._days:
            raise ValueError(f"day {day} is already in the window")
        # A pair repeated within the day is simply held twice by it.
        records = list(records)
        hostnames = tuple({hostname for _, hostname in records})
        verdicts, holders = self._verdicts, self._holders
        for hostname in hostnames:
            if hostname in holders:
                holders[hostname] += 1
            else:
                holders[hostname] = 1
                verdicts[hostname] = self.identifier.verdict(hostname)
        matched = tuple(pair for pair in records if verdicts[pair[1]] is not None)
        for pair in matched:
            held = self._pairs.get(pair, 0)
            self._pairs[pair] = held + 1
            if not held:
                self._fold_in(pair[0], verdicts[pair[1]])
        self._days[day] = (hostnames, matched)

    def retract_day(self, day: Hashable) -> None:
        """Fold one retained day back out of the window."""
        hostnames, matched = self._days.pop(day)
        for pair in matched:
            held = self._pairs[pair] - 1
            if held:
                self._pairs[pair] = held
            else:
                del self._pairs[pair]
                self._fold_out(pair[0], self._verdicts[pair[1]])
        verdicts, holders = self._verdicts, self._holders
        for hostname in hostnames:
            if holders[hostname] == 1:
                del holders[hostname]
                del verdicts[hostname]
            else:
                holders[hostname] -= 1

    def _fold_in(self, address: object, verdict: Verdict) -> None:
        names, terms, suffix = verdict
        self._all_names.update(names)
        self._all_terms.update(terms)
        if suffix is None:
            return  # step 2: router-level records never identify
        partials = self._partials.setdefault(slash24_of(address), {})
        partial = partials.get(suffix)
        if partial is None:
            partial = partials[suffix] = _Partial()
        partial.records += 1
        partial.names.update(names)
        partial.terms.update(terms)

    def _fold_out(self, address: object, verdict: Verdict) -> None:
        names, terms, suffix = verdict
        _discount(self._all_names, names)
        _discount(self._all_terms, terms)
        if suffix is None:
            return
        prefix = slash24_of(address)
        partials = self._partials[prefix]
        partial = partials[suffix]
        partial.records -= 1
        if not partial.records:
            del partials[suffix]
            if not partials:
                del self._partials[prefix]
            return
        _discount(partial.names, names)
        _discount(partial.terms, terms)

    def report(self, dynamic: Iterable[str]) -> LeakReport:
        """Steps 1 and 4-6 over the window for one dynamic /24 set."""
        merged: Dict[str, SuffixStats] = {}
        for prefix in sorted(self._partials.keys() & dynamic):
            for suffix, partial in self._partials[prefix].items():
                stats = merged.get(suffix)
                if stats is None:
                    stats = merged[suffix] = SuffixStats(suffix)
                stats.records += partial.records
                stats.name_counts.update(partial.names)
                stats.device_term_counts.update(partial.terms)
        suffix_stats = {suffix: merged[suffix] for suffix in sorted(merged)}
        for stats in suffix_stats.values():
            stats.unique_names = set(stats.name_counts)

        thresholds = self.identifier.thresholds
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
            all_name_counts=Counter(self._all_names),
            filtered_name_counts=filtered_names,
            all_device_term_counts=Counter(self._all_terms),
            filtered_device_term_counts=filtered_terms,
        )
