"""Straightforward reference implementations kept as test oracles.

None of these is used by the pipeline.  Property tests pin the
production code to them bit-for-bit, and the throughput benchmarks
time them as the baseline side:

* :class:`DictReferenceAnalyzer` — the row-oriented ``{date: {prefix:
  count}}`` form of the Section 4.1 dynamicity heuristic, against which
  :class:`~repro.core.dynamicity.DynamicityAnalyzer` and
  :class:`~repro.core.dynamicity.IncrementalDynamicityAnalyzer` are
  checked;
* :class:`ReferenceEngine` — the single binary-heap event scheduler,
  against which the calendar-queue
  :class:`~repro.netsim.engine.SimulationEngine` is checked;
* :func:`enumerated_slash24_sample` and the ``enumerated_*_entries``
  factories — background /24 selection and static record sets built
  by enumerating every /24 of a prefix and every address of a /24,
  against which the index-based :mod:`repro.netsim.population`
  builders are checked;
* :func:`reference_identify` — the record-at-a-time Section 5.1
  drill-down, against which the columnar fold of
  :meth:`~repro.core.leaks.LeakIdentifier.identify` (and so
  :class:`~repro.core.leaks.LeakWindow`) is checked;
* :func:`reference_verdict` — steps 2-3 for one hostname, against
  which the bulk verdicts of :meth:`~repro.core.leaks.LeakIdentifier.judge`
  are checked;
* :func:`naive_find_unique` — the patterns occurring in a text, against
  which :class:`~repro.core.names.GivenNameMatcher` is checked;
* :func:`reference_presence` — device presence from the full list of
  joined sessions, against which :class:`~repro.netsim.device.DaySessions`
  (and so the snapshot walk) is checked;
* :func:`reference_groups` — activity groups built from observation
  objects, one address dict at a time, against which the columnar
  :meth:`~repro.core.grouping.GroupBuilder.build` is checked; it merges
  ICMP rows on :func:`truncate`, the five-minute key of one timestamp;
* :func:`reference_dataset_stats` — Tables 3 and 4 counted with sets of
  observation objects, against which the NumPy counts of
  :class:`~repro.scan.campaign.SupplementalDataset` are checked.
"""

import datetime as dt
import heapq
import ipaddress
import random
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.dynamicity import (
    DailyCounts,
    DynamicityAnalyzer,
    DynamicityReport,
    DynamicityThresholds,
    PrefixDynamicity,
    _effective_min_transitions,
)
from repro.core.grouping import ActivityGroup, GroupBuilder
from repro.core.leaks import LeakIdentifier, LeakReport, SuffixStats
from repro.core.terms import device_terms_in, hostname_suffix, is_router_level
from repro.datasets.names import name_popularity_weights
from repro.netsim.engine import (
    _AT,
    _CALLBACK,
    _CANCELLED,
    _EXECUTED,
    Callback,
    EventHandle,
    SimulationEngine,
)
from repro.netsim.device import Device
from repro.netsim.network import slash24_of
from repro.netsim.population import (
    _ROUTER_INTERFACES,
    _ROUTER_LOCATIONS,
    _ROUTER_ROLES,
    _SERVER_LABELS,
)
from repro.netsim.simtime import MINUTE
from repro.scan.observations import TRUNCATION
from repro.scan.snapshot import SnapshotSeries


class DictReferenceAnalyzer:
    """The row-oriented dynamicity heuristic, one prefix history at a time."""

    def __init__(self, thresholds: DynamicityThresholds = DynamicityThresholds()):
        self.thresholds = thresholds

    def analyze(
        self,
        series: Union[SnapshotSeries, DailyCounts],
        *,
        cadence_days: Optional[int] = None,
        allow_coarse_cadence: bool = False,
    ) -> DynamicityReport:
        if isinstance(series, SnapshotSeries):
            days = series.days
            counts_for = series.counts_view
            if cadence_days is None:
                cadence_days = series.cadence_days
        else:
            days = sorted(series)
            counts_for = lambda day: series[day]  # noqa: E731 - tiny adapter
            if cadence_days is None:
                cadence_days = DynamicityAnalyzer._infer_cadence(days)
        if not days:
            raise ValueError("the series holds no days")
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        min_transitions = _effective_min_transitions(
            self.thresholds, cadence_days, allow_coarse_cadence
        )

        daily: List[Mapping[str, int]] = [counts_for(day) for day in days]
        all_prefixes = set()
        for counts in daily:
            all_prefixes.update(counts)

        report = DynamicityReport(
            self.thresholds,
            total_observed=len(all_prefixes),
            cadence_days=cadence_days,
            effective_min_change_transitions=min_transitions,
        )
        minimum = self.thresholds.min_daily_addresses
        observed_days = (len(days) - 1) * cadence_days + 1
        for prefix in all_prefixes:
            history = [counts.get(prefix, 0) for counts in daily]
            max_daily = max(history)
            if max_daily <= minimum:
                continue  # step 1: discard small prefixes
            change_days = self._count_change_days(history, max_daily)
            report.prefixes[prefix] = PrefixDynamicity(
                prefix=prefix,
                max_daily=max_daily,
                change_days=change_days,
                observed_days=observed_days,
                is_dynamic=change_days >= min_transitions,
            )
        return report

    def _count_change_days(self, history: List[int], max_daily: int) -> int:
        threshold = self.thresholds.change_percent
        change_days = 0
        for yesterday, today in zip(history, history[1:]):
            change_percent = 100.0 * abs(today - yesterday) / max_daily
            if change_percent > threshold:
                change_days += 1
        return change_days


class ReferenceEngine(SimulationEngine):
    """The single binary-heap scheduler.

    Semantically identical to :class:`SimulationEngine` — same
    ``(at, seq)`` total order, same tie-breaking, same cancellation
    sentinels — but with every event in one global heap.
    """

    def __init__(self, start: int = 0):
        super().__init__(start)
        self._queue: List[list] = []

    def schedule(self, at: int, callback: Callback) -> EventHandle:
        if at < self.now:
            raise ValueError(f"cannot schedule in the past ({at} < {self.now})")
        entry = [at, next(self._seq), callback]
        heapq.heappush(self._queue, entry)
        self._live += 1
        if self._live > self.queue_high_water:
            self.queue_high_water = self._live
        return EventHandle(entry, self)

    def _pop_due(self, end: Optional[int]) -> Optional[Callback]:
        queue = self._queue
        while queue and (end is None or queue[0][_AT] <= end):
            entry = heapq.heappop(queue)
            callback = entry[_CALLBACK]
            if callback is _CANCELLED:
                continue
            entry[_CALLBACK] = _EXECUTED
            self._live -= 1
            self.clock.advance_to(entry[_AT])
            return callback
        return None


#: One hostname's verdict: its matched given names, its device terms
#: (both sorted tuples) and its suffix (``None`` for router-level names).
#: A hostname matching no given name has no verdict (``None``).
Verdict = Tuple[Tuple[str, ...], Tuple[str, ...], Optional[str]]


def reference_verdict(identifier: LeakIdentifier, hostname: str) -> Optional[Verdict]:
    """Steps 2-3 for one hostname, independent of its address."""
    names = identifier.matcher.match(hostname)
    if not names:
        return None
    suffix = None if is_router_level(hostname) else hostname_suffix(hostname)
    return tuple(sorted(names)), tuple(sorted(device_terms_in(hostname))), suffix


def reference_identify(
    identifier: LeakIdentifier,
    records: Iterable[Tuple[object, str]],
    dynamic_24s: Iterable[str],
) -> LeakReport:
    """Steps 1-6 one record at a time, with ``identifier``'s matcher
    and thresholds.  Every record counts, so pass
    deduplicated records to compare with the fold."""
    dynamic = set(dynamic_24s)
    suffix_stats: Dict[str, SuffixStats] = {}
    all_names: Counter = Counter()
    all_terms: Counter = Counter()

    for address, hostname in records:
        matched = identifier.matcher.match(hostname)
        if matched:
            all_names.update(matched)
            all_terms.update(device_terms_in(hostname))
        if slash24_of(address) not in dynamic:
            continue  # step 1: only dynamic space can identify
        if is_router_level(hostname):
            continue  # step 2: exclude router-level records
        if not matched:
            continue  # step 3: given-name match required
        suffix = hostname_suffix(hostname)
        stats = suffix_stats.get(suffix)
        if stats is None:
            stats = suffix_stats[suffix] = SuffixStats(suffix)
        stats.records += 1
        stats.unique_names.update(matched)
        stats.name_counts.update(matched)
        stats.device_term_counts.update(device_terms_in(hostname))

    identified = sorted(
        suffix
        for suffix, stats in suffix_stats.items()
        if stats.meets(identifier.thresholds)
    )
    filtered_names: Counter = Counter()
    filtered_terms: Counter = Counter()
    for suffix in identified:
        filtered_names.update(suffix_stats[suffix].name_counts)
        filtered_terms.update(suffix_stats[suffix].device_term_counts)

    return LeakReport(
        thresholds=identifier.thresholds,
        suffix_stats=suffix_stats,
        identified=identified,
        all_name_counts=all_names,
        filtered_name_counts=filtered_names,
        all_device_term_counts=all_terms,
        filtered_device_term_counts=filtered_terms,
    )


def enumerated_slash24_sample(prefix: str, rng: random.Random, needed: int) -> List[str]:
    """Background /24 selection by enumerating every /24 of ``prefix``."""
    slash24s = list(ipaddress.IPv4Network(prefix).subnets(new_prefix=24))
    if needed > len(slash24s):
        raise ValueError(f"{prefix} holds only {len(slash24s)} /24s, need {needed}")
    return [str(subnet) for subnet in rng.sample(slash24s, needed)]


def enumerated_server_entries(prefix: str, suffix: str, *, count: Optional[int] = None):
    addresses = list(ipaddress.IPv4Network(prefix))[1:-1]
    labels = list(_SERVER_LABELS)
    total = count if count is not None else min(len(addresses), len(labels) + 16)
    while len(labels) < total:
        labels.append(f"srv{len(labels):02d}")
    return [
        (addresses[index], f"{labels[index]}.{suffix}")
        for index in range(min(total, len(addresses)))
    ]


def enumerated_infrastructure_entries(
    prefix: str, suffix: str, rng: random.Random, *, count: int = 24
):
    addresses = list(ipaddress.IPv4Network(prefix))[1:-1]
    entries = []
    for index in range(min(count, len(addresses))):
        interface = rng.choice(_ROUTER_INTERFACES)
        role = rng.choice(_ROUTER_ROLES)
        location = rng.choice(_ROUTER_LOCATIONS)
        entries.append((addresses[index], f"{interface}.{role}.{location}.{suffix}"))
    return entries


def enumerated_vanity_entries(prefix: str, suffix: str, rng: random.Random, *, count: int = 8):
    addresses = list(ipaddress.IPv4Network(prefix))[1:-1]
    weights = name_popularity_weights()
    names = list(weights)
    name_weights = [weights[name] for name in names]
    entries = []
    for index in range(min(count, len(addresses))):
        name = rng.choices(names, weights=name_weights, k=1)[0]
        style = rng.choice(
            [
                "{name}", "{name}-pc", "{name}-ws", "{name}-desk", "{name}{n}",
                "{name}-laptop", "{name}-desktop", "{name}-macbook",
            ]
        )
        label = style.format(name=name, n=rng.randrange(1, 99))
        entries.append((addresses[index], f"{label}.{suffix}"))
    return entries


def naive_find_unique(patterns: Iterable[str], text: str) -> FrozenSet[str]:
    """The distinct patterns occurring anywhere in ``text`` (case-sensitive)."""
    return frozenset(pattern for pattern in patterns if pattern in text)


def reference_presence(
    device: Device, day: dt.date, offset: Optional[int], rngs, factor: float = 1.0
) -> bool:
    """Draw the owner's sessions, keep those the device joins (one
    participation draw per session), then test ``offset`` against what
    is left (any session at all when ``offset`` is None)."""
    owner_key = device.owner_id or device.device_id
    ordinal = day.toordinal()
    sessions = device.profile.sessions_for_day(
        day, rngs.fresh("sessions", owner_key, ordinal), factor
    )
    if sessions and device.session_participation < 1.0:
        device_rng = rngs.fresh("participation", device.device_id, ordinal)
        sessions = [s for s in sessions if device_rng.random() < device.session_participation]
    if offset is None:
        return bool(sessions)
    return any(session.contains(offset) for session in sessions)


def truncate(timestamp: int, granularity: int = TRUNCATION) -> int:
    """``timestamp`` rounded down to a multiple of ``granularity``."""
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    return (timestamp // granularity) * granularity


def reference_groups(builder: GroupBuilder, dataset) -> List[ActivityGroup]:
    """Section 6.1 groups from the dataset's observation objects.

    ICMP rows merge per address on their 5-minute truncated time; each
    address's sorted distinct times split into runs at gaps over
    ``builder.gap_threshold``; each run's rDNS window is
    ``[first - 30 min, last + builder.post_window]``, then clamped
    below the start of the address's next run.
    """
    icmp_by_address: Dict[object, List[int]] = {}
    network_of: Dict[object, str] = {}
    for observation in dataset.icmp:
        icmp_by_address.setdefault(observation.address, []).append(truncate(observation.at))
        network_of[observation.address] = observation.network
    rdns_by_address: Dict[object, list] = {}
    for observation in dataset.rdns:
        rdns_by_address.setdefault(observation.address, []).append(observation)

    groups: List[ActivityGroup] = []
    for address in sorted(icmp_by_address, key=int):
        runs: List[List[int]] = []
        for timestamp in sorted(set(icmp_by_address[address])):
            if runs and timestamp - runs[-1][-1] <= builder.gap_threshold:
                runs[-1].append(timestamp)
            else:
                runs.append([timestamp])
        lookups = sorted(rdns_by_address.get(address, []), key=lambda o: o.at)
        for index, run in enumerate(runs):
            window_start = run[0] - 30 * MINUTE
            window_end = run[-1] + builder.post_window
            rdns = [obs for obs in lookups if window_start <= obs.at <= window_end]
            if index + 1 < len(runs):
                rdns = [obs for obs in rdns if obs.at < runs[index + 1][0]]
            groups.append(
                ActivityGroup(
                    group_id=len(groups),
                    address=address,
                    network=network_of[address],
                    icmp_times=run,
                    rdns=rdns,
                )
            )
    return groups


def reference_dataset_stats(dataset) -> Tuple[tuple, tuple, list]:
    """``(icmp_stats, rdns_stats, table4_rows)`` from sets of observation objects."""
    icmp = (len(dataset.icmp), len({obs.address for obs in dataset.icmp}))
    rdns = (
        len(dataset.rdns),
        len({obs.address for obs in dataset.rdns}),
        len({obs.hostname for obs in dataset.rdns if obs.ok}),
    )
    rows = []
    for name, targets in dataset.targets_by_network.items():
        observed = len({obs.address for obs in dataset.icmp if obs.network == name})
        size = dataset.target_sizes.get(name, 0)
        percent = 100.0 * observed / size if size else 0.0
        rows.append((name, dataset.network_types[name].value, ", ".join(targets), observed, percent))
    return icmp, rdns, rows
