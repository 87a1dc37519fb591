"""Occupancy analyses: work-from-home and heist timing (Sections 7.2-7.3).

* :func:`relative_daily_presence` — daily PTR counts for a network as a
  percentage of the maximum observed (the y-axis of Figure 9);
* :func:`subnet_presence_split` — the same, split by subnet group
  (education buildings vs student housing: Figure 10);
* :func:`hourly_activity` and :class:`HeistPlanner` — hourly activity
  from supplemental data and the least-populated hour (Figure 11).
"""

from __future__ import annotations

import datetime as dt
import ipaddress
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.netsim.simtime import HOUR, date_of, hour_of_day, is_weekend
from repro.scan.campaign import SupplementalDataset
from repro.scan.snapshot import SnapshotSeries

Prefixable = Union[str, ipaddress.IPv4Network]


def _slash24_in(prefix: ipaddress.IPv4Network, key: str) -> bool:
    return ipaddress.IPv4Network(key).subnet_of(prefix)


def daily_totals_for_prefixes(
    series: SnapshotSeries, prefixes: Sequence[Prefixable]
) -> Dict[dt.date, int]:
    """Per-day PTR record totals inside the given prefixes."""
    networks = [ipaddress.IPv4Network(prefix) for prefix in prefixes]
    totals: Dict[dt.date, int] = {}
    membership_cache: Dict[str, bool] = {}
    for day in series.days:
        total = 0
        for key, count in series.counts_view(day).items():
            inside = membership_cache.get(key)
            if inside is None:
                inside = any(_slash24_in(network, key) for network in networks)
                membership_cache[key] = inside
            if inside:
                total += count
        totals[day] = total
    return totals


def relative_daily_presence(
    series: SnapshotSeries, prefixes: Sequence[Prefixable]
) -> Dict[dt.date, float]:
    """Daily totals as a percentage of the maximum observed (Figure 9)."""
    totals = daily_totals_for_prefixes(series, prefixes)
    peak = max(totals.values(), default=0)
    if peak == 0:
        return {day: 0.0 for day in totals}
    return {day: 100.0 * count / peak for day, count in totals.items()}


def subnet_presence_split(
    series: SnapshotSeries, groups: Mapping[str, Sequence[Prefixable]]
) -> Dict[str, Dict[dt.date, float]]:
    """Relative presence per named subnet group (Figure 10).

    ``groups`` maps a label ("Educational buildings", "Student
    housing") to the prefixes belonging to it; each group is
    normalised to its own maximum, as in the paper's figure.
    """
    return {
        label: relative_daily_presence(series, prefixes)
        for label, prefixes in groups.items()
    }


def crossover_dates(
    first: Mapping[dt.date, float], second: Mapping[dt.date, float]
) -> List[dt.date]:
    """Days where the (first - second) series changes sign.

    Used to locate the March-2020 education/housing crossover.
    """
    days = sorted(set(first) & set(second))
    crossings = []
    previous_sign = 0
    for day in days:
        difference = first[day] - second[day]
        sign = (difference > 0) - (difference < 0)
        if sign and previous_sign and sign != previous_sign:
            crossings.append(day)
        if sign:
            previous_sign = sign
    return crossings


# -- Figure 11: the heist ---------------------------------------------------------


def hourly_activity(
    dataset: SupplementalDataset, network: str
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(ICMP, rDNS) activity per hour-start timestamp for one network.

    Counts distinct addresses per wall-clock hour, from ICMP responses
    and from successful rDNS observations respectively.
    """
    icmp_sets: Dict[int, set] = defaultdict(set)
    for observation in dataset.icmp:
        if observation.network == network:
            icmp_sets[(observation.at // HOUR) * HOUR].add(observation.address)
    rdns_sets: Dict[int, set] = defaultdict(set)
    for observation in dataset.rdns:
        if observation.network == network and observation.ok:
            rdns_sets[(observation.at // HOUR) * HOUR].add(observation.address)
    return (
        {hour: len(addresses) for hour, addresses in icmp_sets.items()},
        {hour: len(addresses) for hour, addresses in rdns_sets.items()},
    )


@dataclass
class HeistPlan:
    """The planner's recommendation.

    ``samples_by_hour`` counts how many measured hours back each
    average; under fault injection (lost probes, failed lookups) a
    recommendation resting on very few samples deserves suspicion.
    """

    hour_of_day: int
    average_activity: float
    activity_by_hour: Dict[int, float]
    samples_by_hour: Dict[int, int] = field(default_factory=dict)

    def min_samples(self) -> int:
        """The thinnest evidence behind any hour's average."""
        return min(self.samples_by_hour.values(), default=0)


class HeistPlanner:
    """Finds the quietest hour of the day from measurement data alone.

    "Ideally, from the robber's perspective, they are able to determine
    the point in time at which the fewest dynamic clients are around"
    (Section 7.3).  The paper's example lands at approximately 6 AM on
    weekdays.
    """

    def __init__(self, dataset: SupplementalDataset, network: str):
        self.dataset = dataset
        self.network = network

    def plan(
        self,
        *,
        source: str = "rdns",
        weekdays_only: bool = True,
        start: Optional[dt.date] = None,
        end: Optional[dt.date] = None,
    ) -> HeistPlan:
        """Average per-hour-of-day activity; recommend the minimum.

        ``source`` is "rdns" (works even against ping-blocking
        networks) or "icmp".
        """
        if source not in ("rdns", "icmp"):
            raise ValueError("source must be 'rdns' or 'icmp'")
        icmp_hours, rdns_hours = hourly_activity(self.dataset, self.network)
        hours = rdns_hours if source == "rdns" else icmp_hours
        sums: Dict[int, float] = defaultdict(float)
        counts: Dict[int, int] = defaultdict(int)
        for hour_start, active in hours.items():
            day = date_of(hour_start)
            if weekdays_only and is_weekend(hour_start):
                continue
            if start is not None and day < start:
                continue
            if end is not None and day > end:
                continue
            hour = hour_of_day(hour_start)
            sums[hour] += active
            counts[hour] += 1
        if not counts:
            raise ValueError(f"no {source} activity data for {self.network}")
        averages = {hour: sums[hour] / counts[hour] for hour in counts}
        best_hour = min(averages, key=lambda hour: (averages[hour], hour))
        return HeistPlan(
            hour_of_day=best_hour,
            average_activity=averages[best_hour],
            activity_by_hour=dict(sorted(averages.items())),
            samples_by_hour=dict(sorted(counts.items())),
        )
