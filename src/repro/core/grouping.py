"""Activity groups over supplemental measurement data (Section 6.1).

Measurement data points are merged by IP address and five-minute
truncated timestamp; runs of ICMP reachability become *groups* (one
address, one activity period).  Each group is then classified down the
funnel of Table 5:

* **successful responses** — the group has usable rDNS lookups for
  phase 1 (client joined: the PTR observed present) and phase 3
  (client left: post-departure lookups that are clean NOERROR/NXDOMAIN
  outcomes, no server failures or timeouts);
* **PTR reverted** — the post-departure lookups show the record
  removed (NXDOMAIN) or changed back (different hostname);
* **reliable timing alignment** — the client's departure was bracketed
  by closely spaced ICMP probes, so the last-seen time is sharp.  When
  the back-off had already grown past the five-minute phase, departure
  detection is sloppy; the paper filters these out (about 1 in 4).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dns.resolver import ResolutionStatus
from repro.netsim.simtime import HOUR, MINUTE
from repro.scan.campaign import SupplementalDataset
from repro.scan.observations import TRUNCATION, RdnsObservation
from repro.scan.storage import IcmpColumns

DEFAULT_GAP_THRESHOLD = 70 * MINUTE
DEFAULT_POST_WINDOW = 26 * HOUR
#: Departure is "sharp" when the bracketing ICMP samples sit at most
#: this far apart.  The hourly sweep plus the reactive tail typically
#: keeps spacing near 30 minutes; departures bracketed only by
#: hour-spaced samples are the sloppy quarter the paper drops.
DEFAULT_RELIABLE_GAP = 30 * MINUTE


@dataclass
class ActivityGroup:
    """One client activity period at one address."""

    group_id: int
    address: object
    network: str
    icmp_times: List[int]
    rdns: List[RdnsObservation] = field(default_factory=list)

    @property
    def start(self) -> int:
        return self.icmp_times[0]

    @property
    def end(self) -> int:
        """Timestamp of the last ICMP sample (client last seen)."""
        return self.icmp_times[-1]

    # -- phase-level views ---------------------------------------------------

    def phase1_hostname(self) -> Optional[str]:
        """The PTR value observed while the client was present."""
        for observation in self.rdns:
            if self.start - 5 * MINUTE <= observation.at <= self.end and observation.ok:
                return observation.hostname
        return None

    def post_departure(self) -> List[RdnsObservation]:
        return [obs for obs in self.rdns if obs.at > self.end]

    # -- funnel classification ---------------------------------------------------

    @property
    def successful(self) -> bool:
        hostname = self.phase1_hostname()
        if hostname is None:
            return False
        post = self.post_departure()
        if not post:
            return False
        for observation in post:
            if observation.status in (
                ResolutionStatus.SERVFAIL,
                ResolutionStatus.TIMEOUT,
                ResolutionStatus.REFUSED,
            ):
                # A failed lookup leaves the removal moment uncertain:
                # the record may have vanished inside the blind spot, so
                # the group cannot count as a clean success (Section 6.2).
                return False
            if observation.status is ResolutionStatus.NXDOMAIN:
                return True  # clean sequence up to the removal signal
        return True

    @property
    def reverted(self) -> bool:
        """The PTR was removed or changed after the client left."""
        hostname = self.phase1_hostname()
        if hostname is None:
            return False
        for observation in self.post_departure():
            if observation.status is ResolutionStatus.NXDOMAIN:
                return True
            if observation.ok and observation.hostname != hostname:
                return True
        return False

    def removal_time(self) -> Optional[int]:
        """When the record was first observed gone (or changed)."""
        hostname = self.phase1_hostname()
        for observation in self.post_departure():
            if observation.status is ResolutionStatus.NXDOMAIN:
                return observation.at
            if observation.ok and hostname is not None and observation.hostname != hostname:
                return observation.at
        return None

    def icmp_sampling_gap_at_end(self, default: int = HOUR) -> int:
        """Spacing of the ICMP samples bracketing the departure."""
        if len(self.icmp_times) < 2:
            return default
        return self.icmp_times[-1] - self.icmp_times[-2]

    def reliable(self, max_gap: int = DEFAULT_RELIABLE_GAP) -> bool:
        return self.icmp_sampling_gap_at_end() <= max_gap

    def lingering_seconds(self) -> Optional[int]:
        """Seconds between last ICMP sample and observed PTR removal."""
        removal = self.removal_time()
        if removal is None:
            return None
        return removal - self.end


@dataclass
class GroupFunnel:
    """The Table 5 breakdown."""

    all_groups: int
    successful: int
    reverted: int
    reliable: int

    def rows(self) -> List[Tuple[str, int, float]]:
        """(label, count, fraction-of-parent) rows, Table 5 layout."""

        def fraction(part: int, whole: int) -> float:
            return 100.0 * part / whole if whole else 0.0

        return [
            ("All groups", self.all_groups, 100.0),
            ("Successful responses", self.successful, fraction(self.successful, self.all_groups)),
            ("PTR reverted", self.reverted, fraction(self.reverted, self.successful)),
            ("Reliable timing alignment", self.reliable, fraction(self.reliable, self.reverted)),
        ]


class GroupBuilder:
    """Builds and classifies activity groups from a supplemental dataset."""

    def __init__(
        self,
        *,
        gap_threshold: int = DEFAULT_GAP_THRESHOLD,
        post_window: int = DEFAULT_POST_WINDOW,
        reliable_gap: int = DEFAULT_RELIABLE_GAP,
    ):
        if gap_threshold <= 0 or post_window <= 0:
            raise ValueError("thresholds must be positive")
        self.gap_threshold = gap_threshold
        self.post_window = post_window
        self.reliable_gap = reliable_gap

    def build(self, dataset: SupplementalDataset) -> List[ActivityGroup]:
        """Group the dataset's observations by address and activity run.

        One sort of the ICMP columns by (address, 5-minute truncated
        time), duplicates dropped; a run ends where the address changes
        or the gap exceeds ``gap_threshold``.  An address's network is
        that of its last row in dataset order.
        """
        icmp = dataset.icmp
        if not isinstance(icmp, IcmpColumns):
            icmp = IcmpColumns()
            icmp.extend(dataset.icmp)
        rows, ats, network_ids = icmp.columns()
        if not len(rows):
            return []
        # np.unique keeps first occurrences: over reversed rows, each address's last.
        unique, last = np.unique(rows[::-1], return_index=True)
        network_of = dict(zip(unique.tolist(), network_ids[::-1][last].tolist()))
        times = ats // TRUNCATION * TRUNCATION
        order = np.lexsort((times, rows))
        addresses, times = rows[order], times[order]
        fresh = np.ones(len(times), dtype=bool)
        fresh[1:] = (addresses[1:] != addresses[:-1]) | (times[1:] != times[:-1])
        addresses, times = addresses[fresh], times[fresh]
        splits = np.flatnonzero(
            (addresses[1:] != addresses[:-1]) | (np.diff(times) > self.gap_threshold)
        ) + 1
        addresses, times = addresses.tolist(), times.tolist()
        starts = [0] + splits.tolist()
        stops = starts[1:] + [len(times)]

        rdns_by_address: Dict[int, List[RdnsObservation]] = {}
        for observation in sorted(dataset.rdns, key=lambda o: o.at):
            rdns_by_address.setdefault(int(observation.address), []).append(observation)
        networks = icmp.networks
        groups: List[ActivityGroup] = []
        for group_id, (first, stop) in enumerate(zip(starts, stops)):
            value = addresses[first]
            run = times[first:stop]
            # Lookups in [first - 30 min, last + post_window]: an exclusive stop.
            window_start = run[0] - 30 * MINUTE
            window_stop = run[-1] + self.post_window + 1
            if stop < len(times) and addresses[stop] == value:
                # Adjacent windows must not overlap: clamp at the next group's start.
                window_stop = min(window_stop, times[stop])
            lookups = rdns_by_address.get(value, ())
            groups.append(
                ActivityGroup(
                    group_id=group_id,
                    address=ipaddress.IPv4Address(value),
                    network=networks[network_of[value]],
                    icmp_times=run,
                    rdns=[obs for obs in lookups if window_start <= obs.at < window_stop],
                )
            )
        return groups

    def funnel(self, groups: List[ActivityGroup]) -> GroupFunnel:
        """Classify groups down the Table 5 funnel."""
        successful = [group for group in groups if group.successful]
        reverted = [group for group in successful if group.reverted]
        reliable = [group for group in reverted if group.reliable(self.reliable_gap)]
        return GroupFunnel(
            all_groups=len(groups),
            successful=len(successful),
            reverted=len(reverted),
            reliable=len(reliable),
        )

    def usable(self, groups: List[ActivityGroup]) -> List[ActivityGroup]:
        """Groups that survive the whole funnel (419,453 in the paper)."""
        return [
            group
            for group in groups
            if group.successful and group.reverted and group.reliable(self.reliable_gap)
        ]
