"""Tracking named client devices over time (Section 7.1, Figure 8).

From reverse-DNS observations alone — "anyone with the capability to
do frequent PTR lookups can capture the same patterns" — the tracker
selects hostnames containing a given name and reconstructs each
device's presence timeline, keyed by the hostname's first label (the
device identity: ``brians-mbp``, ``brians-galaxy-note9``, ...).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dns.resolver import ResolutionStatus
from repro.netsim.simtime import date_of
from repro.scan.observations import RdnsObservation


@dataclass
class TrackedDevice:
    """One hostname label's observation history."""

    label: str
    #: (timestamp, address) pairs for every successful observation.
    sightings: List[Tuple[int, object]] = field(default_factory=list)

    @property
    def first_seen(self) -> int:
        return self.sightings[0][0]

    @property
    def last_seen(self) -> int:
        return self.sightings[-1][0]

    def addresses(self) -> List[object]:
        """Distinct addresses, in first-seen order (Figure 8's colours)."""
        seen: Set[object] = set()
        ordered = []
        for _, address in self.sightings:
            if address not in seen:
                seen.add(address)
                ordered.append(address)
        return ordered

    def days_seen(self) -> List[dt.date]:
        return sorted({date_of(timestamp) for timestamp, _ in self.sightings})

    def seen_on(self, day: dt.date) -> bool:
        return day in {date_of(timestamp) for timestamp, _ in self.sightings}

    def presence_by_day(self) -> Dict[dt.date, List[Tuple[int, object]]]:
        by_day: Dict[dt.date, List[Tuple[int, object]]] = {}
        for timestamp, address in self.sightings:
            by_day.setdefault(date_of(timestamp), []).append((timestamp, address))
        return by_day


class DeviceTracker:
    """Follows devices whose hostnames contain a given name.

    Only successful observations carry hostnames, but failed lookups
    are remembered per (network, day): under fault injection a blank
    day may mean "device absent" *or* "the measurement failed", and
    :meth:`presence_matrix` can surface the difference.
    """

    def __init__(self, observations: Iterable[RdnsObservation]):
        self._observations = []
        self._error_days: Dict[str, Set[dt.date]] = {}
        for obs in observations:
            if obs.ok:
                self._observations.append(obs)
            elif obs.status is not ResolutionStatus.NXDOMAIN:
                # NXDOMAIN is an answer (the record is gone), not a
                # measurement failure; everything else is a blind spot.
                self._error_days.setdefault(obs.network, set()).add(date_of(obs.at))

    def error_days(self, network: Optional[str] = None) -> Set[dt.date]:
        """Days on which at least one lookup failed (per network)."""
        if network is not None:
            return set(self._error_days.get(network, set()))
        merged: Set[dt.date] = set()
        for days in self._error_days.values():
            merged |= days
        return merged

    def track(self, name: str, *, network: Optional[str] = None) -> Dict[str, TrackedDevice]:
        """Tracked devices for one given name, keyed by hostname label.

        The paper deliberately limits itself to a single (common) name;
        the API takes one name per call for the same reason.
        """
        name = name.lower()
        devices: Dict[str, TrackedDevice] = {}
        for observation in self._observations:
            if network is not None and observation.network != network:
                continue
            label = observation.hostname.split(".")[0].lower()
            if name not in label:
                continue
            device = devices.get(label)
            if device is None:
                device = devices[label] = TrackedDevice(label)
            device.sightings.append((observation.at, observation.address))
        for device in devices.values():
            device.sightings.sort()
        return devices

    def presence_matrix(
        self,
        name: str,
        start: dt.date,
        days: int,
        *,
        network: Optional[str] = None,
        labels: Optional[Sequence[str]] = None,
        mark_unknown: bool = False,
    ) -> Dict[str, List[Optional[bool]]]:
        """Label-by-day presence booleans — the grid of Figure 8.

        With ``mark_unknown``, a day on which the device was *not* seen
        but lookups in its network failed is reported as ``None``
        instead of ``False``: the tracker cannot distinguish "device
        away" from "measurement blinded" on such days.
        """
        devices = self.track(name, network=network)
        if labels is None:
            labels = sorted(devices)
        unknown_days = self.error_days(network) if mark_unknown else set()
        matrix: Dict[str, List[Optional[bool]]] = {}
        span = [start + dt.timedelta(days=offset) for offset in range(days)]
        for label in labels:
            device = devices.get(label)
            seen_days = set(device.days_seen()) if device else set()
            matrix[label] = [
                True if day in seen_days else (None if day in unknown_days else False)
                for day in span
            ]
        return matrix

    def new_device_appearances(
        self, name: str, *, network: Optional[str] = None
    ) -> List[Tuple[str, int]]:
        """(label, first-seen timestamp) sorted by appearance time.

        This is what surfaces the Cyber-Monday Galaxy Note 9: a label
        whose first sighting falls mid-measurement.
        """
        devices = self.track(name, network=network)
        return sorted(
            ((label, device.first_seen) for label, device in devices.items()),
            key=lambda pair: pair[1],
        )
