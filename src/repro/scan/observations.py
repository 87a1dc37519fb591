"""Measurement observations and their CSV persistence.

"Both Zmap and our custom-built software write the results as CSV
files to disk" (Section 6.1).  The merge key the paper uses — IP
address plus a five-minute truncated timestamp — truncates to
:data:`TRUNCATION` (:class:`repro.core.grouping.GroupBuilder` applies it
to whole columns).
"""

from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Union

from repro.dns.resolver import ResolutionStatus
from repro.netsim.simtime import MINUTE

TRUNCATION = 5 * MINUTE

PathLike = Union[str, Path]


@dataclass(frozen=True)
class IcmpObservation:
    """One ICMP echo response (ZMap output lists responders only)."""

    address: ipaddress.IPv4Address
    at: int
    network: str = ""


@dataclass(frozen=True)
class RdnsObservation:
    """One reverse-DNS lookup outcome (success or error)."""

    address: ipaddress.IPv4Address
    at: int
    status: ResolutionStatus
    hostname: str = ""
    network: str = ""

    @property
    def ok(self) -> bool:
        return self.status is ResolutionStatus.NOERROR


_ICMP_FIELDS = ["address", "at", "network"]
_RDNS_FIELDS = ["address", "at", "status", "hostname", "network"]


def write_icmp_csv(path: PathLike, observations: Iterable[IcmpObservation]) -> int:
    """Write ICMP observations; returns the number of rows."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_ICMP_FIELDS)
        for observation in observations:
            writer.writerow([observation.address, observation.at, observation.network])
            count += 1
    return count


def read_icmp_csv(path: PathLike) -> List[IcmpObservation]:
    observations = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            observations.append(
                IcmpObservation(
                    address=ipaddress.IPv4Address(row["address"]),
                    at=int(row["at"]),
                    network=row.get("network", ""),
                )
            )
    return observations


def write_rdns_csv(path: PathLike, observations: Iterable[RdnsObservation]) -> int:
    """Write rDNS observations; returns the number of rows."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RDNS_FIELDS)
        for observation in observations:
            writer.writerow(
                [
                    observation.address,
                    observation.at,
                    observation.status.value,
                    observation.hostname,
                    observation.network,
                ]
            )
            count += 1
    return count


def read_rdns_csv(path: PathLike) -> List[RdnsObservation]:
    observations = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            observations.append(
                RdnsObservation(
                    address=ipaddress.IPv4Address(row["address"]),
                    at=int(row["at"]),
                    status=ResolutionStatus(row["status"]),
                    hostname=row.get("hostname", ""),
                    network=row.get("network", ""),
                )
            )
    return observations
