"""Resource records and RRsets.

Rdata is stored in a parsed, type-aware form: PTR/NS/CNAME rdata is a
:class:`~repro.dns.name.DomainName`, TXT rdata a string, A/AAAA rdata an
:mod:`ipaddress` address, SOA a :class:`SoaData`.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Union

from repro.dns.name import DomainName, IPAddress, reverse_pointer
from repro.dns.rcode import RecordClass, RecordType

DEFAULT_PTR_TTL = 3600


@dataclass(frozen=True)
class SoaData:
    """SOA rdata; the serial is what dynamic updates bump."""

    mname: DomainName
    rname: DomainName
    serial: int = 1
    refresh: int = 3600
    retry: int = 600
    expire: int = 86400
    minimum: int = 300


Rdata = Union[DomainName, str, ipaddress.IPv4Address, ipaddress.IPv6Address, SoaData]


@dataclass(frozen=True)
class ResourceRecord:
    """A single resource record (name, type, class, TTL, rdata)."""

    name: DomainName
    rtype: RecordType
    rdata: Rdata
    ttl: int = DEFAULT_PTR_TTL
    rclass: RecordClass = RecordClass.IN

    def __post_init__(self) -> None:
        if self.ttl < 0:
            raise ValueError(f"negative TTL: {self.ttl}")
        expected = _RDATA_TYPES.get(self.rtype)
        if expected is not None and not isinstance(self.rdata, expected):
            raise TypeError(
                f"{self.rtype.name} rdata must be {expected}, got {type(self.rdata)!r}"
            )

    def rdata_text(self) -> str:
        """The presentation form of the rdata."""
        if isinstance(self.rdata, DomainName):
            return self.rdata.to_text()
        if isinstance(self.rdata, SoaData):
            soa = self.rdata
            return (
                f"{soa.mname.to_text()} {soa.rname.to_text()} {soa.serial} "
                f"{soa.refresh} {soa.retry} {soa.expire} {soa.minimum}"
            )
        return str(self.rdata)

    def to_text(self) -> str:
        return (
            f"{self.name.to_text()} {self.ttl} {self.rclass.name} "
            f"{self.rtype.name} {self.rdata_text()}"
        )


_RDATA_TYPES = {
    RecordType.PTR: DomainName,
    RecordType.NS: DomainName,
    RecordType.CNAME: DomainName,
    RecordType.A: ipaddress.IPv4Address,
    RecordType.AAAA: ipaddress.IPv6Address,
    RecordType.TXT: str,
    RecordType.SOA: SoaData,
}


@dataclass
class RRset:
    """All records sharing a (name, type) pair."""

    name: DomainName
    rtype: RecordType
    records: List[ResourceRecord] = field(default_factory=list)

    def add(self, record: ResourceRecord) -> None:
        if record.name != self.name or record.rtype != self.rtype:
            raise ValueError("record does not belong to this RRset")
        if record not in self.records:
            self.records.append(record)

    def __iter__(self) -> Iterator[ResourceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)


def make_ptr(address: IPAddress, hostname: str, ttl: int = DEFAULT_PTR_TTL) -> ResourceRecord:
    """Build the PTR record mapping ``address`` to ``hostname``.

    >>> make_ptr("93.184.216.34", "example.com").to_text()
    '34.216.184.93.in-addr.arpa. 3600 IN PTR example.com.'
    """
    return ResourceRecord(
        name=reverse_pointer(address),
        rtype=RecordType.PTR,
        rdata=DomainName.parse(hostname),
        ttl=ttl,
    )


def group_rrsets(records: Iterable[ResourceRecord]) -> List[RRset]:
    """Group records into RRsets, preserving first-seen order."""
    rrsets: dict = {}
    for record in records:
        key = (record.name, record.rtype)
        if key not in rrsets:
            rrsets[key] = RRset(record.name, record.rtype)
        rrsets[key].add(record)
    return list(rrsets.values())
