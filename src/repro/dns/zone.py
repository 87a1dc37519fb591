"""Authoritative reverse zones with dynamic update and a change journal.

A :class:`ReverseZone` is the DNS-side endpoint of the DHCP/IPAM
coupling the paper studies: IPAM systems add a PTR record when a lease
is bound and remove (or revert) it when the lease is released or
expires.  Every mutation bumps the SOA serial and is appended to a
journal, so measurements and analyses can be validated against zone
ground truth.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.dns.errors import ZoneError
from repro.dns.name import (
    DomainName,
    IPAddress,
    as_ip,
    from_reverse_pointer,
    reverse_pointer,
    reverse_zone_origin,
    rfc2317_zone_origin,
)
from repro.dns.rcode import Rcode, RecordType
from repro.dns.records import DEFAULT_PTR_TTL, ResourceRecord, SoaData, make_ptr


class RdnsMode(enum.Enum):
    """Per-subnet reverse-DNS publication mode (the MAAS subnet model).

    DISABLED subnets publish no PTR records at all; ENABLED subnets
    publish into the conventional octet-aligned reverse zone; RFC2317
    subnets are served from a classless child zone reached through
    CNAME glue in the covering /24 zone.
    """

    DISABLED = "disabled"
    ENABLED = "enabled"
    RFC2317 = "rfc2317"

    @classmethod
    def parse(cls, value: "Union[str, RdnsMode]") -> "RdnsMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            options = "/".join(mode.value for mode in cls)
            raise ValueError(f"unknown rdns mode {value!r} (expected {options})") from exc


class ZoneChangeKind(enum.Enum):
    ADD = "add"
    REMOVE = "remove"
    REPLACE = "replace"


@dataclass(frozen=True)
class ZoneChange:
    """One journal entry: a PTR added, removed or replaced at ``at``."""

    at: int
    kind: ZoneChangeKind
    address: ipaddress.IPv4Address
    old_hostname: Optional[str]
    new_hostname: Optional[str]


class ReverseZone:
    """A reverse (``in-addr.arpa``) zone for one IPv4 prefix.

    PTR content is keyed by IP address.  ``lookup`` answers like an
    authoritative server data-path would: NOERROR with records,
    NXDOMAIN for in-zone names with no data, and raises
    :class:`ZoneError` for out-of-zone names (the server maps that to
    REFUSED).
    """

    def __init__(
        self,
        prefix: Union[str, ipaddress.IPv4Network],
        *,
        primary_ns: str = "ns1.example.net",
        contact: str = "hostmaster.example.net",
        default_ttl: int = DEFAULT_PTR_TTL,
    ):
        self.prefix = ipaddress.IPv4Network(prefix)
        #: Sub-/24 prefixes are served as RFC 2317 classless child zones
        #: (``0-29.2.0.192.in-addr.arpa.``); octet-aligned prefixes get the
        #: conventional origin.
        self.rfc2317 = self.prefix.prefixlen > 24
        #: A non-octet-aligned prefix between /8 and /24 has no origin of
        #: its own: the zone claims the whole covering octet boundary, so
        #: two sibling zones would collide on it and mis-parent PTRs.
        #: Lookups here stay correct (out-of-prefix names answer
        #: NXDOMAIN), but world plans treat a rounded origin as a
        #: validation error unless the layout delegates per-/24 children.
        self.origin_rounded = not self.rfc2317 and self.prefix.prefixlen % 8 != 0
        if self.rfc2317:
            self.origin = rfc2317_zone_origin(self.prefix)
        else:
            self.origin = reverse_zone_origin(self.prefix)
        self.default_ttl = default_ttl
        self._ptr: Dict[ipaddress.IPv4Address, ResourceRecord] = {}
        #: RFC 2317 CNAME glue hosted by this zone (covering-/24 side),
        #: keyed by the conventional parent-form reverse name.
        self._cnames: Dict[DomainName, ResourceRecord] = {}
        self._journal: List[ZoneChange] = []
        self._soa = SoaData(
            mname=DomainName.parse(primary_ns),
            rname=DomainName.parse(contact),
            serial=1,
        )

    # -- identity -------------------------------------------------------

    @property
    def serial(self) -> int:
        return self._soa.serial

    @property
    def soa_record(self) -> ResourceRecord:
        return ResourceRecord(self.origin, RecordType.SOA, self._soa, self.default_ttl)

    def covers(self, address: IPAddress) -> bool:
        return as_ip(address) in self.prefix

    def is_authoritative_for(self, name: DomainName) -> bool:
        return name.is_subdomain_of(self.origin)

    def name_for(self, address: IPAddress) -> DomainName:
        """The owner name a PTR for ``address`` has in this zone.

        The conventional 4-octet reverse name for classic zones; the
        RFC 2317 child form (``10.0-29.2.0.192.in-addr.arpa.``) when the
        zone is a classless delegation.
        """
        ip = self._require_covered(address)
        if not self.rfc2317:
            return reverse_pointer(ip)
        return self.origin.child(str(int(ip) & 0xFF))

    def address_for_name(self, name: DomainName) -> Optional[ipaddress.IPv4Address]:
        """The address a PTR owner name refers to, or None if malformed.

        Accepts both the conventional 4-octet form (classic zones) and
        the single-octet-under-origin RFC 2317 child form.  Names that
        parse but fall outside the zone prefix also return None.
        """
        if self.rfc2317:
            try:
                labels = name.relativize(self.origin)
            except Exception:
                return None
            if len(labels) != 1 or not labels[0].isdigit():
                return None
            octet = int(labels[0])
            if octet > 255:
                return None
            ip = ipaddress.IPv4Address((int(self.prefix.network_address) & ~0xFF) | octet)
        else:
            try:
                ip = from_reverse_pointer(name)
            except Exception:
                return None
        if ip not in self.prefix:
            return None
        return ip

    def _require_covered(self, address: IPAddress) -> ipaddress.IPv4Address:
        # Callers on the lease-churn path already hold IPv4Address
        # objects; as_ip passes them through rather than re-parsing.
        ip = as_ip(address)
        if ip not in self.prefix:
            raise ZoneError(f"{ip} is outside zone prefix {self.prefix}")
        return ip

    def _bump_serial(self) -> None:
        self._soa = SoaData(
            mname=self._soa.mname,
            rname=self._soa.rname,
            serial=self._soa.serial + 1,
            refresh=self._soa.refresh,
            retry=self._soa.retry,
            expire=self._soa.expire,
            minimum=self._soa.minimum,
        )

    # -- dynamic update ---------------------------------------------------

    def set_ptr(
        self,
        address: IPAddress,
        hostname: str,
        *,
        at: int = 0,
        ttl: Optional[int] = None,
    ) -> ZoneChange:
        """Add or replace the PTR record for ``address``.

        Replacing with an identical hostname is a no-op journal-wise but
        is still accepted (DHCP renewals re-assert the record).
        """
        ip = self._require_covered(address)
        effective_ttl = ttl if ttl is not None else self.default_ttl
        if self.rfc2317:
            record = ResourceRecord(
                name=self.name_for(ip),
                rtype=RecordType.PTR,
                rdata=DomainName.parse(hostname),
                ttl=effective_ttl,
            )
        else:
            record = make_ptr(ip, hostname, effective_ttl)
        previous = self._ptr.get(ip)
        old_hostname = previous.rdata_text().rstrip(".") if previous else None
        new_hostname = record.rdata_text().rstrip(".")
        if previous is not None and old_hostname == new_hostname:
            change = ZoneChange(at, ZoneChangeKind.REPLACE, ip, old_hostname, new_hostname)
            return change
        self._ptr[ip] = record
        self._bump_serial()
        kind = ZoneChangeKind.REPLACE if previous is not None else ZoneChangeKind.ADD
        change = ZoneChange(at, kind, ip, old_hostname, new_hostname)
        self._journal.append(change)
        return change

    def remove_ptr(self, address: IPAddress, *, at: int = 0) -> Optional[ZoneChange]:
        """Remove the PTR record for ``address``; None if there was none."""
        ip = self._require_covered(address)
        previous = self._ptr.pop(ip, None)
        if previous is None:
            return None
        self._bump_serial()
        change = ZoneChange(
            at, ZoneChangeKind.REMOVE, ip, previous.rdata_text().rstrip("."), None
        )
        self._journal.append(change)
        return change

    # -- queries ----------------------------------------------------------

    def get_ptr(self, address: IPAddress) -> Optional[ResourceRecord]:
        return self._ptr.get(as_ip(address))

    def get_hostname(self, address: IPAddress) -> Optional[str]:
        record = self.get_ptr(address)
        if record is None:
            return None
        return record.rdata_text().rstrip(".")

    def lookup(self, name: DomainName, rtype: RecordType) -> Tuple[Rcode, List[ResourceRecord]]:
        """Authoritative data-path lookup.

        Returns (rcode, answer records).  Raises :class:`ZoneError` if
        the name is not under this zone's origin.
        """
        if not self.is_authoritative_for(name):
            raise ZoneError(f"{name} is not under {self.origin}")
        if name == self.origin and rtype == RecordType.SOA:
            return Rcode.NOERROR, [self.soa_record]
        glue = self._cnames.get(name)
        if glue is not None:
            # A CNAME answers a query for any type at its owner name; the
            # resolver restarts the question at the target (RFC 1034 §3.6.2).
            return Rcode.NOERROR, [glue]
        ip = self.address_for_name(name)
        if ip is None:
            return Rcode.NXDOMAIN, []
        record = self._ptr.get(ip)
        if record is None:
            return Rcode.NXDOMAIN, []
        if rtype != RecordType.PTR:
            # NODATA: the name exists but holds no data of this type.
            return Rcode.NOERROR, []
        return Rcode.NOERROR, [record]

    # -- RFC 2317 glue ----------------------------------------------------

    def add_glue_cname(self, name: DomainName, target: DomainName) -> ResourceRecord:
        """Install one CNAME glue record at ``name`` pointing at ``target``."""
        if not self.is_authoritative_for(name):
            raise ZoneError(f"glue owner {name} is not under {self.origin}")
        if name in self._cnames:
            raise ZoneError(f"duplicate CNAME glue at {name}")
        record = ResourceRecord(name, RecordType.CNAME, target, self.default_ttl)
        self._cnames[name] = record
        self._bump_serial()
        return record

    def add_rfc2317_glue(self, child: "ReverseZone") -> int:
        """Glue a classless child zone into this covering zone.

        Installs one CNAME per address of the child prefix, mapping the
        conventional reverse name onto the child-zone owner name — the
        RFC 2317 delegation pattern.  Returns the number of records added.
        """
        if not child.rfc2317:
            raise ZoneError(f"{child.prefix} is not an RFC 2317 classless zone")
        if self.rfc2317:
            raise ZoneError(f"{self.prefix} cannot host glue: it is itself classless")
        if not child.prefix.subnet_of(self.prefix):
            raise ZoneError(f"{child.prefix} is not inside covering zone {self.prefix}")
        added = 0
        for address in child.prefix:
            self.add_glue_cname(reverse_pointer(address), child.name_for(address))
            added += 1
        return added

    # -- checkpoints ----------------------------------------------------------

    def checkpoint(self) -> Tuple:
        """The zone's content (PTRs, glue, journal length, SOA) for :meth:`restore`."""
        return dict(self._ptr), dict(self._cnames), len(self._journal), self._soa

    def restore(self, state: Tuple) -> None:
        """Roll the zone back to a :meth:`checkpoint`, dropping later changes."""
        ptr, cnames, journal_length, soa = state
        self._ptr = dict(ptr)
        self._cnames = dict(cnames)
        del self._journal[journal_length:]
        self._soa = soa

    # -- introspection ------------------------------------------------------

    @property
    def journal(self) -> List[ZoneChange]:
        return list(self._journal)

    def entries(self) -> Iterator[Tuple[ipaddress.IPv4Address, str]]:
        """(address, hostname) pairs, in address order."""
        for ip in sorted(self._ptr):
            yield ip, self._ptr[ip].rdata_text().rstrip(".")

    def __len__(self) -> int:
        return len(self._ptr)

    def __contains__(self, address: object) -> bool:
        try:
            return as_ip(address) in self._ptr  # type: ignore[arg-type]
        except ValueError:
            return False

    def __repr__(self) -> str:
        return f"ReverseZone({self.prefix}, {len(self)} PTRs, serial={self.serial})"
