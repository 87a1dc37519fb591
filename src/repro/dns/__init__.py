"""Reverse-DNS substrate.

This package implements the DNS machinery the paper's measurements run
against: domain names with ``in-addr.arpa`` reversal, resource records,
RFC 1035 query/response messages (exchanged as objects, never encoded),
authoritative reverse zones with dynamic update (the target of the
DHCP/IPAM coupling), an authoritative server with failure injection, and
a stub resolver that queries authoritative servers directly (cache-free,
as the paper's supplemental measurement does).
"""

from repro.dns.errors import (
    DnsError,
    LabelError,
    NoSuchZoneError,
    ZoneError,
)
from repro.dns.message import DnsMessage, Question
from repro.dns.name import (
    DomainName,
    from_reverse_pointer,
    reverse_pointer,
    reverse_zone_origin,
    rfc2317_zone_origin,
)
from repro.dns.rcode import Opcode, Rcode, RecordClass, RecordType
from repro.dns.records import ResourceRecord, RRset, make_ptr
from repro.dns.resolver import ResolutionResult, ResolutionStatus, ServerHealth, StubResolver
from repro.dns.server import AuthoritativeServer, FailureModel, ServerBehavior
from repro.dns.zone import RdnsMode, ReverseZone, ZoneChange, ZoneChangeKind

__all__ = [
    "AuthoritativeServer",
    "DnsError",
    "DnsMessage",
    "DomainName",
    "FailureModel",
    "LabelError",
    "NoSuchZoneError",
    "Opcode",
    "Question",
    "Rcode",
    "RdnsMode",
    "RecordClass",
    "RecordType",
    "ResolutionResult",
    "ResolutionStatus",
    "ResourceRecord",
    "ReverseZone",
    "RRset",
    "ServerBehavior",
    "ServerHealth",
    "StubResolver",
    "ZoneChange",
    "ZoneChangeKind",
    "ZoneError",
    "from_reverse_pointer",
    "make_ptr",
    "reverse_pointer",
    "reverse_zone_origin",
    "rfc2317_zone_origin",
]
