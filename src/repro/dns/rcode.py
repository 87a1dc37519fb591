"""DNS protocol constants: response codes, opcodes, record types/classes."""

from __future__ import annotations

import enum


class Rcode(enum.IntEnum):
    """RFC 1035 response codes (the subset the measurements encounter)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


class Opcode(enum.IntEnum):
    QUERY = 0
    NOTIFY = 4


class RecordType(enum.IntEnum):
    """Record types used by the reproduction (PTR is the workhorse)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    TXT = 16
    AAAA = 28


class RecordClass(enum.IntEnum):
    IN = 1
    ANY = 255
