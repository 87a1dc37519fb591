"""Exception hierarchy for the DNS substrate."""


class DnsError(Exception):
    """Base class for all DNS substrate errors."""


class LabelError(DnsError, ValueError):
    """A domain-name label violates RFC 1035 length or syntax rules."""


class ZoneError(DnsError):
    """A zone operation failed (e.g. name outside the zone origin)."""


class NoSuchZoneError(ZoneError, KeyError):
    """The server holds no zone that is authoritative for the query name."""
