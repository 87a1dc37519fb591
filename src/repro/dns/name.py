"""Domain names and ``in-addr.arpa`` reversal.

A :class:`DomainName` is an immutable sequence of labels, compared
case-insensitively, as prescribed by RFC 1035 (section 2.3.3).  The
module also provides :func:`reverse_pointer` / :func:`from_reverse_pointer`
for the IPv4 reverse-mapping namespace that the paper's measurements
query (Example 1: ``93.184.216.34`` -> ``34.216.184.93.in-addr.arpa.``).
"""

from __future__ import annotations

import ipaddress
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator, Union

from repro.dns.errors import LabelError

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255

_REVERSE_V4_SUFFIX = ("in-addr", "arpa")
_REVERSE_V6_SUFFIX = ("ip6", "arpa")


def _validate_label(label: str) -> str:
    if not label:
        raise LabelError("empty label")
    if len(label) > MAX_LABEL_LENGTH:
        raise LabelError(f"label longer than {MAX_LABEL_LENGTH} octets: {label!r}")
    try:
        label.encode("ascii")
    except UnicodeEncodeError as exc:
        raise LabelError(f"label is not ASCII: {label!r}") from exc
    return label


@total_ordering
class DomainName:
    """An immutable, case-insensitive DNS domain name.

    The empty name is the DNS root.  Names print in their absolute form
    with a trailing dot.
    """

    __slots__ = ("_labels", "_key", "_text", "_hash")

    def __init__(self, labels: Iterable[str] = ()):
        labels = tuple(_validate_label(label) for label in labels)
        wire_length = sum(len(label) + 1 for label in labels) + 1
        if wire_length > MAX_NAME_LENGTH:
            raise LabelError(f"name longer than {MAX_NAME_LENGTH} octets")
        self._labels = labels
        self._key = tuple(label.lower() for label in labels)
        self._text: "str | None" = None
        self._hash: "int | None" = None

    @classmethod
    def parse(cls, text: str) -> "DomainName":
        """Parse a dotted name; a trailing dot (absolute form) is allowed."""
        text = text.rstrip(".")
        if not text:
            return cls(())
        return cls(text.split("."))

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    def to_text(self) -> str:
        """The absolute textual form, with trailing dot (root is ``"."``)."""
        text = self._text
        if text is None:
            text = ".".join(self._labels) + "." if self._labels else "."
            self._text = text
        return text

    def parent(self) -> "DomainName":
        """The name with its leftmost label removed."""
        if not self._labels:
            raise LabelError("the root name has no parent")
        return DomainName(self._labels[1:])

    def child(self, label: str) -> "DomainName":
        """A new name with ``label`` prepended."""
        return DomainName((label,) + self._labels)

    def is_subdomain_of(self, other: "DomainName") -> bool:
        """True if ``self`` equals ``other`` or sits below it."""
        if len(other._key) > len(self._key):
            return False
        if not other._key:
            return True
        return self._key[-len(other._key):] == other._key

    def relativize(self, origin: "DomainName") -> tuple:
        """The labels of ``self`` with ``origin`` stripped from the right."""
        if not self.is_subdomain_of(origin):
            raise LabelError(f"{self} is not under {origin}")
        if not origin._labels:
            return self._labels
        return self._labels[: len(self._labels) - len(origin._labels)]

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __hash__(self) -> int:
        # Names key delegation caches and PTR tables; hashing the label
        # tuple each probe showed up in sweep profiles.
        h = self._hash
        if h is None:
            h = self._hash = hash(self._key)
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainName):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other: "DomainName") -> bool:
        if not isinstance(other, DomainName):
            return NotImplemented
        # Canonical DNS ordering compares names right to left.
        return self._key[::-1] < other._key[::-1]

    def __repr__(self) -> str:
        return f"DomainName({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


ROOT = DomainName(())
IN_ADDR_ARPA = DomainName(_REVERSE_V4_SUFFIX)
IP6_ARPA = DomainName(_REVERSE_V6_SUFFIX)

IPAddress = Union[str, int, ipaddress.IPv4Address, ipaddress.IPv6Address]


def as_ip(address: IPAddress):
    """``address`` as an address object; ``ip_address()`` would re-parse one from ``str()``."""
    if isinstance(address, (ipaddress.IPv4Address, ipaddress.IPv6Address)):
        return address
    return ipaddress.ip_address(address)


@lru_cache(maxsize=65536)
def _reverse_pointer_cached(ip) -> DomainName:
    # DomainName is immutable, so sharing instances across callers is
    # safe; sweeps re-query the same addresses every interval, which
    # makes this cache nearly always hot.
    if ip.version == 4:
        labels = tuple(str(ip).split(".")[::-1]) + _REVERSE_V4_SUFFIX
    else:
        nibbles = format(int(ip), "032x")
        labels = tuple(nibbles[::-1]) + _REVERSE_V6_SUFFIX
    return DomainName(labels)


def reverse_pointer(address: IPAddress) -> DomainName:
    """The PTR query name for an IP address.

    >>> reverse_pointer("93.184.216.34").to_text()
    '34.216.184.93.in-addr.arpa.'
    """
    return _reverse_pointer_cached(as_ip(address))


def from_reverse_pointer(name: DomainName) -> ipaddress.IPv4Address:
    """Recover the IPv4 address from an ``in-addr.arpa`` name.

    Raises :class:`LabelError` for names outside the IPv4 reverse tree or
    with a wrong number of octet labels.
    """
    if not name.is_subdomain_of(IN_ADDR_ARPA):
        raise LabelError(f"{name} is not under {IN_ADDR_ARPA}")
    octet_labels = name.relativize(IN_ADDR_ARPA)
    if len(octet_labels) != 4:
        raise LabelError(f"expected 4 octet labels, got {len(octet_labels)}")
    try:
        octets = [int(label) for label in octet_labels]
    except ValueError as exc:
        raise LabelError(f"non-numeric octet label in {name}") from exc
    if any(not 0 <= octet <= 255 for octet in octets):
        raise LabelError(f"octet out of range in {name}")
    # Labels arrive least-significant first (d.c.b.a for a.b.c.d);
    # packing the integer directly skips ipaddress's string parser,
    # which dominated sweep profiles.
    packed = (octets[3] << 24) | (octets[2] << 16) | (octets[1] << 8) | octets[0]
    return ipaddress.IPv4Address(packed)


def reverse_zone_origin(prefix: Union[str, ipaddress.IPv4Network]) -> DomainName:
    """The conventional reverse-zone origin for an IPv4 prefix.

    Only octet-aligned prefixes (/8, /16, /24) have a single classless-free
    origin; other lengths are rounded down to the covering octet boundary,
    which matches how operators commonly delegate reverse space.  Zones
    for sub-/24 prefixes should use :func:`rfc2317_zone_origin` instead —
    the rounded origin here would claim the whole covering /24.
    """
    network = ipaddress.IPv4Network(prefix)
    kept_octets = network.prefixlen // 8
    octets = str(network.network_address).split(".")[:kept_octets]
    return DomainName(tuple(octets[::-1]) + _REVERSE_V4_SUFFIX)


def rfc2317_zone_label(prefix: Union[str, ipaddress.IPv4Network]) -> str:
    """The RFC 2317 child-zone label for a sub-/24 prefix.

    The customary ``<first>-<prefixlen>`` form (e.g. ``0-29`` for
    ``192.0.2.0/29``); RFC 2317 leaves the exact convention open, but
    this dash form is the one its examples use and the one MAAS-style
    zone generators emit.
    """
    network = ipaddress.IPv4Network(prefix)
    if network.prefixlen <= 24:
        raise LabelError(
            f"{network} is not a sub-/24 prefix; RFC 2317 delegation only "
            "applies below the /24 boundary"
        )
    first_octet = int(network.network_address) & 0xFF
    return f"{first_octet}-{network.prefixlen}"


def rfc2317_zone_origin(prefix: Union[str, ipaddress.IPv4Network]) -> DomainName:
    """The RFC 2317 classless reverse-zone origin for a sub-/24 prefix.

    >>> rfc2317_zone_origin("192.0.2.0/29").to_text()
    '0-29.2.0.192.in-addr.arpa.'
    """
    network = ipaddress.IPv4Network(prefix)
    label = rfc2317_zone_label(network)
    covering = network.supernet(new_prefix=24)
    return reverse_zone_origin(covering).child(label)
