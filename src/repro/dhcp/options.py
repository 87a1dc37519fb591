"""DHCP options, including the identity-carrying ones.

Two options matter to the paper (Section 2.1): the **Host Name** option
(code 12, RFC 2132) that clients commonly fill with their device name
("Brian's iPhone"), and the **Client FQDN** option (code 81, RFC 4702)
through which a client can ask the server to update global DNS on its
behalf.  :data:`ANONYMITY_PROFILE` implements the RFC 7844 mitigation:
strip both, plus other identifying options.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional


class DhcpOptionCode(enum.IntEnum):
    """Option codes used by the reproduction (RFC 2132 / 4702 numbering)."""

    SUBNET_MASK = 1
    ROUTER = 3
    DOMAIN_NAME_SERVER = 6
    HOST_NAME = 12
    DOMAIN_NAME = 15
    REQUESTED_IP = 50
    LEASE_TIME = 51
    MESSAGE_TYPE = 53
    SERVER_IDENTIFIER = 54
    PARAMETER_REQUEST_LIST = 55
    CLIENT_IDENTIFIER = 61
    VENDOR_CLASS = 60
    CLIENT_FQDN = 81


@dataclass(frozen=True)
class ClientFqdn:
    """RFC 4702 Client FQDN option.

    The one flag modelled (section 2.1 of RFC 4702) is
    ``no_server_update`` (N): the client asks the server *not* to
    perform any DNS update.  The paper's future-work section asks
    whether servers honour this; :class:`~repro.ipam.system.IpamSystem`
    makes honouring it a policy knob.

    The server always owns the PTR update in RFC 4702, which is exactly
    the record this paper is about.
    """

    fqdn: str
    no_server_update: bool = False


class OptionSet:
    """A mapping of option code to decoded value, insertion-ordered."""

    def __init__(self, values: Optional[Dict[DhcpOptionCode, Any]] = None):
        self._values: Dict[DhcpOptionCode, Any] = dict(values or {})

    def set(self, code: DhcpOptionCode, value: Any) -> None:
        self._values[code] = value

    def get(self, code: DhcpOptionCode, default: Any = None) -> Any:
        return self._values.get(code, default)

    def remove(self, code: DhcpOptionCode) -> None:
        self._values.pop(code, None)

    def __contains__(self, code: object) -> bool:
        return code in self._values

    def __iter__(self) -> Iterator[DhcpOptionCode]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OptionSet):
            return NotImplemented
        return self._values == other._values

    def copy(self) -> "OptionSet":
        return OptionSet(self._values)

    # -- identity-carrying convenience accessors -------------------------

    @property
    def host_name(self) -> Optional[str]:
        return self.get(DhcpOptionCode.HOST_NAME)

    @host_name.setter
    def host_name(self, value: Optional[str]) -> None:
        if value is None:
            self.remove(DhcpOptionCode.HOST_NAME)
        else:
            self.set(DhcpOptionCode.HOST_NAME, value)

    @property
    def client_fqdn(self) -> Optional[ClientFqdn]:
        return self.get(DhcpOptionCode.CLIENT_FQDN)

    @client_fqdn.setter
    def client_fqdn(self, value: Optional[ClientFqdn]) -> None:
        if value is None:
            self.remove(DhcpOptionCode.CLIENT_FQDN)
        else:
            self.set(DhcpOptionCode.CLIENT_FQDN, value)

    def __repr__(self) -> str:
        inner = ", ".join(f"{code.name}={self._values[code]!r}" for code in self._values)
        return f"OptionSet({inner})"


@dataclass(frozen=True)
class AnonymityProfile:
    """Which identifying options a client withholds (RFC 7844 §3).

    RFC 7844 tells anonymity-seeking clients to omit the Host Name and
    Client FQDN options (or fill them with non-identifying values) and
    to avoid stable client identifiers.
    """

    strip_host_name: bool = True
    strip_client_fqdn: bool = True
    strip_client_identifier: bool = True
    strip_vendor_class: bool = True

    def stripped_codes(self) -> frozenset:
        codes = set()
        if self.strip_host_name:
            codes.add(DhcpOptionCode.HOST_NAME)
        if self.strip_client_fqdn:
            codes.add(DhcpOptionCode.CLIENT_FQDN)
        if self.strip_client_identifier:
            codes.add(DhcpOptionCode.CLIENT_IDENTIFIER)
        if self.strip_vendor_class:
            codes.add(DhcpOptionCode.VENDOR_CLASS)
        return frozenset(codes)


ANONYMITY_PROFILE = AnonymityProfile()


def apply_anonymity_profile(options: OptionSet, profile: AnonymityProfile = ANONYMITY_PROFILE) -> OptionSet:
    """A copy of ``options`` with the profile's identifying options removed."""
    cleaned = options.copy()
    for code in profile.stripped_codes():
        cleaned.remove(code)
    return cleaned
