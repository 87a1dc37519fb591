"""DHCP client behaviour.

A client joins (DISCOVER/REQUEST), renews at T1 while present, and
leaves either *cleanly* (DHCPRELEASE — the paper ties this to the
five-minute peak in Figure 7a) or *silently* (no message; the lease
ages out, producing the hour-multiple peaks).  Identity-carrying
options come from the device's name unless an RFC 7844 anonymity
profile strips them.
"""

from __future__ import annotations

import enum
import ipaddress
from typing import Optional

from repro.dhcp.errors import DhcpError
from repro.dhcp.messages import DhcpMessage, MessageType
from repro.dhcp.options import AnonymityProfile, ClientFqdn, DhcpOptionCode, OptionSet, apply_anonymity_profile
from repro.dhcp.server import DhcpServer


class DhcpClientState(enum.Enum):
    INIT = "init"
    BOUND = "bound"


class DhcpClient:
    """One device's DHCP client."""

    def __init__(
        self,
        client_id: str,
        *,
        host_name: Optional[str] = None,
        client_fqdn: Optional[ClientFqdn] = None,
        sends_release: bool = True,
        anonymity_profile: Optional[AnonymityProfile] = None,
    ):
        self.client_id = client_id
        self.host_name = host_name
        self.client_fqdn = client_fqdn
        self.sends_release = sends_release
        self.anonymity_profile = anonymity_profile
        self.state = DhcpClientState.INIT
        self.address: Optional[ipaddress.IPv4Address] = None
        self.lease_time: Optional[int] = None
        self.bound_at: Optional[int] = None
        self._renew_request: Optional[DhcpMessage] = None
        self._renew_identity: Optional[tuple] = None

    # -- option construction ----------------------------------------------

    def _base_options(self) -> OptionSet:
        options = OptionSet()
        if self.host_name is not None:
            options.host_name = self.host_name
        if self.client_fqdn is not None:
            options.client_fqdn = self.client_fqdn
        options.set(DhcpOptionCode.CLIENT_IDENTIFIER, self.client_id)
        if self.anonymity_profile is not None:
            options = apply_anonymity_profile(options, self.anonymity_profile)
        return options

    # -- exchanges ----------------------------------------------------------

    def join(self, server: DhcpServer, now: int) -> Optional[ipaddress.IPv4Address]:
        """Run the full DORA exchange; returns the bound address or None."""
        discover = DhcpMessage(MessageType.DISCOVER, self.client_id, options=self._base_options())
        offer = server.handle(discover, now)
        if offer is None or offer.message_type is not MessageType.OFFER:
            return None
        options = self._base_options()
        options.set(DhcpOptionCode.REQUESTED_IP, offer.your_address)
        request = DhcpMessage(MessageType.REQUEST, self.client_id, options=options)
        ack = server.handle(request, now)
        if ack is None or ack.message_type is not MessageType.ACK:
            return None
        self.state = DhcpClientState.BOUND
        self.address = ack.your_address
        self.lease_time = ack.lease_time
        self.bound_at = now
        return self.address

    def renew(self, server: DhcpServer, now: int) -> bool:
        """Renew the current lease in place; returns success."""
        if self.state is not DhcpClientState.BOUND:
            raise DhcpError("cannot renew while not bound")
        # The renew REQUEST carries only identity-derived options, so it
        # is byte-identical between renewals unless the device changed
        # its name or profile mid-lease; the server never mutates or
        # retains the message, making reuse safe.
        identity = (self.host_name, self.client_fqdn, self.anonymity_profile)
        request = self._renew_request
        if request is None or self._renew_identity != identity:
            request = DhcpMessage(
                MessageType.REQUEST, self.client_id, options=self._base_options()
            )
            self._renew_request = request
            self._renew_identity = identity
        ack = server.handle(request, now)
        if ack is None or ack.message_type is not MessageType.ACK:
            self.state = DhcpClientState.INIT
            self.address = None
            return False
        self.address = ack.your_address
        return True

    def leave(self, server: DhcpServer, now: int) -> bool:
        """Leave the network; returns True if a RELEASE was sent.

        Clients configured with ``sends_release=False`` just go silent
        (out of range / unplugged) and their lease ages out server-side.
        """
        if self.state is not DhcpClientState.BOUND:
            return False
        sent = False
        if self.sends_release:
            release = DhcpMessage(MessageType.RELEASE, self.client_id, options=self._base_options())
            server.handle(release, now)
            sent = True
        self.state = DhcpClientState.INIT
        self.address = None
        self.lease_time = None
        self.bound_at = None
        return sent

    def __repr__(self) -> str:
        return f"DhcpClient({self.client_id!r}, state={self.state.value}, address={self.address})"
