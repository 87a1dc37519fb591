"""The IPAM system: subscribe to lease events, mutate the reverse zone.

This is the automation the paper identifies as the root of the privacy
exposure: "if changes to the (public) DNS are made as client devices
join or leave a network, one may be able to infer network dynamics by
capturing DNS changes" (Section 2.1).

Knobs map to behaviours the measurements observe:

* ``remove_on_release`` / ``remove_on_expiry`` — whether phase-3 events
  revert the PTR.  Releases produce the ~5-minute peak of Figure 7a,
  expiries the hour-multiple peaks.
* ``honor_client_no_update`` — whether a Client FQDN option with the N
  flag suppresses the update (an open question in the paper's
  future-work list; defaults to not honouring it, matching the leaks
  observed in the wild).
* ``update_delay_seconds`` — processing lag between the DHCP event and
  the DNS change landing, for fine-grained timing studies.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.dhcp.events import LeaseEvent, LeaseEventKind
from repro.dhcp.server import DhcpServer
from repro.dns.zone import ReverseZone
from repro.ipam.policy import DnsUpdatePolicy


class IpamSystem:
    """Mirrors one DHCP server's lease events into one reverse zone."""

    def __init__(
        self,
        zone: ReverseZone,
        policy: DnsUpdatePolicy,
        *,
        remove_on_release: bool = True,
        remove_on_expiry: bool = True,
        honor_client_no_update: bool = False,
        update_delay_seconds: int = 0,
    ):
        if update_delay_seconds < 0:
            raise ValueError("update_delay_seconds must be non-negative")
        self.zone = zone
        self.policy = policy
        self.remove_on_release = remove_on_release
        self.remove_on_expiry = remove_on_expiry
        self.honor_client_no_update = honor_client_no_update
        self.update_delay_seconds = update_delay_seconds
        self.updates_applied = 0
        self.updates_suppressed = 0
        self._pending: List[Tuple[int, LeaseEvent]] = []

    def attach(self, server: DhcpServer) -> "IpamSystem":
        """Subscribe to ``server``'s lease events; returns self."""
        server.subscribe(self.on_lease_event, batch=self.on_lease_batch)
        return self

    # -- event handling -----------------------------------------------------

    def on_lease_event(self, event: LeaseEvent) -> None:
        """Handle a lease event, possibly after the configured delay."""
        if self.update_delay_seconds:
            self._pending.append((event.at + self.update_delay_seconds, event))
            return
        self._apply(event, event.at)

    def on_lease_batch(self, events: List[LeaseEvent]) -> None:
        """Handle one tick's worth of lease events in event order.

        Equivalent to calling :meth:`on_lease_event` per event, without
        paying the per-event dispatch through the server's listener
        loop.
        """
        if self.update_delay_seconds:
            delay = self.update_delay_seconds
            self._pending.extend((event.at + delay, event) for event in events)
            return
        for event in events:
            self._apply(event, event.at)

    def flush_pending(self, now: int) -> int:
        """Apply all delayed updates due at or before ``now``."""
        due = [(when, event) for when, event in self._pending if when <= now]
        self._pending = [(when, event) for when, event in self._pending if when > now]
        for when, event in sorted(due, key=lambda pair: pair[0]):
            self._apply(event, when)
        return len(due)

    def _apply(self, event: LeaseEvent, at: int) -> None:
        if event.kind is LeaseEventKind.BOUND:
            self._on_bound(event, at)
        elif event.kind is LeaseEventKind.RENEWED:
            self._on_renewed(event, at)
        elif event.kind is LeaseEventKind.RELEASED:
            if self.remove_on_release:
                self._revert(event, at)
        elif event.kind is LeaseEventKind.EXPIRED:
            if self.remove_on_expiry:
                self._revert(event, at)

    def _client_opted_out(self, event: LeaseEvent) -> bool:
        fqdn = event.lease.client_fqdn
        return fqdn is not None and fqdn.no_server_update

    def _on_bound(self, event: LeaseEvent, at: int) -> None:
        if self.honor_client_no_update and self._client_opted_out(event):
            self.updates_suppressed += 1
            return
        hostname = self.policy.hostname_for(event.lease)
        if hostname is None:
            self.updates_suppressed += 1
            return
        self.zone.set_ptr(event.lease.address, hostname, at=at)
        self.updates_applied += 1

    def _on_renewed(self, event: LeaseEvent, at: int) -> None:
        # Renewals re-assert the record; content changes only if the
        # client changed its Host Name mid-lease.
        hostname = self.policy.hostname_for(event.lease)
        if hostname is None:
            return
        current = self.zone.get_hostname(event.lease.address)
        if current != hostname:
            self.zone.set_ptr(event.lease.address, hostname, at=at)
            self.updates_applied += 1

    def _revert(self, event: LeaseEvent, at: int) -> None:
        static = self.policy.static_hostname_for(event.lease.address)
        if static is not None:
            current = self.zone.get_hostname(event.lease.address)
            if current != static:
                self.zone.set_ptr(event.lease.address, static, at=at)
                self.updates_applied += 1
            return
        had_record = self.zone.get_ptr(event.lease.address) is not None
        self.zone.remove_ptr(event.lease.address, at=at)
        if had_record:
            self.updates_applied += 1

    def __repr__(self) -> str:
        return (
            f"IpamSystem(zone={self.zone.prefix}, policy={self.policy!r}, "
            f"applied={self.updates_applied})"
        )
