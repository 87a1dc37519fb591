"""Leases and the server-side lease database.

A lease binds an IP address to a client for a duration (Section 2.1 of
the paper).  Before expiry the client can renew; when the client leaves
it may send a RELEASE ("not always sent, as clients can go out of range,
or users can unplug devices") — otherwise the lease ages out at
``expires_at`` and the address becomes reallocable.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.dhcp.errors import UnknownLeaseError
from repro.dhcp.options import ClientFqdn
from repro.dns.name import as_ip


class LeaseState(enum.Enum):
    OFFERED = "offered"
    BOUND = "bound"
    RELEASED = "released"
    EXPIRED = "expired"


@dataclass
class Lease:
    """One DHCP lease."""

    address: ipaddress.IPv4Address
    client_id: str
    duration: int
    bound_at: int
    state: LeaseState = LeaseState.BOUND
    host_name: Optional[str] = None
    client_fqdn: Optional[ClientFqdn] = None
    renewals: int = field(default=0)
    last_renewed_at: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"lease duration must be positive, got {self.duration}")
        if self.last_renewed_at < 0:
            self.last_renewed_at = self.bound_at

    @property
    def expires_at(self) -> int:
        """Absolute expiry time: last renewal plus the lease duration."""
        return self.last_renewed_at + self.duration

    @property
    def renewal_due_at(self) -> int:
        """T1, the conventional renewal point at half the lease time."""
        return self.last_renewed_at + self.duration // 2

    def is_active(self, now: int) -> bool:
        return self.state is LeaseState.BOUND and now < self.expires_at

    def renew(self, now: int) -> None:
        if self.state is not LeaseState.BOUND:
            raise ValueError(f"cannot renew a lease in state {self.state}")
        self.last_renewed_at = now
        self.renewals += 1


class LeaseDatabase:
    """Active leases, indexed by address and by client id."""

    def __init__(self) -> None:
        self._by_address: Dict[ipaddress.IPv4Address, Lease] = {}
        self._by_client: Dict[str, Lease] = {}
        self._history: List[Lease] = []
        #: Lower bound on the earliest expiry among stored leases.
        #: Renewals only push expiries later, so the bound can go stale
        #: low (costing one wasted scan) but never stale high.
        self._next_expiry = float("inf")

    def add(self, lease: Lease) -> None:
        if lease.address in self._by_address:
            raise ValueError(f"address {lease.address} already leased")
        existing = self._by_client.get(lease.client_id)
        if existing is not None and existing.state is LeaseState.BOUND:
            raise ValueError(f"client {lease.client_id} already holds a lease")
        self._by_address[lease.address] = lease
        self._by_client[lease.client_id] = lease
        if lease.expires_at < self._next_expiry:
            self._next_expiry = lease.expires_at

    def get_by_address(self, address) -> Lease:
        address = as_ip(address)
        lease = self._by_address.get(address)
        if lease is None:
            raise UnknownLeaseError(f"no lease for {address}")
        return lease

    def find_by_address(self, address) -> Optional[Lease]:
        return self._by_address.get(as_ip(address))

    def find_by_client(self, client_id: str) -> Optional[Lease]:
        return self._by_client.get(client_id)

    def drop(self, lease: Lease, state: LeaseState) -> None:
        """Retire a lease (on release or expiry) into the history log."""
        if state not in (LeaseState.RELEASED, LeaseState.EXPIRED):
            raise ValueError(f"cannot drop into state {state}")
        if self._by_address.get(lease.address) is not lease:
            raise UnknownLeaseError(f"lease for {lease.address} is not current")
        lease.state = state
        del self._by_address[lease.address]
        if self._by_client.get(lease.client_id) is lease:
            del self._by_client[lease.client_id]
        self._history.append(lease)

    def expired(self, now: int) -> List[Lease]:
        """Active-table leases whose expiry time has passed.

        Expiry sweeps run every few simulated minutes per subnet; the
        ``_next_expiry`` bound turns the common nothing-due sweep into a
        single comparison instead of a full-table scan.  When a scan
        does run, the bound is recomputed over everything still stored
        (expired-but-not-yet-dropped leases keep it at or below ``now``,
        so a caller that never drops them still sees fresh scans).
        """
        if now < self._next_expiry:
            return []
        expired = []
        next_expiry = float("inf")
        for lease in self._by_address.values():
            if now >= lease.expires_at:
                expired.append(lease)
            if lease.expires_at < next_expiry:
                next_expiry = lease.expires_at
        self._next_expiry = next_expiry
        return expired

    def active(self, now: int) -> List[Lease]:
        return [lease for lease in self._by_address.values() if lease.is_active(now)]

    @property
    def history(self) -> List[Lease]:
        return list(self._history)

    def __len__(self) -> int:
        return len(self._by_address)

    def __iter__(self) -> Iterator[Lease]:
        return iter(list(self._by_address.values()))
