"""Dynamic address pools.

A pool hands out addresses from an IPv4 range.  Allocation is *sticky*:
a returning client is offered its previous address when still free,
which is what real servers do and what makes the paper's device-level
tracking (Section 7.1: stable colour-coded IPs per device) possible.
"""

from __future__ import annotations

import ipaddress
from collections import deque
from typing import Deque, Dict, Iterable, Optional, Set, Union

from repro.dhcp.errors import PoolExhaustedError
from repro.dns.name import as_ip

Prefix = Union[str, ipaddress.IPv4Network]


class AddressPool:
    """Allocatable addresses within one prefix.

    ``reserved`` addresses (network/broadcast, gateways, static hosts)
    are never handed out.
    """

    def __init__(
        self,
        prefix: Prefix,
        *,
        reserved: Iterable = (),
        exclude_network_and_broadcast: bool = True,
    ):
        self.prefix = ipaddress.IPv4Network(prefix)
        self._reserved: Set[ipaddress.IPv4Address] = {
            ipaddress.ip_address(address) for address in reserved
        }
        if exclude_network_and_broadcast and self.prefix.num_addresses > 2:
            self._reserved.add(self.prefix.network_address)
            self._reserved.add(self.prefix.broadcast_address)
        self._allocated: Set[ipaddress.IPv4Address] = set()
        self._last_address: Dict[str, ipaddress.IPv4Address] = {}
        # FIFO free list: fresh addresses go out in ascending order and
        # released addresses are reused least-recently-used, which keeps a
        # returning client's sticky address free for as long as possible.
        self._free: Deque[ipaddress.IPv4Address] = deque(
            address for address in self.prefix if address not in self._reserved
        )

    @property
    def size(self) -> int:
        """Number of allocatable addresses."""
        return self.prefix.num_addresses - len(self._reserved)

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    def is_free(self, address) -> bool:
        ip = as_ip(address)
        return ip in self.prefix and ip not in self._reserved and ip not in self._allocated

    def allocate(self, client_id: str, requested: Optional[object] = None) -> ipaddress.IPv4Address:
        """Allocate an address for ``client_id``.

        Preference order: the explicitly requested address, the client's
        previous address, then the lowest free address.  Raises
        :class:`PoolExhaustedError` when nothing is free.
        """
        for candidate in (requested, self._last_address.get(client_id)):
            if candidate is None:
                continue
            ip = as_ip(candidate)
            if self.is_free(ip):
                self._take(ip)
                self._last_address[client_id] = ip
                return ip
        while self._free:
            ip = self._free.popleft()
            if ip not in self._allocated:
                self._allocated.add(ip)
                self._last_address[client_id] = ip
                return ip
        raise PoolExhaustedError(f"no free address in {self.prefix}")

    def _take(self, ip: ipaddress.IPv4Address) -> None:
        self._allocated.add(ip)

    def release(self, address) -> None:
        """Return an address to the pool (idempotent)."""
        ip = as_ip(address)
        if ip in self._allocated:
            self._allocated.discard(ip)
            self._free.append(ip)

    def __contains__(self, address: object) -> bool:
        try:
            return as_ip(address) in self.prefix  # type: ignore[arg-type]
        except ValueError:
            return False

    def __repr__(self) -> str:
        return f"AddressPool({self.prefix}, {self.allocated_count}/{self.size} allocated)"
