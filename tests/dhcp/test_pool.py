"""Tests for address pools."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dhcp import AddressPool, PoolExhaustedError


class TestAllocation:
    def test_allocates_from_prefix(self):
        pool = AddressPool("192.0.2.0/29")
        address = pool.allocate("c1")
        assert address in ipaddress.IPv4Network("192.0.2.0/29")

    def test_network_and_broadcast_reserved(self):
        pool = AddressPool("192.0.2.0/30")
        addresses = {pool.allocate("c1"), pool.allocate("c2")}
        assert ipaddress.IPv4Address("192.0.2.0") not in addresses
        assert ipaddress.IPv4Address("192.0.2.3") not in addresses

    def test_size_accounts_for_reservations(self):
        pool = AddressPool("192.0.2.0/29", reserved=["192.0.2.1"])
        assert pool.size == 8 - 2 - 1

    def test_exhaustion(self):
        pool = AddressPool("192.0.2.0/30")
        pool.allocate("c1")
        pool.allocate("c2")
        with pytest.raises(PoolExhaustedError):
            pool.allocate("c3")

    def test_unique_allocations(self):
        pool = AddressPool("192.0.2.0/28")
        addresses = [pool.allocate(f"c{i}") for i in range(pool.size)]
        assert len(set(addresses)) == len(addresses)

    def test_requested_address_honored_when_free(self):
        pool = AddressPool("192.0.2.0/28")
        address = pool.allocate("c1", requested="192.0.2.9")
        assert address == ipaddress.IPv4Address("192.0.2.9")

    def test_requested_address_ignored_when_taken(self):
        pool = AddressPool("192.0.2.0/28")
        first = pool.allocate("c1", requested="192.0.2.9")
        second = pool.allocate("c2", requested="192.0.2.9")
        assert second != first


class TestStickiness:
    def test_returning_client_gets_previous_address(self):
        pool = AddressPool("192.0.2.0/28")
        first = pool.allocate("brian-phone")
        pool.release(first)
        pool.allocate("other")  # takes the lowest free address
        again = pool.allocate("brian-phone")
        assert again == first

    def test_previous_address_taken_falls_back(self):
        pool = AddressPool("192.0.2.0/28")
        first = pool.allocate("c1")
        pool.release(first)
        taken = pool.allocate("c2", requested=str(first))
        assert taken == first
        fallback = pool.allocate("c1")
        assert fallback != first


class TestRelease:
    def test_release_returns_address(self):
        pool = AddressPool("192.0.2.0/30")
        a = pool.allocate("c1")
        b = pool.allocate("c2")
        pool.release(a)
        c = pool.allocate("c3")
        assert c == a
        assert b != c

    def test_release_is_idempotent(self):
        pool = AddressPool("192.0.2.0/29")
        a = pool.allocate("c1")
        pool.release(a)
        pool.release(a)
        assert pool.allocated_count == 0

    def test_utilization(self):
        pool = AddressPool("192.0.2.0/29")
        assert pool.allocated_count == 0
        pool.allocate("c1")
        assert pool.allocated_count == 1

    def test_contains(self):
        pool = AddressPool("192.0.2.0/29")
        assert "192.0.2.4" in pool
        assert "10.0.0.1" not in pool
        assert "garbage" not in pool


class TestPoolProperties:
    @given(st.integers(min_value=1, max_value=14))
    def test_allocate_release_conserves_free_count(self, n):
        pool = AddressPool("198.51.100.0/28")
        n = min(n, pool.size)
        addresses = [pool.allocate(f"c{i}") for i in range(n)]
        assert pool.allocated_count == n
        for address in addresses:
            pool.release(address)
        assert pool.allocated_count == 0

    @given(st.lists(st.sampled_from(["alloc", "release"]), max_size=40))
    def test_no_double_allocation_under_mixed_ops(self, ops):
        pool = AddressPool("198.51.100.0/28")
        held = []
        counter = 0
        for op in ops:
            if op == "alloc":
                try:
                    address = pool.allocate(f"c{counter}")
                except PoolExhaustedError:
                    continue
                counter += 1
                assert address not in held
                held.append(address)
            elif held:
                pool.release(held.pop())
        assert pool.allocated_count == len(held)
