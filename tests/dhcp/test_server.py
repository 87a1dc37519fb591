"""Tests for the DHCP server state machine and lease events."""

import pytest

from repro.dhcp import (
    AddressPool,
    DhcpMessage,
    DhcpServer,
    LeaseEventKind,
    MessageType,
    OptionSet,
)
from repro.dhcp.options import DhcpOptionCode


@pytest.fixture
def server():
    return DhcpServer(AddressPool("192.0.2.0/28"), lease_time=3600)


def discover(client="c1", host_name=None):
    options = OptionSet()
    if host_name:
        options.host_name = host_name
    return DhcpMessage(MessageType.DISCOVER, client, options=options)


def request(client="c1", host_name=None, requested=None):
    options = OptionSet()
    if host_name:
        options.host_name = host_name
    if requested:
        options.set(DhcpOptionCode.REQUESTED_IP, requested)
    return DhcpMessage(MessageType.REQUEST, client, options=options)


def release(client="c1"):
    return DhcpMessage(MessageType.RELEASE, client)


class TestDora:
    def test_discover_yields_offer(self, server):
        offer = server.handle(discover(), now=0)
        assert offer.message_type is MessageType.OFFER
        assert offer.your_address is not None
        assert offer.lease_time == 3600

    def test_offer_does_not_bind(self, server):
        server.handle(discover(), now=0)
        assert len(server.leases) == 0

    def test_request_binds_lease(self, server):
        ack = server.handle(request(host_name="Brians-iPhone"), now=10)
        assert ack.message_type is MessageType.ACK
        lease = server.leases.find_by_client("c1")
        assert lease.address == ack.your_address
        assert lease.host_name == "Brians-iPhone"
        assert lease.bound_at == 10

    def test_renewal_keeps_address(self, server):
        first = server.handle(request(), now=0)
        second = server.handle(request(), now=1800)
        assert second.your_address == first.your_address
        assert len(server.leases) == 1

    def test_renewal_updates_host_name(self, server):
        server.handle(request(host_name="old-name"), now=0)
        ack = server.handle(request(host_name="new-name"), now=100)
        lease = server.leases.find_by_client("c1")
        assert lease.address == ack.your_address
        assert lease.host_name == "new-name"

    def test_request_for_foreign_address_naks(self, server):
        first = server.handle(request("c1"), now=0)
        nak = server.handle(request("c2", requested=first.your_address), now=1)
        assert nak.message_type is MessageType.NAK

    def test_request_conflicting_with_own_lease_naks(self, server):
        server.handle(request("c1"), now=0)
        nak = server.handle(request("c1", requested="192.0.2.14"), now=1)
        assert nak.message_type is MessageType.NAK

    def test_pool_exhaustion_naks_request(self):
        server = DhcpServer(AddressPool("192.0.2.0/30"), lease_time=3600)
        server.handle(request("c1"), now=0)
        server.handle(request("c2"), now=0)
        assert server.handle(request("c3"), now=0).message_type is MessageType.NAK

    def test_pool_exhaustion_silences_discover(self):
        server = DhcpServer(AddressPool("192.0.2.0/30"), lease_time=3600)
        server.handle(request("c1"), now=0)
        server.handle(request("c2"), now=0)
        assert server.handle(discover("c3"), now=0) is None

    def test_invalid_lease_time_rejected(self):
        with pytest.raises(ValueError):
            DhcpServer(AddressPool("192.0.2.0/28"), lease_time=0)


class TestReleaseAndExpiry:
    def test_release_frees_address(self, server):
        ack = server.handle(request(), now=0)
        assert server.handle(release(), now=100) is None
        assert len(server.leases) == 0
        assert server.pool.is_free(ack.your_address)

    def test_release_for_unknown_client_is_noop(self, server):
        server.handle(release("ghost"), now=0)
        assert len(server.leases) == 0

    def test_expiry_sweep(self, server):
        server.handle(request("c1"), now=0)
        server.handle(request("c2"), now=3000)
        expired = server.expire_leases(now=3600)
        assert [lease.client_id for lease in expired] == ["c1"]
        assert len(server.leases) == 1

    def test_renewed_lease_survives_sweep(self, server):
        server.handle(request("c1"), now=0)
        server.handle(request("c1"), now=1800)  # renewal
        assert server.expire_leases(now=3600) == []

    def test_stale_binding_replaced_on_rejoin(self, server):
        first = server.handle(request("c1"), now=0)
        # Client comes back long after expiry without a sweep having run.
        second = server.handle(request("c1"), now=10_000)
        assert second.message_type is MessageType.ACK
        assert len(server.leases) == 1
        # Sticky allocation hands the same address back.
        assert second.your_address == first.your_address


class TestEvents:
    def collect(self, server):
        events = []
        server.subscribe(events.append)
        return events

    def test_bound_event(self, server):
        events = self.collect(server)
        server.handle(request(host_name="Brians-iPhone"), now=5)
        assert [e.kind for e in events] == [LeaseEventKind.BOUND]
        assert events[0].at == 5
        assert events[0].lease.host_name == "Brians-iPhone"

    def test_renewed_event(self, server):
        events = self.collect(server)
        server.handle(request(), now=0)
        server.handle(request(), now=1800)
        assert [e.kind for e in events] == [LeaseEventKind.BOUND, LeaseEventKind.RENEWED]

    def test_released_event(self, server):
        events = self.collect(server)
        server.handle(request(), now=0)
        server.handle(release(), now=60)
        assert [e.kind for e in events][-1] is LeaseEventKind.RELEASED
        assert events[-1].at == 60

    def test_expired_event(self, server):
        events = self.collect(server)
        server.handle(request(), now=0)
        server.expire_leases(now=3600)
        assert [e.kind for e in events][-1] is LeaseEventKind.EXPIRED

    def test_multiple_listeners(self, server):
        first, second = self.collect(server), self.collect(server)
        server.handle(request(), now=0)
        assert len(first) == len(second) == 1
