"""Tests for DHCP client behaviour: join/renew/leave, release vs silent."""

import pytest

from repro.dhcp import (
    ANONYMITY_PROFILE,
    AddressPool,
    ClientFqdn,
    DhcpClient,
    DhcpClientState,
    DhcpError,
    DhcpServer,
    LeaseEventKind,
)


@pytest.fixture
def server():
    return DhcpServer(AddressPool("192.0.2.0/28"), lease_time=3600)


class TestJoin:
    def test_join_binds_address(self, server):
        client = DhcpClient("phone-1", host_name="Brians-iPhone")
        address = client.join(server, now=0)
        assert address is not None
        assert client.state is DhcpClientState.BOUND
        assert client.lease_time == 3600
        lease = server.leases.find_by_client("phone-1")
        assert lease.address == address
        assert lease.host_name == "Brians-iPhone"

    def test_join_failure_when_pool_full(self):
        server = DhcpServer(AddressPool("192.0.2.0/30"), lease_time=3600)
        assert DhcpClient("a").join(server, 0) is not None
        assert DhcpClient("b").join(server, 0) is not None
        assert DhcpClient("c").join(server, 0) is None

    def test_rejoin_gets_sticky_address(self, server):
        client = DhcpClient("phone-1")
        first = client.join(server, now=0)
        client.leave(server, now=100)
        again = client.join(server, now=200)
        assert again == first


class TestRenew:
    def test_renew_keeps_binding(self, server):
        client = DhcpClient("phone-1")
        address = client.join(server, now=0)
        assert client.renew(server, now=1800)
        assert client.address == address

    def test_renew_without_bind_raises(self, server):
        with pytest.raises(DhcpError):
            DhcpClient("phone-1").renew(server, now=0)


class TestLeave:
    def test_clean_leave_sends_release(self, server):
        events = []
        server.subscribe(events.append)
        client = DhcpClient("phone-1", sends_release=True)
        client.join(server, now=0)
        assert client.leave(server, now=600)
        assert events[-1].kind is LeaseEventKind.RELEASED
        assert client.state is DhcpClientState.INIT
        assert client.address is None

    def test_silent_leave_keeps_lease_until_expiry(self, server):
        events = []
        server.subscribe(events.append)
        client = DhcpClient("phone-1", sends_release=False)
        client.join(server, now=0)
        assert not client.leave(server, now=600)
        assert [e.kind for e in events] == [LeaseEventKind.BOUND]
        # The lease ages out only at bound_at + duration.
        server.expire_leases(now=3599)
        assert len(server.leases) == 1
        server.expire_leases(now=3600)
        assert len(server.leases) == 0
        assert events[-1].kind is LeaseEventKind.EXPIRED

    def test_leave_while_unbound_is_noop(self, server):
        assert not DhcpClient("phone-1").leave(server, now=0)


class TestIdentityOptions:
    def test_host_name_reaches_server(self, server):
        client = DhcpClient("phone-1", host_name="Brians-Galaxy-Note9")
        address = client.join(server, now=0)
        lease = server.leases.find_by_client("phone-1")
        assert lease.address == address
        assert lease.host_name == "Brians-Galaxy-Note9"

    def test_client_fqdn_carried(self):
        client = DhcpClient("phone-1", client_fqdn=ClientFqdn("brian.example.org"))
        assert client._base_options().client_fqdn.fqdn == "brian.example.org"

    def test_anonymity_profile_strips_host_name(self, server):
        client = DhcpClient(
            "phone-1",
            host_name="Brians-iPhone",
            anonymity_profile=ANONYMITY_PROFILE,
        )
        assert client.join(server, now=0) is not None
        assert server.leases.find_by_client("phone-1").host_name is None

    def test_effective_host_name_without_profile(self, server):
        assert DhcpClient("x", host_name="n").join(server, now=0) is not None
        assert server.leases.find_by_client("x").host_name == "n"
