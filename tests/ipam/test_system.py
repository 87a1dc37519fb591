"""Tests for the IPAM bridge: lease events driving zone changes."""

import pytest

from repro.dhcp import AddressPool, ClientFqdn, DhcpClient, DhcpServer
from repro.dns import ReverseZone, ZoneChangeKind
from repro.ipam import CarryOverPolicy, IpamSystem, NoUpdatePolicy, StaticTemplatePolicy


def build_stack(policy=None, lease_time=3600, **ipam_kwargs):
    zone = ReverseZone("192.0.2.0/24")
    server = DhcpServer(AddressPool("192.0.2.0/24"), lease_time=lease_time)
    policy = policy or CarryOverPolicy("campus.example.edu")
    ipam = IpamSystem(zone, policy, **ipam_kwargs).attach(server)
    return zone, server, ipam


def provision(zone, policy):
    """Pre-create the policy's fixed-form PTR for every address of the zone."""
    for address in zone.prefix:
        hostname = policy.static_hostname_for(address)
        if hostname is not None:
            zone.set_ptr(address, hostname)


class TestBindAddsPtr:
    def test_join_publishes_device_name(self):
        zone, server, _ = build_stack()
        client = DhcpClient("phone-1", host_name="Brian's iPhone")
        address = client.join(server, now=0)
        assert zone.get_hostname(address) == "brians-iphone.campus.example.edu"

    def test_renewal_does_not_touch_record(self):
        zone, server, _ = build_stack()
        client = DhcpClient("phone-1", host_name="Brian's iPhone")
        address = client.join(server, now=0)
        serial = zone.serial
        client.renew(server, now=1800)
        assert zone.serial == serial
        assert zone.get_hostname(address) == "brians-iphone.campus.example.edu"

    def test_host_name_change_updates_record(self):
        zone, server, _ = build_stack()
        client = DhcpClient("phone-1", host_name="old-name")
        address = client.join(server, now=0)
        client.host_name = "new-name"
        client.renew(server, now=600)
        assert zone.get_hostname(address) == "new-name.campus.example.edu"

    def test_no_update_policy_publishes_nothing(self):
        zone, server, ipam = build_stack(policy=NoUpdatePolicy("campus.example.edu"))
        client = DhcpClient("phone-1", host_name="Brian's iPhone")
        client.join(server, now=0)
        assert len(zone) == 0
        assert ipam.updates_suppressed == 1


class TestPhaseThreeReverts:
    def test_release_removes_ptr(self):
        zone, server, _ = build_stack()
        client = DhcpClient("phone-1", host_name="x", sends_release=True)
        address = client.join(server, now=0)
        client.leave(server, now=900)
        assert zone.get_ptr(address) is None
        removal = zone.journal[-1]
        assert removal.kind is ZoneChangeKind.REMOVE
        assert removal.at == 900

    def test_silent_leave_removes_ptr_only_at_expiry(self):
        zone, server, _ = build_stack()
        client = DhcpClient("phone-1", host_name="x", sends_release=False)
        address = client.join(server, now=0)
        client.leave(server, now=900)
        assert zone.get_ptr(address) is not None
        server.expire_leases(now=3600)
        assert zone.get_ptr(address) is None
        assert zone.journal[-1].at == 3600

    def test_remove_on_release_disabled_leaves_record(self):
        zone, server, _ = build_stack(remove_on_release=False)
        client = DhcpClient("phone-1", host_name="x")
        address = client.join(server, now=0)
        client.leave(server, now=900)
        assert zone.get_ptr(address) is not None

    def test_static_policy_reverts_to_template(self):
        policy = StaticTemplatePolicy("dynamic.institute.edu")
        zone, server, _ = build_stack(policy=policy)
        client = DhcpClient("phone-1", host_name="Brian's iPhone")
        address = client.join(server, now=0)
        client.leave(server, now=900)
        assert zone.get_hostname(address) == policy.static_hostname_for(address)


class TestStaticProvisioning:
    def test_provision_creates_record_per_address(self):
        zone = ReverseZone("192.0.2.0/29")
        provision(zone, StaticTemplatePolicy("dynamic.institute.edu"))
        assert len(zone) == 8

    def test_zone_content_constant_through_churn(self):
        # A static-template network is DHCP-dynamic but rDNS-static: the
        # dynamicity heuristic must see no change.  (The 83 prefixes from
        # the paper's validation.)
        policy = StaticTemplatePolicy("dynamic.institute.edu")
        zone = ReverseZone("192.0.2.0/28")
        server = DhcpServer(AddressPool("192.0.2.0/28"), lease_time=3600)
        IpamSystem(zone, policy).attach(server)
        provision(zone, policy)
        before = dict(zone.entries())
        client = DhcpClient("phone-1", host_name="Brian's iPhone")
        client.join(server, now=0)
        client.leave(server, now=600)
        assert dict(zone.entries()) == before

    def test_carry_over_policy_provisions_nothing(self):
        zone = ReverseZone("192.0.2.0/29")
        provision(zone, CarryOverPolicy("campus.example.edu"))
        assert len(zone) == 0


class TestClientOptOut:
    def opted_out_client(self):
        return DhcpClient(
            "phone-1",
            host_name="Brian's iPhone",
            client_fqdn=ClientFqdn("brians-iphone.example.org", no_server_update=True),
        )

    def test_opt_out_ignored_by_default(self):
        zone, server, _ = build_stack()
        address = self.opted_out_client().join(server, now=0)
        assert zone.get_ptr(address) is not None

    def test_opt_out_honored_when_configured(self):
        zone, server, ipam = build_stack(honor_client_no_update=True)
        address = self.opted_out_client().join(server, now=0)
        assert zone.get_ptr(address) is None
        assert ipam.updates_suppressed == 1


class TestUpdateDelay:
    def test_updates_queue_until_flush(self):
        zone, server, ipam = build_stack(update_delay_seconds=120)
        client = DhcpClient("phone-1", host_name="x")
        address = client.join(server, now=0)
        assert zone.get_ptr(address) is None
        assert ipam.flush_pending(now=119) == 0
        assert ipam.flush_pending(now=120) == 1
        assert zone.get_ptr(address) is not None
        assert zone.journal[-1].at == 120

    def test_negative_delay_rejected(self):
        zone = ReverseZone("192.0.2.0/29")
        with pytest.raises(ValueError):
            IpamSystem(zone, CarryOverPolicy("x.example"), update_delay_seconds=-1)

    def test_flush_applies_in_time_order(self):
        zone, server, ipam = build_stack(update_delay_seconds=60)
        client = DhcpClient("phone-1", host_name="x", sends_release=True)
        address = client.join(server, now=0)
        client.leave(server, now=30)
        ipam.flush_pending(now=1000)
        # Add at t=60, remove at t=90: the record must end up absent.
        assert zone.get_ptr(address) is None
        kinds = [change.kind for change in zone.journal]
        assert kinds == [ZoneChangeKind.ADD, ZoneChangeKind.REMOVE]
