"""Tests for the Internet container, world building and personas."""

import datetime as dt
import ipaddress

import pytest

from repro.netsim.calendar import cyber_monday, thanksgiving
from repro.netsim.internet import Internet, WorldScale, build_world
from repro.netsim.network import IcmpPolicy, Network, NetworkType, Subnet, SubnetRole
from repro.netsim.personas import BRIAN_HOSTNAME_LABELS, make_brian_devices
from repro.netsim.rng import RngStreams


@pytest.fixture(scope="module")
def world():
    return build_world(seed=3, scale=WorldScale.small())


class TestInternetContainer:
    def test_duplicate_names_rejected(self):
        internet = Internet()
        internet.add(Network("a", NetworkType.OTHER, "10.0.0.0/16", "a.example"))
        with pytest.raises(ValueError):
            internet.add(Network("a", NetworkType.OTHER, "11.0.0.0/16", "a2.example"))

    def test_overlapping_prefixes_rejected(self):
        internet = Internet()
        internet.add(Network("a", NetworkType.OTHER, "10.0.0.0/16", "a.example"))
        with pytest.raises(ValueError):
            internet.add(Network("b", NetworkType.OTHER, "10.0.128.0/17", "b.example"))

    def test_network_lookup(self, world):
        assert world.internet.network("Academic-A").name == "Academic-A"


class TestCacheTokenMemo:
    def test_add_and_a_late_subnet_change_the_token_as_uncached(self):
        internet = Internet()
        internet.add(Network("a", NetworkType.OTHER, "10.0.0.0/16", "a.example"))
        first = internet.cache_token()
        assert first == internet._compute_token()

        late = internet.add(Network("b", NetworkType.OTHER, "11.0.0.0/16", "b.example"))
        second = internet.cache_token()
        assert second != first
        assert second == internet._compute_token()

        # A subnet joining a member network after the token was taken.
        late.add_subnet(
            Subnet(
                "11.0.1.0/24",
                SubnetRole.STATIC_SERVERS,
                static_entries=[(ipaddress.IPv4Address("11.0.1.5"), "www.b.example")],
            )
        )
        third = internet.cache_token()
        assert third not in (first, second)
        assert third == internet._compute_token()
        assert internet.cache_token() == third


class TestBuiltWorld:
    def test_supplemental_networks_present(self, world):
        expected = {
            "Academic-A", "Academic-B", "Academic-C",
            "Enterprise-A", "Enterprise-B", "Enterprise-C",
            "ISP-A", "ISP-B", "ISP-C",
        }
        assert expected <= set(world.supplemental)

    def test_icmp_policies_match_table4(self, world):
        # Enterprise-B and Enterprise-C block pings; Academic-B mostly.
        assert world.supplemental["Enterprise-B"].icmp_policy is IcmpPolicy.BLOCK
        assert world.supplemental["Enterprise-C"].icmp_policy is IcmpPolicy.BLOCK
        assert world.supplemental["Academic-B"].icmp_policy is IcmpPolicy.BLOCK
        assert len(world.supplemental["Academic-B"].icmp_allowlist) == 2
        assert world.supplemental["Academic-A"].icmp_policy is IcmpPolicy.ALLOW

    def test_academic_a_has_longer_lease(self, world):
        # The Figure-7b laggard.
        assert world.supplemental["Academic-A"].lease_time > world.supplemental["Academic-C"].lease_time

    def test_records_deterministic_for_seed(self):
        day = dt.date(2021, 3, 1)
        world_a = build_world(seed=5, scale=WorldScale.small())
        world_b = build_world(seed=5, scale=WorldScale.small())
        assert sorted(map(str, dict(world_a.internet.records_on(day)))) == sorted(
            map(str, dict(world_b.internet.records_on(day)))
        )

    def test_announced_prefix_sizes_span_figure1_range(self, world):
        sizes = {p.prefix.prefixlen for p in world.internet.announced_prefixes()}
        assert sizes & {12, 16, 20, 23}

    def test_resolver_answers_for_world_records(self, world):
        day = dt.date(2021, 3, 1)
        # Snapshot state is day-level; the resolver reads live zone
        # state, so only verify delegation coverage here.
        resolver = world.internet.resolver()
        for network in world.internet.networks[:5]:
            address = next(network.prefix.hosts())
            assert resolver.server_for(
                __import__("repro.dns.name", fromlist=["reverse_pointer"]).reverse_pointer(address)
            ) is network.server

    def test_supplemental_targets_are_device_backed(self, world):
        targets = world.supplemental_targets("Academic-A")
        assert targets
        assert all(subnet.devices for subnet in targets)


class TestBrianPersonas:
    def test_five_tracked_hostnames(self):
        education, housing = make_brian_devices(2021)
        labels = set()
        from repro.ipam.hostname import sanitize_host_name

        for device in education + housing:
            labels.add(sanitize_host_name(device.host_name()))
        assert labels == set(BRIAN_HOSTNAME_LABELS)

    def test_brians_gone_over_thanksgiving(self):
        rngs = RngStreams(0)
        education, housing = make_brian_devices(2021)
        holiday = thanksgiving(2021)
        for device in education + housing:
            assert device.sessions_for_day(holiday, rngs) == []

    def test_note9_first_appears_cyber_monday_afternoon(self):
        _, housing = make_brian_devices(2021)
        note9 = next(d for d in housing if "note9" in d.device_id)
        rngs = RngStreams(0)
        monday = cyber_monday(2021)
        assert note9.sessions_for_day(monday - dt.timedelta(days=3), rngs) == []
        sessions = note9.sessions_for_day(monday, rngs)
        assert sessions
        assert sessions[0].start >= 12 * 3600  # afternoon
        assert note9.sessions_for_day(monday + dt.timedelta(days=1), rngs)

    def test_mbp_noon_pattern(self):
        education, _ = make_brian_devices(2021)
        mbp = next(d for d in education if "mbp" in d.device_id)
        rngs = RngStreams(0)
        day = dt.date(2021, 11, 10)  # a Wednesday
        sessions = mbp.sessions_for_day(day, rngs)
        assert len(sessions) == 1
        assert 10 * 3600 <= sessions[0].start <= 13 * 3600
        assert sessions[0].duration <= 4 * 3600

    def test_brian_devices_in_world_zone_space(self, world):
        academic_a = world.supplemental["Academic-A"]
        device_ids = {d.device_id for subnet in academic_a.subnets for d in subnet.devices}
        assert any("brian-office" in device_id for device_id in device_ids)
        assert any("brian-resident" in device_id for device_id in device_ids)
