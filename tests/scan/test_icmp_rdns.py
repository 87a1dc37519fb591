"""Tests for the ICMP sweeper and rDNS lookup engine."""

import datetime as dt
import ipaddress

import pytest

from repro.dns.resolver import ResolutionStatus, StubResolver
from repro.ipam import CarryOverPolicy
from repro.netsim.behavior import ScriptedProfile, Session
from repro.netsim.device import Device, DeviceNaming, model_by_key
from repro.netsim.engine import SimulationEngine
from repro.netsim.finegrained import NetworkRuntime
from repro.netsim.network import Network, NetworkType, Subnet, SubnetRole
from repro.netsim.rng import RngStreams
from repro.netsim.simtime import DAY, HOUR, from_date
from repro.scan import IcmpScanner, RdnsLookupEngine, TokenBucket

START = dt.date(2021, 11, 1)


def always_on_device(device_id="d1", icmp=True):
    return Device(
        device_id=device_id,
        model=model_by_key("iphone"),
        naming=DeviceNaming.OWNER_POSSESSIVE,
        owner_name="brian",
        owner_id=device_id,
        profile=ScriptedProfile(lambda day: [Session(0, DAY)]),
        icmp_responds=icmp,
    )


@pytest.fixture
def running_network():
    network = Network(
        "testnet",
        NetworkType.ACADEMIC,
        "10.0.0.0/16",
        "campus.example.edu",
        rngs=RngStreams(0),
    )
    network.add_subnet(
        Subnet(
            "10.0.10.0/24",
            SubnetRole.EDUCATION,
            devices=[always_on_device("d1"), always_on_device("d2", icmp=False)],
            policy=CarryOverPolicy("campus.example.edu"),
        )
    )
    engine = SimulationEngine(start=from_date(START))
    runtime = NetworkRuntime(network, engine)
    runtime.start(START, START)
    engine.run_until(from_date(START) + 12 * HOUR)
    return network, engine, runtime


class TestIcmpScanner:
    def test_sweep_reports_responders_only(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime})
        observations = scanner.sweep(["10.0.10.0/24"], engine.now)
        assert len(observations) == 1  # d2 does not respond to pings
        assert observations[0].network == "testnet"

    def test_blocklist_suppresses_probes(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime}, blocklist=["10.0.10.0/24"])
        assert scanner.sweep(["10.0.10.0/24"], engine.now) == []
        assert scanner.probes_sent == 0
        assert scanner.probes_suppressed == 256

    def test_blocklist_single_address(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime})
        online = runtime.online_addresses()[0]
        scanner.add_to_blocklist(str(online))
        assert scanner.sweep(["10.0.10.0/24"], engine.now) == []

    def test_probe_single_address(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime})
        online = runtime.online_addresses()[0]
        observation = scanner.probe(online, engine.now)
        assert observation is not None
        assert observation.address == online
        assert scanner.probe("10.0.10.200", engine.now) is None

    def test_rate_limit_suppresses(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner(
            {"testnet": runtime}, rate_limit=TokenBucket(rate=0.001, burst=10)
        )
        scanner.sweep(["10.0.10.0/24"], engine.now)
        assert scanner.probes_sent == 10
        assert scanner.probes_suppressed == 246

    def test_unknown_space_is_silent(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime})
        assert scanner.sweep(["192.168.1.0/30"], engine.now) == []


class TestBlocklistPrefixes:
    def test_large_prefix_not_materialised(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime})
        scanner.add_to_blocklist("10.0.0.0/8")  # 16M addresses
        assert len(scanner._blocked_addresses) == 0
        assert scanner._blocked_ranges == [(int(ipaddress.IPv4Address("10.0.0.0")), int(ipaddress.IPv4Address("10.255.255.255")))]

    def test_is_blocked_covers_addresses_and_prefixes(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime}, blocklist=["10.0.10.0/25", "10.0.10.200"])
        assert scanner.is_blocked("10.0.10.0")
        assert scanner.is_blocked("10.0.10.127")
        assert not scanner.is_blocked("10.0.10.128")
        assert scanner.is_blocked("10.0.10.200")
        assert not scanner.is_blocked("10.0.11.1")

    def test_sweep_and_probe_agree_with_is_blocked(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime}, blocklist=["10.0.10.0/25"])
        observations = scanner.sweep(["10.0.10.0/24"], engine.now)
        assert all(not scanner.is_blocked(obs.address) for obs in observations)
        assert scanner.probes_suppressed == 128
        for address in ("10.0.10.5", "10.0.10.100"):
            before = scanner.probes_suppressed
            assert scanner.probe(address, engine.now) is None
            assert scanner.probes_suppressed == before + 1

    def test_prefix_blocklist_suppresses_whole_sweep(self, running_network):
        network, engine, runtime = running_network
        scanner = IcmpScanner({"testnet": runtime})
        scanner.add_to_blocklist("10.0.0.0/8")
        assert scanner.sweep(["10.0.10.0/24"], engine.now) == []
        assert scanner.probes_sent == 0


class TestTargetPlanRuntimes:
    def make_runtime(self, name, prefix, subnet_prefix, start_engine=True):
        network = Network(
            name,
            NetworkType.ACADEMIC,
            prefix,
            f"{name}.example.edu",
            rngs=RngStreams(0),
        )
        network.add_subnet(
            Subnet(
                subnet_prefix,
                SubnetRole.EDUCATION,
                devices=[always_on_device(f"{name}-d1")],
                policy=CarryOverPolicy(f"{name}.example.edu"),
            )
        )
        engine = SimulationEngine(start=from_date(START))
        runtime = NetworkRuntime(network, engine)
        runtime.start(START, START)
        engine.run_until(from_date(START) + 12 * HOUR)
        return runtime, engine

    def test_target_spanning_two_networks_attributes_each_correctly(self):
        """Regression: one cached runtime per target credited every
        address in a multi-network target to the first network."""
        rt_a, engine = self.make_runtime("neta", "10.1.0.0/24", "10.1.0.0/25")
        rt_b, _ = self.make_runtime("netb", "10.1.1.0/24", "10.1.1.0/25")
        scanner = IcmpScanner({"neta": rt_a, "netb": rt_b})
        # One ZMap-style target covering both networks' space.
        observations = scanner.sweep(["10.1.0.0/23"], engine.now)
        networks_seen = {obs.network for obs in observations}
        assert networks_seen == {"neta", "netb"}
        for obs in observations:
            expected = "neta" if obs.address in rt_a.network.prefix else "netb"
            assert obs.network == expected

    def test_plan_segments_group_consecutive_runtimes(self):
        rt_a, _ = self.make_runtime("neta", "10.1.0.0/24", "10.1.0.0/25")
        rt_b, _ = self.make_runtime("netb", "10.1.1.0/24", "10.1.1.0/25")
        scanner = IcmpScanner({"neta": rt_a, "netb": rt_b})
        plan = scanner._target_plan("10.1.0.0/23")
        assert [segment[0] for segment in plan] == [rt_a, rt_b]
        assert sum(len(segment[1]) for segment in plan) == 512


class TestRetryBudget:
    def test_lost_echo_is_retried_within_budget(self, running_network):
        from repro.netsim.faults import FaultPlan, NetworkFaultProfile

        network, engine, runtime = running_network
        runtime.fault_plan = FaultPlan(
            default_profile=NetworkFaultProfile(icmp_loss_rate=1.0),
            icmp_retry_budget=4,
        )
        try:
            scanner = IcmpScanner({"testnet": runtime}, retries=4)
            observations = scanner.sweep(["10.0.10.0/24"], engine.now)
            # Total loss: the one online responder burns the whole
            # budget (4 retries on top of the first probe), every
            # attempt is counted lost, and no observation results.
            assert observations == []
            assert scanner.probes_sent == 256 + 4
            assert scanner.retries_sent == 4
            assert scanner.echoes_lost == 5
        finally:
            runtime.fault_plan = None

    def test_zero_budget_never_retries(self, running_network):
        from repro.netsim.faults import FaultPlan, NetworkFaultProfile

        network, engine, runtime = running_network
        runtime.fault_plan = FaultPlan(
            default_profile=NetworkFaultProfile(icmp_loss_rate=1.0)
        )
        try:
            scanner = IcmpScanner({"testnet": runtime})
            assert scanner.sweep(["10.0.10.0/24"], engine.now) == []
            assert scanner.probes_sent == 256
            assert scanner.retries_sent == 0
            assert scanner.echoes_lost == 1  # only the online, responding device
        finally:
            runtime.fault_plan = None

    def test_negative_budget_rejected(self, running_network):
        network, engine, runtime = running_network
        with pytest.raises(ValueError):
            IcmpScanner({"testnet": runtime}, retries=-1)


class TestRdnsLookupEngine:
    def make_engine(self, running_network, **kwargs):
        network, engine, runtime = running_network
        resolver = StubResolver()
        resolver.delegate(network.server)
        return network, engine, runtime, RdnsLookupEngine(resolver, **kwargs)

    def test_lookup_live_record(self, running_network):
        network, engine, runtime, rdns = self.make_engine(running_network)
        online = runtime.online_addresses()[0]
        observation = rdns.lookup(online, engine.now, network="testnet")
        assert observation.ok
        assert observation.hostname.endswith("campus.example.edu")
        assert rdns.lookups_performed == 1

    def test_lookup_missing_record(self, running_network):
        network, engine, runtime, rdns = self.make_engine(running_network)
        observation = rdns.lookup("10.0.10.200", engine.now)
        assert observation.status is ResolutionStatus.NXDOMAIN

    def test_status_counting_and_error_rate(self, running_network):
        network, engine, runtime, rdns = self.make_engine(running_network)
        online = runtime.online_addresses()[0]
        rdns.lookup(online, engine.now)
        rdns.lookup("10.0.10.200", engine.now)
        assert rdns.status_counts[ResolutionStatus.NOERROR] == 1
        assert rdns.status_counts[ResolutionStatus.NXDOMAIN] == 1
        assert rdns.error_rate == pytest.approx(0.5)

    def test_rate_limited_lookup_returns_none(self, running_network):
        network, engine, runtime, rdns = self.make_engine(
            running_network, rate_limit=TokenBucket(rate=0.001, burst=1)
        )
        assert rdns.lookup("10.0.10.200", engine.now) is not None
        assert rdns.lookup("10.0.10.201", engine.now) is None
        assert rdns.lookups_suppressed == 1

    def test_zero_lookups_zero_error_rate(self, running_network):
        _, _, _, rdns = self.make_engine(running_network)
        assert rdns.error_rate == 0.0
