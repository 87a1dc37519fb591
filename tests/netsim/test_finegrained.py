"""Tests for the event-driven network runtime."""

import datetime as dt

import pytest

from repro.dns import ZoneChangeKind
from repro.ipam import CarryOverPolicy
from repro.netsim.behavior import ScriptedProfile, Session
from repro.netsim.device import Device, DeviceNaming, model_by_key
from repro.netsim.engine import SimulationEngine
from repro.netsim.finegrained import ECHO_REPLY, NetworkRuntime, build_runtimes
from repro.netsim.network import IcmpPolicy, Network, NetworkType, Subnet, SubnetRole
from repro.netsim.rng import RngStreams
from repro.netsim.simtime import DAY, HOUR, MINUTE, from_date

START = dt.date(2021, 11, 1)


def scripted_device(device_id, sessions, *, sends_release=True, icmp=True, owner="brian"):
    return Device(
        device_id=device_id,
        model=model_by_key("iphone"),
        naming=DeviceNaming.OWNER_POSSESSIVE,
        owner_name=owner,
        owner_id=device_id,
        profile=ScriptedProfile(lambda day: list(sessions)),
        sends_release=sends_release,
        icmp_responds=icmp,
    )


def make_network(devices, *, lease_time=3600, icmp_policy=IcmpPolicy.ALLOW):
    network = Network(
        "testnet",
        NetworkType.ACADEMIC,
        "10.0.0.0/16",
        "campus.example.edu",
        lease_time=lease_time,
        icmp_policy=icmp_policy,
        rngs=RngStreams(0),
    )
    network.add_subnet(
        Subnet(
            "10.0.10.0/24",
            SubnetRole.EDUCATION,
            devices=devices,
            policy=CarryOverPolicy("campus.example.edu"),
        )
    )
    return network


def run_one_day(devices, **network_kwargs):
    network = make_network(devices, **network_kwargs)
    engine = SimulationEngine(start=from_date(START))
    runtime = NetworkRuntime(network, engine)
    runtime.start(START, START)
    engine.run_until(from_date(START) + 2 * DAY)
    return network, runtime


class TestJoinLeaveCycle:
    def test_ptr_added_on_join_removed_after_release(self):
        device = scripted_device("d1", [Session(9 * HOUR, 11 * HOUR)])
        network, runtime = run_one_day(devices=[device])
        journal = network.zone.journal
        kinds = [change.kind for change in journal]
        assert kinds == [ZoneChangeKind.ADD, ZoneChangeKind.REMOVE]
        add, remove = journal
        assert add.at == from_date(START) + 9 * HOUR
        assert remove.at == from_date(START) + 11 * HOUR
        assert add.new_hostname == "brians-iphone.campus.example.edu"

    def test_silent_leave_lingers_until_lease_expiry(self):
        device = scripted_device("d1", [Session(9 * HOUR, 10 * HOUR)], sends_release=False)
        network, runtime = run_one_day(devices=[device], lease_time=3600)
        add, remove = network.zone.journal
        # Last renewal at 9:30, so the lease runs out at 10:30; the
        # sweep fires on the next 5-minute boundary.
        linger = remove.at - (from_date(START) + 10 * HOUR)
        assert 25 * MINUTE <= linger <= 40 * MINUTE

    def test_short_visit_without_renewal_lingers_toward_full_lease(self):
        device = scripted_device("d1", [Session(9 * HOUR, 9 * HOUR + 10 * MINUTE)], sends_release=False)
        network, runtime = run_one_day(devices=[device], lease_time=3600)
        add, remove = network.zone.journal
        linger = remove.at - (from_date(START) + 9 * HOUR + 10 * MINUTE)
        assert 45 * MINUTE <= linger <= 55 * MINUTE

    def test_two_sessions_two_cycles(self):
        device = scripted_device(
            "d1", [Session(9 * HOUR, 10 * HOUR), Session(14 * HOUR, 15 * HOUR)]
        )
        network, runtime = run_one_day(devices=[device])
        kinds = [change.kind for change in network.zone.journal]
        assert kinds == [
            ZoneChangeKind.ADD,
            ZoneChangeKind.REMOVE,
            ZoneChangeKind.ADD,
            ZoneChangeKind.REMOVE,
        ]
        assert runtime.joins == 2
        assert runtime.leaves == 2

    def test_sticky_readdressing_across_sessions(self):
        device = scripted_device(
            "d1", [Session(9 * HOUR, 10 * HOUR), Session(14 * HOUR, 15 * HOUR)]
        )
        network, _ = run_one_day(devices=[device])
        adds = [c for c in network.zone.journal if c.kind is ZoneChangeKind.ADD]
        assert adds[0].address == adds[1].address


class TestRenewals:
    def test_long_session_renews_and_survives(self):
        device = scripted_device("d1", [Session(8 * HOUR, 16 * HOUR)], sends_release=False)
        network, _ = run_one_day(devices=[device], lease_time=3600)
        add = network.zone.journal[0]
        remove = network.zone.journal[-1]
        # A single add and a single remove: no expiry churn mid-session.
        assert len(network.zone.journal) == 2
        assert remove.at - add.at >= 8 * HOUR


class TestIcmpObservability:
    def test_online_device_responds(self):
        device = scripted_device("d1", [Session(0, DAY)])
        network, runtime = run_one_day(devices=[device])
        # After the runtime ran past the end, the device left; check
        # mid-day state by re-running to noon instead.
        engine = SimulationEngine(start=from_date(START))
        runtime = NetworkRuntime(make_network([device]), engine)
        runtime.start(START, START)
        engine.run_until(from_date(START) + 12 * HOUR)
        addresses = runtime.online_addresses()
        assert len(addresses) == 1
        assert runtime.echo_outcome(addresses[0]) == ECHO_REPLY
        assert runtime._online[addresses[0]] is device

    def test_blocked_network_never_responds(self):
        device = scripted_device("d1", [Session(0, DAY)])
        engine = SimulationEngine(start=from_date(START))
        runtime = NetworkRuntime(
            make_network([device], icmp_policy=IcmpPolicy.BLOCK), engine
        )
        runtime.start(START, START)
        engine.run_until(from_date(START) + 12 * HOUR)
        addresses = runtime.online_addresses()
        assert addresses
        assert runtime.echo_outcome(addresses[0]) != ECHO_REPLY

    def test_allowlist_bypasses_block(self):
        device = scripted_device("d1", [Session(0, DAY)])
        network = make_network([device], icmp_policy=IcmpPolicy.BLOCK)
        network.icmp_allowlist = {__import__("ipaddress").IPv4Address("10.0.2.61")}
        engine = SimulationEngine(start=from_date(START))
        runtime = NetworkRuntime(network, engine)
        assert runtime.echo_outcome("10.0.2.61") == ECHO_REPLY

    def test_non_responding_device(self):
        device = scripted_device("d1", [Session(0, DAY)], icmp=False)
        engine = SimulationEngine(start=from_date(START))
        runtime = NetworkRuntime(make_network([device]), engine)
        runtime.start(START, START)
        engine.run_until(from_date(START) + 12 * HOUR)
        addresses = runtime.online_addresses()
        assert addresses
        assert runtime.echo_outcome(addresses[0]) != ECHO_REPLY

    def test_offline_address_does_not_respond(self):
        device = scripted_device("d1", [Session(9 * HOUR, 10 * HOUR)])
        network, runtime = run_one_day(devices=[device])
        assert runtime.online_addresses() == []
        assert runtime.echo_outcome("10.0.10.10") != ECHO_REPLY


class TestBuildRuntimes:
    def test_one_runtime_per_network(self):
        engine = SimulationEngine()
        networks = [make_network([scripted_device("d1", [Session(0, HOUR)])])]
        runtimes = build_runtimes(networks, engine)
        assert set(runtimes) == {"testnet"}

    def test_start_validates_range(self):
        engine = SimulationEngine(start=from_date(START))
        network = make_network([scripted_device("d1", [Session(0, HOUR)])])
        runtime = NetworkRuntime(network, engine)
        with pytest.raises(ValueError):
            runtime.start(START, START - dt.timedelta(days=1))
