"""Cross-layer consistency properties.

These tests pin the invariants that tie the substrate layers together:
derived counts tally the derived records, the event-driven runtime
agrees with the day-level snapshot path (they share the same session draws), and
the measurement-side lingering estimate brackets the zone-journal
ground truth.
"""

import datetime as dt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GroupBuilder
from repro.ipam import CarryOverPolicy, StaticTemplatePolicy
from repro.netsim.behavior import ProfileKind, ScriptedProfile, Session
from repro.netsim.device import DaySessions, Device, DeviceNaming, model_by_key
from repro.netsim.engine import SimulationEngine
from repro.netsim.finegrained import NetworkRuntime
from repro.netsim.internet import Internet
from repro.netsim.network import CountModel, Network, NetworkType, Subnet, SubnetRole, slash24_of
from repro.netsim.person import PersonGenerator
from repro.netsim.population import make_server_entries
from repro.netsim.rng import RngStreams
from repro.netsim.simtime import DAY, HOUR, MINUTE, from_date
from repro.scan.campaign import SupplementalDataset
from repro.scan.icmp import IcmpScanner
from repro.scan.rdns import RdnsLookupEngine
from repro.scan.snapshot import derive_day
from repro.scan.reactive import ReactiveMonitor
from repro.dns.resolver import StubResolver
from tests.cli_env import env_fault_plan

START = dt.date(2021, 11, 1)


def make_device_subnet(count=10, seed=3):
    generator = PersonGenerator(RngStreams(seed).stream("pop"))
    people = generator.make_population(count, profile_kind=ProfileKind.STUDENT)
    devices = [device for person in people for device in person.devices]
    return Subnet(
        "10.0.10.0/24",
        SubnetRole.DYNAMIC_CLIENTS,
        devices=devices,
        policy=CarryOverPolicy("campus.example.edu"),
    )


def devices_for(generator, count, profile_kind, id_prefix):
    people = generator.make_population(count, id_prefix=id_prefix, profile_kind=profile_kind)
    return [device for person in people for device in person.devices]


def make_mixed_internet(seed=4):
    """An internet of one network mixing every subnet shape that maps
    records to /24s.

    Subnets are added out of address order, so first-seen /24 order
    differs from sorted order.
    """
    generator = PersonGenerator(RngStreams(seed).stream("pop"))
    suffix = "campus.example.edu"
    network = Network("mixed", NetworkType.ACADEMIC, "10.0.0.0/16", suffix, rngs=RngStreams(seed))
    subnets = [
        Subnet(
            "10.0.12.0/24",
            SubnetRole.DYNAMIC_CLIENTS,
            count_model=CountModel(mean=30),
            count_suffix="dyn.example.net",
        ),
        # A /22 whose devices spill over into a second /24.
        Subnet(
            "10.0.4.0/22",
            SubnetRole.HOUSING,
            devices=devices_for(generator, 180, ProfileKind.RESIDENT, "r"),
            policy=CarryOverPolicy(suffix),
        ),
        # Two /25s sharing one /24.
        Subnet(
            "10.0.9.128/25",
            SubnetRole.EDUCATION,
            devices=devices_for(generator, 30, ProfileKind.OFFICE_WORKER, "o"),
            policy=CarryOverPolicy(suffix),
        ),
        Subnet(
            "10.0.9.0/25",
            SubnetRole.DYNAMIC_CLIENTS,
            devices=devices_for(generator, 30, ProfileKind.STUDENT, "s"),
            policy=CarryOverPolicy(suffix),
        ),
        Subnet(
            "10.0.10.64/26",
            SubnetRole.DYNAMIC_CLIENTS,
            devices=devices_for(generator, 15, ProfileKind.STUDENT, "c"),
            policy=CarryOverPolicy(suffix),
            rdns_mode="rfc2317",
        ),
        Subnet(
            "10.0.11.0/24",
            SubnetRole.DYNAMIC_CLIENTS,
            devices=devices_for(generator, 20, ProfileKind.ALWAYS_ON, "x"),
            policy=CarryOverPolicy(suffix),
            rdns_mode="disabled",
        ),
        Subnet(
            "10.0.1.0/26",
            SubnetRole.STATIC_SERVERS,
            static_entries=make_server_entries("10.0.1.0/26", suffix),
        ),
        Subnet(
            "10.0.14.0/24",
            SubnetRole.DYNAMIC_CLIENTS,
            devices=devices_for(generator, 5, ProfileKind.OFFICE_WORKER, "t"),
            policy=StaticTemplatePolicy("dynamic.example.edu"),
        ),
    ]
    for subnet in subnets:
        network.add_subnet(subnet)
    internet = Internet()
    internet.add(network)
    return internet


MIXED = make_mixed_internet()


class TestCountRecordConsistency:
    @given(
        st.integers(min_value=0, max_value=60),
        st.one_of(st.none(), st.integers(min_value=0, max_value=DAY - 1)),
    )
    @settings(max_examples=25, deadline=None)
    def test_device_backed_counts_match_records(self, day_offset, at_offset):
        network = Network("n", NetworkType.ACADEMIC, "10.0.0.0/16", "campus.example.edu", rngs=RngStreams(0))
        network.add_subnet(make_device_subnet())
        internet = Internet()
        internet.add(network)
        day = START + dt.timedelta(days=day_offset)
        counts, (addresses, hostnames) = derive_day(internet, None, day, at_offset)
        records = list(zip(addresses.tolist(), hostnames))
        assert sum(counts.values()) == len(records)
        assert set(counts) <= {"10.0.10.0/24"}
        assert records == list(network.records_on(day, at_offset=at_offset))

    def test_network_counts_by_slash24_matches_records(self):
        network = Network("n", NetworkType.ACADEMIC, "10.0.0.0/16", "campus.example.edu", rngs=RngStreams(1))
        network.add_subnet(make_device_subnet())
        network.add_subnet(
            Subnet(
                "10.0.11.0/24",
                SubnetRole.DYNAMIC_CLIENTS,
                count_model=CountModel(mean=30),
                count_suffix="dyn.example.net",
            )
        )
        for offset in range(5):
            day = START + dt.timedelta(days=offset)
            counts = network.counts_by_slash24(day, at_offset=12 * HOUR)
            records = list(network.records_on(day, at_offset=12 * HOUR))
            assert sum(counts.values()) == len(records)


class TestDeriveDayCounts:
    """``derive_day``'s counts are a tally of its own records."""

    @given(
        st.integers(min_value=0, max_value=60),
        st.one_of(st.none(), st.integers(min_value=0, max_value=DAY - 1)),
    )
    @settings(max_examples=25, deadline=None)
    def test_counts_tally_records_in_first_seen_order(self, day_offset, at_offset):
        day = START + dt.timedelta(days=day_offset)
        counts, (addresses, hostnames) = derive_day(MIXED, None, day, at_offset)
        records = list(zip(addresses.tolist(), hostnames))
        expected = {}
        for address, _ in records:
            key = slash24_of(address)
            expected[key] = expected.get(key, 0) + 1
        assert list(counts.items()) == list(expected.items())
        network = MIXED.network("mixed")
        assert records == list(network.records_on(day, at_offset=at_offset))
        assert list(network.counts_by_slash24(day, at_offset=at_offset).items()) == list(counts.items())

    def test_every_subnet_shape_lands_in_its_slash24(self):
        day = START + dt.timedelta(days=2)
        counts, (addresses, hostnames) = derive_day(MIXED, None, day, None)
        assert addresses.dtype == np.uint32 and len(addresses) == len(hostnames)
        # The /22's devices reach a second /24; the two /25s share one
        # key; the RFC 2317 /26 counts under its covering /24; the
        # DISABLED /24 publishes nothing.
        assert {"10.0.4.0/24", "10.0.5.0/24", "10.0.9.0/24", "10.0.10.0/24"} <= set(counts)
        assert "10.0.11.0/24" not in counts
        assert counts["10.0.14.0/24"] > 200  # the whole provisioned pool
        assert list(counts)[0] == "10.0.12.0/24"  # first seen, not first sorted
        assert sum(counts.values()) == len(addresses)


class TestEventVsDayLevelConsistency:
    def test_runtime_presence_matches_sessions(self):
        device = Device(
            device_id="d1",
            model=model_by_key("iphone"),
            naming=DeviceNaming.OWNER_POSSESSIVE,
            owner_name="emma",
            owner_id="p1",
            profile=ScriptedProfile(lambda day: [Session(9 * HOUR, 15 * HOUR)]),
        )
        network = Network("n", NetworkType.ACADEMIC, "10.0.0.0/16", "campus.example.edu", rngs=RngStreams(2))
        network.add_subnet(
            Subnet(
                "10.0.10.0/24",
                SubnetRole.DYNAMIC_CLIENTS,
                devices=[device],
                policy=CarryOverPolicy("campus.example.edu"),
            )
        )
        engine = SimulationEngine(start=from_date(START))
        runtime = NetworkRuntime(network, engine)
        runtime.start(START, START)
        for check_hour, expect_online in ((8, False), (10, True), (14, True), (16, False)):
            engine.run_until(from_date(START) + check_hour * HOUR)
            assert bool(runtime.online_addresses()) == expect_online
            # The day-level path agrees.
            assert DaySessions(START, network.rngs).present(device, 1.0, check_hour * HOUR) == expect_online

    def test_zone_state_matches_online_set_during_run(self):
        subnet = make_device_subnet(count=6, seed=9)
        network = Network("n", NetworkType.ACADEMIC, "10.0.0.0/16", "campus.example.edu", rngs=RngStreams(9))
        network.add_subnet(subnet)
        engine = SimulationEngine(start=from_date(START))
        runtime = NetworkRuntime(network, engine)
        runtime.start(START, START)
        engine.run_until(from_date(START) + 13 * HOUR)
        # Online devices have PTR records; zone may hold extra records
        # for silent leavers whose leases have not expired yet.
        for address in runtime.online_addresses():
            assert network.zone.get_ptr(address) is not None


class TestMeasurementVsGroundTruth:
    def test_observed_lingering_brackets_journal_removal(self):
        device = Device(
            device_id="d1",
            model=model_by_key("iphone"),
            naming=DeviceNaming.OWNER_POSSESSIVE,
            owner_name="brian",
            owner_id="p1",
            profile=ScriptedProfile(lambda day: [Session(9 * HOUR, 9 * HOUR + 40 * MINUTE)]),
            sends_release=True,
            icmp_responds=True,
        )
        network = Network("gt", NetworkType.ACADEMIC, "10.0.0.0/16", "campus.example.edu", rngs=RngStreams(4))
        network.add_subnet(
            Subnet(
                "10.0.10.0/24",
                SubnetRole.DYNAMIC_CLIENTS,
                devices=[device],
                policy=CarryOverPolicy("campus.example.edu"),
            )
        )
        engine = SimulationEngine(start=from_date(START))
        runtime = NetworkRuntime(network, engine)
        runtime.start(START, START)
        stub = StubResolver()
        stub.delegate(network.server)
        monitor = ReactiveMonitor(engine, IcmpScanner({"gt": runtime}), RdnsLookupEngine(stub))
        end = from_date(START) + DAY - 1
        monitor.start({"gt": ["10.0.10.0/24"]}, end=end)
        engine.run_until(end)

        dataset = SupplementalDataset(
            start=START,
            end=START,
            icmp=monitor.icmp_observations,
            rdns=monitor.rdns_observations,
            targets_by_network={"gt": ["10.0.10.0/24"]},
            network_types={"gt": NetworkType.ACADEMIC},
        )
        builder = GroupBuilder()
        groups = builder.build(dataset)
        assert len(groups) == 1
        observed_removal = groups[0].removal_time()
        assert observed_removal is not None
        true_removal = network.zone.journal[-1].at
        # The observation can only lag the ground truth, by at most one
        # probe interval of the early back-off phase.
        assert 0 <= observed_removal - true_removal <= 10 * MINUTE


class TestDeterminism:
    def test_same_seed_same_measurement(self):
        def run():
            from repro.netsim.internet import WorldScale, build_world
            from repro.scan.campaign import SupplementalCampaign

            world = build_world(seed=11, scale=WorldScale.small())
            dataset = SupplementalCampaign(
                world, networks=["Academic-C"], fault_plan=env_fault_plan(world.rngs.seed)
            ).run(START, START + dt.timedelta(days=1))
            return (
                len(dataset.icmp),
                len(dataset.rdns),
                sorted(str(o.address) for o in dataset.icmp)[:5],
            )

        assert run() == run()
