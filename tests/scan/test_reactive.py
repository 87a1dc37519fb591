"""Tests for the back-off schedule and reactive monitor."""

import datetime as dt

from repro.dns.resolver import ResolutionStatus, StubResolver
from repro.ipam import CarryOverPolicy
from repro.netsim.behavior import ScriptedProfile, Session
from repro.netsim.device import Device, DeviceNaming, model_by_key
from repro.netsim.engine import SimulationEngine
from repro.netsim.finegrained import NetworkRuntime
from repro.netsim.network import Network, NetworkType, Subnet, SubnetRole
from repro.netsim.rng import RngStreams
from repro.netsim.simtime import DAY, HOUR, MINUTE, from_date
from repro.scan import BackoffSchedule, IcmpScanner, RdnsLookupEngine, ReactiveMonitor

START = dt.date(2021, 11, 1)


class TestBackoffSchedule:
    def test_table2_shape(self):
        schedule = BackoffSchedule()
        intervals = []
        generator = schedule.intervals(max_tail=2)
        intervals = list(generator)
        assert intervals[:12] == [5 * MINUTE] * 12
        assert intervals[12:18] == [10 * MINUTE] * 6
        assert intervals[18:21] == [20 * MINUTE] * 3
        assert intervals[21:23] == [30 * MINUTE] * 2
        assert intervals[23:] == [60 * MINUTE] * 2

    def test_fixed_part_covers_four_hours(self):
        assert BackoffSchedule().total_scheduled_duration() == 4 * HOUR

    def test_unbounded_tail(self):
        generator = BackoffSchedule().intervals()
        for _ in range(30):
            interval = next(generator)
        assert interval == 60 * MINUTE


def scripted_device(device_id, sessions, **kwargs):
    return Device(
        device_id=device_id,
        model=model_by_key("iphone"),
        naming=DeviceNaming.OWNER_POSSESSIVE,
        owner_name="brian",
        owner_id=device_id,
        profile=ScriptedProfile(lambda day: list(sessions)),
        icmp_responds=True,
        **kwargs,
    )


def run_monitor(devices, *, days=1, lease_time=3600):
    network = Network(
        "mon-net",
        NetworkType.ACADEMIC,
        "10.0.0.0/16",
        "campus.example.edu",
        lease_time=lease_time,
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
    engine = SimulationEngine(start=from_date(START))
    runtime = NetworkRuntime(network, engine)
    runtime.start(START, START + dt.timedelta(days=days - 1))
    resolver = StubResolver()
    resolver.delegate(network.server)
    scanner = IcmpScanner({"mon-net": runtime})
    rdns = RdnsLookupEngine(resolver)
    monitor = ReactiveMonitor(engine, scanner, rdns)
    end = from_date(START) + days * DAY - 1
    monitor.start({"mon-net": ["10.0.10.0/24"]}, end=end)
    engine.run_until(end)
    return monitor


class TestReactiveMonitor:
    def test_hourly_sweeps_run(self):
        monitor = run_monitor([scripted_device("d1", [Session(0, DAY)])])
        assert monitor.sweeps_run == 24

    def test_client_appearance_triggers_spot_rdns(self):
        device = scripted_device("d1", [Session(9 * HOUR, 20 * HOUR)])
        monitor = run_monitor([device])
        # The 9:00 sweep detects the client; a spot lookup runs then.
        spot = [o for o in monitor.rdns_observations if o.at == from_date(START) + 9 * HOUR]
        assert spot
        assert spot[0].ok
        assert spot[0].hostname == "brians-iphone.campus.example.edu"

    def test_departure_followed_until_record_removed(self):
        # Depart while the follow is still probing every 5 minutes, so
        # detection is sharp (later in the back-off, the ICMP slop the
        # paper filters out in Table 5 would apply).
        leave_at = 9 * HOUR + 47 * MINUTE
        device = scripted_device("d1", [Session(9 * HOUR, leave_at)])
        monitor = run_monitor([device])
        nxdomains = [
            o for o in monitor.rdns_observations if o.status is ResolutionStatus.NXDOMAIN
        ]
        assert nxdomains
        removal = min(o.at for o in nxdomains if o.at > from_date(START) + leave_at)
        # Clean release: the record vanishes right after departure; the
        # follow sees it within the first 5-minute probes.
        assert removal - (from_date(START) + leave_at) <= 15 * MINUTE

    def test_reactive_pings_follow_backoff(self):
        device = scripted_device("d1", [Session(9 * HOUR, 20 * HOUR)])
        monitor = run_monitor([device])
        # Between 9:00 (detection) and 10:00 the follow probes every
        # 5 minutes: 12 reactive + 1-2 sweep responses.
        base = from_date(START) + 9 * HOUR
        first_hour = [
            o for o in monitor.icmp_observations if base < o.at <= base + HOUR
        ]
        assert len(first_hour) >= 12

    def test_blocked_devices_never_generate_follows(self):
        device = scripted_device("d1", [Session(0, DAY)])
        device.icmp_responds = False
        monitor = run_monitor([device])
        assert monitor.icmp_observations == []
        assert monitor.rdns_observations == []

    def test_rejoin_supersedes_stale_follow(self):
        device = scripted_device(
            "d1", [Session(8 * HOUR, 10 * HOUR + 30 * MINUTE), Session(11 * HOUR + 30 * MINUTE, 20 * HOUR)]
        )
        monitor = run_monitor([device])
        # The device disappears and returns; the monitor must keep
        # producing ICMP observations well into the second session.
        late = [o for o in monitor.icmp_observations if o.at >= from_date(START) + 15 * HOUR]
        assert late
