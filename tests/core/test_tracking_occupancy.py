"""Tests for device tracking (Fig. 8) and occupancy analyses (Figs. 9-11)."""

import datetime as dt
import ipaddress

import pytest

from repro.core import DeviceTracker, HeistPlanner, relative_daily_presence
from repro.core.occupancy import crossover_dates, hourly_activity, subnet_presence_split
from repro.dns.resolver import ResolutionStatus
from repro.netsim.simtime import HOUR, from_date
from repro.scan.campaign import SupplementalDataset
from repro.scan.observations import IcmpObservation, RdnsObservation

DAY0 = dt.date(2021, 11, 1)


def sighting(day_offset, hour, label="brians-mbp", address="20.0.10.10", ok=True, network="Academic-A"):
    at = from_date(DAY0 + dt.timedelta(days=day_offset)) + hour * HOUR
    status = ResolutionStatus.NOERROR if ok else ResolutionStatus.NXDOMAIN
    return RdnsObservation(
        ipaddress.IPv4Address(address),
        at,
        status,
        f"{label}.campus.stateu.edu" if ok else "",
        network,
    )


class TestDeviceTracker:
    def test_track_selects_name_carrying_labels(self):
        observations = [
            sighting(0, 12),
            sighting(0, 13, label="emmas-ipad", address="20.0.10.11"),
        ]
        devices = DeviceTracker(observations).track("brian")
        assert set(devices) == {"brians-mbp"}
        assert devices["brians-mbp"].sightings

    def test_failed_lookups_ignored(self):
        devices = DeviceTracker([sighting(0, 12, ok=False)]).track("brian")
        assert devices == {}

    def test_network_filter(self):
        observations = [
            sighting(0, 12),
            sighting(0, 12, network="Academic-C", address="22.0.10.10"),
        ]
        devices = DeviceTracker(observations).track("brian", network="Academic-A")
        assert len(devices["brians-mbp"].sightings) == 1

    def test_presence_matrix_shape(self):
        observations = [sighting(0, 12), sighting(2, 12)]
        matrix = DeviceTracker(observations).presence_matrix("brian", DAY0, 4)
        assert matrix["brians-mbp"] == [True, False, True, False]

    def test_presence_matrix_with_fixed_labels(self):
        matrix = DeviceTracker([sighting(0, 12)]).presence_matrix(
            "brian", DAY0, 2, labels=["brians-mbp", "brians-phone"]
        )
        assert matrix["brians-phone"] == [False, False]

    def test_stable_address_tracking(self):
        observations = [sighting(0, 12), sighting(1, 12), sighting(2, 12, address="20.0.10.99")]
        device = DeviceTracker(observations).track("brian")["brians-mbp"]
        assert [str(a) for a in device.addresses()] == ["20.0.10.10", "20.0.10.99"]

    def test_new_device_appearances_ordered(self):
        observations = [
            sighting(0, 12, label="brians-mbp"),
            sighting(3, 15, label="brians-galaxy-note9", address="20.0.10.30"),
        ]
        appearances = DeviceTracker(observations).new_device_appearances("brian")
        assert [label for label, _ in appearances] == ["brians-mbp", "brians-galaxy-note9"]
        assert appearances[1][1] == from_date(DAY0 + dt.timedelta(days=3)) + 15 * HOUR


class FakeSeries:
    """A minimal SnapshotSeries stand-in for occupancy tests."""

    def __init__(self, counts_by_day):
        self._counts = counts_by_day

    @property
    def days(self):
        return sorted(self._counts)

    def counts_by_slash24(self, day):
        return self._counts[day]


class TestRelativePresence:
    def test_percent_of_max(self):
        series = FakeSeries(
            {
                DAY0: {"20.0.10.0/24": 100},
                DAY0 + dt.timedelta(days=1): {"20.0.10.0/24": 50},
            }
        )
        presence = relative_daily_presence(series, ["20.0.0.0/16"])
        assert presence[DAY0] == 100.0
        assert presence[DAY0 + dt.timedelta(days=1)] == 50.0

    def test_prefix_filtering(self):
        series = FakeSeries({DAY0: {"20.0.10.0/24": 100, "30.0.10.0/24": 900}})
        presence = relative_daily_presence(series, ["20.0.0.0/16"])
        assert presence[DAY0] == 100.0

    def test_empty_series(self):
        series = FakeSeries({DAY0: {}})
        assert relative_daily_presence(series, ["20.0.0.0/16"]) == {DAY0: 0.0}

    def test_subnet_split_normalises_per_group(self):
        series = FakeSeries(
            {
                DAY0: {"22.0.10.0/24": 200, "22.0.20.0/24": 40},
                DAY0 + dt.timedelta(days=1): {"22.0.10.0/24": 100, "22.0.20.0/24": 80},
            }
        )
        split = subnet_presence_split(
            series,
            {"education": ["22.0.10.0/24"], "housing": ["22.0.20.0/24"]},
        )
        assert split["education"][DAY0] == 100.0
        assert split["housing"][DAY0 + dt.timedelta(days=1)] == 100.0

    def test_crossover_detection(self):
        d1, d2, d3 = DAY0, DAY0 + dt.timedelta(days=1), DAY0 + dt.timedelta(days=2)
        education = {d1: 100.0, d2: 60.0, d3: 40.0}
        housing = {d1: 70.0, d2: 65.0, d3: 90.0}
        crossings = crossover_dates(education, housing)
        assert crossings == [d2]


def heist_dataset():
    icmp, rdns = [], []
    for day_offset in range(3):  # Mon-Wed
        day_ts = from_date(DAY0 + dt.timedelta(days=day_offset))
        for hour in range(24):
            # Diurnal: busy at 14:00, quiet at 06:00.
            active = 2 if hour == 6 else (20 if hour == 14 else 8)
            for index in range(active):
                address = ipaddress.IPv4Address(f"20.0.10.{10 + index}")
                at = day_ts + hour * HOUR + 60
                icmp.append(IcmpObservation(address, at, "Academic-A"))
                rdns.append(
                    RdnsObservation(
                        address, at, ResolutionStatus.NOERROR,
                        f"host{index}.campus.stateu.edu", "Academic-A",
                    )
                )
    return SupplementalDataset(
        start=DAY0,
        end=DAY0 + dt.timedelta(days=3),
        icmp=icmp,
        rdns=rdns,
        targets_by_network={"Academic-A": ["20.0.10.0/24"]},
        network_types={},
    )


class TestHeistPlanner:
    def test_hourly_activity_counts_distinct_addresses(self):
        dataset = heist_dataset()
        icmp_hours, rdns_hours = hourly_activity(dataset, "Academic-A")
        noon_peak = from_date(DAY0) + 14 * HOUR
        assert icmp_hours[noon_peak] == 20
        assert rdns_hours[noon_peak] == 20

    def test_recommends_quietest_hour(self):
        planner = HeistPlanner(heist_dataset(), "Academic-A")
        plan = planner.plan(source="rdns")
        assert plan.hour_of_day == 6
        assert plan.average_activity == pytest.approx(2.0)

    def test_icmp_source_agrees(self):
        planner = HeistPlanner(heist_dataset(), "Academic-A")
        assert planner.plan(source="icmp").hour_of_day == 6

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            HeistPlanner(heist_dataset(), "Academic-A").plan(source="carrier-pigeon")

    def test_missing_network_raises(self):
        with pytest.raises(ValueError):
            HeistPlanner(heist_dataset(), "Enterprise-B").plan()

    def test_activity_by_hour_complete(self):
        plan = HeistPlanner(heist_dataset(), "Academic-A").plan()
        assert set(plan.activity_by_hour) == set(range(24))
