"""Tests for networks, subnets and day-level record materialisation."""

import datetime as dt
import ipaddress

import pytest

from repro.ipam import CarryOverPolicy
from repro.netsim.behavior import AlwaysOnProfile
from repro.netsim.calendar import CovidTimeline, HolidayCalendar
from repro.netsim.device import Device, DeviceNaming, model_by_key
from repro.netsim.network import (
    CountModel,
    IcmpPolicy,
    Network,
    NetworkType,
    Subnet,
    SubnetRole,
    slash24_of,
)
from repro.netsim.population import make_infrastructure_entries, make_server_entries
from repro.netsim.rng import RngStreams

WEEKDAY = dt.date(2021, 3, 3)


def make_always_on_device(index, owner="emma"):
    return Device(
        device_id=f"dev-{index}",
        model=model_by_key("iphone"),
        naming=DeviceNaming.OWNER_POSSESSIVE,
        owner_name=owner,
        owner_id=f"pers-{index}",
        profile=AlwaysOnProfile(),
    )


class TestSlash24:
    def test_slash24_of(self):
        assert slash24_of("10.1.2.3") == "10.1.2.0/24"
        assert slash24_of(ipaddress.IPv4Address("192.0.2.255")) == "192.0.2.0/24"


class TestSubnetValidation:
    def test_dynamic_needs_backing(self):
        with pytest.raises(ValueError):
            Subnet("10.0.0.0/24", SubnetRole.DYNAMIC_CLIENTS)

    def test_device_backed_needs_policy(self):
        with pytest.raises(ValueError):
            Subnet("10.0.0.0/24", SubnetRole.DYNAMIC_CLIENTS, devices=[make_always_on_device(0)])

    def test_count_backed_needs_suffix(self):
        with pytest.raises(ValueError):
            Subnet("10.0.0.0/24", SubnetRole.DYNAMIC_CLIENTS, count_model=CountModel(mean=10))

    def test_static_cannot_have_devices(self):
        with pytest.raises(ValueError):
            Subnet(
                "10.0.0.0/24",
                SubnetRole.STATIC_SERVERS,
                devices=[make_always_on_device(0)],
            )

    def test_devices_must_fit(self):
        devices = [make_always_on_device(i) for i in range(10)]
        with pytest.raises(ValueError):
            Subnet(
                "10.0.0.0/28",
                SubnetRole.DYNAMIC_CLIENTS,
                devices=devices,
                policy=CarryOverPolicy("x.example"),
            )

    def test_role_dynamics(self):
        assert SubnetRole.HOUSING.is_dynamic
        assert SubnetRole.EDUCATION.is_dynamic
        assert not SubnetRole.STATIC_SERVERS.is_dynamic


class TestDeviceBackedSubnet:
    def make_subnet(self, n=3):
        devices = [make_always_on_device(i) for i in range(n)]
        return Subnet(
            "10.0.0.0/24",
            SubnetRole.DYNAMIC_CLIENTS,
            devices=devices,
            policy=CarryOverPolicy("campus.example.edu"),
        )

    def test_stable_device_addresses(self):
        subnet = self.make_subnet()
        assert subnet.device_address(0) == ipaddress.IPv4Address("10.0.0.10")
        assert subnet.device_address(2) == ipaddress.IPv4Address("10.0.0.12")

    def test_records_use_policy(self):
        subnet = self.make_subnet(1)
        records = list(subnet.records_on(WEEKDAY, RngStreams(0)))
        assert records == [
            (int(ipaddress.IPv4Address("10.0.0.10")), "emmas-iphone.campus.example.edu")
        ]

    def test_count_matches_records(self):
        subnet = self.make_subnet(5)
        assert len(list(subnet.records_on(WEEKDAY, RngStreams(0)))) == 5

    def test_zero_factor_empties_subnet(self):
        # Always-on devices ignore the factor, so use a worker profile.
        device = make_always_on_device(0)
        device.profile = __import__("repro.netsim.behavior", fromlist=["OfficeWorkerProfile"]).OfficeWorkerProfile()
        subnet = Subnet(
            "10.0.0.0/24",
            SubnetRole.DYNAMIC_CLIENTS,
            devices=[device],
            policy=CarryOverPolicy("x.example"),
        )
        assert list(subnet.records_on(WEEKDAY, RngStreams(0), factor=0.0)) == []


class TestCountBackedSubnet:
    def make_subnet(self, mean=50):
        return Subnet(
            "10.0.1.0/24",
            SubnetRole.DYNAMIC_CLIENTS,
            count_model=CountModel(mean=mean),
            count_suffix="dyn.example.net",
        )

    def test_count_fluctuates_day_to_day(self):
        subnet = self.make_subnet()
        rngs = RngStreams(0)
        counts = {
            len(list(subnet.records_on(WEEKDAY + dt.timedelta(days=d), rngs))) for d in range(14)
        }
        assert len(counts) > 3

    def test_weekend_counts_lower_on_average(self):
        subnet = self.make_subnet(mean=100)
        rngs = RngStreams(0)
        weekdays, weekends = [], []
        for offset in range(56):
            day = WEEKDAY + dt.timedelta(days=offset)
            (weekends if day.weekday() >= 5 else weekdays).append(
                len(list(subnet.records_on(day, rngs)))
            )
        assert sum(weekends) / len(weekends) < sum(weekdays) / len(weekdays)

    def test_records_have_template_hostnames(self):
        subnet = self.make_subnet(mean=5)
        records = list(subnet.records_on(WEEKDAY, RngStreams(0)))
        assert records
        for address, hostname in records:
            assert hostname.endswith(".dyn.example.net")
            assert str(ipaddress.IPv4Address(address)).replace(".", "-") in hostname

    def test_count_capped_by_subnet_size(self):
        subnet = Subnet(
            "10.0.1.0/28",
            SubnetRole.DYNAMIC_CLIENTS,
            count_model=CountModel(mean=500),
            count_suffix="dyn.example.net",
        )
        assert len(list(subnet.records_on(WEEKDAY, RngStreams(0)))) <= 16 - 10 - 1


class TestStaticContent:
    def test_server_entries(self):
        entries = make_server_entries("10.0.2.0/26", "corp.example.com")
        hostnames = [hostname for _, hostname in entries]
        assert "www.corp.example.com" in hostnames
        assert len(hostnames) == len(set(hostnames)) > 10

    def test_infrastructure_entries_use_router_terms(self):
        import random

        entries = make_infrastructure_entries("10.0.3.0/26", "net.example.com", random.Random(1))
        assert entries
        assert all(hostname.endswith(".net.example.com") for _, hostname in entries)

    def test_static_subnet_constant_across_days(self):
        entries = make_server_entries("10.0.2.0/26", "corp.example.com")
        subnet = Subnet("10.0.2.0/26", SubnetRole.STATIC_SERVERS, static_entries=entries)
        rngs = RngStreams(0)
        day_one = list(subnet.records_on(WEEKDAY, rngs))
        day_two = list(subnet.records_on(WEEKDAY + dt.timedelta(days=1), rngs))
        assert day_one == day_two == [(int(address), hostname) for address, hostname in entries]


class TestNetwork:
    def make_network(self):
        network = Network(
            "campus",
            NetworkType.ACADEMIC,
            "10.0.0.0/16",
            "campus.example.edu",
            holidays=HolidayCalendar(),
            covid=CovidTimeline.typical_university(),
            rngs=RngStreams(0),
        )
        network.add_subnet(
            Subnet(
                "10.0.10.0/24",
                SubnetRole.EDUCATION,
                devices=[make_always_on_device(i) for i in range(4)],
                policy=CarryOverPolicy("campus.example.edu"),
            )
        )
        network.add_subnet(
            Subnet(
                "10.0.1.0/26",
                SubnetRole.STATIC_SERVERS,
                static_entries=make_server_entries("10.0.1.0/26", "campus.example.edu"),
            )
        )
        return network

    def test_subnets_must_be_inside_prefix(self):
        network = self.make_network()
        with pytest.raises(ValueError):
            network.add_subnet(
                Subnet("192.168.0.0/24", SubnetRole.STATIC_SERVERS, static_entries=[])
            )

    def test_overlapping_subnets_rejected(self):
        network = self.make_network()
        with pytest.raises(ValueError):
            network.add_subnet(
                Subnet("10.0.10.0/25", SubnetRole.STATIC_SERVERS, static_entries=[])
            )

    def test_records_on_merges_subnets(self):
        network = self.make_network()
        records = list(network.records_on(WEEKDAY))
        dynamic = [r for r in records if "iphone" in r[1]]
        static = [r for r in records if r[1].startswith("www.")]
        assert len(dynamic) == 4
        assert len(static) == 1

    def test_counts_by_slash24(self):
        network = self.make_network()
        counts = network.counts_by_slash24(WEEKDAY)
        assert counts["10.0.10.0/24"] == 4
        assert counts["10.0.1.0/24"] > 10

    def test_counts_by_subnet_role(self):
        network = self.make_network()
        by_role = {
            subnet.role: len(
                list(subnet.records_on(WEEKDAY, network.rngs, network.day_factor(WEEKDAY, subnet)))
            )
            for subnet in network.subnets
        }
        assert by_role[SubnetRole.EDUCATION] == 4
        assert by_role[SubnetRole.STATIC_SERVERS] > 0

    def test_housing_uses_housing_covid_factor(self):
        network = self.make_network()
        housing = Subnet(
            "10.0.20.0/24",
            SubnetRole.HOUSING,
            devices=[make_always_on_device(100 + i) for i in range(2)],
            policy=CarryOverPolicy("campus.example.edu"),
        )
        network.add_subnet(housing)
        lockdown_day = dt.date(2020, 4, 1)
        education = network.subnets[0]
        assert network.day_factor(lockdown_day, housing) > network.day_factor(lockdown_day, education)

    def test_icmp_allowlist_parsed(self):
        network = Network(
            "n",
            NetworkType.ENTERPRISE,
            "10.0.0.0/16",
            "corp.example.com",
            icmp_policy=IcmpPolicy.BLOCK,
            icmp_allowlist=["10.0.0.1"],
        )
        assert ipaddress.IPv4Address("10.0.0.1") in network.icmp_allowlist
