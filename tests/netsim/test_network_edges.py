"""Edge cases: housing response, provisioning, snapshot offsets."""

import datetime as dt

import pytest

from repro.ipam import CarryOverPolicy, NoUpdatePolicy, StaticTemplatePolicy
from repro.netsim.behavior import OfficeWorkerProfile
from repro.netsim.calendar import CovidTimeline
from repro.netsim.device import DaySessions, Device, DeviceNaming, model_by_key
from repro.netsim.internet import WorldScale
from repro.netsim.network import Network, NetworkType, Subnet, SubnetRole
from repro.netsim.rng import RngStreams
from repro.netsim.simtime import HOUR

WEDNESDAY = dt.date(2021, 3, 3)
LOCKDOWN_DAY = dt.date(2020, 4, 1)


def office_device(index):
    return Device(
        device_id=f"d{index}",
        model=model_by_key("iphone"),
        naming=DeviceNaming.OWNER_POSSESSIVE,
        owner_name="emma",
        owner_id=f"p{index}",
        profile=OfficeWorkerProfile(),
    )


class TestHousingResponse:
    def make_network(self, response):
        network = Network(
            "n",
            NetworkType.ACADEMIC,
            "10.0.0.0/16",
            "campus.example.edu",
            covid=CovidTimeline.typical_university(),
            housing_response=response,
            rngs=RngStreams(0),
        )
        housing = Subnet(
            "10.0.20.0/24",
            SubnetRole.HOUSING,
            devices=[office_device(0)],
            policy=CarryOverPolicy("campus.example.edu"),
        )
        network.add_subnet(housing)
        return network, housing

    def test_shelter_raises_housing_factor_under_lockdown(self):
        network, housing = self.make_network("shelter")
        assert network.day_factor(LOCKDOWN_DAY, housing) > network.day_factor(
            LOCKDOWN_DAY, housing
        ) * 0.99  # sanity
        assert network.day_factor(LOCKDOWN_DAY, housing) > 1.0

    def test_exodus_suppresses_housing_too(self):
        network, housing = self.make_network("exodus")
        assert network.day_factor(LOCKDOWN_DAY, housing) < 0.5

    def test_invalid_response_rejected(self):
        with pytest.raises(ValueError):
            Network(
                "n", NetworkType.ACADEMIC, "10.0.0.0/16", "x.example",
                housing_response="panic",
            )


class TestProvisionedSubnets:
    def make_subnet(self, policy):
        return Subnet(
            "10.0.10.0/24",
            SubnetRole.DYNAMIC_CLIENTS,
            devices=[office_device(i) for i in range(3)],
            policy=policy,
        )

    def test_static_template_constant_and_full(self):
        subnet = self.make_subnet(StaticTemplatePolicy("dynamic.example.edu"))
        rngs = RngStreams(0)
        first = list(subnet.records_on(WEDNESDAY, rngs))
        second = list(subnet.records_on(WEDNESDAY + dt.timedelta(days=30), rngs))
        assert first == second
        assert len(first) > 200  # the whole usable pool

    def test_no_update_policy_yields_nothing(self):
        subnet = self.make_subnet(NoUpdatePolicy("x.example"))
        rngs = RngStreams(0)
        assert list(subnet.records_on(WEDNESDAY, rngs)) == []

    def test_carry_over_varies_with_presence(self):
        subnet = self.make_subnet(CarryOverPolicy("campus.example.edu"))
        rngs = RngStreams(0)
        noon = len(list(subnet.records_on(WEDNESDAY, rngs, at_offset=12 * HOUR)))
        midnight = len(list(subnet.records_on(WEDNESDAY, rngs, at_offset=3 * HOUR)))
        assert noon >= midnight  # office workers are in at noon, not 3 AM


class TestSnapshotOffsets:
    def test_noon_sampling_differs_from_any_time(self):
        subnet = Subnet(
            "10.0.10.0/24",
            SubnetRole.DYNAMIC_CLIENTS,
            devices=[office_device(i) for i in range(20)],
            policy=CarryOverPolicy("campus.example.edu"),
        )
        rngs = RngStreams(3)
        any_time = len(list(subnet.records_on(WEDNESDAY, rngs, at_offset=None)))
        at_3am = len(list(subnet.records_on(WEDNESDAY, rngs, at_offset=3 * HOUR)))
        assert at_3am < any_time  # nobody's in the office at 3 AM

    def test_presence_at_is_subset_of_presence_on(self):
        device = office_device(0)
        rngs = RngStreams(1)
        for offset in range(0, 24):
            if DaySessions(WEDNESDAY, rngs).present(device, 1.0, offset * HOUR):
                assert DaySessions(WEDNESDAY, rngs).present(device, 1.0, None)


class TestWorldScale:
    def test_small_scale_is_smaller(self):
        small, full = WorldScale.small(), WorldScale()
        assert small.supplemental_people < full.supplemental_people
