"""Tests for config-driven world building from a plan payload or file.

A world file (``--plan``/``--spec``) is a :class:`WorldPlan` payload:
networks by kind with keyword arguments for the
:class:`~repro.netsim.population.NetworkBuilder` factories.
"""

import datetime as dt
import json

import pytest

from repro.netsim.network import NetworkType
from repro.netsim.worldplan import PlanError, WorldPlan

GOOD_SPEC = {
    "seed": 7,
    "networks": [
        {
            "kind": "academic",
            "name": "Campus-X",
            "prefix": "10.10.0.0/16",
            "suffix": "campus-x.edu",
            "education_prefix": "10.10.1.0/24",
            "housing_prefix": "10.10.2.0/24",
            "staff": 10,
            "students": 10,
            "residents": 12,
            "supplemental": True,
        },
        {
            "kind": "isp",
            "name": "Fiber-Y",
            "prefix": "10.20.0.0/16",
            "suffix": "dyn.fiber-y.net",
            "access_prefix": "10.20.1.0/24",
            "subscribers": 15,
        },
        {
            "kind": "background",
            "name": "bg-z",
            "prefix": "10.32.0.0/16",
            "suffix": "as99.example.net",
            "static_24s": 1,
            "dynamic_24s": 1,
        },
    ],
}


class TestValidation:
    def test_good_spec_passes(self):
        WorldPlan.from_payload(GOOD_SPEC).validate()

    def test_not_a_mapping(self):
        with pytest.raises(PlanError):
            WorldPlan.from_payload(["nope"])

    def test_empty_networks(self):
        with pytest.raises(PlanError):
            WorldPlan.from_payload({"networks": []}).validate()

    def test_missing_keys(self):
        with pytest.raises(PlanError, match="missing keys"):
            WorldPlan.from_payload({"networks": [{"kind": "isp", "name": "x"}]}).validate()

    def test_unknown_kind(self):
        spec = {"networks": [{"kind": "casino", "name": "x", "prefix": "10.0.0.0/16", "suffix": "x.example"}]}
        with pytest.raises(PlanError, match="unknown kind"):
            WorldPlan.from_payload(spec).validate()

    def test_duplicate_names(self):
        entry = {
            "kind": "isp", "name": "x", "prefix": "10.0.0.0/16",
            "suffix": "x.example.net", "access_prefix": "10.0.1.0/24",
        }
        other = dict(entry, prefix="10.1.0.0/16")
        with pytest.raises(PlanError, match="duplicate"):
            WorldPlan.from_payload({"networks": [entry, other]}).validate()

    def test_bad_kwargs_surface_as_spec_error(self):
        spec = {
            "networks": [
                {
                    "kind": "isp",
                    "name": "x",
                    "prefix": "10.0.0.0/16",
                    "suffix": "x.example.net",
                    "access_prefix": "10.0.1.0/24",
                    "warp_drive": True,
                }
            ]
        }
        with pytest.raises(PlanError, match="warp_drive"):
            WorldPlan.from_payload(spec).build()


class TestBuilding:
    def test_builds_all_networks(self):
        world = WorldPlan.from_payload(GOOD_SPEC).build()
        assert len(world.internet) == 3
        assert world.internet.network("Campus-X").net_type is NetworkType.ACADEMIC
        assert world.internet.network("Fiber-Y").net_type is NetworkType.ISP

    def test_supplemental_flag(self):
        world = WorldPlan.from_payload(GOOD_SPEC).build()
        assert set(world.supplemental) == {"Campus-X"}
        assert world.supplemental_targets("Campus-X")

    def test_world_is_measurable(self):
        world = WorldPlan.from_payload(GOOD_SPEC).build()
        day = dt.date(2021, 3, 3)
        records = list(world.internet.records_on(day, at_offset=12 * 3600))
        assert records
        assert any(hostname.endswith("campus-x.edu") for _, hostname in records)

    def test_seed_changes_population(self):
        other = dict(GOOD_SPEC, seed=8)
        day = dt.date(2021, 3, 3)
        first = {h for _, h in WorldPlan.from_payload(GOOD_SPEC).build().internet.records_on(day)}
        second = {h for _, h in WorldPlan.from_payload(other).build().internet.records_on(day)}
        assert first != second

    def test_build_from_file(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(GOOD_SPEC))
        world = WorldPlan.load(path).build()
        assert len(world.internet) == 3
