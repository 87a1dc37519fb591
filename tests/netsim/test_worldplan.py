"""World plans: validation, sharding, and subset-build equivalence."""

import datetime as dt

import pytest

from repro.netsim.worldplan import (
    LazyPlanInternet,
    PlanError,
    WorldPlan,
    contiguous_blocks,
    synthetic_plan,
)
from repro.scan.snapshot import SnapshotCollector, derive_day

OFFSET = SnapshotCollector.DEFAULT_SNAPSHOT_OFFSET


def entry(**overrides):
    base = {
        "kind": "academic",
        "name": "plan-academic-0000",
        "prefix": "100.0.0.0/16",
        "suffix": "campus.plan0000.edu",
        "education_prefix": "100.0.10.0/24",
        "staff": 4,
        "students": 4,
    }
    base.update(overrides)
    return base


class TestValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError, match="at least one"):
            WorldPlan(0, []).validate()

    def test_missing_keys_rejected(self):
        with pytest.raises(PlanError, match="missing keys"):
            WorldPlan(0, [{"kind": "academic", "name": "x"}]).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="unknown kind"):
            WorldPlan(0, [entry(kind="botnet")]).validate()

    def test_duplicate_name_rejected(self):
        plan = WorldPlan(
            0, [entry(), entry(prefix="101.0.0.0/16", suffix="other.edu")]
        )
        with pytest.raises(PlanError, match="duplicate network name"):
            plan.validate()

    def test_bad_prefix_rejected(self):
        with pytest.raises(PlanError, match="bad prefix"):
            WorldPlan(0, [entry(prefix="100.0.0.0/33")]).validate()

    def test_misaligned_prefix_fails_loudly(self):
        # A /20 cannot be parented in in-addr.arpa: its rounded origin
        # would claim the whole covering /16 and collide with siblings.
        with pytest.raises(PlanError, match="octet boundary"):
            WorldPlan(0, [entry(prefix="100.0.0.0/20")]).validate()

    def test_sub_slash24_prefix_is_fine(self):
        # Below /24 the zone is classless (RFC 2317 glue), not rounded.
        WorldPlan(
            0, [entry(prefix="100.0.0.64/26", education_prefix="100.0.0.64/26")]
        ).validate()

    def test_unknown_zone_layout_rejected(self):
        with pytest.raises(PlanError, match="zone_layout"):
            WorldPlan(0, [entry(zone_layout="mesh")]).validate()

    def test_unknown_rdns_mode_rejected(self):
        with pytest.raises(PlanError, match="rdns mode"):
            WorldPlan(0, [entry(rdns_mode="sometimes")]).validate()

    def test_rfc2317_mode_needs_sub_slash24_subnets(self):
        bad = entry(rdns_mode="rfc2317", education_prefix="100.0.10.0/24")
        with pytest.raises(PlanError, match="rfc2317"):
            WorldPlan(0, [bad]).validate()

    def test_overlapping_prefixes_rejected(self):
        plan = WorldPlan(
            0,
            [
                entry(),
                entry(
                    name="plan-academic-0001",
                    prefix="100.0.64.0/24",
                    education_prefix="100.0.64.0/24",
                ),
            ],
        )
        with pytest.raises(PlanError, match="overlap"):
            plan.validate()


class TestContiguousBlocks:
    def test_order_preserved_and_balanced(self):
        blocks = contiguous_blocks(list("abcdefg"), 3)
        assert blocks == [["a", "b", "c"], ["d", "e"], ["f", "g"]]

    def test_more_shards_than_items_never_yields_empty_blocks(self):
        blocks = contiguous_blocks(["a", "b"], 5)
        assert blocks == [["a"], ["b"]]

    def test_single_shard_is_whole_list(self):
        assert contiguous_blocks([1, 2, 3], 1) == [[1, 2, 3]]

    def test_zero_shards_rejected(self):
        with pytest.raises(PlanError):
            contiguous_blocks([1], 0)

    def test_shard_names_partitions_plan_order(self):
        plan = synthetic_plan(slash16s=9, people=2)
        names = plan.network_names
        for shards in (1, 2, 3, 4, 9, 20):
            blocks = plan.shard_names(shards)
            assert [name for block in blocks for name in block] == names
            sizes = [len(block) for block in blocks]
            assert max(sizes) - min(sizes) <= 1
            assert all(sizes)


class TestIdentity:
    def test_fingerprint_is_stable_across_instances(self):
        left = synthetic_plan(seed=3, slash16s=4, people=2)
        right = synthetic_plan(seed=3, slash16s=4, people=2)
        assert left.fingerprint() == right.fingerprint()

    def test_fingerprint_tracks_seed_and_entries(self):
        base = synthetic_plan(seed=0, slash16s=4, people=2)
        assert base.fingerprint() != synthetic_plan(seed=1, slash16s=4, people=2).fingerprint()
        assert base.fingerprint() != synthetic_plan(seed=0, slash16s=5, people=2).fingerprint()

    def test_payload_round_trip(self):
        plan = synthetic_plan(slash16s=4, people=2)
        clone = WorldPlan.from_payload(plan.to_payload())
        assert clone.fingerprint() == plan.fingerprint()
        assert clone.network_names == plan.network_names

    def test_save_load_round_trip(self, tmp_path):
        plan = synthetic_plan(slash16s=4, people=2)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert WorldPlan.load(path).fingerprint() == plan.fingerprint()

    def test_bad_payload_rejected(self):
        with pytest.raises(PlanError):
            WorldPlan.from_payload(["not", "a", "plan"])


class TestBuild:
    def test_unknown_subset_names_rejected(self):
        plan = synthetic_plan(slash16s=4, people=2)
        with pytest.raises(PlanError, match="unknown network names"):
            plan.build(["no-such-network"])

    def test_subset_build_matches_full_build(self):
        # The sharding soundness property: a worker building only its
        # own networks derives the same counts and PTR records the full
        # world would.  All randomness is keyed per network name.
        plan = synthetic_plan(seed=7, slash16s=6, people=4)
        full = plan.build()
        days = [dt.date(2021, 1, 1) + dt.timedelta(days=n) for n in (0, 3, 9)]
        for names in plan.shard_names(3):
            subset = plan.build(names)
            assert [network.name for network in subset.internet.networks] == list(names)
            for day in days:
                full_counts, (full_addresses, full_ptrs) = derive_day(
                    full.internet, list(names), day, OFFSET
                )
                sub_counts, (sub_addresses, sub_ptrs) = derive_day(
                    subset.internet, None, day, OFFSET
                )
                assert sub_counts == full_counts
                assert sub_addresses.tolist() == full_addresses.tolist()
                assert sub_ptrs == full_ptrs

    def test_supplemental_flag_populates_world(self):
        plan = synthetic_plan(slash16s=8, people=2, supplemental_every=1)
        world = plan.build()
        assert sorted(world.supplemental) == sorted(plan.supplemental_names)
        assert plan.supplemental_names  # the generator produced some

    def test_bad_factory_kwargs_surface_as_plan_error(self):
        plan = WorldPlan(0, [entry(warp_drive=True)])
        with pytest.raises(PlanError, match="plan-academic-0000"):
            plan.build()


class TestSyntheticPlan:
    def test_width_matches_request(self):
        plan = synthetic_plan(slash16s=12, people=2)
        assert len(plan.entries) == 12

    def test_cycles_all_kinds(self):
        plan = synthetic_plan(slash16s=8, people=2)
        kinds = {e["kind"] for e in plan.entries}
        assert kinds == {"academic", "isp", "background", "enterprise"}

    def test_enterprises_mix_rfc2317_and_disabled(self):
        plan = synthetic_plan(slash16s=16, people=2)
        modes = [e["rdns_mode"] for e in plan.entries if e["kind"] == "enterprise"]
        assert "rfc2317" in modes and "disabled" in modes

    def test_zero_width_rejected(self):
        with pytest.raises(PlanError):
            synthetic_plan(slash16s=0)


class TestLazyPlanInternet:
    def test_cache_token_without_building(self):
        plan = synthetic_plan(slash16s=4, people=2)
        lazy = LazyPlanInternet(plan)
        assert lazy.cache_token() == f"plan:{plan.fingerprint()}"
        assert not lazy.materialized()

    def test_record_access_materializes(self):
        plan = synthetic_plan(slash16s=4, people=2)
        lazy = LazyPlanInternet(plan)
        assert len(lazy) == len(plan.entries)
        assert lazy.materialized()
