"""Cache keys are pinned as literal hex digests.

A warm cache is only as good as the key that finds it: an entry written
by an earlier build must still hit.  These keys were computed before
plan runs and built-world runs shared one engine, and every one must
stay byte-for-byte the same — for plans at any shard count, with and
without a fault token, with an update policy, and for a built world.
"""

import datetime as dt

import pytest

from repro.netsim.faults import plan_from_profile
from repro.netsim.internet import WorldScale, build_world
from repro.netsim.worldplan import synthetic_plan
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from repro.scan.snapshot import SnapshotCollector

START = dt.date(2021, 1, 1)
END = dt.date(2021, 1, 13)
CAMPAIGN_START = dt.date(2021, 11, 1)
CAMPAIGN_END = dt.date(2021, 11, 3)

PLAN_SNAPSHOT = "62d540e25b9538c0d51bbbc88e72edc53ce5df77e8969cab09045aa85a139cc2"
PLAN_SNAPSHOT_FAULT_TOKEN = "48b1edc6124d3738368e44e7ed8b417f4495c1206e7a67ec63d67b100ca14bba"
PLAN_CAMPAIGN = "709d62eda41133f4052ad0b5d7861e4022650c438fd6763a811d482c9cc110fe"
PLAN_CAMPAIGN_MILD = "e749b2131e25ee2741911d0736b80d03d68616eb9fd977981a24126ff22facb0"
POLICY_SNAPSHOT = "ba61378efc7c2a411cc8a918e733f2d0f9d4ce322c297bd35819622e2ca7754b"
POLICY_CAMPAIGN = "37b01e87d2b3b96473ce3706dbf816a802bc8ca8c5884d54b2d42e89a072691e"
WORLD_SNAPSHOT = "91ecbf7cd1f20515cd7100aac5165f00bd2927ee4339edab09c0798f451431af"
WORLD_CAMPAIGN = "7ebf34afade63de5f14e4a4c38868362c9e6f92ffc3f20802452bc88891b1a59"


@pytest.fixture(scope="module")
def plan():
    return synthetic_plan(seed=11, slash16s=6, people=4, supplemental_every=1)


@pytest.fixture
def caches(tmp_path):
    return SnapshotCache(tmp_path / "snap"), CampaignCache(tmp_path / "camp")


@pytest.mark.parametrize("shards", [1, 3])
def test_plan_snapshot_keys(plan, caches, shards):
    snapshots, _ = caches
    mild = plan_from_profile("mild", seed=11)
    clean = SnapshotCollector.openintel_style(plan, shards=shards)
    salted = SnapshotCollector.openintel_style(
        plan, shards=shards, fault_token=mild.cache_token()
    )
    assert clean.cache_key(snapshots, START, END) == PLAN_SNAPSHOT
    assert salted.cache_key(snapshots, START, END) == PLAN_SNAPSHOT_FAULT_TOKEN


@pytest.mark.parametrize("shards", [1, 3])
def test_plan_campaign_keys(plan, caches, shards):
    _, campaigns = caches
    mild = plan_from_profile("mild", seed=11)
    clean = SupplementalCampaign(plan, shards=shards, fault_plan=None)
    faulted = SupplementalCampaign(plan, shards=shards, fault_plan=mild)
    assert clean.cache_key(campaigns, CAMPAIGN_START, CAMPAIGN_END) == PLAN_CAMPAIGN
    assert faulted.cache_key(campaigns, CAMPAIGN_START, CAMPAIGN_END) == PLAN_CAMPAIGN_MILD


def test_policy_plan_keys(plan, caches):
    snapshots, campaigns = caches
    hashed = plan.with_update_policy("hashed")
    collector = SnapshotCollector.openintel_style(hashed)
    campaign = SupplementalCampaign(hashed, fault_plan=None)
    assert collector.cache_key(snapshots, START, END) == POLICY_SNAPSHOT
    assert campaign.cache_key(campaigns, CAMPAIGN_START, CAMPAIGN_END) == POLICY_CAMPAIGN


def test_built_world_keys(caches):
    snapshots, campaigns = caches
    world = build_world(seed=4, scale=WorldScale.small())
    collector = SnapshotCollector.openintel_style(world.internet)
    campaign = SupplementalCampaign(world, fault_plan=None)
    assert collector.cache_key(snapshots, START, END) == WORLD_SNAPSHOT
    assert campaign.cache_key(campaigns, CAMPAIGN_START, CAMPAIGN_END) == WORLD_CAMPAIGN


def test_collect_stores_under_the_pinned_key(plan, caches):
    snapshots, _ = caches
    collector = SnapshotCollector.openintel_style(plan, shards=2)
    collector.collect(START, END, cache=snapshots)
    assert collector.last_metrics.cache_key == PLAN_SNAPSHOT
    assert collector.last_metrics.cache_stored
