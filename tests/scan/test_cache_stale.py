"""A cache entry stored in any other payload version is a miss, not a hit.

Caches are rebuildable local artefacts, so an entry whose payload
version differs from :data:`~repro.scan.storage.DATASET_FORMAT_VERSION`
is dropped and recomputed — and the traffic counters must say so: the
read is a miss, the recompute is byte-identical to a cold run, and the
entry is rewritten in the current format.
"""

import datetime as dt
import json
import shutil

import pytest

from repro.netsim.internet import WorldScale, build_world
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from repro.scan.snapshot import SnapshotCollector
from repro.scan.storage import DATASET_FORMAT_VERSION
from tests.cache_bytes import dataset_bytes, series_bytes

SNAPSHOT_START, SNAPSHOT_END = dt.date(2021, 1, 1), dt.date(2021, 1, 5)
CAMPAIGN_START, CAMPAIGN_END = dt.date(2021, 11, 1), dt.date(2021, 11, 2)
#: Older schemas — 5 is the last with JSON campaign entries — and the
#: unversioned-era value that once counted a recomputed campaign as a
#: cache hit.
STALE_VERSIONS = pytest.mark.parametrize("stale_version", [3, 1, 5])


def world():
    return build_world(seed=5, scale=WorldScale.small())


def collect(cache):
    collector = SnapshotCollector.openintel_style(world().internet)
    series = collector.collect(SNAPSHOT_START, SNAPSHOT_END, cache=cache)
    return collector, series


def plant_stale_snapshot(tmp_path, stale_version):
    """A cold run's pair under its real key, its document relabelled."""
    cold_cache = SnapshotCache(tmp_path / "cold")
    collector, cold = collect(cold_cache)
    key = collector.last_metrics.cache_key
    stale = SnapshotCache(tmp_path / "stale")
    stale.root.mkdir()
    document = json.loads(cold_cache.path_for(key).read_text())
    document["version"] = stale_version
    stale.path_for(key).write_text(json.dumps(document))
    shutil.copy(cold_cache.blockfile_path_for(key), stale.blockfile_path_for(key))
    return cold_cache, stale, key, cold


def run_campaign(cache):
    campaign_world = world()
    name = SupplementalCampaign(campaign_world).network_names[0]
    campaign = SupplementalCampaign(campaign_world, networks=[name])
    dataset = campaign.run(CAMPAIGN_START, CAMPAIGN_END, cache=cache)
    return campaign, dataset


class TestStaleSnapshotEntry:
    @STALE_VERSIONS
    def test_load_is_a_miss_and_drops_both_halves(self, tmp_path, stale_version):
        _, stale, key, _ = plant_stale_snapshot(tmp_path, stale_version)
        assert stale.load(key) is None
        assert (stale.hits, stale.misses) == (0, 1)
        assert not stale.path_for(key).exists()
        assert not stale.blockfile_path_for(key).exists()

    @STALE_VERSIONS
    def test_collection_recomputes_and_rewrites_current_pair(self, tmp_path, stale_version):
        cold_cache, stale, key, cold = plant_stale_snapshot(tmp_path, stale_version)
        collector, recomputed = collect(stale)
        metrics = collector.last_metrics
        assert not metrics.cache_hit and metrics.cache_stored
        counters = stale.execution_snapshot()
        assert (counters["hits"], counters["misses"]) == (0, 1)
        assert series_bytes(recomputed) == series_bytes(cold)

        document = json.loads(stale.path_for(key).read_text())
        assert document["version"] == DATASET_FORMAT_VERSION
        assert document == json.loads(cold_cache.path_for(key).read_text())
        assert (
            stale.blockfile_path_for(key).read_bytes()
            == cold_cache.blockfile_path_for(key).read_bytes()
        )


class TestStaleCampaignEntry:
    @STALE_VERSIONS
    def test_run_recomputes_and_rewrites_current_entry(self, tmp_path, stale_version):
        cold_cache = CampaignCache(tmp_path / "cold")
        campaign, cold = run_campaign(cold_cache)
        key = campaign.last_metrics.cache_key
        cold_document = json.loads(cold_cache.path_for(key).read_text())

        # Entries up to v5 were one JSON document with no sidecar.
        stale = CampaignCache(tmp_path / "stale")
        stale.root.mkdir()
        stale.path_for(key).write_text(json.dumps({**cold_document, "version": stale_version}))
        campaign, recomputed = run_campaign(stale)
        assert campaign.last_metrics.cache_key == key
        assert not campaign.last_metrics.cache_hit
        counters = stale.execution_snapshot()
        assert (counters["hits"], counters["misses"]) == (0, 1)
        assert dataset_bytes(recomputed) == dataset_bytes(cold)

        document = json.loads(stale.path_for(key).read_text())
        assert document["version"] == DATASET_FORMAT_VERSION
        assert document == cold_document
        assert (
            stale.blockfile_path_for(key).read_bytes()
            == cold_cache.blockfile_path_for(key).read_bytes()
        )
