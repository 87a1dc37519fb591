"""Sharded == unsharded, byte for byte.

The engines measure a built world or a plan.  For any shard count,
worker count, fault profile or cache temperature, a plan run produces
payloads byte-identical to a run over the built plan world.
Everything downstream (dynamicity, caching, the serve layer) leans on
this, so the comparisons here are on serialized payloads, not
summaries.
"""

import datetime as dt

import pytest

from repro.core.dynamicity import DynamicityAnalyzer
from repro.netsim.faults import plan_from_profile
from repro.netsim.worldplan import PlanError, synthetic_plan
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from repro.scan.campaign_parallel import effective_campaign_workers
from repro.scan.parallel import worker_cap
from repro.scan.snapshot import SnapshotCollector
from tests.cache_bytes import dataset_bytes, series_bytes

START = dt.date(2021, 1, 1)
END = dt.date(2021, 1, 13)

CAMPAIGN_START = dt.date(2021, 11, 1)
CAMPAIGN_END = dt.date(2021, 11, 3)


@pytest.fixture(scope="module")
def plan():
    return synthetic_plan(seed=11, slash16s=6, people=4, supplemental_every=1)


@pytest.fixture(scope="module")
def baseline_series(plan):
    # The unsharded reference: a plain collector over the fully built world.
    world = plan.build()
    return SnapshotCollector.openintel_style(world.internet).collect(START, END)


@pytest.fixture(scope="module")
def baseline_dataset(plan):
    world = plan.build()
    return SupplementalCampaign(world, fault_plan=None).run(
        CAMPAIGN_START, CAMPAIGN_END
    )


class TestShardedSnapshots:
    @pytest.mark.parametrize("shards", [1, 2, 4, 11])
    def test_byte_identical_across_shard_counts(self, plan, baseline_series, shards):
        series = SnapshotCollector.openintel_style(plan, shards=shards).collect(START, END)
        assert series_bytes(series) == series_bytes(baseline_series)

    def test_parallel_matches_serial(self, plan, baseline_series, monkeypatch):
        # Force a real pool even on single-core hosts.
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        collector = SnapshotCollector.openintel_style(plan, shards=3)
        series = collector.collect(START, END, workers=3)
        assert collector.last_metrics.effective_workers >= 2
        assert series_bytes(series) == series_bytes(baseline_series)

    def test_series_is_lazily_backed(self, plan):
        collector = SnapshotCollector.openintel_style(plan, shards=2)
        series = collector.collect(START, END)
        # Count-level reads never materialise the full world, and
        # record-level reads come from the stored record columns.
        assert series.counts_by_slash24(START)
        assert list(series.records_on(START))
        assert series.sample_records()
        assert not series._internet.materialized()

    def test_invalid_shard_count_rejected(self, plan):
        with pytest.raises(PlanError):
            SnapshotCollector.openintel_style(plan, shards=0)


class TestShardedSnapshotCache:
    def test_cache_hits_across_shard_counts(self, plan, baseline_series, tmp_path):
        cache = SnapshotCache(tmp_path / "snap")
        writer = SnapshotCollector.openintel_style(plan, shards=4)
        written = writer.collect(START, END, cache=cache)
        assert writer.last_metrics.cache_stored

        # A different shard count reads the same entry: the key is
        # plan-level, and the payloads are identical bytes anyway.
        reader = SnapshotCollector.openintel_style(plan, shards=1)
        replayed = reader.collect(START, END, cache=cache)
        assert reader.last_metrics.cache_hit
        assert series_bytes(replayed) == series_bytes(written)
        assert series_bytes(replayed) == series_bytes(baseline_series)

    def test_cache_key_is_shard_count_free(self, plan, tmp_path):
        cache = SnapshotCache(tmp_path / "snap")
        keys = {
            SnapshotCollector.openintel_style(plan, shards=shards).cache_key(cache, START, END)
            for shards in (1, 2, 4)
        }
        assert len(keys) == 1


class TestShardedCampaign:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_byte_identical_across_shard_counts(self, plan, baseline_dataset, shards):
        dataset = SupplementalCampaign(plan, shards=shards, fault_plan=None).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        assert dataset_bytes(dataset) == dataset_bytes(baseline_dataset)

    def test_parallel_matches_serial(self, plan, baseline_dataset, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        campaign = SupplementalCampaign(plan, shards=2, fault_plan=None)
        dataset = campaign.run(CAMPAIGN_START, CAMPAIGN_END, workers=2)
        assert campaign.last_metrics.effective_workers >= 2
        assert dataset_bytes(dataset) == dataset_bytes(baseline_dataset)

    def test_faulted_run_matches_unsharded_faulted_run(self, plan, monkeypatch):
        faults = plan_from_profile("mild", seed=11)
        world = plan.build()
        reference = SupplementalCampaign(world, fault_plan=faults).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        serial = SupplementalCampaign(plan, shards=3, fault_plan=faults).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        assert dataset_bytes(serial) == dataset_bytes(reference)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        campaign = SupplementalCampaign(plan, shards=3, fault_plan=faults)
        parallel = campaign.run(CAMPAIGN_START, CAMPAIGN_END, workers=2)
        assert campaign.last_metrics.effective_workers >= 2
        assert dataset_bytes(parallel) == dataset_bytes(reference)

    def test_cache_hits_across_shard_counts(self, plan, baseline_dataset, tmp_path):
        cache = CampaignCache(tmp_path / "camp")
        writer = SupplementalCampaign(plan, shards=3, fault_plan=None)
        written = writer.run(CAMPAIGN_START, CAMPAIGN_END, cache=cache)
        assert writer.last_metrics.cache_stored

        reader = SupplementalCampaign(plan, shards=1, fault_plan=None)
        replayed = reader.run(CAMPAIGN_START, CAMPAIGN_END, cache=cache)
        assert reader.last_metrics.cache_hit
        assert dataset_bytes(replayed) == dataset_bytes(written)
        assert dataset_bytes(replayed) == dataset_bytes(baseline_dataset)

    def test_network_subset_respected(self, plan):
        names = plan.supplemental_names[:2]
        world = plan.build()
        reference = SupplementalCampaign(world, networks=names, fault_plan=None).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        dataset = SupplementalCampaign(plan, shards=2, networks=names, fault_plan=None).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        assert dataset_bytes(dataset) == dataset_bytes(reference)

    def test_plan_without_supplementals_rejected(self):
        bare = synthetic_plan(seed=0, slash16s=2, people=2, supplemental_every=0)
        with pytest.raises(PlanError, match="supplemental"):
            SupplementalCampaign(bare).run(CAMPAIGN_START, CAMPAIGN_END)


class TestDownstreamEquivalence:
    def test_dynamicity_report_matches_unsharded(self, plan, baseline_series):
        sharded = SnapshotCollector.openintel_style(plan, shards=4).collect(START, END)
        analyzer = DynamicityAnalyzer()
        left = analyzer.analyze(baseline_series)
        right = analyzer.analyze(sharded)
        assert left.dynamic_prefixes() == right.dynamic_prefixes()


class TestWorkerPlumbing:
    """One worker-count rule, capped everywhere."""

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "5")
        assert worker_cap() == 5

    def test_env_override_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "zero")
        with pytest.raises(ValueError):
            worker_cap()
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        with pytest.raises(ValueError):
            worker_cap()

    def test_default_cap_bounded_by_machine(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        import os

        assert 1 <= worker_cap() <= max(os.cpu_count() or 1, 8)

    def test_campaign_cap_counts_work_units_not_networks(self, monkeypatch):
        # A 2-block plan run over 9 networks must size its pool by the
        # 2 submissions it will make, not by the 9 networks they contain.
        monkeypatch.setenv("REPRO_MAX_WORKERS", "8")
        assert effective_campaign_workers(8, work_units=2) == 2
        assert effective_campaign_workers(8, work_units=1) == 1
        assert effective_campaign_workers(3, work_units=9) == 3

    def test_campaign_cap_honours_machine_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert effective_campaign_workers(8, work_units=9) == 2

    def test_sharded_pool_is_budget_sized(self, plan, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        collector = SnapshotCollector.openintel_style(plan, shards=4)
        collector.collect(START, END, workers=2)
        # 4 shards' worth of tasks, but never more than 2 workers.
        assert collector.last_metrics.effective_workers == 2
