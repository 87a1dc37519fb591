"""Sharded == unsharded, byte for byte.

The engines measure a built world or a plan.  For any shard count,
worker count, fault profile or cache temperature, a plan run produces
payloads byte-identical to a run over the built plan world.
Everything downstream (dynamicity, caching, the serve layer) leans on
this, so the comparisons here are on serialized payloads, not
summaries.
"""

import datetime as dt
import io
import os

import pytest

from repro.cli import build_parser, main, read_settings
from repro.core.dynamicity import DynamicityAnalyzer
from repro.core.pipeline import StudyConfig
from repro.netsim.faults import plan_from_profile
from repro.netsim.worldplan import PlanError, synthetic_plan
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from repro.scan.campaign_parallel import effective_campaign_workers
from repro.scan.parallel import worker_cap
from repro.scan.snapshot import SnapshotCollector
from tests.cache_bytes import dataset_bytes, series_bytes
from tests.cli_env import env_fault_plan

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

    def test_parallel_matches_serial(self, plan, baseline_series):
        # The engines cap only by work, so this is a real pool even on
        # single-core hosts.
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

    def test_parallel_matches_serial(self, plan, baseline_dataset):
        campaign = SupplementalCampaign(plan, shards=2, fault_plan=None)
        dataset = campaign.run(CAMPAIGN_START, CAMPAIGN_END, workers=2)
        assert campaign.last_metrics.effective_workers >= 2
        assert dataset_bytes(dataset) == dataset_bytes(baseline_dataset)

    def test_faulted_run_matches_unsharded_faulted_run(self, plan):
        faults = plan_from_profile("mild", seed=11)
        world = plan.build()
        reference = SupplementalCampaign(world, fault_plan=faults).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        serial = SupplementalCampaign(plan, shards=3, fault_plan=faults).run(
            CAMPAIGN_START, CAMPAIGN_END
        )
        assert dataset_bytes(serial) == dataset_bytes(reference)
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
            SupplementalCampaign(bare, fault_plan=env_fault_plan(bare.seed)).run(
                CAMPAIGN_START, CAMPAIGN_END
            )


class TestDownstreamEquivalence:
    def test_dynamicity_report_matches_unsharded(self, plan, baseline_series):
        sharded = SnapshotCollector.openintel_style(plan, shards=4).collect(START, END)
        analyzer = DynamicityAnalyzer()
        left = analyzer.analyze(baseline_series)
        right = analyzer.analyze(sharded)
        assert left.dynamic_prefixes() == right.dynamic_prefixes()


class TestWorkerPlumbing:
    """One worker-count rule: the machine ceiling in
    ``StudyConfig.capped_workers``, only work caps in the engines."""

    def test_env_override_wins(self):
        environ = {"REPRO_MAX_WORKERS": "5"}
        config = read_settings(build_parser().parse_args(["study"]), environ).config
        assert config.max_workers == 5
        assert config.capped_workers(8) == 5
        # Above the core count too, like --max-workers; the flag wins.
        flagged = build_parser().parse_args(["--max-workers", "3", "study"])
        assert read_settings(flagged, environ).config.max_workers == 3

    def test_env_override_validated(self, monkeypatch, capsys):
        # A bad value fails at startup with one line, before any pool.
        for value in ("zero", "0"):
            monkeypatch.setenv("REPRO_MAX_WORKERS", value)
            assert main(["--quick", "study"], out=io.StringIO()) == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1, lines
            assert lines[0].startswith("rdns-privacy: error: REPRO_MAX_WORKERS must be")

    def test_default_cap_bounded_by_machine(self):
        assert 1 <= worker_cap() <= min(os.cpu_count() or 1, 8)
        assert StudyConfig().capped_workers(64) == worker_cap()

    def test_campaign_cap_counts_work_units_not_networks(self):
        # A 2-block plan run over 9 networks must size its pool by the
        # 2 submissions it will make, not by the 9 networks they contain.
        assert effective_campaign_workers(8, work_units=2) == 2
        assert effective_campaign_workers(8, work_units=1) == 1
        assert effective_campaign_workers(3, work_units=9) == 3

    def test_campaign_cap_honours_machine_cap(self):
        workers = StudyConfig(max_workers=2).capped_workers(8)
        assert workers == 2
        assert effective_campaign_workers(workers, work_units=9) == 2

    def test_sharded_pool_is_budget_sized(self, plan):
        collector = SnapshotCollector.openintel_style(plan, shards=4)
        collector.collect(START, END, workers=2)
        # 4 shards' worth of tasks, but never more than 2 workers.
        assert collector.last_metrics.effective_workers == 2
