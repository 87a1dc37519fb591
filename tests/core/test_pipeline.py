"""Integration tests: the full reproduction pipeline on a small world."""

import datetime as dt

import pytest

from repro.core.pipeline import ReproductionStudy, StudyConfig
from repro.netsim.network import NetworkType
from tests.cli_env import cli_config


@pytest.fixture(scope="module")
def study():
    # The CLI's config, so REPRO_FAULT_PROFILE reaches the campaign.
    return ReproductionStudy(cli_config("--quick", "--seed", "1"))


class TestDynamicityStage:
    def test_flags_client_subnets(self, study):
        dynamic = set(study.dynamicity().dynamic_prefixes())
        assert "20.0.10.0/24" in dynamic  # Academic-A education
        assert "40.0.10.0/24" in dynamic  # ISP-A access

    def test_static_space_not_flagged(self, study):
        dynamic = set(study.dynamicity().dynamic_prefixes())
        assert "20.0.1.0/24" not in dynamic  # Academic-A servers

    def test_small_fraction_of_observed_is_dynamic(self, study):
        # Paper: 134,451 of 6,151,219 /24s (2.2%); our scaled world is
        # denser, but dynamic space stays a clear minority.
        report = study.dynamicity()
        assert 0 < report.dynamic_count < report.total_observed * 0.6

    def test_caching(self, study):
        assert study.dynamicity() is study.dynamicity()


class TestLeakStage:
    def test_carry_over_networks_identified(self, study):
        identified = study.leaks().identified
        assert "stateu.edu" in identified
        assert "techuni.ac.nl" in identified
        assert "metronet.net" in identified

    def test_fixed_form_isps_not_identified(self, study):
        # ISP-B/C are identified (they carry names); the background
        # count-backed space with template names is not.
        identified = study.leaks().identified
        assert not any(suffix.startswith("as6") for suffix in identified)

    def test_filtered_counts_below_all_counts(self, study):
        report = study.leaks()
        assert sum(report.filtered_name_counts.values()) <= sum(report.all_name_counts.values())
        assert report.all_name_counts["jacob"] >= report.filtered_name_counts.get("jacob", 0)

    def test_type_breakdown_includes_academic_majority(self, study):
        breakdown = study.type_breakdown()
        assert breakdown[NetworkType.ACADEMIC] >= max(
            value for key, value in breakdown.items() if key is not NetworkType.ACADEMIC
        )

    def test_single_derivation_pass(self, monkeypatch):
        # The leak stage must build its sample in one shared pass, not
        # re-walk records_on once per sample day.
        from repro.scan.snapshot import SnapshotSeries

        fresh = ReproductionStudy(StudyConfig.quick(seed=1))
        series = fresh.daily_series()
        calls = []
        original = SnapshotSeries.records_on
        monkeypatch.setattr(
            SnapshotSeries,
            "records_on",
            lambda self, day: calls.append(day) or original(self, day),
        )
        fresh.leaks()
        assert calls == []
        metrics = series.last_sample_metrics
        assert metrics is not None
        assert metrics.days == fresh.config.leak_sample_days
        assert metrics.unique_records <= metrics.raw_records

    def test_leak_report_identical_with_workers(self, study):
        parallel = ReproductionStudy(StudyConfig.quick(seed=1))
        parallel.config.snapshot_workers = 4
        assert parallel.leaks() == study.leaks()


class TestSupplementalStage:
    def test_groups_and_funnel_consistent(self, study):
        funnel = study.funnel()
        assert funnel.all_groups >= funnel.successful >= funnel.reverted >= funnel.reliable
        assert funnel.all_groups == len(study.groups())
        assert funnel.reliable == len(study.usable_groups())

    def test_lingering_dominated_by_first_hour(self, study):
        lingering = study.lingering()
        assert lingering.count > 0
        assert lingering.fraction_within(60) > 0.5

    def test_announced_prefix_map_covers_dynamic_24s(self, study):
        prefix_map = study.announced_prefix_map()
        covered = [
            prefix_map.covering(prefix) is not None
            for prefix in study.dynamicity().dynamic_prefixes()
        ]
        assert all(covered)


class TestWorldToken:
    def test_warm_study_builds_the_token_once(self, tmp_path, monkeypatch):
        from repro.netsim.internet import Internet
        from repro.scan.cache import CampaignCache, SnapshotCache

        def cached_study():
            config = cli_config("--quick", "--seed", "1")
            config.snapshot_cache = SnapshotCache(tmp_path / "snapshots")
            config.campaign_cache = CampaignCache(tmp_path / "campaigns")
            return ReproductionStudy(config)

        cold = cached_study()
        cold.daily_series()
        cold.supplemental()

        builds = []
        original = Internet._compute_token
        monkeypatch.setattr(
            Internet, "_compute_token", lambda self: builds.append(self) or original(self)
        )
        warm = cached_study()
        warm.leaks()
        warm.groups()
        assert warm.collection_metrics.cache_hit and warm.campaign_metrics.cache_hit
        # The run info and both cache keys share one token build.
        assert builds == [warm.world.internet]


class TestConfig:
    def test_default_dates_match_paper(self):
        # Windows are half-open [start, end): the exclusive ends place
        # the last measured days at 2021-03-31 and 2021-12-05, the
        # paper's periods.
        config = StudyConfig()
        assert config.dynamicity_start == dt.date(2021, 1, 1)
        assert config.dynamicity_end == dt.date(2021, 4, 1)
        assert config.supplemental_start == dt.date(2021, 10, 25)
        assert config.supplemental_end == dt.date(2021, 12, 6)

    def test_world_injection(self, study):
        clone = ReproductionStudy(study.config, world=study.world)
        assert clone.world is study.world
