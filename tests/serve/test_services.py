"""Unit tests for the serve repositories and services."""

import datetime as dt
import json

import pytest

from repro.cli import build_parser, read_settings
from repro.core.dynamicity import DynamicityAnalyzer
from repro.scan.campaign import SupplementalCampaign
from repro.serve import (
    SnapshotRepository,
    ServiceError,
    dynamicity_summary,
    normalise_slash24,
)
from tests.serve.conftest import build_quick_app


class TestNormaliseSlash24:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("192.0.2.0", "192.0.2.0/24"),
            ("192.0.2.0/24", "192.0.2.0/24"),
            ("192.0.2.177", "192.0.2.0/24"),
            (" 10.1.2.3 ", "10.1.2.0/24"),
        ],
    )
    def test_accepts_addresses_and_prefixes(self, text, expected):
        assert normalise_slash24(text) == expected

    @pytest.mark.parametrize(
        "text", ["192.0.2.0/23", "192.0.2.0/25", "nope", "", "2001:db8::/24"]
    )
    def test_rejects_non_slash24(self, text):
        with pytest.raises(ValueError):
            normalise_slash24(text)


class TestSnapshotRepository:
    def test_window_properties(self, fresh_series):
        repo = SnapshotRepository(fresh_series)
        assert len(repo.series) == len(fresh_series)
        assert repo.series.cadence_days == 1
        assert repo.next_day == repo.series.days[-1] + dt.timedelta(days=1)

    def test_history_matches_counts(self, fresh_series):
        repo = SnapshotRepository(fresh_series)
        prefix = repo.series.prefix_table().values[0]
        history = repo.history(prefix)
        assert len(history) == len(repo.series)
        expected = [
            repo.series.counts_view(day).get(prefix, 0) for day in repo.series.days
        ]
        assert history == expected

    def test_history_of_unknown_prefix_is_none(self, fresh_series):
        repo = SnapshotRepository(fresh_series)
        assert repo.history("203.0.113.0/24") is None


class TestDynamicityService:
    def test_summary_matches_batch_analyzer(self, app, fresh_series, quick_config):
        batch = DynamicityAnalyzer(quick_config.dynamicity_thresholds).analyze(
            fresh_series
        )
        assert app.dynamicity.summary() == dynamicity_summary(batch)

    def test_prefix_payload_carries_verdict(self, app, quick_config):
        report = app.dynamicity.report()
        dynamic = report.dynamic_prefixes()
        assert dynamic, "quick world should flag dynamic prefixes"
        payload = app.dynamicity.prefix_payload(dynamic[0])
        assert payload["is_dynamic"] is True
        assert payload["eligible"] is True
        assert payload["change_days"] >= report.effective_min_change_transitions

    def test_prefix_payload_includes_history_on_request(self, app):
        prefix = app.snapshots.series.prefix_table().values[0]
        payload = app.dynamicity.prefix_payload(prefix, include_history=True)
        assert len(payload["history"]["counts"]) == payload["days"]
        assert payload["history"]["days"][0] == "2021-01-01"

    def test_unknown_prefix_is_404_with_detail(self, app):
        with pytest.raises(ServiceError) as excinfo:
            app.dynamicity.prefix_payload("203.0.113.0/24")
        assert excinfo.value.status == 404
        assert "observed_prefixes" in excinfo.value.detail

    def test_report_is_memoised_until_ingest(self, app):
        metrics = app.obs.metrics
        app.dynamicity.report()
        app.dynamicity.report()
        assert metrics.value(
            "serve_report_cache_total", {"report": "dynamicity", "outcome": "miss"}
        ) == 1
        assert metrics.value(
            "serve_report_cache_total", {"report": "dynamicity", "outcome": "hit"}
        ) == 1
        day = app.snapshots.next_day
        app.dynamicity.ingest(day)
        app.dynamicity.report()
        assert metrics.value(
            "serve_report_cache_total", {"report": "dynamicity", "outcome": "miss"}
        ) == 2

    def test_ingest_rejects_cadence_gap_without_mutating(self, app):
        service = app.dynamicity
        before = len(service.snapshots.series)
        bad_day = service.snapshots.next_day + dt.timedelta(days=5)
        with pytest.raises(ServiceError) as excinfo:
            service.ingest(bad_day)
        assert excinfo.value.status == 409
        assert len(service.snapshots.series) == before
        # The analyzer did not diverge either: the next valid ingest works.
        summary = service.ingest(service.snapshots.next_day)
        assert summary["days"] == before + 1

    def test_ingest_rejects_negative_counts(self, app):
        service = app.dynamicity
        with pytest.raises(ServiceError) as excinfo:
            service.ingest(service.snapshots.next_day, {"192.0.2.0/24": -1})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "counts, named",
        [
            ({"20.0.10.0/24": 5, "not-a-prefix": 3}, ["not-a-prefix"]),
            ({"20.0.10.0/24": 5, "192.0.2.0/25": 3}, ["192.0.2.0/25"]),
            ({"20.0.10.0/24": True}, ["20.0.10.0/24"]),
            ({"20.0.10.0/24": 5, "20.0.10.7": 4}, ["20.0.10.0/24", "20.0.10.7"]),
            ({"2001:db8::/24": 3}, ["2001:db8::/24"]),
        ],
        ids=[
            "malformed-key", "non-slash24-key", "bool-count", "colliding-keys",
            "ipv6-key",
        ],
    )
    def test_ingest_rejects_bad_explicit_counts_without_mutating(
        self, app, counts, named
    ):
        snapshots = app.snapshots
        day_count, next_day = len(snapshots.series), snapshots.next_day
        status, payload = app.dispatch(
            "POST",
            "/ingest/day",
            body=json.dumps({"day": next_day.isoformat(), "counts": counts}).encode(),
        )
        assert status == 400, payload
        for key in named:
            assert repr(key) in payload["error"]
        assert len(snapshots.series) == day_count
        assert snapshots.next_day == next_day


class TestLeakService:
    def test_payload_identifies_quick_world_leaks(self, app):
        payload = app.leaks.payload()
        assert "stateu.edu" in payload["identified"]
        stats = payload["suffixes"]["stateu.edu"]
        assert stats["identified"] is True
        assert stats["unique_names"] >= 3

    def test_suffix_drilldown_and_404(self, app):
        payload = app.leaks.payload(suffix="stateu.edu")
        assert payload["suffix"] == "stateu.edu"
        assert payload["identified"] is True
        with pytest.raises(ServiceError) as excinfo:
            app.leaks.payload(suffix="never.example")
        assert excinfo.value.status == 404

    def test_sample_window_is_trailing_days(self, app, quick_config):
        window = app.leaks.sample_window()
        assert len(window) == quick_config.leak_sample_days
        assert window[-1] == "2021-01-21"


class TestNamesService:
    def test_top_truncates_rankings(self, app):
        payload = app.leaks.names_payload(top=3)
        assert len(payload["names"]["all"]) == 3
        full = app.leaks.names_payload()
        assert payload["names"]["all"] == full["names"]["all"][:3]

    def test_rankings_sorted_by_count_then_name(self, app):
        ranked = app.leaks.names_payload()["names"]["all"]
        keys = [(-count, name) for name, count in ranked]
        assert keys == sorted(keys)

    def test_rejects_non_positive_top(self, app):
        with pytest.raises(ServiceError):
            app.leaks.names_payload(top=0)


class TestOccupancyService:
    def test_daily_totals_match_series(self, app, fresh_series):
        payload = app.occupancy.daily_payload()
        totals = fresh_series.daily_totals()
        assert payload["totals"] == [totals[day] for day in sorted(totals)]
        assert payload["peak"] == max(totals.values())
        assert max(payload["relative_percent"]) == 100.0

    def test_prefix_scoped_daily(self, app):
        prefix = app.snapshots.series.prefix_table().values[0]
        payload = app.occupancy.daily_payload(prefix=prefix)
        assert payload["prefix"] == prefix
        assert payload["totals"] == app.snapshots.history(prefix)

    def test_hourly_unknown_network_is_404(self, app):
        with pytest.raises(ServiceError) as excinfo:
            app.occupancy.hourly_payload("No-Such-Network")
        assert excinfo.value.status == 404
        assert excinfo.value.detail["networks"]

    def test_hourly_unknown_network_404s_before_running_the_campaign(
        self, app, monkeypatch
    ):
        def run(self, *args, **kwargs):
            raise AssertionError("the campaign ran for an unknown network")

        monkeypatch.setattr(SupplementalCampaign, "run", run)
        status, payload = app.dispatch(
            "GET", "/occupancy", query={"network": "No-Such-Network"}
        )
        assert status == 404, payload
        assert "Academic-C" in payload["networks"]

    def test_hourly_bad_source_is_400(self, app):
        with pytest.raises(ServiceError) as excinfo:
            app.occupancy.hourly_payload("Academic-C", source="sonar")
        assert excinfo.value.status == 400

    def test_explicit_none_profile_beats_the_environment(
        self, quick_world, fresh_series, monkeypatch
    ):
        # `REPRO_FAULT_PROFILE=mild repro --quick --fault-profile none serve`
        # must build a clean occupancy campaign.
        monkeypatch.setenv("REPRO_FAULT_PROFILE", "mild")
        args = build_parser().parse_args(
            ["--quick", "--seed", "1", "--fault-profile", "none", "serve"]
        )
        config = read_settings(args).config
        assert config.fault_plan is None
        app = build_quick_app(quick_world, fresh_series, config)
        assert app.occupancy.campaign.fault_plan is None
