"""Tests for snapshot collectors (OpenINTEL/Rapid7 style)."""

import datetime as dt

import pytest

from repro.netsim.internet import WorldScale, build_world
from repro.scan import SnapshotCollector

START = dt.date(2021, 3, 1)


@pytest.fixture(scope="module")
def world():
    return build_world(seed=4, scale=WorldScale.small())


class TestCadence:
    def test_daily_collector_collects_every_day(self, world):
        series = SnapshotCollector.openintel_style(world.internet).collect(
            START, START + dt.timedelta(days=7)
        )
        assert len(series) == 7
        assert series.cadence_days == 1

    def test_weekly_collector_collects_weekly(self, world):
        series = SnapshotCollector.rapid7_style(world.internet).collect(
            START, START + dt.timedelta(days=28)
        )
        assert len(series) == 4
        assert series.cadence_days == 7

    def test_invalid_ranges_rejected(self, world):
        collector = SnapshotCollector.openintel_style(world.internet)
        with pytest.raises(ValueError):
            collector.collect(START, START)
        with pytest.raises(ValueError):
            SnapshotCollector(world.internet, "x", cadence_days=0)


class TestSeriesContent:
    def test_counts_and_records_agree(self, world):
        series = SnapshotCollector.openintel_style(world.internet).collect(
            START, START + dt.timedelta(days=1)
        )
        counts = series.counts_by_slash24(START)
        assert sum(counts.values()) == len(list(series.records_on(START)))

    def test_daily_totals(self, world):
        series = SnapshotCollector.openintel_style(world.internet).collect(
            START, START + dt.timedelta(days=3)
        )
        totals = series.daily_totals()
        assert set(totals) == set(series.days)
        assert all(total > 0 for total in totals.values())

    def test_uncollected_day_raises(self, world):
        series = SnapshotCollector.openintel_style(world.internet).collect(
            START, START + dt.timedelta(days=1)
        )
        with pytest.raises(KeyError):
            list(series.records_on(START + dt.timedelta(days=5)))

    def test_network_restriction(self, world):
        series = SnapshotCollector(
            world.internet, "subset", networks=["Academic-A"]
        ).collect(START, START + dt.timedelta(days=1))
        records = list(series.records_on(START))
        academic_a = world.internet.network("Academic-A")
        assert records
        assert all(address in academic_a.prefix for address, _ in records)


class TestHalfOpenWindow:
    def test_start_collected_end_excluded(self, world):
        end = START + dt.timedelta(days=7)
        series = SnapshotCollector.openintel_style(world.internet).collect(START, end)
        assert series.days[0] == START
        assert series.days[-1] == end - dt.timedelta(days=1)
        assert end not in series.days

    def test_weekly_day_just_inside_window_collected(self, world):
        # [Mar 1, Mar 9): the second weekly snapshot (Mar 8) falls one
        # day before the exclusive end and must be collected.
        series = SnapshotCollector.rapid7_style(world.internet).collect(
            START, START + dt.timedelta(days=8)
        )
        assert series.days == [START, START + dt.timedelta(days=7)]

    def test_weekly_day_at_window_end_excluded(self, world):
        series = SnapshotCollector.rapid7_style(world.internet).collect(
            START, START + dt.timedelta(days=7)
        )
        assert series.days == [START]


class TestDeclaredCadence:
    def test_single_snapshot_weekly_series_reports_seven(self, world):
        # Regression: cadence used to be inferred from the first two
        # days, so a one-snapshot weekly series silently reported 1.
        series = SnapshotCollector.rapid7_style(world.internet).collect(
            START, START + dt.timedelta(days=7)
        )
        assert len(series) == 1
        assert series.cadence_days == 7
        assert len(series.days) < 2  # no second snapshot to infer a spacing from

    def test_inferred_cadence_matches_declared(self, world):
        series = SnapshotCollector.rapid7_style(world.internet).collect(
            START, START + dt.timedelta(days=15)
        )
        assert (series.days[1] - series.days[0]).days == series.cadence_days == 7

    def test_spacing_mismatch_rejected(self, world):
        from repro.scan.snapshot import SnapshotSeries

        series = SnapshotSeries("x", world.internet, cadence_days=7)
        series._ingest_day(START, {"10.0.0.0/24": 1}, None)
        with pytest.raises(ValueError, match="cadence"):
            series._ingest_day(START + dt.timedelta(days=1), {}, None)
        with pytest.raises(ValueError, match="not after"):
            series._ingest_day(START, {}, None)


class TestMetrics:
    def test_collect_records_metrics(self, world):
        collector = SnapshotCollector.openintel_style(world.internet)
        series = collector.collect(START, START + dt.timedelta(days=3))
        metrics = collector.last_metrics
        assert metrics.days == 3
        assert metrics.responses == series.stats().total_responses
        assert metrics.total_seconds >= metrics.simulate_seconds > 0
        assert not metrics.cache_hit
        assert "3 snapshot day(s)" in metrics.describe()


class TestStats:
    def test_stats_match_table1_schema(self, world):
        series = SnapshotCollector.openintel_style(world.internet).collect(
            START, START + dt.timedelta(days=5)
        )
        stats = series.stats()
        assert stats.name == "OpenINTEL"
        assert stats.start_date == START
        assert stats.snapshots == 5
        assert stats.total_responses >= stats.unique_ptrs > 0

    def test_daily_sees_more_responses_than_weekly(self, world):
        daily = SnapshotCollector.openintel_style(world.internet).collect(
            START, START + dt.timedelta(days=14)
        )
        weekly = SnapshotCollector.rapid7_style(world.internet).collect(
            START, START + dt.timedelta(days=14)
        )
        assert daily.stats().total_responses > weekly.stats().total_responses
