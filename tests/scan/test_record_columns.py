"""A series stores each collected day's PTR records as columns.

For every day, the stored (address, PTR id) columns must read back as
exactly the world's ``records_on`` walk, in order and with duplicates
kept, however the series was produced: serially, on a process pool, on
a sharded plan, or from a warm cache hit.  A day appended as bare counts
holds no columns and falls back to deriving its records from the world.
"""

import datetime as dt

import pytest

from repro.netsim.internet import WorldScale, build_world
from repro.netsim.worldplan import synthetic_plan
from repro.scan.blockfile import BlockFileReader
from repro.scan.cache import SnapshotCache
from repro.scan.parallel import collect_days
from repro.scan.snapshot import SnapshotCollector
from repro.serve.repositories import SnapshotRepository
from tests.cache_bytes import series_bytes

START = dt.date(2021, 3, 1)
END = dt.date(2021, 3, 5)
OFFSET = SnapshotCollector.DEFAULT_SNAPSHOT_OFFSET


@pytest.fixture(scope="module")
def world():
    return build_world(seed=6, scale=WorldScale.small())


@pytest.fixture(scope="module")
def serial_series(world):
    return SnapshotCollector.openintel_style(world.internet).collect(START, END)


def world_walk(internet, day):
    return list(internet.records_on(day, at_offset=OFFSET))


def first_seen(series):
    """The series' records over every day, deduplicated in first-seen order."""
    records, seen = [], set()
    for day in series.days:
        for record in series.records_on(day):
            if record not in seen:
                seen.add(record)
                records.append(record)
    return records


def assert_columns_match_world(series, internet):
    assert series.days
    hostnames = set()
    for day in series.days:
        expected = world_walk(internet, day)
        assert list(series.records_on(day)) == expected
        assert list(series.record_pairs(day)) == [
            (int(address), hostname) for address, hostname in expected
        ]
        hostnames.update(hostname for _, hostname in expected)
    assert series.stats().unique_ptrs == len(hostnames)


class TestColumnsMatchTheWorld:
    def test_serial(self, world, serial_series):
        assert_columns_match_world(serial_series, world.internet)

    def test_pool_of_two_workers(self, world, serial_series):
        other = build_world(seed=6, scale=WorldScale.small())
        collector = SnapshotCollector.openintel_style(other.internet)
        series = collect_days(collector, collector.snapshot_days(START, END), workers=2)
        assert_columns_match_world(series, world.internet)
        assert series_bytes(series) == series_bytes(serial_series)

    def test_three_shard_plan(self):
        plan = synthetic_plan(seed=2, slash16s=6, people=4)
        series = SnapshotCollector.openintel_style(plan, shards=3).collect(START, END)
        assert_columns_match_world(series, plan.build().internet)
        single = SnapshotCollector.openintel_style(plan, shards=1).collect(START, END)
        assert series_bytes(series) == series_bytes(single)

    def test_warm_hit(self, world, serial_series, tmp_path):
        cache = SnapshotCache(tmp_path)
        collector = SnapshotCollector.openintel_style(world.internet)
        collector.collect(START, END, cache=cache)
        warm = collector.collect(START, END, cache=cache)
        assert collector.last_metrics.cache_hit
        assert_columns_match_world(warm, world.internet)
        assert series_bytes(warm) == series_bytes(serial_series)

    def test_sample_dedups_the_columns_first_seen(self, serial_series):
        assert serial_series.sample_records() == first_seen(serial_series)


class TestPlanStaysUnbuilt:
    def test_record_reads_never_build_the_plan(self):
        plan = synthetic_plan(seed=3, slash16s=4, people=4)
        series = SnapshotCollector.openintel_style(plan, shards=2).collect(START, END)
        assert series.sample_records()
        assert list(series.records_on(START))
        assert not series._internet.materialized()


class TestCountOnlyDays:
    def test_appended_counts_fall_back_to_the_world(self, world, tmp_path):
        series = SnapshotCollector.openintel_style(world.internet).collect(START, END)
        unique_ptrs = series.stats().unique_ptrs
        day = END
        counts = series.counts_by_slash24(series.days[-1])
        SnapshotRepository(series).append_counts(day, counts)

        assert list(series.records_on(day)) == world_walk(world.internet, day)
        assert series.sample_records() == first_seen(series)
        # Reading a derived day never grows the series' PTR pool.
        assert series.stats().unique_ptrs == unique_ptrs
        # The counts-only day is stored without a RECORDS record.
        path = tmp_path / "series.rbf"
        path.write_bytes(series.encode_blockfile())
        with BlockFileReader.open(path) as reader:
            assert reader.day_records(day.toordinal()) is None
            assert all(
                reader.day_records(other.toordinal()) is not None for other in series.days[:-1]
            )
