"""Regression tests: parallel and cached collection match serial exactly."""

import datetime as dt
import json

import pytest

from repro.netsim.internet import WorldScale, build_world
from repro.scan import SnapshotCache, SnapshotCollector
from repro.scan.parallel import (
    MIN_DAYS_PER_WORKER,
    chunk_days,
    collect_days,
    effective_workers,
    sample_day_records,
)

START = dt.date(2021, 3, 1)
END = dt.date(2021, 3, 13)


@pytest.fixture(scope="module")
def world():
    return build_world(seed=4, scale=WorldScale.small())


@pytest.fixture(scope="module")
def serial_series(world):
    return SnapshotCollector.openintel_style(world.internet).collect(START, END)


def assert_series_identical(left, right):
    assert left.days == right.days
    assert left.cadence_days == right.cadence_days
    for day in left.days:
        assert left.counts_by_slash24(day) == right.counts_by_slash24(day)
    assert left.stats() == right.stats()
    probe = left.days[0]
    left_records = sorted((str(address), host) for address, host in left.records_on(probe))
    right_records = sorted((str(address), host) for address, host in right.records_on(probe))
    assert left_records == right_records


class TestParallelEquivalence:
    # collect_days is driven directly so the pool actually runs even on
    # single-core hosts, where collect()'s never-slower cap would fall
    # back to the serial loop.

    def test_two_workers_bit_identical_to_serial(self, serial_series):
        # A fresh world: no shared memoisation with the serial fixture.
        world = build_world(seed=4, scale=WorldScale.small())
        collector = SnapshotCollector.openintel_style(world.internet)
        parallel = collect_days(collector, collector.snapshot_days(START, END), workers=2)
        assert_series_identical(serial_series, parallel)

    def test_four_workers_weekly_cadence(self, world):
        serial = SnapshotCollector.rapid7_style(world.internet).collect(
            START, START + dt.timedelta(days=28)
        )
        other = build_world(seed=4, scale=WorldScale.small())
        collector = SnapshotCollector.rapid7_style(other.internet)
        parallel = collect_days(
            collector,
            collector.snapshot_days(START, START + dt.timedelta(days=28)),
            workers=4,
        )
        assert_series_identical(serial, parallel)

    def test_network_restriction_respected(self, world):
        serial = SnapshotCollector(
            world.internet, "subset", networks=["Academic-A"]
        ).collect(START, START + dt.timedelta(days=4))
        collector = SnapshotCollector(world.internet, "subset", networks=["Academic-A"])
        parallel = collect_days(
            collector,
            collector.snapshot_days(START, START + dt.timedelta(days=4)),
            workers=2,
        )
        assert_series_identical(serial, parallel)

    def test_single_day_window_falls_back_to_serial(self, world):
        collector = SnapshotCollector.openintel_style(world.internet)
        series = collector.collect(START, START + dt.timedelta(days=1), workers=4)
        assert len(series) == 1
        assert collector.last_metrics.workers == 4
        assert collector.last_metrics.effective_workers == 1

    def test_collect_days_rejects_single_worker(self, world):
        collector = SnapshotCollector.openintel_style(world.internet)
        with pytest.raises(ValueError):
            collect_days(collector, [START], workers=1)


class TestRecordSampling:
    # sample_day_records is driven directly for the same reason as
    # collect_days above: sample_records()'s never-slower cap would
    # keep single-core hosts serial and leave the pool path untested.

    def test_pool_sample_bit_identical_to_serial(self, serial_series):
        serial = [
            record
            for day in serial_series.days
            for record in serial_series.records_on(day)
        ]
        pooled = sample_day_records(
            serial_series._internet,
            serial_series._network_names,
            serial_series.days,
            at_offset=serial_series._at_offset,
            workers=3,
        )
        assert pooled == serial

    def test_sample_records_dedups_first_seen(self, serial_series):
        sample = serial_series.sample_records()
        assert len(sample) == len(set(sample))
        metrics = serial_series.last_sample_metrics
        assert metrics.unique_records == len(sample)
        assert metrics.raw_records >= metrics.unique_records
        # First-seen order: the first raw occurrence of each record wins.
        seen = set()
        expected = []
        for day in serial_series.days:
            for record in serial_series.record_pairs(day):
                if record not in seen:
                    seen.add(record)
                    expected.append(record)
        assert list(sample) == expected

    def test_sample_records_rejects_uncollected_day(self, serial_series):
        with pytest.raises(KeyError):
            serial_series.sample_records([END + dt.timedelta(days=10)])

    def test_sample_day_subset(self, serial_series):
        tail = serial_series.days[-3:]
        sample = serial_series.sample_records(tail)
        assert serial_series.last_sample_metrics.days == 3
        assert set(sample) == {
            record for day in tail for record in serial_series.record_pairs(day)
        }


class TestEffectiveWorkers:
    def test_short_windows_stay_serial(self):
        assert effective_workers(4, 2 * MIN_DAYS_PER_WORKER - 1) == 1

    def test_serial_request_stays_serial(self):
        assert effective_workers(1, 1000) == 1

    def test_capped_by_day_count(self):
        days = 4 * MIN_DAYS_PER_WORKER
        assert effective_workers(64, days) <= days // MIN_DAYS_PER_WORKER

    def test_never_exceeds_request(self):
        assert effective_workers(2, 10_000) <= 2


class TestChunking:
    def test_chunks_partition_days_in_order(self):
        days = [START + dt.timedelta(days=offset) for offset in range(17)]
        chunks = chunk_days(days, workers=4)
        assert [day for chunk in chunks for day in chunk] == days
        assert all(chunks)

    def test_empty_day_list(self):
        assert chunk_days([], workers=4) == []


class TestCache:
    def test_cold_then_warm_identical(self, tmp_path, serial_series):
        cache = SnapshotCache(tmp_path)
        world = build_world(seed=4, scale=WorldScale.small())
        collector = SnapshotCollector.openintel_style(world.internet)
        cold = collector.collect(START, END, cache=cache)
        assert collector.last_metrics.cache_stored
        assert not collector.last_metrics.cache_hit
        warm = collector.collect(START, END, cache=cache)
        assert collector.last_metrics.cache_hit
        assert_series_identical(serial_series, cold)
        assert_series_identical(serial_series, warm)

    def test_changed_seed_misses(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        for seed in (4, 5):
            world = build_world(seed=seed, scale=WorldScale.small())
            collector = SnapshotCollector.openintel_style(world.internet)
            collector.collect(START, START + dt.timedelta(days=2), cache=cache)
            assert not collector.last_metrics.cache_hit
        assert len(cache.entries()) == 2

    def test_changed_window_misses(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        world = build_world(seed=4, scale=WorldScale.small())
        collector = SnapshotCollector.openintel_style(world.internet)
        collector.collect(START, START + dt.timedelta(days=2), cache=cache)
        collector.collect(START, START + dt.timedelta(days=3), cache=cache)
        assert not collector.last_metrics.cache_hit
        assert len(cache.entries()) == 2

    def test_changed_cadence_and_offset_miss(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        world = build_world(seed=4, scale=WorldScale.small())
        daily = SnapshotCollector.openintel_style(world.internet)
        daily.collect(START, START + dt.timedelta(days=8), cache=cache)
        weekly = SnapshotCollector.rapid7_style(world.internet)
        weekly.collect(START, START + dt.timedelta(days=8), cache=cache)
        assert not weekly.last_metrics.cache_hit
        midnight = SnapshotCollector.openintel_style(world.internet, at_offset=None)
        midnight.collect(START, START + dt.timedelta(days=8), cache=cache)
        assert not midnight.last_metrics.cache_hit
        assert len(cache.entries()) == 3

    def test_explicit_invalidation(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        world = build_world(seed=4, scale=WorldScale.small())
        collector = SnapshotCollector.openintel_style(world.internet)
        collector.collect(START, START + dt.timedelta(days=2), cache=cache)
        key = collector.last_metrics.cache_key
        assert cache.invalidate(key)
        assert not cache.invalidate(key)  # already gone
        collector.collect(START, START + dt.timedelta(days=2), cache=cache)
        assert not collector.last_metrics.cache_hit

    def test_clear_drops_everything(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        world = build_world(seed=4, scale=WorldScale.small())
        collector = SnapshotCollector.openintel_style(world.internet)
        collector.collect(START, START + dt.timedelta(days=2), cache=cache)
        collector.collect(START, START + dt.timedelta(days=4), cache=cache)
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        world = build_world(seed=4, scale=WorldScale.small())
        collector = SnapshotCollector.openintel_style(world.internet)
        collector.collect(START, START + dt.timedelta(days=2), cache=cache)
        key = collector.last_metrics.cache_key
        cache.path_for(key).write_text("{ not json")
        assert cache.load(key) is None
        assert cache.entries() == []  # corrupt entry was dropped

    def test_payload_roundtrip_is_json(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        world = build_world(seed=4, scale=WorldScale.small())
        collector = SnapshotCollector.openintel_style(world.internet)
        collector.collect(START, START + dt.timedelta(days=2), cache=cache)
        key = collector.last_metrics.cache_key
        payload = json.loads(cache.path_for(key).read_text())
        assert payload["cadence_days"] == 1
        assert len(payload["days"]) == 2


class TestCacheTokens:
    def test_same_build_args_same_token(self):
        token_a = build_world(seed=4, scale=WorldScale.small()).internet.cache_token()
        token_b = build_world(seed=4, scale=WorldScale.small()).internet.cache_token()
        assert token_a == token_b

    def test_seed_changes_token(self):
        token_a = build_world(seed=4, scale=WorldScale.small()).internet.cache_token()
        token_b = build_world(seed=5, scale=WorldScale.small()).internet.cache_token()
        assert token_a != token_b

    def test_token_stable_across_usage(self, world):
        before = world.internet.cache_token()
        SnapshotCollector.openintel_style(world.internet).collect(
            START, START + dt.timedelta(days=1)
        )
        assert world.internet.cache_token() == before
