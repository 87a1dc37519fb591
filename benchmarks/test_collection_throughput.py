"""Collection-layer throughput: serial vs parallel vs warm cache.

Not a paper table — this benchmarks the infrastructure that makes the
paper-scale tables affordable.  One 60-day daily collection is timed
three ways over the same seeded world: single-process, fanned out over
a 4-worker process pool, and replayed from a warm on-disk cache.  All
three must produce bit-identical series; the interesting output is the
days/second column and the speedup ratios.

The parallel speedup assertion only runs on hosts with >= 4 CPUs.  On
smaller hosts the never-slower cap
(:func:`repro.scan.parallel.effective_workers`) shrinks the pool — down
to the plain serial loop on one core — so requesting ``--workers`` can
no longer lose to serial; the benchmark asserts that too.
"""

import datetime as dt
import os
import time

from repro.core.pipeline import StudyConfig
from repro.netsim.internet import WorldScale, build_world
from repro.reporting import TextTable
from repro.scan.cache import SnapshotCache
from repro.scan.snapshot import SnapshotCollector

SEED = 42
START, END = dt.date(2021, 3, 1), dt.date(2021, 4, 30)  # 60 days
PARALLEL_WORKERS = 4


def _timed_collect(world, *, workers=1, cache=None):
    collector = SnapshotCollector.openintel_style(world.internet)
    started = time.perf_counter()
    series = collector.collect(START, END, workers=workers, cache=cache)
    return series, time.perf_counter() - started, collector.last_metrics


def render_throughput(rows):
    table = TextTable(
        ["Mode", "Workers", "Days", "Seconds", "Days/s", "Speedup vs serial"],
        aligns=["<", ">", ">", ">", ">", ">"],
    )
    serial_seconds = rows[0][2]
    for mode, workers, seconds, days in rows:
        table.add_row(
            [
                mode,
                workers,
                days,
                f"{seconds:.2f}",
                f"{days / seconds:.1f}" if seconds > 0 else "inf",
                f"{serial_seconds / seconds:.1f}x" if seconds > 0 else "inf",
            ]
        )
    return table.render()


def test_collection_throughput(tmp_path_factory, write_artifact):
    cache = SnapshotCache(tmp_path_factory.mktemp("snapshot-cache"))

    serial_world = build_world(seed=SEED, scale=WorldScale.small())
    serial, serial_seconds, _ = _timed_collect(serial_world)

    parallel_world = build_world(seed=SEED, scale=WorldScale.small())
    # Callers apply the machine ceiling; the engine caps only by work.
    requested = StudyConfig().capped_workers(PARALLEL_WORKERS)
    parallel, parallel_seconds, parallel_metrics = _timed_collect(
        parallel_world, workers=requested
    )

    # Cold pass fills the cache; the warm pass replays it.
    cache_world = build_world(seed=SEED, scale=WorldScale.small())
    _, cold_seconds, cold_metrics = _timed_collect(cache_world, cache=cache)
    warm, warm_seconds, warm_metrics = _timed_collect(cache_world, cache=cache)

    # Correctness first: every mode is bit-identical to serial.
    for series in (parallel, warm):
        assert series.days == serial.days
        assert series.stats() == serial.stats()
        for day in serial.days:
            assert series.counts_by_slash24(day) == serial.counts_by_slash24(day)
    assert parallel_metrics.workers == requested
    assert 1 <= parallel_metrics.effective_workers <= min(
        PARALLEL_WORKERS, os.cpu_count() or 1
    )
    assert cold_metrics.cache_stored and not cold_metrics.cache_hit
    assert warm_metrics.cache_hit

    rows = [
        ("serial", 1, serial_seconds, len(serial)),
        ("parallel", parallel_metrics.effective_workers, parallel_seconds, len(parallel)),
        ("cache (cold)", 1, cold_seconds, len(serial)),
        ("cache (warm)", 1, warm_seconds, len(warm)),
    ]
    write_artifact(
        "collection_throughput",
        f"Snapshot collection throughput ({len(serial)} days, "
        f"{os.cpu_count()} CPU(s))",
        render_throughput(rows),
    )

    # A warm cache skips simulation entirely: >= 10x faster than cold.
    assert warm_seconds < cold_seconds / 10

    # Requesting workers must never lose badly to serial: the effective
    # cap degrades the pool to the serial loop when cores or days are
    # short (the 1.5x margin absorbs timing noise).
    assert parallel_seconds < serial_seconds * 1.5

    # The pool only pays off with real cores behind it.
    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        assert parallel_seconds < serial_seconds / 2
