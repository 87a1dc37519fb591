"""Supplemental-campaign throughput: serial vs parallel vs warm cache.

Not a paper table — this benchmarks the infrastructure that makes the
Section 6-7 analyses affordable.  One reactive campaign over the nine
Table-4 networks is timed four ways on the same seeded world: the
serial per-network loop, a 4-worker process pool, a cold cache fill and
a warm cache replay.  All four must produce bit-identical datasets;
the interesting output is the seconds column and the speedup ratios.

The window defaults to seven measured days and can be shrunk for smoke
runs (CI uses ``REPRO_CAMPAIGN_BENCH_DAYS=3``).  The parallel speedup
assertion only runs on hosts with >= 4 CPUs; on smaller hosts the
never-slower cap (:func:`repro.scan.campaign_parallel.effective_campaign_workers`)
degrades the pool down to the serial loop, which the benchmark asserts
directly.
"""

import datetime as dt
import os
import time

from repro.core.pipeline import StudyConfig
from repro.netsim.internet import WorldScale, build_world
from repro.reporting import TextTable
from repro.scan.cache import CampaignCache
from repro.scan.campaign import SupplementalCampaign

SEED = 42
BENCH_DAYS = int(os.environ.get("REPRO_CAMPAIGN_BENCH_DAYS", "7"))
START = dt.date(2021, 11, 1)
END = START + dt.timedelta(days=BENCH_DAYS)
PARALLEL_WORKERS = 4


def _timed_run(*, workers=1, cache=None):
    # A fresh world per mode: no shared memoisation between timings.
    world = build_world(seed=SEED, scale=WorldScale.small())
    campaign = SupplementalCampaign(world)
    started = time.perf_counter()
    dataset = campaign.run(START, END, workers=workers, cache=cache)
    return dataset, time.perf_counter() - started, campaign.last_metrics


def render_throughput(rows):
    table = TextTable(
        ["Mode", "Workers", "Observations", "Seconds", "Speedup vs serial"],
        aligns=["<", ">", ">", ">", ">"],
    )
    serial_seconds = rows[0][3]
    for mode, workers, observations, seconds in rows:
        table.add_row(
            [
                mode,
                workers,
                f"{observations:,}",
                f"{seconds:.2f}",
                f"{serial_seconds / seconds:.1f}x" if seconds > 0 else "inf",
            ]
        )
    return table.render()


def assert_identical(left, right):
    assert list(left.icmp) == list(right.icmp)
    assert list(left.rdns) == list(right.rdns)
    assert left.icmp_stats() == right.icmp_stats()
    assert left.rdns_stats() == right.rdns_stats()
    assert left.table4_rows() == right.table4_rows()


def test_campaign_throughput(tmp_path_factory, write_artifact):
    cache = CampaignCache(tmp_path_factory.mktemp("campaign-cache"))

    serial, serial_seconds, serial_metrics = _timed_run()
    # Callers apply the machine ceiling; the engine caps only by work.
    requested = StudyConfig().capped_workers(PARALLEL_WORKERS)
    parallel, parallel_seconds, parallel_metrics = _timed_run(workers=requested)
    cold, cold_seconds, cold_metrics = _timed_run(cache=cache)
    warm, warm_seconds, warm_metrics = _timed_run(cache=cache)

    # Correctness first: every mode is bit-identical to serial.
    assert_identical(serial, parallel)
    assert_identical(serial, cold)
    assert_identical(serial, warm)
    assert serial_metrics.effective_workers == 1
    assert parallel_metrics.workers == requested
    assert 1 <= parallel_metrics.effective_workers <= min(
        PARALLEL_WORKERS, os.cpu_count() or 1
    )
    assert cold_metrics.cache_stored and not cold_metrics.cache_hit
    assert warm_metrics.cache_hit

    rows = [
        ("serial", 1, serial_metrics.observations, serial_seconds),
        (
            "parallel",
            parallel_metrics.effective_workers,
            parallel_metrics.observations,
            parallel_seconds,
        ),
        ("cache (cold)", 1, cold_metrics.observations, cold_seconds),
        ("cache (warm)", 1, warm_metrics.observations, warm_seconds),
    ]
    write_artifact(
        "campaign_throughput",
        f"Supplemental campaign throughput ({BENCH_DAYS} days, 9 networks, "
        f"{os.cpu_count()} CPU(s))",
        render_throughput(rows),
    )

    # A warm cache skips the simulation entirely: >= 2x faster than the
    # serial run (in practice far more).
    assert warm_seconds < serial_seconds / 2

    # Requesting workers must never lose badly to serial: the effective
    # cap degrades the pool to the serial loop when cores are short
    # (the 1.5x margin absorbs timing noise).
    assert parallel_seconds < serial_seconds * 1.5

    # The pool only pays off with real cores behind it.
    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        assert parallel_seconds < serial_seconds / 2
