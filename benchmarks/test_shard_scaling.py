"""Shard scaling: the multi-/16 world model, collected in shards.

Not a paper table — this benchmarks the sharded collection plane that
lets a study span address space no single process could hold.  A
:func:`~repro.netsim.worldplan.synthetic_plan` world of
``REPRO_SHARD_BENCH_SLASH16S`` /16s (default 400 → 102 400 /24-sized
prefixes spanned) runs through :class:`SnapshotCollector` at several
shard counts, and every multi-shard payload is checked **byte-identical**
to the single-shard run before anything is timed.

Timed legs:

* serial reference: ``shards=1`` on one worker;
* sharded serial: ``shards=4`` on one worker (partitioning overhead);
* sharded parallel: ``shards=4`` on 4 workers — the leg the speedup
  gate watches.

Results land in ``results/shard_scaling.txt`` (human table) and
``results/BENCH_shards.json`` (machine-readable).  The committed JSON
doubles as the CI regression baseline: on a >= 4-core host at the full
configuration, the 4-worker leg must clear ``SPEEDUP_FLOOR`` (1.8x) —
single-core hosts still verify bit-identity and record timings, but
cannot meaningfully gate a multi-core speedup.  Peak RSS (self +
children) is recorded so memory-boundedness regressions show up in
review diffs.

When the speedup gate cannot apply — a smoke configuration or a
single-core host — the reason is recorded in ``gate.skip_reason`` and
printed, so a green run on an undersized host can never be mistaken
for a gated one.  Peak RSS is part of the gate: set
``REPRO_SHARD_BENCH_RSS_MB`` to turn the recorded figure into a hard
ceiling (the CI smoke job does).

Environment knobs for CI smoke runs: ``REPRO_SHARD_BENCH_SLASH16S``
(default 400), ``REPRO_SHARD_BENCH_DAYS`` (default 12),
``REPRO_SHARD_BENCH_PEOPLE`` (default 4) and
``REPRO_SHARD_BENCH_RSS_MB`` (unset → no ceiling).
"""

import datetime as dt
import json
import os
import pathlib
import resource
import time

from repro.core.pipeline import StudyConfig
from repro.netsim.worldplan import synthetic_plan
from repro.reporting import TextTable
from repro.scan.snapshot import SnapshotCollector
from tests.cache_bytes import series_bytes

SEED = 42
START = dt.date(2021, 1, 1)

SLASH16S = int(os.environ.get("REPRO_SHARD_BENCH_SLASH16S", "400"))
BENCH_DAYS = int(os.environ.get("REPRO_SHARD_BENCH_DAYS", "12"))
PEOPLE = int(os.environ.get("REPRO_SHARD_BENCH_PEOPLE", "4"))
RSS_CEILING_MB = os.environ.get("REPRO_SHARD_BENCH_RSS_MB")

#: Shard counts to verify byte-identity at (1 is the reference).
SHARD_COUNTS = (1, 2, 4, 8)
GATED_WORKERS = 4
SPEEDUP_FLOOR = 1.8
TIMING_REPS = 3

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_shards.json"
BENCH_TXT = RESULTS_DIR / "shard_scaling.txt"

FULL_CONFIG = SLASH16S >= 400 and BENCH_DAYS >= 12
MULTI_CORE = (os.cpu_count() or 1) >= GATED_WORKERS


def _best_of(fn, reps=TIMING_REPS):
    """Best-of-N wall time: the least-interfered-with run."""
    best = None
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _peak_rss_mb() -> float:
    """Peak RSS in MB across this process and its (pool) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return round(max(own, children) / 1024.0, 1)


def test_shard_scaling():
    plan = synthetic_plan(seed=SEED, slash16s=SLASH16S, people=PEOPLE)
    end = START + dt.timedelta(days=BENCH_DAYS)
    prefixes_spanned = SLASH16S * 256

    # -- bit-identity first: nothing is timed until this holds ------------
    reference = SnapshotCollector.openintel_style(plan, shards=1).collect(START, end)
    reference_bytes = series_bytes(reference)
    identical_at = []
    for shards in SHARD_COUNTS[1:]:
        series = SnapshotCollector.openintel_style(plan, shards=shards).collect(START, end)
        assert (
            series_bytes(series) == reference_bytes
        ), f"shards={shards} diverged from the single-shard run"
        identical_at.append(shards)

    # -- timings ----------------------------------------------------------
    serial_seconds = _best_of(
        lambda: SnapshotCollector.openintel_style(plan, shards=1).collect(START, end, workers=1)
    )
    sharded_serial_seconds = _best_of(
        lambda: SnapshotCollector.openintel_style(plan, shards=GATED_WORKERS).collect(
            START, end, workers=1
        )
    )
    parallel_seconds = _best_of(
        lambda: SnapshotCollector.openintel_style(plan, shards=GATED_WORKERS).collect(
            START, end, workers=StudyConfig().capped_workers(GATED_WORKERS)
        )
    )
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    day_networks = BENCH_DAYS * SLASH16S

    # A skipped gate must say why — a green run on a 1-CPU host or a
    # smoke configuration is *ungated*, and the JSON should show it.
    skip_reason = None
    if not FULL_CONFIG:
        skip_reason = (
            f"smoke configuration ({SLASH16S} /16s × {BENCH_DAYS} days below "
            f"400 × 12): speedup recorded, not gated"
        )
    elif not MULTI_CORE:
        skip_reason = (
            f"single-core host ({os.cpu_count() or 1} cpu(s) < {GATED_WORKERS}): "
            f"speedup recorded, not gated"
        )

    results = {
        "benchmark": "shard_scaling",
        "config": {
            "seed": SEED,
            "slash16s": SLASH16S,
            "prefixes_spanned": prefixes_spanned,
            "days": BENCH_DAYS,
            "people": PEOPLE,
            "plan_fingerprint": plan.fingerprint(),
        },
        "host": {"cpus": os.cpu_count() or 1, "multi_core": MULTI_CORE},
        "identity": {
            "reference_shards": 1,
            "byte_identical_at": identical_at,
        },
        "timings": {
            "serial_seconds": round(serial_seconds, 4),
            "sharded_serial_seconds": round(sharded_serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "parallel_workers": GATED_WORKERS,
            "speedup_at_4_workers": round(speedup, 2),
            "serial_day_networks_per_second": round(day_networks / serial_seconds, 1),
            "parallel_day_networks_per_second": round(
                day_networks / parallel_seconds, 1
            ),
        },
        "memory": {
            "peak_rss_mb": _peak_rss_mb(),
            "ceiling_mb": float(RSS_CEILING_MB) if RSS_CEILING_MB else None,
        },
        "gate": {
            "speedup_floor": SPEEDUP_FLOOR,
            "applied": bool(FULL_CONFIG and MULTI_CORE),
            "skip_reason": skip_reason,
        },
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    table = TextTable(["leg", "shards", "workers", "seconds"], aligns=["<", ">", ">", ">"])
    table.add_row(["serial reference", 1, 1, f"{serial_seconds:.3f}"])
    table.add_row(["sharded serial", GATED_WORKERS, 1, f"{sharded_serial_seconds:.3f}"])
    table.add_row(["sharded parallel", GATED_WORKERS, GATED_WORKERS, f"{parallel_seconds:.3f}"])
    BENCH_TXT.write_text(
        f"Shard scaling — {SLASH16S} /16s ({prefixes_spanned} prefixes spanned), "
        f"{BENCH_DAYS} days, byte-identical at shards={identical_at}\n\n"
        + table.render()
        + f"\n\nspeedup at {GATED_WORKERS} workers: {speedup:.2f}x"
        + f" (gate {'applied' if results['gate']['applied'] else 'skipped'}:"
        + f" floor {SPEEDUP_FLOOR}x"
        + (f", {skip_reason}" if skip_reason else "")
        + f")\npeak RSS: {results['memory']['peak_rss_mb']} MB"
        + (f" (ceiling {RSS_CEILING_MB} MB)" if RSS_CEILING_MB else "")
        + "\n"
    )
    BENCH_JSON.write_text(json.dumps(results, indent=2) + "\n")
    if skip_reason:
        print(f"\nshard-scaling gate skipped: {skip_reason}")

    # -- the regression gate ---------------------------------------------
    # Partitioning alone must never cost more than a few percent.
    assert sharded_serial_seconds < serial_seconds * 1.5, (
        f"sharding overhead blew up: {sharded_serial_seconds:.3f}s sharded-serial "
        f"vs {serial_seconds:.3f}s serial"
    )
    if FULL_CONFIG and MULTI_CORE:
        assert speedup > SPEEDUP_FLOOR, (
            f"4-worker speedup regressed: {speedup:.2f}x < {SPEEDUP_FLOOR}x "
            f"(serial {serial_seconds:.3f}s, parallel {parallel_seconds:.3f}s)"
        )
    if RSS_CEILING_MB:
        assert results["memory"]["peak_rss_mb"] <= float(RSS_CEILING_MB), (
            f"peak RSS {results['memory']['peak_rss_mb']} MB exceeds the "
            f"{RSS_CEILING_MB} MB ceiling"
        )
