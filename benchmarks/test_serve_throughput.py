"""Query-service throughput: cold vs warm request latency over a real socket.

Not a paper table — this benchmarks the :mod:`repro.serve` HTTP API.
One quick-configuration world is collected and served from a
:class:`~repro.serve.http.ServerThread`; every request below travels
the full asyncio socket path (``http.client`` on a keep-alive
connection), so the numbers include framing, dispatch, obs wiring and
JSON encoding — what a deployment actually pays per call.

* cold: the first request per GET endpoint — report caches are empty,
  so ``/leaks`` pays leak identification and ``/occupancy`` the
  daily-totals scan;
* warm: ``REPRO_SERVE_BENCH_REQUESTS`` (default 400) round-robin
  requests across the same endpoints — every report is memoised, so
  this is steady-state service latency (p50/p99, requests/s); and
* ingest: one ``POST /ingest/day`` extending the series by a day —
  the O(prefixes) incremental path, report caches invalidated.

Results land in ``results/serve_throughput.txt`` (human table) and
``results/BENCH_serve.json`` (machine-readable).  The committed JSON
doubles as a regression baseline: absolute seconds do not compare
across hosts, but the cold/warm ratio does — when the configuration
matches, a rerun must retain at least half the recorded warm speedup.
"""

import http.client
import json
import os
import pathlib
import time

from repro.core.pipeline import StudyConfig
from repro.netsim.internet import build_world
from repro.obs import Observability
from repro.reporting import TextTable
from repro.scan.snapshot import SnapshotCollector
from repro.serve import ServeApp, ServerThread

SEED = 1
WARM_REQUESTS = int(os.environ.get("REPRO_SERVE_BENCH_REQUESTS", "400"))
RESULTS_DIR = pathlib.Path(__file__).parent.parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_serve.json"


def build_quick_app() -> ServeApp:
    config = StudyConfig.quick(SEED)
    world = build_world(seed=config.seed, scale=config.scale)
    collector = SnapshotCollector.openintel_style(world.internet)
    series = collector.collect(config.dynamicity_start, config.dynamicity_end)
    return ServeApp(series, config, world, obs=Observability())


def timed_request(connection, method, target, body=None):
    headers = {"Content-Type": "application/json"} if body else {}
    started = time.perf_counter()
    connection.request(method, target, body=body, headers=headers)
    response = connection.getresponse()
    payload = response.read()
    elapsed = time.perf_counter() - started
    assert response.status == 200, f"{method} {target} -> {response.status}: {payload}"
    return elapsed


def percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def test_serve_throughput(write_artifact):
    app = build_quick_app()
    prefix = app.dynamicity.report().dynamic_prefixes()[0]
    endpoints = [
        f"/prefix/{prefix.replace('/', '%2F')}/dynamicity",
        "/leaks",
        "/names?top=10",
        "/occupancy",
    ]

    with ServerThread(app) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            # Cold: first hit per endpoint fills the report caches.
            cold = {
                target: timed_request(connection, "GET", target)
                for target in endpoints
            }

            # Warm: steady-state round-robin over memoised reports.
            warm = []
            for index in range(WARM_REQUESTS):
                target = endpoints[index % len(endpoints)]
                warm.append(timed_request(connection, "GET", target))

            # Incremental ingest: one day appended over the socket.
            next_day = app.snapshots.next_day
            ingest_seconds = timed_request(
                connection,
                "POST",
                "/ingest/day",
                body=json.dumps({"day": next_day.isoformat()}),
            )
        finally:
            connection.close()

    warm.sort()
    cold_mean = sum(cold.values()) / len(cold)
    warm_p50 = percentile(warm, 0.50)
    warm_p99 = percentile(warm, 0.99)
    requests_per_second = len(warm) / sum(warm)
    warm_speedup = cold_mean / warm_p50
    prefix_count = len(app.snapshots.series.prefix_table())

    table = TextTable(
        ["Path", "Requests", "p50 (ms)", "p99 (ms)", "Requests/s"],
        aligns=["<", ">", ">", ">", ">"],
    )
    cold_sorted = sorted(cold.values())
    table.add_row(
        [
            "cold (first hit)",
            len(cold),
            f"{percentile(cold_sorted, 0.50) * 1000:.2f}",
            f"{cold_sorted[-1] * 1000:.2f}",
            "-",
        ]
    )
    table.add_row(
        [
            "warm (memoised)",
            len(warm),
            f"{warm_p50 * 1000:.2f}",
            f"{warm_p99 * 1000:.2f}",
            f"{requests_per_second:.0f}",
        ]
    )
    table.add_row(
        ["ingest (1 day)", 1, f"{ingest_seconds * 1000:.2f}", "-", "-"]
    )
    body = table.render() + (
        f"\n\nwarm speedup over cold: {warm_speedup:.1f}x"
        f"\nworld: quick scale, seed={SEED},"
        f" prefixes={prefix_count}, warm requests={WARM_REQUESTS}"
    )
    write_artifact(
        "serve_throughput",
        f"Query-service throughput ({WARM_REQUESTS} warm requests, quick scale)",
        body,
    )

    config = {"seed": SEED, "scale": "quick", "warm_requests": WARM_REQUESTS}
    # Regression guard: the cold/warm ratio is host-independent — a
    # rerun at the same configuration must retain at least half the
    # committed warm speedup before the baseline is overwritten.
    if BENCH_JSON.exists():
        baseline = json.loads(BENCH_JSON.read_text())
        if baseline.get("config") == config:
            floor = baseline["warm_speedup"] / 2
            assert warm_speedup >= floor, (
                f"serve warm path regressed: speedup {warm_speedup:.2f}x "
                f"fell below {floor:.2f}x (half the committed "
                f"{baseline['warm_speedup']:.2f}x)"
            )

    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "config": config,
                "cold": {
                    "per_endpoint_seconds": {
                        target: seconds for target, seconds in sorted(cold.items())
                    },
                    "mean_seconds": cold_mean,
                },
                "warm": {
                    "requests": len(warm),
                    "p50_seconds": warm_p50,
                    "p99_seconds": warm_p99,
                    "requests_per_second": requests_per_second,
                },
                "ingest": {"seconds": ingest_seconds, "prefixes": prefix_count},
                "warm_speedup": warm_speedup,
            },
            indent=2,
        )
        + "\n"
    )

    # Warm requests ride the report memos, so they must beat the cold
    # first hit; the service must also clear an interactive floor.
    assert warm_speedup > 1.0
    assert warm_p99 < 1.0, f"warm p99 {warm_p99:.3f}s is not interactive"
