"""The repository's benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload study-cold --seed 42 --seconds 10 --trace 0

Run from the repository root.  Workloads, metrics and bounds are defined
in ``BENCHMARK.json``; ``bench/README.md`` explains each.  Every study
and the server run in fresh child processes with ``PYTHONPATH=src``,
every ``REPRO_*`` variable removed, ``PYTHONHASHSEED=0`` and a private
cache and temp directory under ``.bench_tmp/``.  ``--seed`` is the
world seed: seeds with a committed golden (``golden/digests.json``) have
their outputs checked byte for byte, and every seed gets the agreement
and sanity checks.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass.  The line before it is a JSON detail record (settings, per-rep
numbers, digests).
"""

from __future__ import annotations

import argparse
import compileall
import datetime as dt
import http.client
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional

import client
import common

BENCH = common.ROOT / "bench"
WORKLOADS = ("study-cold", "study-warm", "study-2w", "serve-query", "serve-ingest")
#: Timed study reps per run, at least; more start until ``--seconds`` is up.
MIN_REPS = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Operations per serve run, spread evenly over ``--seconds`` (at 10 s:
#: 100 lookups/s, or an ingest every second).  Fixed counts keep each
#: run's percentiles over the same number of samples.
QUERIES = 1000
#: Ingested days; the golden covers exactly these.
INGESTS = 10
CHILD_TIMEOUT = 150.0
#: Exit code a child uses for "this workload cannot run as specified".
REFUSED = 3


class BenchError(Exception):
    """The workload could not run; no result is printed."""


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile: p90 of fewer than ten samples is the slowest."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Bench:
    """Child-process plumbing shared by the workloads of one run."""

    def __init__(self, seed: int, seconds: float, trace: bool, scratch):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.golden = common.goldens().get(str(seed))
        (scratch / "tmp").mkdir(parents=True)
        self.scrubbed = sorted(key for key in os.environ if key.startswith("REPRO_"))
        self.env = {key: value for key, value in os.environ.items() if key not in self.scrubbed}
        self.env.update(PYTHONPATH=str(common.SRC), PYTHONHASHSEED="0", TMPDIR=str(scratch / "tmp"))
        self._dirs: Counter = Counter()

    def fresh_dir(self, stem: str):
        self._dirs[stem] += 1
        path = self.scratch / f"{stem}{self._dirs[stem]}"
        path.mkdir()
        return path

    def study(self, mode: str, *, cache=None, traced: bool = False) -> Optional[dict]:
        """One ``study.py`` child; ``None`` if it crashed or timed out."""
        command = [sys.executable, str(BENCH / "study.py"), "--seed", str(self.seed), "--mode", mode]
        if cache is not None:
            command += ["--cache", str(cache)]
        if traced:
            command += ["--trace-dir", str(self.fresh_dir("trace"))]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=common.ROOT, env=self.env, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            print(f"bench: a {mode} study timed out", file=sys.stderr)
            return None
        wall = time.monotonic() - spawned
        if proc.returncode == REFUSED:
            raise BenchError((proc.stderr.strip().splitlines() or [f"{mode} study refused"])[-1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result.pop("ready") - spawned
        result["wall_s"] = wall
        result["traced"] = traced
        return result

    def fill(self) -> tuple:
        """Fill a fresh cache root by running a full study; ``(root, result)``."""
        cache = self.fresh_dir("cache")
        result = self.study("fill", cache=cache)
        if result is None:
            raise BenchError("the cache-filling study failed")
        return cache, result

    def check_studies(self, results: List[dict]) -> dict:
        """Digest agreement across ``results``, against the golden when one exists."""
        digests = Counter(result["digest"] for result in results)
        expected = self.golden["study"] if self.golden else digests.most_common(1)[0][0]
        problems = sorted({problem for result in results for problem in result["problems"]})
        if self.golden and any(result["world"] != self.golden["world"] for result in results):
            problems.append("the world's cache token differs from the golden world's")
        return {
            "outputs_checked": self.golden is not None,
            "expected": expected,
            "mismatched": [index for index, result in enumerate(results) if result["digest"] != expected],
            "problems": problems,
        }


def latency_values(latencies_ms: List[float]) -> dict:
    # p90, not p99: of 1,000 millisecond lookups, the slowest few percent
    # are the ones a stall of the virtual machine hits, so p95 and above
    # measured the host (between runs, p98 spread 48-84%, p90 12-13%).
    return {
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": percentile(latencies_ms, 0.90),
    }


# -- per-layer metrics ---------------------------------------------------------------


def layer_values(root_s: float, self_s: Dict[str, float], counts: Dict[str, float], *,
                 worker_busy_s: float, effective_workers: float, overhead: float) -> dict:
    """Per-layer metric values from self times and counts per root span."""
    import layers

    values = {
        "trace.root_s": root_s,
        "trace.unattributed_share": self_s.get("root", 0.0) / root_s,
        "trace.overhead_share": overhead,
        "storage.hit_ratio": (
            counts.get("storage.hits", 0) / counts["storage.lookups"]
            if counts.get("storage.lookups") else 0.0
        ),
        "pool.worker_busy_share": worker_busy_s / root_s,
        "pool.effective_workers": effective_workers,
    }
    for layer in layers.LAYERS:
        values[f"{layer}_share"] = self_s.get(layer, 0.0) / root_s
    for name in ("netsim.derive_calls", "netsim.engine_events", "dhcp.messages",
                 "ipam.lease_events", "dns.zone_updates", "dns.lookups",
                 "dns.lookup_failures", "storage.bytes_read", "transport.bytes"):
        values[name] = counts.get(name, 0)
    return values


def _mean_of(dicts: List[dict]) -> Dict[str, float]:
    names = {name for entry in dicts for name in entry}
    return {name: _mean(entry.get(name, 0) for entry in dicts) for name in names}


# -- study workloads ----------------------------------------------------------------------


def study_workload(bench: Bench, workload: str) -> tuple:
    mode = workload.split("-", 1)[1]
    fills, cache = [], None
    if mode == "warm":
        for _ in range(SETUPS):
            cache, result = bench.fill()
            fills.append(result)
    reps, crashed = [], 0
    started = time.monotonic()
    while True:
        attempts = len(reps) + crashed
        if attempts >= MIN_REPS and time.monotonic() - started >= bench.seconds:
            break
        # Traced runs interleave untraced reps (U T T U T T ...), so the
        # tracing overhead is measured within the same run.
        rep = bench.study(mode, cache=cache, traced=bench.trace and attempts % 3 != 0)
        if rep is None:
            crashed += 1
        else:
            reps.append(rep)
    traced = [rep for rep in reps if rep["traced"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    if not untraced or (bench.trace and not traced):
        raise BenchError(f"too many {workload} reps failed")

    check = bench.check_studies(fills + reps)
    failed = crashed + sum(1 for rep in reps if rep["digest"] != check["expected"])
    correct = failed == 0 and not check["mismatched"] and not check["problems"]

    setups = [fill["wall_s"] for fill in fills] or [rep["setup_s"] for rep in reps]
    values = {
        "setup_s": statistics.median(setups),
        **latency_values([rep["study_s"] * 1000.0 for rep in untraced]),
        # The study process plus its largest worker (or helper) process.
        "peak_rss_mb": statistics.median(rep["rss_mb"] + rep["workers_rss_mb"] for rep in reps),
    }
    if bench.trace:
        traced_s = [rep["study_s"] for rep in traced]
        values.update(layer_values(
            _mean(traced_s),
            _mean_of([rep["trace"]["self_s"] for rep in traced]),
            _mean_of([rep["trace"]["counts"] for rep in traced]),
            worker_busy_s=_mean(rep["trace"]["worker_busy_s"] for rep in traced),
            effective_workers=_mean(
                min(rep["effective_workers"]["collection"], rep["effective_workers"]["campaign"])
                for rep in traced
            ),
            overhead=statistics.median(traced_s) / statistics.median(rep["study_s"] for rep in untraced) - 1.0,
        ))
    detail = {
        "outputs": check,
        "setups_s": setups,
        "fills_study_s": [fill["study_s"] for fill in fills],
        "reps": [
            {key: rep[key] for key in ("traced", "study_s", "setup_s", "wall_s", "rss_mb",
                                       "workers_rss_mb", "effective_workers", "transport_bytes")}
            for rep in reps
        ],
    }
    if bench.trace:
        detail["layer_self_s"] = _mean_of([rep["trace"]["self_s"] for rep in traced])
    return values, len(reps) + crashed, failed, correct, detail


# -- serve workloads -------------------------------------------------------------------


class ServerProcess:
    """``server.py`` as a child process, controlled over its stdin."""

    def __init__(self, bench: Bench, cache, *, traced: bool):
        command = [sys.executable, str(BENCH / "server.py"), "--seed", str(bench.seed),
                   "--cache", str(cache)]
        if traced:
            command.append("--trace")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=bench.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()
        try:
            self.port = self._next_line(CHILD_TIMEOUT)["port"]
        except BenchError:
            self.kill()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _next_line(self, timeout: float) -> dict:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            line = None
        if line is None:
            raise BenchError("the server exited or stalled before answering")
        return json.loads(line)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> tuple:
        """One request on a fresh connection: ``(status, decoded JSON body)``."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CHILD_TIMEOUT)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def warm_up(self, paths: List[str]) -> tuple:
        """GET each of ``paths``; ``(seconds since spawn, {path: payload})``.

        The reads that initialise lazily on first use (the leak sample,
        the campaign dataset) go here, so set-up pays for them and no
        timed request does.
        """
        payloads = {}
        for path in paths:
            status, payloads[path] = self.request("GET", path)
            if status != 200:
                raise BenchError(f"the server answered {status} to GET {path} at boot")
        return time.monotonic() - self.spawned, payloads

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def stop(self) -> dict:
        try:
            self.send("stop")
            self.proc.stdin.close()
            final = self._next_line(30.0)
            self.proc.wait(timeout=30.0)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _errors(requests) -> List[str]:
    return sorted({request.error or f"HTTP {request.status}" for request in requests if not request.ok})


def query_traffic(bench: Bench, port: int, info: dict, midpoint) -> tuple:
    """serve-query: open-loop per-/24 lookups, each answer checked against the batch study."""
    requests = client.plan_queries(bench.seed, bench.seconds, QUERIES, info["prefixes"])
    lags = client.replay(port, requests, midpoint=midpoint)
    dynamic = set(info["dynamic"])
    ops, wrong = [], 0
    for request in requests:
        right = request.ok and (
            request.path == f"/prefix/{request.payload['prefix']}/dynamicity"
            and request.payload["is_dynamic"] == (request.payload["prefix"] in dynamic)
        )
        wrong += request.ok and not right
        ops.append((request.latency, right, request.traced))
    problems = [f"{wrong} verdicts disagree with the batch study"] if wrong else []
    detail = {"generator_lag_p99_ms": percentile(lags, 0.99) * 1000.0, "errors": _errors(requests)}
    return ops, problems, detail


def ingest_digest(pairs) -> str:
    """Digest of the writes' answers and their fresh reads."""
    return common.digest([[write.payload, read.payload] for write, read in pairs])


def ingest_traffic(bench: Bench, port: int, info: dict, midpoint) -> tuple:
    """serve-ingest: scheduled writes, each followed by a fresh ``/leaks`` read."""
    first = common.DYNAMICITY_WINDOW[1]
    pairs = client.ingest_feed(port, first, INGESTS, bench.seconds / INGESTS, midpoint=midpoint)
    problems = []
    echoed = [write.payload.get("ingested") if write.ok else None for write, _ in pairs]
    if echoed != [(first + dt.timedelta(days=index)).isoformat() for index in range(len(pairs))]:
        problems.append("ingest responses do not echo the posted days in order")
    digest = ingest_digest(pairs)
    if bench.golden and digest != bench.golden["serve_ingest"]:
        problems.append("ingest responses or fresh reads differ from the golden")
    ops = [(read.done - write.due, write.ok and read.ok, write.traced) for write, read in pairs]
    detail = {
        "ingested_days": len(pairs),
        "write_p50_ms": statistics.median(write.latency for write, _ in pairs) * 1000.0,
        "fresh_read_p50_ms": statistics.median(read.latency for _, read in pairs) * 1000.0,
        "errors": _errors([request for pair in pairs for request in pair]),
        "serve_ingest": digest,
    }
    return ops, problems, detail


def serve_workload(bench: Bench, workload: str) -> tuple:
    cache, fill = bench.fill()
    info = fill["client"]
    # /healthz answers once the app is built; the workload's first read
    # then builds that path's lazy state (the dynamicity report, or the
    # leak sample), so set-up pays for it and no timed request does.
    if workload == "serve-query":
        first, traffic = f"/prefix/{info['prefixes'][0]}/dynamicity", query_traffic
    else:
        first, traffic = "/leaks", ingest_traffic
    boot_paths = ["/healthz", first]
    setups, problems = [], []
    server = None
    try:
        for index in range(SETUPS):
            if server is not None:
                server.stop()
            server = ServerProcess(bench, cache, traced=bench.trace and index == SETUPS - 1)
            setup_s, payloads = server.warm_up(boot_paths)
            setups.append(setup_s)
            if "/leaks" in payloads and payloads["/leaks"]["identified"] != info["identified"]:
                problems.append("served /leaks disagrees with the batch study")
        midpoint = (lambda: server.send("trace")) if bench.trace else None
        ops, traffic_problems, traffic_detail = traffic(bench, server.port, info, midpoint)
        final = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()

    check = bench.check_studies([fill])
    problems += check["problems"] + traffic_problems
    failed = sum(1 for _, ok, _ in ops if not ok)
    correct = failed == 0 and not check["mismatched"] and not problems

    # A failed operation misses any latency limit.
    latencies = [(latency if ok else client.REQUEST_TIMEOUT) * 1000.0 for latency, ok, _ in ops]
    values = {
        "setup_s": statistics.median(setups),
        **latency_values(latencies),
        "peak_rss_mb": final["rss_mb"],
    }
    if bench.trace:
        # Tracing is on for the second half of the traffic only; its
        # overhead compares the two halves' mean latency.
        trace = final["trace"]
        halves = {True: [], False: []}
        for latency, (_, _, traced) in zip(latencies, ops):
            halves[traced].append(latency)
        values.update(layer_values(
            sum(trace["self_s"].values()), trace["self_s"], trace["counts"],
            worker_busy_s=0.0, effective_workers=1.0,
            overhead=_mean(halves[True]) / _mean(halves[False]) - 1.0,
        ))
    detail = {
        "outputs": {**check, "problems": problems},
        "setups_s": setups,
        "fill_s": fill["wall_s"],
        "operations": len(ops),
        "percentiles_ms": {f"p{share * 100:g}": percentile(latencies, share)
                           for share in (0.9, 0.95, 0.98, 0.99, 1.0)},
        **traffic_detail,
    }
    if bench.trace:
        detail["layer_self_s"] = final["trace"]["self_s"]
    return values, len(ops), failed, correct, detail


# -- entry point ----------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42, help="world seed (default: 42)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement time per run, after set-up (default: 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced pass")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception so the ``finally`` blocks and
    # ``subprocess.run`` stop the child processes before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"bench: error: no source tree at {common.SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # Byte-compile up front (untimed) so no set-up pays for it.
    compileall.compile_dir(str(common.SRC), quiet=1)
    scratch = common.ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    bench = Bench(args.seed, args.seconds, bool(args.trace), scratch)
    runner = serve_workload if args.workload.startswith("serve-") else study_workload
    try:
        values, attempted, failed, correct, detail = runner(bench, args.workload)
    except BenchError as error:
        print(f"bench: error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there

    specs = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in specs["per_layer" if args.trace else "end_to_end"]
    }
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        scrubbed_env=bench.scrubbed,
        dynamicity_window=[day.isoformat() for day in common.DYNAMICITY_WINDOW],
        campaign_window=[day.isoformat() for day in common.CAMPAIGN_WINDOW],
        extra_values={name: value for name, value in values.items() if name not in metrics},
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
