"""Smoke-test the query service end to end: boot, probe, diff, kill.

Boots ``repro.cli ... serve`` on the quick-configuration world as a
subprocess, sends one request to every endpoint (including an
incremental ingest, then the leak reads it makes recompute), then
fetches ``/metrics`` and diffs the manifest *shape* — the sorted metric
names per kind — against the committed golden in
``results/serve_manifest_golden.json``.  Values are host-dependent
(latency histograms, timings); the name set is not, so a changed shape
means an endpoint stopped reporting or a metric was renamed without
updating the golden.

Usage::

    python scripts/serve_smoke.py                 # diff against golden
    python scripts/serve_smoke.py --write-golden  # (re)write the golden

Exits non-zero on any failed request or shape mismatch.
"""

import argparse
import http.client
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).parent.parent
GOLDEN = REPO / "results" / "serve_manifest_golden.json"
BOOT_TIMEOUT = 180.0

#: One request per endpoint, in order; (method, target, body, status).
REQUESTS = [
    ("GET", "/healthz", None, 200),
    ("GET", "/prefix/20.0.10.0%2F24/dynamicity", None, 200),
    ("GET", "/leaks", None, 200),
    ("GET", "/names?top=5", None, 200),
    ("GET", "/occupancy", None, 200),
    ("GET", "/occupancy?network=Academic-C&source=rdns", None, 200),
    ("POST", "/ingest/day", {"day": "2021-01-22"}, 200),
    # The ingest slid the leak window: these read the recomputed report.
    ("GET", "/leaks", None, 200),
    ("GET", "/names?top=5", None, 200),
    # Twice: the first /metrics request is only recorded in its own
    # histogram after it completes, so the second sees the full shape.
    ("GET", "/metrics", None, 200),
    ("GET", "/metrics", None, 200),
]


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def request(port, method, target, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, target, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def wait_for_boot(port, process):
    deadline = time.monotonic() + BOOT_TIMEOUT
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(f"server exited early with code {process.returncode}")
        try:
            status, _ = request(port, "GET", "/healthz")
            if status == 200:
                return
        except OSError:
            pass
        time.sleep(0.5)
    raise SystemExit(f"server did not come up within {BOOT_TIMEOUT:.0f}s")


def manifest_shape(manifest: dict) -> dict:
    metrics = manifest["metrics"]
    return {
        "counters": sorted(metrics["counters"]),
        "gauges": sorted(metrics["gauges"]),
        "histograms": sorted(metrics["histograms"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help=f"write {GOLDEN.relative_to(REPO)} instead of diffing against it",
    )
    args = parser.parse_args(argv)

    port = free_port()
    # --metrics-out enables a live metrics registry (otherwise
    # /metrics is empty); the written file itself is scratch.
    scratch_manifest = pathlib.Path(tempfile.mkdtemp()) / "serve-run-manifest.json"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "--quick",
            "--seed",
            "1",
            "--metrics-out",
            str(scratch_manifest),
            "serve",
            "--port",
            str(port),
        ],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    try:
        wait_for_boot(port, process)
        manifest = None
        for method, target, body, wanted in REQUESTS:
            status, payload = request(port, method, target, body)
            if status != wanted:
                print(
                    f"FAIL {method} {target}: {status} (wanted {wanted}): {payload}",
                    file=sys.stderr,
                )
                return 1
            print(f"ok {method} {target} -> {status}")
            if target == "/metrics":
                manifest = payload
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()

    shape = manifest_shape(manifest)
    if args.write_golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(shape, indent=2) + "\n")
        print(f"wrote {GOLDEN.relative_to(REPO)}")
        return 0

    golden = json.loads(GOLDEN.read_text())
    if shape != golden:
        print("manifest shape diverged from golden:", file=sys.stderr)
        for kind in sorted(set(shape) | set(golden)):
            missing = sorted(set(golden.get(kind, [])) - set(shape.get(kind, [])))
            extra = sorted(set(shape.get(kind, [])) - set(golden.get(kind, [])))
            for name in missing:
                print(f"  - {kind}: {name} (in golden, not served)", file=sys.stderr)
            for name in extra:
                print(f"  + {kind}: {name} (served, not in golden)", file=sys.stderr)
        print(
            "regenerate with: python scripts/serve_smoke.py --write-golden",
            file=sys.stderr,
        )
        return 1
    print("manifest shape matches golden")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
