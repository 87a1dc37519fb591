"""Regenerate ``golden/digests.json``: the expected outputs of the pinned study.

    python3 bench/golden.py [--seeds 42 7]

For each world seed it runs one cache-filling study (the same child the
benchmark runs) and records the world's cache token and the study
digest.  It then boots the server over those caches and records the
digest of the ``run.INGESTS`` ingests after the dynamicity window with
their fresh ``/leaks`` reads (``serve-ingest``).  Run it only when a
change is meant to alter the outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import client
import common
import run


def seed_goldens(seed: int) -> dict:
    scratch = common.ROOT / ".bench_tmp" / f"golden-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        bench = run.Bench(seed, 0.0, False, scratch)
        cache, fill = bench.fill()
        if fill["problems"]:
            raise run.BenchError(f"seed {seed}: {fill['problems']}")
        server = run.ServerProcess(bench, cache, traced=False)
        try:
            pairs = client.ingest_feed(server.port, common.DYNAMICITY_WINDOW[1], run.INGESTS, 0.0)
            if not all(write.ok and read.ok for write, read in pairs):
                raise run.BenchError(f"seed {seed}: an ingest or its fresh read failed")
            server.stop()
        finally:
            server.kill()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "world": fill["world"],
        "study": fill["digest"],
        "serve_ingest": run.ingest_digest(pairs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 7])
    args = parser.parse_args(argv)
    seeds = {str(seed): seed_goldens(seed) for seed in args.seeds}
    document = {
        "about": "sha256 digests of the pinned benchmark study (bench/common.py) per world "
                 "seed; regenerate with bench/golden.py",
        "seeds": seeds,
    }
    common.GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(seeds, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
