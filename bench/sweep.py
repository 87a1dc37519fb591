"""Run the benchmark over several seeds and save the runs as one set.

    python3 bench/sweep.py --out runs.json --seeds 1-10 [--workloads study-cold ...]
                           [--seconds 10] [--trace 0]

Each (workload, seed) pair is one ``run.py`` invocation; its result and
detail lines are appended to ``--out`` after every run, so a partial
sweep is still usable.  At the end the spread of every metric is
printed: the distance between the quartiles of its per-run values as a
share of their median, next to the metric's bound.  Compare two sets
with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

import common
from compare import summarise

RUN = common.ROOT / "bench" / "run.py"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    specs = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--workloads", nargs="+",
                        default=[workload["name"] for workload in specs["workloads"]])
    parser.add_argument("--seconds", type=float, default=float(specs["run_seconds"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            started = time.monotonic()
            proc = subprocess.run(command, cwd=common.ROOT, capture_output=True, text=True)
            wall = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            record = {"workload": workload, "seed": seed, "trace": args.trace,
                      "exit": proc.returncode, "wall_s": wall}
            if proc.returncode == 0 and len(lines) >= 2:
                record["detail"] = json.loads(lines[-2])
                record["result"] = json.loads(lines[-1])
            else:
                record["stderr"] = proc.stderr[-2000:]
            runs.append(record)
            args.out.write_text(json.dumps({"runs": runs}, indent=1), encoding="utf-8")
            status = record["result"]["correct"] if "result" in record else f"exit {proc.returncode}"
            print(f"{workload} seed={seed}: {wall:.1f}s correct={status}", file=sys.stderr)

    print(summarise({"runs": runs}, specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
