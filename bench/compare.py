"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the change; both are
files written by ``sweep.py``.  For every (workload, end-to-end metric)
pair it prints each side's median and quartiles and a verdict:

* ``regress`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — not a regression, but the spread of either side
  (quartile distance over median) is wider than the bound, and B does
  not beat A on every run;
* ``agree`` — otherwise.

It also prints each side's error rate (failed over attempted, summed over
runs).  The exit status is 1 on any regression or a higher error rate.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List

import common


def quartiles(values: List[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def metric_values(runs: dict, workload: str, metric: str) -> List[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in runs["runs"]
        if run["workload"] == workload and "result" in run and metric in run["result"]["metrics"]
    ]


def error_rate(runs: dict, workload: str) -> float:
    results = [run["result"] for run in runs["runs"] if run["workload"] == workload and "result" in run]
    crashed = sum(1 for run in runs["runs"] if run["workload"] == workload and "result" not in run)
    attempted = sum(result["attempted"] for result in results) + crashed
    failed = sum(result["failed"] for result in results) + crashed
    return failed / attempted if attempted else 0.0


def workloads_of(runs: dict) -> List[str]:
    return list(dict.fromkeys(run["workload"] for run in runs["runs"]))


def summarise(runs: dict, specs: dict) -> str:
    """One row per (workload, metric) of a single set: quartiles and spread."""
    rows = [f"{'workload':12} {'metric':30} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} "
            f"{'spread':>7} {'bound':>6}"]
    for workload in workloads_of(runs):
        for spec in specs["end_to_end"] + specs["per_layer"]:
            values = metric_values(runs, workload, spec["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            bound = spec.get("bound")
            rows.append(
                f"{workload:12} {spec['name']:30} {len(values):3d} {q1:11.4g} {median:11.4g} "
                f"{q3:11.4g} {spread(values):7.1%} {'' if bound is None else format(bound, '6.0%')}"
            )
        rows.append(f"{workload:12} {'error_rate':30} {error_rate(runs, workload):.4f}")
    return "\n".join(rows)


def verdict(spec: dict, before: List[float], after: List[float]) -> str:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    median_a, median_b = statistics.median(before), statistics.median(after)
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if worse_by > spec["bound"]:
        return "regress"
    if max(spread(before), spread(after)) > spec["bound"]:
        better_everywhere = all(sign * b < sign * a for a in before for b in after)
        return "agree" if better_everywhere else "unresolved"
    return "agree"


def compare(before: dict, after: dict, specs: dict) -> tuple:
    """``(report text, regressed)`` for two run sets."""
    header = (f"{'workload':12} {'metric':16} {'A q1':>10} {'A median':>10} {'A q3':>10} "
              f"{'B q1':>10} {'B median':>10} {'B q3':>10} {'change':>8} {'bound':>6}  verdict")
    rows, regressed = [header], False
    for workload in workloads_of(before):
        if workload not in workloads_of(after):
            continue
        for spec in specs["end_to_end"]:
            values_a = metric_values(before, workload, spec["name"])
            values_b = metric_values(after, workload, spec["name"])
            if not values_a or not values_b:
                continue
            a, b = quartiles(values_a), quartiles(values_b)
            outcome = verdict(spec, values_a, values_b)
            regressed |= outcome == "regress"
            rows.append(
                f"{workload:12} {spec['name']:16} {a[0]:10.4g} {a[1]:10.4g} {a[2]:10.4g} "
                f"{b[0]:10.4g} {b[1]:10.4g} {b[2]:10.4g} {(b[1] - a[1]) / a[1]:+8.1%} "
                f"{spec['bound']:6.0%}  {outcome}"
            )
        rate_a, rate_b = error_rate(before, workload), error_rate(after, workload)
        outcome = "regress" if rate_b > rate_a else "agree"
        regressed |= outcome == "regress"
        rows.append(f"{workload:12} {'error_rate':16} {rate_a:10.4f} {rate_b:43.4f} {'':16}  {outcome}")
    return "\n".join(rows), regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    specs = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report, regressed = compare(before, after, specs)
    print(report)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
