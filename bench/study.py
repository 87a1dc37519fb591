"""One study in a fresh process; prints one JSON result line.

    PYTHONPATH=src python bench/study.py --seed 42 --mode cold
    PYTHONPATH=src python bench/study.py --seed 42 --mode fill --cache DIR
    PYTHONPATH=src python bench/study.py --seed 42 --mode warm --cache DIR
    PYTHONPATH=src python bench/study.py --seed 42 --mode 2w [--trace-dir DIR]

``cold`` runs serially without caches; ``fill`` is the same study
writing both caches under ``--cache``; ``warm`` replays them and fails
unless both hit; ``2w`` runs collection and the campaign on two pool
workers and fails unless both really ran two.  ``--trace-dir`` turns
the layer trace on (see ``layers.py``) and keeps worker logs there.
``ready`` in the result is the ``time.monotonic()`` reading after the
imports, so the parent can split start-up from the study itself.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("cold", "fill", "warm", "2w"), required=True)
    parser.add_argument("--cache", default=None)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    if args.mode in ("fill", "warm") and not args.cache:
        parser.error(f"--mode {args.mode} needs --cache")

    import common
    from repro.core.pipeline import ReproductionStudy

    tracer = None
    if args.trace_dir:
        import layers

        tracer = layers.LayerTracer(worker_log_dir=args.trace_dir)
        tracer.install()
    workers = 2 if args.mode == "2w" else 1
    config = common.study_config(args.seed, workers=workers, cache_root=args.cache)
    ready = time.monotonic()

    study = ReproductionStudy(config)
    if tracer is not None:
        tracer.start_root()
    started = time.perf_counter()
    outputs = common.run_study(study)
    study_s = time.perf_counter() - started
    if tracer is not None:
        tracer.stop_root(study_s)
        tracer.enabled = False

    collection, campaign = study.collection_metrics, study.campaign_metrics
    if args.mode == "2w" and min(collection.effective_workers, campaign.effective_workers) < 2:
        print(
            "study-2w: the pool fell back to serial "
            f"(collection ran {collection.effective_workers} worker(s), the campaign "
            f"{campaign.effective_workers}); it needs 2 usable CPUs",
            file=sys.stderr,
        )
        return 3
    if args.mode == "warm" and not (collection.cache_hit and campaign.cache_hit):
        print("study-warm: a cache missed on the warm replay", file=sys.stderr)
        return 3

    payload = common.study_digest_payload(outputs)
    series = study.daily_series()
    result = {
        "mode": args.mode,
        "seed": args.seed,
        "ready": ready,
        "study_s": study_s,
        "digest": common.digest(payload),
        "problems": common.study_problems(payload),
        "world": study.world.internet.cache_token(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "effective_workers": {
            "collection": collection.effective_workers,
            "campaign": campaign.effective_workers,
            "leak_sample": series.last_sample_metrics.effective_workers,
        },
        "transport_bytes": collection.transport_bytes + campaign.transport_bytes,
    }
    if args.mode == "fill":
        # What the serve workloads need to draw valid requests and to
        # check the served answers against this batch study.
        result["client"] = {
            "prefixes": list(series.prefix_table().values),
            "dynamic": payload["dynamic_prefixes"],
            "identified": outputs["leaks"].identified,
        }
    if tracer is not None:
        result["trace"] = tracer.totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
