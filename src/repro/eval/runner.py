"""The matrix runner: execute every cell, serially or on a pool.

Each cell runs the same two-stage pipeline a study does — snapshot
collection over the dynamicity window, then the supplemental campaign
— over the cell's plan, which it never builds whole — and is scored
in the worker that ran it.  Parallel execution fans whole cells out
over one process pool (:func:`~repro.scan.parallel.run_pool`) of at
most ``workers`` processes; because a cell is scored
from nothing but its own plan, windows and caches, and results come
back in cell order, a parallel sweep is **byte-identical** to a serial
one.

Cache safety: each cell's plan carries its policy (distinct
fingerprint + ``policy_token``) and each collector/campaign carries
the cell's fault token, so no two cells can ever share a snapshot or
campaign cache entry — and a warm rerun of the same spec hits every
cell's entries.

Observability: the coordinator emits deterministic per-cell counters
(``eval_cells_total`` labelled by world/policy/faults, and
``eval_flagged_cells_total``) in cell order — identical for serial and
parallel runs — while pool shape and wall-clock go to the
non-deterministic ``timings.execution`` section.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.eval.matrix import MatrixCell, MatrixSpec
from repro.eval.scoring import CellScore, score_cell, score_from_payload
from repro.obs import resolve_obs
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from repro.scan.parallel import run_pool, worker_cap
from repro.scan.snapshot import SnapshotCollector


@dataclass
class CellResult:
    """One executed cell: its score plus cache-key provenance."""

    cell: MatrixCell
    score: CellScore
    snapshot_cache_key: Optional[str] = None
    campaign_cache_key: Optional[str] = None
    snapshot_cache_hit: bool = False
    campaign_cache_hit: bool = False


@dataclass
class MatrixResult:
    """The whole sweep, in cell order."""

    spec: MatrixSpec
    results: List[CellResult]
    workers: int = 1
    total_seconds: float = 0.0


def _evaluate_cell(state: Tuple, cell: MatrixCell) -> Dict[str, Any]:
    """Run + score one cell (shared by the serial and pooled paths).

    ``state`` is ``(spec, snapshot_root, campaign_root, shards)``;
    everything the cell returns is a JSON-able dict — the same bytes
    whether this executes inline or inside a worker process.
    """
    spec, snapshot_root, campaign_root, shards = state
    plan = spec.plan_for(cell)
    fault_plan = spec.fault_plan_for(cell)
    fault_token = fault_plan.cache_token() if fault_plan is not None else None

    snapshot_cache = SnapshotCache(snapshot_root) if snapshot_root else None
    campaign_cache = CampaignCache(campaign_root) if campaign_root else None

    collector = SnapshotCollector.openintel_style(plan, shards=shards, fault_token=fault_token)
    series = collector.collect(
        spec.dynamicity_start,
        spec.dynamicity_end,
        workers=1,
        cache=snapshot_cache,
    )
    campaign = SupplementalCampaign(plan, shards=shards, fault_plan=fault_plan)
    dataset = campaign.run(
        spec.supplemental_start,
        spec.supplemental_end,
        workers=1,
        cache=campaign_cache,
    )

    score = score_cell(cell, spec, series, dataset)
    collect_metrics = collector.last_metrics
    campaign_metrics = campaign.last_metrics
    return {
        "index": cell.index,
        "score": score.to_payload(),
        "snapshot_cache_key": collect_metrics.cache_key if collect_metrics else None,
        "campaign_cache_key": campaign_metrics.cache_key if campaign_metrics else None,
        "snapshot_cache_hit": bool(collect_metrics and collect_metrics.cache_hit),
        "campaign_cache_hit": bool(campaign_metrics and campaign_metrics.cache_hit),
    }


def _pooled_cell_task(state: Tuple, cell: MatrixCell) -> Tuple[Dict[str, Any], bytes]:
    """Pool entry point: the whole cell entry rides as the header."""
    return _evaluate_cell(state, cell), b""


def run_matrix(
    spec: MatrixSpec,
    *,
    workers: Optional[int] = None,
    shards: int = 1,
    snapshot_cache: Optional[SnapshotCache] = None,
    campaign_cache: Optional[CampaignCache] = None,
    obs=None,
) -> MatrixResult:
    """Execute every cell of ``spec`` and return ordered results.

    ``workers`` bounds the cell-level process pool (``None`` defers to
    :func:`~repro.scan.parallel.worker_cap`); each cell builds its plan
    in ``shards`` contiguous blocks of networks, one at a time; caches
    are passed by *root path* into workers so every process shares the
    on-disk namespace.  Output is byte-identical for any worker or
    shard count.
    """
    spec.validate()
    obs = resolve_obs(obs)
    started = time.perf_counter()
    cells = spec.cells()
    pool_workers = min(workers if workers is not None else worker_cap(), len(cells))

    snapshot_root = str(snapshot_cache.root) if snapshot_cache is not None else None
    campaign_root = str(campaign_cache.root) if campaign_cache is not None else None
    state = (spec, snapshot_root, campaign_root, shards)

    with obs.span("eval_matrix") as span:
        if pool_workers >= 2:
            pooled = run_pool(
                _pooled_cell_task, cells, state, pool_workers,
                section="eval_pool", unpack=bytes, obs=obs,
            )
            entries = [entry for entry, _ in pooled]
        else:
            entries = [_evaluate_cell(state, cell) for cell in cells]
        results: List[CellResult] = []
        for cell, entry in zip(cells, entries):
            results.append(
                CellResult(
                    cell=cell,
                    score=score_from_payload(entry["score"]),
                    snapshot_cache_key=entry["snapshot_cache_key"],
                    campaign_cache_key=entry["campaign_cache_key"],
                    snapshot_cache_hit=entry["snapshot_cache_hit"],
                    campaign_cache_hit=entry["campaign_cache_hit"],
                )
            )
        span.set("cells", len(results))

    # Deterministic per-cell counters, in cell order (serial == parallel).
    flagged = 0
    for result in results:
        obs.metrics.counter("eval_cells_total").labels(
            world=result.cell.world,
            policy=result.cell.policy,
            faults=result.cell.faults,
        ).inc()
        if result.score.flags:
            flagged += 1
            obs.metrics.counter("eval_flagged_cells_total").inc()
    total_seconds = time.perf_counter() - started
    obs.record_execution(
        "eval_matrix",
        cells=len(results),
        flagged_cells=flagged,
        pool_workers=pool_workers if pool_workers >= 2 else 1,
        total_seconds=total_seconds,
    )
    return MatrixResult(
        spec=spec,
        results=results,
        workers=pool_workers if pool_workers >= 2 else 1,
        total_seconds=total_seconds,
    )
