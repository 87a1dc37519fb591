"""Sharded collection and measurement over a :class:`~repro.netsim.worldplan.WorldPlan`.

The single-world engines (:class:`~repro.scan.snapshot.SnapshotCollector`,
:class:`~repro.scan.campaign.SupplementalCampaign`) hold the entire
simulated Internet in one process, which caps the address space a study
can cover.  The sharded engines here never build the full world at all:
a plan is partitioned into contiguous shards, **worker processes build
only their shard's networks** (sound because every network is a pure
function of the plan entry and the seed — see
:meth:`~repro.netsim.worldplan.WorldPlan.build`), and the coordinating
process merges shard outputs in shard-id order.  Because shards are
contiguous runs of the plan and per-/24 keys are disjoint across
networks, that merge reproduces the exact iteration order of a
single-process run — the result is **bit-identical** for any shard
count, worker count, fault profile, or cache temperature (pinned by
``tests/scan/test_sharded.py``).

Pool shape: shard × day-chunk work units flatten into **one**
budget-sized pool (no nested pools — see
:class:`~repro.scan.parallel.WorkerBudget`), so a machine with W cores
runs W workers total regardless of how shards and chunks multiply.
Workers memoise the shard worlds they build (a handful at a time), so a
worker that receives several chunks of the same shard pays the build
once.

Caching is **plan-level**: keys derive from
:meth:`WorldPlan.fingerprint` — agreed on *before* any world is built —
and deliberately exclude the shard count, so a warm cache written by a
4-shard run hits for a 1-shard run and vice versa (the payloads are
identical bytes).
"""

from __future__ import annotations

import datetime as dt
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.netsim.faults import resolve_fault_plan
from repro.netsim.network import NetworkType
from repro.netsim.simtime import HOUR
from repro.netsim.worldplan import LazyPlanInternet, PlanError, WorldPlan, contiguous_blocks
from repro.obs.metrics import merge_snapshots
from repro.scan import transport
from repro.scan.campaign import (
    CampaignMetrics,
    NetworkCampaignResult,
    SupplementalDataset,
    _FAULTS_FROM_ENV,
    run_network_campaign,
)
from repro.scan.campaign_parallel import effective_campaign_workers
from repro.scan.parallel import WorkerBudget, chunk_days, run_pool, worker_cap
from repro.scan.reactive import TABLE2_SCHEDULE, BackoffSchedule
from repro.scan.snapshot import (
    CollectionMetrics,
    SnapshotCollector,
    SnapshotSeries,
    derive_day,
)
from repro.scan.storage import IcmpColumns, RdnsColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.internet import World
    from repro.scan.cache import CampaignCache, SnapshotCache

#: Shard worlds memoised per worker process, keyed by
#: (plan fingerprint, shard network names).  Bounded: a worker only
#: ever holds a few shards' networks, never the whole plan.
_SHARD_WORLDS: Dict[Tuple[str, Tuple[str, ...]], "World"] = {}

_SHARD_WORLD_LIMIT = 4


def _shard_world(plan_payload: Dict[str, Any], names: Sequence[str]) -> "World":
    """Build (or reuse) the world slice holding exactly ``names``."""
    plan = WorldPlan.from_payload(plan_payload)
    key = (plan.fingerprint(), tuple(names))
    world = _SHARD_WORLDS.get(key)
    if world is None:
        while len(_SHARD_WORLDS) >= _SHARD_WORLD_LIMIT:
            _SHARD_WORLDS.pop(next(iter(_SHARD_WORLDS)))
        world = plan.build(names)
        _SHARD_WORLDS[key] = world
    return world


# -- snapshot collection ----------------------------------------------------


def _collect_shard_chunk(state, task):
    """Derive one shard's day-chunk inside a worker process.

    ``state`` is ``(plan_payload, at_offset)``; ``task`` is
    ``(shard_id, names, ordinals)``.  Returns ``(shard_id, blob)`` —
    the day results travel as one packed columnar blob
    (:func:`repro.scan.transport.pack_day_chunk`), not pickled dicts.
    """
    plan_payload, at_offset = state
    shard_id, names, ordinals = task
    world = _shard_world(plan_payload, names)
    results = []
    for ordinal in ordinals:
        day = dt.date.fromordinal(ordinal)
        counts, ptrs = derive_day(world.internet, None, day, at_offset)
        results.append((ordinal, counts, ptrs))
    return shard_id, transport.pack_day_chunk(results)


class ShardedCollector:
    """Snapshot collection over a plan, fanned out shard by shard.

    Drop-in sibling of :class:`~repro.scan.snapshot.SnapshotCollector`:
    same cadence semantics, same half-open windows, same payloads — a
    ``shards=k`` collection is byte-identical to ``shards=1`` and to a
    plain collector run over the fully built plan world.
    """

    DEFAULT_SNAPSHOT_OFFSET = SnapshotCollector.DEFAULT_SNAPSHOT_OFFSET

    def __init__(
        self,
        plan: WorldPlan,
        name: str = "OpenINTEL",
        *,
        shards: int = 1,
        cadence_days: int = 1,
        at_offset: Optional[int] = DEFAULT_SNAPSHOT_OFFSET,
        fault_token: Optional[str] = None,
        obs=None,
    ):
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        self.plan = plan.validate()
        self.name = name
        self.shards = shards
        self.cadence_days = cadence_days
        self.at_offset = at_offset
        #: Key salt only — snapshot *content* never depends on faults
        #: (they model resolver-path failures, not zone state), but the
        #: evaluation matrix passes its cell's fault token so no two
        #: cells can share a cache entry.
        self.fault_token = fault_token
        self.obs = obs
        #: Counters from the most recent :meth:`collect` call.
        self.last_metrics: Optional[CollectionMetrics] = None

    def snapshot_days(self, start: dt.date, end: dt.date) -> List[dt.date]:
        if end <= start:
            raise ValueError("end must be after start")
        return [
            start + dt.timedelta(days=offset)
            for offset in range(0, (end - start).days, self.cadence_days)
        ]

    def _cache_key(self, cache: "SnapshotCache", start: dt.date, end: dt.date) -> str:
        """Plan-level key: no world build, no shard count.

        Fingerprint-keyed so every process holding the plan JSON agrees
        on it up front, and shard-count-free so runs at different shard
        widths share one entry (their payloads are identical bytes).
        """
        return cache.key_for(
            world_token=f"plan:{self.plan.fingerprint()}",
            name=self.name,
            networks=None,
            start=start,
            end=end,
            cadence_days=self.cadence_days,
            at_offset=self.at_offset,
            policy_token=self.plan.policy_token(),
            fault_token=self.fault_token,
        )

    def collect(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: Optional[int] = None,
        cache: Optional["SnapshotCache"] = None,
    ) -> SnapshotSeries:
        """Collect ``[start, end)`` across shards and merge in shard order."""
        from repro.obs import resolve_obs

        obs = resolve_obs(self.obs)
        started = time.perf_counter()
        days = self.snapshot_days(start, end)
        budget = WorkerBudget(workers if workers is not None else worker_cap())
        metrics = CollectionMetrics(workers=budget.total, days=len(days))
        self.last_metrics = metrics

        key: Optional[str] = None
        if cache is not None:
            key = self._cache_key(cache, start, end)
            metrics.cache_key = key
            payload = cache.load(key)
            if payload is not None:
                decode_started = time.perf_counter()
                series = SnapshotSeries.from_payload(payload, LazyPlanInternet(self.plan))
                metrics.cache_hit = True
                metrics.responses = series.stats().total_responses
                metrics.simulate_seconds = time.perf_counter() - decode_started
                metrics.total_seconds = time.perf_counter() - started
                return series

        blocks = self.plan.shard_names(self.shards)
        simulate_started = time.perf_counter()
        plan_payload = self.plan.to_payload()
        # Flatten shard × day-chunk into one task list for a single
        # budget-sized pool: ~2 chunks per worker overall, split evenly
        # across shards.
        per_shard_workers = max(1, budget.total // len(blocks))
        chunks = chunk_days(days, per_shard_workers)
        tasks = [
            (shard_id, tuple(names), tuple(day.toordinal() for day in chunk))
            for shard_id, names in enumerate(blocks)
            for chunk in chunks
        ]
        pool_workers = min(budget.total, len(tasks))
        metrics.effective_workers = pool_workers if pool_workers >= 2 else 1
        obs.record_execution(
            "sharded_snapshot",
            shards=len(blocks),
            tasks=len(tasks),
            pool_workers=metrics.effective_workers,
        )

        derived: Dict[Tuple[int, int], Tuple[Dict[str, int], Set[str]]] = {}
        if metrics.effective_workers > 1:
            shard_results = run_pool(
                _collect_shard_chunk, tasks, (plan_payload, self.at_offset), pool_workers,
                section="shard_pool",
                unpack=transport.unpack_day_chunk,
                obs=self.obs,
                metrics=metrics,
            )
            for shard_id, chunk_result in shard_results:
                for ordinal, counts, ptrs in chunk_result:
                    derived[(shard_id, ordinal)] = (counts, ptrs)
        else:
            # Serial path: one shard world in memory at a time.
            for shard_id, names in enumerate(blocks):
                world = self.plan.build(names)
                for day in days:
                    derived[(shard_id, day.toordinal())] = derive_day(
                        world.internet, None, day, self.at_offset
                    )

        series = SnapshotSeries(
            self.name,
            LazyPlanInternet(self.plan),
            None,
            at_offset=self.at_offset,
            cadence_days=self.cadence_days,
        )
        for day in days:
            merged: Dict[str, int] = {}
            ptrs: Set[str] = set()
            for shard_id in range(len(blocks)):
                shard_counts, shard_ptrs = derived[(shard_id, day.toordinal())]
                # Per-/24 keys are disjoint across networks (prefixes
                # never overlap), so updating in shard order reproduces
                # the exact insertion order of a full-world derivation.
                merged.update(shard_counts)
                ptrs.update(shard_ptrs)
            series._ingest_day(day, merged, ptrs)
        metrics.simulate_seconds = time.perf_counter() - simulate_started
        metrics.responses = series.stats().total_responses if days else 0

        if cache is not None and key is not None:
            try:
                cache.store_series(key, series)
                metrics.cache_stored = True
            except (OSError, TypeError, ValueError):
                metrics.cache_store_failed = True
        metrics.total_seconds = time.perf_counter() - started
        return series


# -- supplemental campaign --------------------------------------------------


def _campaign_shard_task(state, task):
    """Run one shard's batch of network campaigns inside a worker.

    ``state`` carries the plan payload and campaign parameters;
    ``task`` is ``(shard_id, names, start_ordinal, end_ordinal)``.
    Returns ``([per-network result dict, ...], blob)`` — the dicts
    carry the targets/type/size metadata the coordinator needs for the
    merged dataset without ever building the networks itself, while
    the heavy observation columns travel as one packed batch blob
    (:func:`repro.scan.transport.pack_campaign_batch`) outside the
    result pickle.
    """
    plan_payload, schedule, sweep_interval, rdns_rate, blocklist, fault_plan = state
    shard_id, names, start_ordinal, end_ordinal = task
    world = _shard_world(plan_payload, names)
    start = dt.date.fromordinal(start_ordinal)
    end = dt.date.fromordinal(end_ordinal)
    entries = [
        _network_entry(world, name, start, end,
                       schedule=schedule,
                       sweep_interval=sweep_interval,
                       rdns_rate=rdns_rate,
                       blocklist=blocklist,
                       fault_plan=fault_plan)
        for name in names
    ]
    blob = transport.pack_campaign_batch(
        (entry["result"].icmp, entry["result"].rdns) for entry in entries
    )
    for entry in entries:
        entry["result"] = replace(entry["result"], icmp=None, rdns=None)
    return entries, blob


def _network_entry(
    world: "World",
    name: str,
    start: dt.date,
    end: dt.date,
    *,
    schedule,
    sweep_interval,
    rdns_rate,
    blocklist,
    fault_plan,
) -> Dict[str, Any]:
    """One network's campaign result plus its merge metadata."""
    result = run_network_campaign(
        world,
        name,
        start,
        end,
        schedule=schedule,
        sweep_interval=sweep_interval,
        rdns_rate=rdns_rate,
        blocklist=blocklist,
        fault_plan=fault_plan,
    )
    subnets = world.supplemental_targets(name)
    return {
        "result": result,
        "targets": [str(subnet.prefix) for subnet in subnets],
        "net_type": world.supplemental[name].net_type.value,
        "size": sum(subnet.prefix.num_addresses for subnet in subnets),
    }


class ShardedCampaign:
    """The supplemental campaign over a plan, one shard batch per task.

    Mirrors :class:`~repro.scan.campaign.SupplementalCampaign` — same
    parameters, same half-open window, same merged dataset — but no
    process ever holds more than one shard's networks.  Networks are
    batched by shard (a work *unit* is a shard batch, not a network:
    see :func:`~repro.scan.campaign_parallel.effective_campaign_workers`)
    and results flatten in shard-id order, which is plan order, which
    is campaign order — so the merged dataset is byte-identical to a
    single-world :class:`SupplementalCampaign` run over the same plan.
    """

    def __init__(
        self,
        plan: WorldPlan,
        *,
        shards: int = 1,
        networks: Optional[Sequence[str]] = None,
        schedule: BackoffSchedule = TABLE2_SCHEDULE,
        sweep_interval: int = HOUR,
        rdns_rate: float = 50.0,
        blocklist=(),
        fault_plan=_FAULTS_FROM_ENV,
        obs=None,
    ):
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        self.plan = plan.validate()
        self.shards = shards
        supplemental = plan.supplemental_names
        if networks is None:
            self.network_names = supplemental
        else:
            self.network_names = [name for name in networks if name in supplemental]
        self.schedule = schedule
        self.sweep_interval = sweep_interval
        self.rdns_rate = rdns_rate
        self.blocklist = list(blocklist)
        if fault_plan is _FAULTS_FROM_ENV:
            fault_plan = resolve_fault_plan(None, seed=plan.seed)
        self.fault_plan = fault_plan
        self.obs = obs
        #: Counters from the most recent :meth:`run` call.
        self.last_metrics: Optional[CampaignMetrics] = None

    def cache_key(self, cache: "CampaignCache", start: dt.date, end: dt.date) -> str:
        """Plan-level key (shard-count-free, like the snapshot side)."""
        return cache.key_for(
            world_token=f"plan:{self.plan.fingerprint()}",
            networks=self.network_names,
            start=start,
            end=end,
            schedule_steps=self.schedule.steps,
            schedule_tail=self.schedule.tail_interval,
            sweep_interval=self.sweep_interval,
            rdns_rate=self.rdns_rate,
            blocklist=[str(entry) for entry in self.blocklist],
            fault_token=(
                self.fault_plan.cache_token() if self.fault_plan is not None else None
            ),
            policy_token=self.plan.policy_token(),
        )

    def _shard_batches(self) -> List[List[str]]:
        """Campaign networks partitioned into contiguous shard batches.

        Batching follows the *network list* (already in plan order),
        not the full entry list — a shard whose entries carry no
        supplemental networks contributes no batch.
        """
        return contiguous_blocks(self.network_names, self.shards)

    def run(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: Optional[int] = None,
        cache: Optional["CampaignCache"] = None,
    ) -> SupplementalDataset:
        """Measure ``[start, end)`` across shards, merged in shard order."""
        from repro.obs import resolve_obs

        if end <= start:
            raise ValueError("end must be after start (half-open [start, end) window)")
        if not self.network_names:
            raise PlanError("plan has no supplemental networks to measure")
        obs = resolve_obs(self.obs)
        started = time.perf_counter()
        requested = workers if workers is not None else worker_cap()
        metrics = CampaignMetrics(
            workers=max(1, requested), networks=len(self.network_names)
        )
        if self.fault_plan is not None:
            metrics.fault_profile = self.fault_plan.name
        self.last_metrics = metrics

        key: Optional[str] = None
        if cache is not None:
            key = self.cache_key(cache, start, end)
            metrics.cache_key = key
            payload = cache.load(key)
            if payload is not None:
                decode_started = time.perf_counter()
                dataset = SupplementalDataset.from_payload(payload)
                obs.metrics.merge_snapshot(payload.get("metrics") or {})
                metrics.cache_hit = True
                metrics.icmp_observations = len(dataset.icmp)
                metrics.rdns_observations = len(dataset.rdns)
                metrics.simulate_seconds = time.perf_counter() - decode_started
                metrics.total_seconds = time.perf_counter() - started
                return dataset

        batches = self._shard_batches()
        tasks = [
            (shard_id, tuple(names), start.toordinal(), end.toordinal())
            for shard_id, names in enumerate(batches)
        ]
        effective = effective_campaign_workers(requested, len(tasks))
        metrics.effective_workers = effective
        obs.record_execution(
            "sharded_campaign",
            shards=len(batches),
            tasks=len(tasks),
            pool_workers=effective,
        )

        simulate_started = time.perf_counter()
        plan_payload = self.plan.to_payload()
        per_shard: List[List[Dict[str, Any]]]
        if effective > 1:
            state = (
                plan_payload,
                self.schedule,
                self.sweep_interval,
                self.rdns_rate,
                self.blocklist,
                self.fault_plan,
            )
            shard_results = run_pool(
                _campaign_shard_task, tasks, state, effective,
                section="shard_campaign_pool",
                unpack=transport.unpack_campaign_batch,
                obs=self.obs,
                metrics=metrics,
            )
            per_shard = []
            for entries, columns in shard_results:
                for entry, (icmp, rdns) in zip(entries, columns):
                    entry["result"] = replace(entry["result"], icmp=icmp, rdns=rdns)
                per_shard.append(entries)
        else:
            per_shard = []
            for shard_id, names in enumerate(batches):
                world = _shard_world(plan_payload, names)
                per_shard.append(
                    [
                        _network_entry(
                            world, name, start, end,
                            schedule=self.schedule,
                            sweep_interval=self.sweep_interval,
                            rdns_rate=self.rdns_rate,
                            blocklist=self.blocklist,
                            fault_plan=self.fault_plan,
                        )
                        for name in names
                    ]
                )

        entries = [entry for shard in per_shard for entry in shard]
        results: List[NetworkCampaignResult] = [entry["result"] for entry in entries]
        dataset = SupplementalDataset(
            start=start,
            end=end,
            icmp=IcmpColumns.merged([result.icmp for result in results]),
            rdns=RdnsColumns.merged([result.rdns for result in results]),
            targets_by_network={
                result.network: list(entry["targets"])
                for result, entry in zip(results, entries)
            },
            network_types={
                result.network: NetworkType(entry["net_type"])
                for result, entry in zip(results, entries)
            },
            target_sizes={
                result.network: int(entry["size"])
                for result, entry in zip(results, entries)
            },
        )
        merged_metrics = merge_snapshots(result.metrics for result in results)
        obs.metrics.merge_snapshot(merged_metrics)
        metrics.simulate_seconds = time.perf_counter() - simulate_started
        metrics.icmp_observations = len(dataset.icmp)
        metrics.rdns_observations = len(dataset.rdns)
        metrics.sweeps_run = sum(result.sweeps_run for result in results)
        metrics.events_run = sum(result.events_run for result in results)
        metrics.per_network_seconds = {
            result.network: result.seconds for result in results
        }
        for result in results:
            for counter, value in result.counters.items():
                metrics.fault_counters[counter] = (
                    metrics.fault_counters.get(counter, 0) + value
                )

        if cache is not None and key is not None:
            payload = dataset.to_payload()
            payload["metrics"] = merged_metrics
            cache.store(key, payload)
            metrics.cache_stored = True
        metrics.total_seconds = time.perf_counter() - started
        return dataset
