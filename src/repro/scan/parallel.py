"""Process-pool fan-out for snapshot collection.

A multi-year full-address-space series visits thousands of simulated
days, and every day is derived independently: all randomness comes from
``RngStreams.fresh(label, ..., day.toordinal())`` streams, so the order
in which days are evaluated — or the process that evaluates them —
cannot change the outcome.  That makes day-chunk parallelism safe:
:func:`collect_days` splits the day list into contiguous chunks,
derives chunks concurrently, and merges the results in chronological
order.  The merged series is bit-identical to a serial run (the
equivalence regression test in ``tests/scan/test_parallel_cache.py``
pins this).

Every fan-out in the package — snapshot block × day-chunks, campaign
network blocks and evaluation cells — goes through
:func:`run_pool`, the one process-pool primitive.  Where ``fork`` is
available (Linux), workers inherit the shared state (the
:class:`~repro.netsim.internet.Internet`, a plan, ...) through
copy-on-write memory — no pickling at all.
Elsewhere the state is pickled once and shipped via the pool
initializer.  Results travel the other way as ``.rbf`` blobs
(:mod:`repro.scan.blockfile`) in shared memory
(:mod:`repro.scan.transport`): a worker returns a small header plus a
:class:`~repro.scan.transport.BlobHandle`, and the parent parses the
blob in place with a :class:`~repro.scan.blockfile.BlockFileReader`.

:func:`effective_workers` implements the never-slower rule: short
windows don't amortise pool start-up, so the pool size is capped by
the day count (at least :data:`MIN_DAYS_PER_WORKER` days per worker);
a cap of one means "stay serial".  The machine's core count is the
caller's ceiling (:meth:`repro.core.pipeline.StudyConfig.capped_workers`,
defaulting to :func:`worker_cap`), applied before a pool is sized.
"""

from __future__ import annotations

import datetime as dt
import math
import multiprocessing
import os
import pickle
import secrets
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.scan.blockfile import BlockFileReader, encode_records

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.snapshot import DayRecords, SnapshotCollector, SnapshotSeries

#: One derived day as a worker returns it: (ordinal, /24 counts, records).
DayResult = Tuple[int, Dict[str, int], "DayRecords"]

#: Below this many days per worker, pool start-up and per-task
#: overhead outweigh the concurrency win; shrink the pool instead.
MIN_DAYS_PER_WORKER = 8

#: The ``state`` of the running :func:`run_pool` call.  Fork workers
#: inherit it from the parent; spawn workers get it from the pool
#: initializer.  Worker processes are single-purpose, so a module
#: global is the simplest way to pay the set-up cost once per worker.
#: Only :func:`run_pool` and its worker entry point touch it.
_WORKER_STATE: Any = None


#: Default ceiling on automatic pool sizing.  Large shard runs want the
#: whole machine; an explicit ``max_workers`` lifts (or lowers) it.
DEFAULT_WORKER_CEILING = 8


def worker_cap() -> int:
    """The machine's default pool ceiling: its core count, at most :data:`DEFAULT_WORKER_CEILING`."""
    return min(os.cpu_count() or 1, DEFAULT_WORKER_CEILING)


def effective_workers(requested: int, day_count: int) -> int:
    """Cap the requested pool size so parallelism never loses to serial.

    ``day_count`` counts block-days: a collection over ``k`` blocks of
    networks derives ``k`` times as many.  More workers than
    ``day_count / MIN_DAYS_PER_WORKER`` spend their time on pool
    start-up.  Anything that caps to one means "run serial".
    ``requested`` is already machine-capped by the caller.
    """
    if requested < 2 or day_count < 2 * MIN_DAYS_PER_WORKER:
        return 1
    capped = min(requested, day_count // MIN_DAYS_PER_WORKER)
    return capped if capped >= 2 else 1


class PoolError(RuntimeError):
    """A pool worker died mid-run (killed, or crashed outside Python)."""


def run_pool(
    task: Callable[[Any, Any], Tuple[Any, bytes]],
    items: Sequence[Any],
    state: Any,
    workers: int,
    *,
    section: str,
    unpack: Callable[[memoryview], Any],
    obs=None,
    metrics=None,
) -> List[Tuple[Any, Any]]:
    """Run ``task(state, item)`` for every item on a process pool.

    The only code that creates a process pool.  ``task`` must be a
    module-level function (it is pickled by reference) returning
    ``(header, blob)``: a small picklable header and the packed result
    bytes.  The worker publishes the blob in shared memory; the parent
    parses it with ``unpack`` and returns ``[(header, unpack(blob))]``
    in item order.  An ``unpack`` that folds the blob into the caller's
    own structure keeps only one chunk's intermediate objects alive.

    Segments are named up front, so whatever goes wrong — a task that
    raises, an ``unpack`` that raises, a worker that dies — every
    segment this call published is unlinked before the error
    propagates.  A dead worker surfaces as :class:`PoolError` naming
    ``section``.  ``obs`` receives the pool shape and the blob bytes
    under ``timings.execution[section]``; ``metrics`` (collection or
    campaign counters), if given, the ``transport_bytes`` total.
    """
    global _WORKER_STATE
    from multiprocessing import resource_tracker

    from repro.obs import resolve_obs
    from repro.scan import transport

    if workers < 2:
        raise ValueError(f"{section} needs at least 2 workers; use the serial path")
    items = list(items)
    workers = min(workers, len(items))
    use_fork = "fork" in multiprocessing.get_all_start_methods()
    obs = resolve_obs(obs)
    obs.record_execution(
        section,
        transport="fork" if use_fork else "spawn",
        tasks=len(items),
        pool_workers=workers,
    )
    if use_fork:
        # Fork workers inherit the state via copy-on-write: zero
        # serialisation cost, which is what keeps small worlds worth
        # parallelising.
        pool_options = {"mp_context": multiprocessing.get_context("fork")}
    else:
        try:
            blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ValueError(
                f"{section}: a pool without fork needs picklable state; "
                f"pickling failed: {exc!r}"
            ) from exc
        pool_options = {"initializer": _init_worker, "initargs": (blob,)}

    token = secrets.token_hex(4)
    names = [f"psm_{token}_{index}" for index in range(len(items))]
    if os.name == "posix":
        # Start the resource tracker before forking: children inherit it,
        # so a worker's segment registration and the parent's unlink pair
        # up in one place.  A tracker started by a child would unlink the
        # child's segments the moment it exits, before they are read.
        resource_tracker.ensure_running()
    results: List[Tuple[Any, Any]] = []
    size = 0
    _WORKER_STATE = state
    try:
        # Leaving the block joins every worker, so no segment can appear
        # after the sweep below.
        with ProcessPoolExecutor(max_workers=workers, **pool_options) as pool:
            published = list(pool.map(_run_task, repeat(task), names, items))
        for header, handle in published:
            size += handle.size
            results.append((header, transport.consume(handle, unpack)))
    except BrokenProcessPool as exc:
        raise PoolError(
            f"{section}: a pool worker died abruptly "
            "(killed, or SIGBUS on a full /dev/shm)"
        ) from exc
    finally:
        _WORKER_STATE = None
        if len(results) < len(items):
            transport.discard(names)
    obs.record_execution(section, accumulate=True, transport_bytes=size)
    if metrics is not None:
        metrics.transport_bytes += size
    return results


def _init_worker(blob: bytes) -> None:
    global _WORKER_STATE
    _WORKER_STATE = pickle.loads(blob)


def _run_task(task, name: str, item):
    """Worker side of :func:`run_pool`: run one item, publish its blob."""
    from repro.scan import transport

    header, blob = task(_WORKER_STATE, item)
    return header, transport.publish(blob, name)


def _encode_chunk(results: Sequence[DayResult]) -> bytes:
    """Derived days as one ``.rbf`` blob.

    Prefixes and PTR names intern into chunk-local PREFIXES and PTRS
    tables in first-seen order, so a name held on several days of the
    chunk crosses once.  Each day is a DAY count column over the prefix
    table as it stood that day plus a RECORDS pair of (address, name
    id) columns in walk order.
    """
    prefixes: Dict[str, int] = {}
    names: Dict[str, int] = {}
    columns, totals, records = [], [], []
    for ordinal, counts, day_records in results:
        ids = [prefixes.setdefault(prefix, len(prefixes)) for prefix in counts]
        column = np.zeros(len(prefixes), dtype="<u4")
        column[ids] = list(counts.values())
        columns.append(column)
        totals.append(sum(counts.values()))
        addresses, hostnames = day_records
        name_ids = [names.setdefault(name, len(names)) for name in hostnames]
        records.append((ordinal, addresses, name_ids))
    ordinals = [ordinal for ordinal, _, _ in results]
    return encode_records(list(prefixes), ordinals, columns, totals, list(names), records)


def _decode_chunk(view: memoryview) -> List[DayResult]:
    """The days of one :func:`_encode_chunk` blob, parsed in place.

    Each day's counts come back in chunk-local prefix id order.  The
    prefixes a day adds to a series are new to its chunk too, and got
    their ids in that day's order, so interning them reproduces a
    serial run exactly.  Nothing returned holds a view into ``view``.
    """
    reader = BlockFileReader.from_buffer(view)
    prefixes = reader.prefixes
    names = reader.ptr_names()
    days = []
    for ordinal, column in zip(reader.days, reader.columns):
        present = np.flatnonzero(column)
        counts = dict(zip(map(prefixes.__getitem__, present.tolist()), column[present].tolist()))
        addresses, name_ids = reader.day_records(ordinal)
        records = (addresses.astype(np.uint32), list(map(names.__getitem__, name_ids.tolist())))
        days.append((ordinal, counts, records))
    return days


def _collect_chunk(state, task):
    """Derive one block's chunk of days inside a worker process.

    ``state`` is ``(plan, internet, at_offset)``: a built world's
    internet is inherited as is, while a plan's block is built here
    (memoised, since a worker receives several chunks of one block).
    ``task`` is ``(names, ordinals)``.  Returns ``(None, blob)`` — the
    day counts and records as :func:`_encode_chunk` bytes.
    """
    from repro.netsim.worldplan import shard_world
    from repro.scan.snapshot import derive_day

    plan, internet, at_offset = state
    names, ordinals = task
    if plan is not None:
        internet = shard_world(plan, names).internet
    results = []
    for ordinal in ordinals:
        day = dt.date.fromordinal(ordinal)
        counts, records = derive_day(internet, names, day, at_offset)
        results.append((ordinal, counts, records))
    return None, _encode_chunk(results)


def _records_chunk(state, ordinals: List[int]):
    """Derive one chunk of full per-day record lists inside a worker.

    The days travel as :func:`_encode_chunk` bytes with empty counts;
    the parent rebuilds ``IPv4Address`` objects on ingestion.
    """
    from repro.scan.snapshot import derive_records

    internet, names, at_offset = state
    results = [
        (ordinal, {}, derive_records(internet, names, dt.date.fromordinal(ordinal), at_offset))
        for ordinal in ordinals
    ]
    return None, _encode_chunk(results)


def chunk_days(days: Sequence[dt.date], workers: int) -> List[List[dt.date]]:
    """Split ``days`` into contiguous chunks, ~2 per worker.

    A couple of chunks per worker keeps the pool busy when chunks take
    uneven time (weekday/weekend day mixes differ in cost) without
    paying per-day task overhead; finer splits measurably lose to the
    fixed cost per task on small worlds.
    """
    if not days:
        return []
    target = max(1, math.ceil(len(days) / (workers * 2)))
    return [list(days[index:index + target]) for index in range(0, len(days), target)]


def collect_days(
    collector: "SnapshotCollector",
    days: Sequence[dt.date],
    *,
    workers: int,
    obs=None,
    metrics=None,
) -> "SnapshotSeries":
    """Collect ``days`` for ``collector`` on a process pool.

    The work units are the collector's blocks × day-chunks, about two
    chunks per worker overall, split evenly across blocks.  Results
    merge in block order, so the series is identical to a serial pass.
    Raises ``ValueError`` if the platform lacks ``fork`` and the state
    cannot be pickled (built worlds and plans always can).  ``obs`` (an
    :class:`repro.obs.Observability` handle) receives the pool shape —
    start method, task and worker counts, result-blob bytes — under
    ``timings.execution``; those vary with the host, never the
    collected series.  ``metrics`` (a
    :class:`~repro.scan.snapshot.CollectionMetrics`) additionally
    receives the ``transport_bytes`` total.
    """
    from repro.scan.snapshot import block_merger

    series = collector.new_series()
    blocks = collector.blocks()
    merge = block_merger(series, len(blocks))
    chunks = chunk_days(days, max(1, workers // len(blocks)))
    tasks = [
        (names, [day.toordinal() for day in chunk]) for names in blocks for chunk in chunks
    ]
    # ``run_pool`` unpacks results in task order: each block's chunks in turn.
    task_blocks = iter(block for block in range(len(blocks)) for _ in chunks)

    def ingest(view: memoryview) -> None:
        block = next(task_blocks)
        for ordinal, counts, records in _decode_chunk(view):
            merge(block, ordinal, counts, records)

    plan = collector.plan
    state = (plan, collector.internet if plan is None else None, collector.at_offset)
    run_pool(
        _collect_chunk, tasks, state, workers,
        section="snapshot_pool", unpack=ingest, obs=obs, metrics=metrics,
    )
    return series


def sample_day_records(
    internet,
    network_names: Optional[Sequence[str]],
    days: Sequence[dt.date],
    *,
    at_offset: Optional[int],
    workers: int,
    obs=None,
) -> List[Tuple[object, str]]:
    """Derive full per-day record lists for ``days`` on a process pool.

    Day-chunks derive concurrently and merge chronologically, so the
    flattened record stream is bit-identical to a serial
    ``records_on`` walk (derivation is deterministic per day).  The
    returned records are *not* deduplicated.  Nothing in the package
    calls this any more — a series reads its stored record columns —
    but ``bench/layers.py`` still names :func:`_records_chunk`, so the
    pair goes with that benchmark entry.
    """
    import ipaddress

    records: List[Tuple[object, str]] = []

    def extend(view: memoryview) -> None:
        for _, _, (addresses, hostnames) in _decode_chunk(view):
            records.extend(zip(map(ipaddress.IPv4Address, addresses.tolist()), hostnames))

    chunks = [[day.toordinal() for day in chunk] for chunk in chunk_days(days, workers)]
    state = (internet, list(network_names) if network_names is not None else None, at_offset)
    run_pool(_records_chunk, chunks, state, workers, section="sample_pool", unpack=extend, obs=obs)
    return records
