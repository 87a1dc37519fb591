"""Full-address-space rDNS snapshot collectors.

Models the two measurement platforms of Section 3: OpenINTEL collects
*daily* snapshots, Rapid7's Project Sonar *weekly* ones ("a single
weekday every week").  The paper consumes these as given datasets; the
collector therefore reads zone state in bulk rather than replaying
billions of PTR queries, while the reactive instrument
(:mod:`repro.scan.reactive`) exercises the full resolver path.

Collection windows are **half-open** ``[start, end)`` throughout:
``start`` is always collected (cadence permitting), ``end`` never is.

Multi-year windows are expensive to simulate serially, so
:meth:`SnapshotCollector.collect` can fan day-chunks out over a process
pool (``workers=N``, see :mod:`repro.scan.parallel`) and consult an
on-disk :class:`~repro.scan.cache.SnapshotCache` so repeated studies
pay for each simulation once.  A collector measures a built world or a
:class:`~repro.netsim.worldplan.WorldPlan`; a plan splits into
``shards`` contiguous blocks of networks that each process builds for
itself, so no process ever holds the whole plan.  Per-day derivation
draws only from ``RngStreams.fresh(label, ..., day.toordinal())``
streams, which makes results independent of evaluation order:
parallel, sharded and cached collection are bit-identical to serial.

A collected day is data, as in the paper's stored OpenINTEL snapshots:
the series keeps its /24 counts and its PTR records, (address, PTR id)
column pairs over one series-wide name pool, so reading records back —
the leak sample, the serve leak window — simulates nothing.
"""

from __future__ import annotations

import datetime as dt
import time
from dataclasses import dataclass
import ipaddress
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.internet import Internet
from repro.netsim.network import Network, Record, slash24_counts
from repro.netsim.simtime import days_between
from repro.netsim.worldplan import PlanError, contiguous_blocks, world_source
from repro.scan.blockfile import BlockFileReader, encode_records
from repro.scan.storage import DATASET_FORMAT_VERSION, CountMatrix, PrefixTable, _Interner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.cache import SnapshotCache


@dataclass(frozen=True)
class SnapshotStats:
    """One row of the paper's Table 1."""

    name: str
    start_date: dt.date
    end_date: dt.date
    snapshots: int
    total_responses: int
    unique_ptrs: int


@dataclass
class CollectionMetrics:
    """Lightweight counters for one ``collect`` call.

    ``workers`` echoes the request; ``effective_workers`` is what
    actually ran after the never-slower fallback (see
    :func:`repro.scan.parallel.effective_workers`).
    ``simulate_seconds`` covers day derivation (or payload decoding on
    a cache hit); ``total_seconds`` the whole call including cache I/O.
    """

    workers: int = 1
    effective_workers: int = 1
    days: int = 0
    responses: int = 0
    cache_hit: bool = False
    cache_key: Optional[str] = None
    cache_stored: bool = False
    #: True when a cache store failed mid-write (its partial ``*.tmp``
    #: file was cleaned up — see ``_PairCache.tmp_cleanups``); the
    #: collection itself still succeeded, only persistence was lost.
    cache_store_failed: bool = False
    #: Bytes of worker results that crossed the process boundary as
    #: ``.rbf`` blobs in shared memory instead of pickled dicts.
    #: Zero for serial runs.  Run-shape detail, so it is reported under
    #: ``timings.execution``, never in the deterministic manifest
    #: sections.
    transport_bytes: int = 0
    simulate_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def days_per_second(self) -> float:
        return self.days / self.total_seconds if self.total_seconds > 0 else 0.0

    def describe(self) -> str:
        source = "cache" if self.cache_hit else f"{self.effective_workers} worker(s)"
        return (
            f"{self.days} snapshot day(s) via {source} in "
            f"{self.total_seconds:.2f}s ({self.days_per_second:.1f} days/s, "
            f"{self.responses:,} responses)"
        )


@dataclass
class SampleMetrics:
    """Counters for one :meth:`SnapshotSeries.sample_records` call.

    ``effective_workers`` is always 1: the sample is read from stored
    record columns, which leaves nothing to fan out.
    """

    effective_workers: int = 1
    days: int = 0
    raw_records: int = 0
    unique_records: int = 0
    total_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.unique_records:,} unique of {self.raw_records:,} records "
            f"over {self.days} day(s) in {self.total_seconds:.2f}s"
        )


#: One day's stored records: parallel ``u32`` address and PTR-id columns.
RecordColumns = Tuple[np.ndarray, np.ndarray]
#: One day's derived records: a ``u32`` address column and the parallel hostnames.
DayRecords = Tuple[np.ndarray, List[str]]


class RecordSample:
    """PTR records as columns: ``u32`` addresses, ``u32`` ids and the names they index.

    What :meth:`SnapshotSeries.sample_records` returns and what the
    leak drill-down folds.  ``names`` may hold more names than the ids
    use (the whole series pool).  Iterating yields the records as
    ``(address as int, hostname)`` pairs, in column order.
    """

    __slots__ = ("addresses", "ids", "names")

    def __init__(self, addresses: np.ndarray, ids: np.ndarray, names: Sequence[str]):
        self.addresses = addresses
        self.ids = ids
        self.names = names

    @classmethod
    def of(cls, records: Iterable[Tuple[object, str]]) -> "RecordSample":
        """``records`` as a sample: a sample as is, else ``(address, hostname)`` pairs.

        Addresses may be ints, address objects or text; each distinct
        hostname gets one id.
        """
        if isinstance(records, cls):
            return records
        index: Dict[str, int] = {}
        addresses, ids = [], []
        for address, hostname in records:
            if isinstance(address, str):
                address = ipaddress.IPv4Address(address)
            addresses.append(int(address))
            ids.append(index.setdefault(hostname, len(index)))
        return cls(
            np.array(addresses, dtype=np.uint32), np.array(ids, dtype=np.uint32), list(index)
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Record]:
        return zip(self.addresses.tolist(), map(self.names.__getitem__, self.ids.tolist()))


def _networks_of(
    internet: Internet, network_names: Optional[Sequence[str]]
) -> List[Network]:
    if network_names is None:
        return internet.networks
    return [internet.network(name) for name in network_names]


def derive_records(
    internet: Internet,
    network_names: Optional[Sequence[str]],
    day: dt.date,
    at_offset: Optional[int],
) -> DayRecords:
    """One day's PTR records in ``records_on`` walk order, duplicates kept."""
    records: List[Record] = []
    for network in _networks_of(internet, network_names):
        records += network.records_on(day, at_offset=at_offset)
    addresses = np.fromiter(
        (address for address, _ in records), dtype=np.uint32, count=len(records)
    )
    return addresses, [hostname for _, hostname in records]


def derive_day(
    internet: Internet,
    network_names: Optional[Sequence[str]],
    day: dt.date,
    at_offset: Optional[int],
) -> Tuple[Dict[str, int], DayRecords]:
    """One day's (/24 counts, PTR records) — the unit of collection.

    Shared by the serial path and the worker processes of
    :mod:`repro.scan.parallel`; determinism of this function is what
    guarantees parallel results are bit-identical to serial ones.
    One ``records_on`` walk per network; the counts are a tally of the
    records' address column in first-seen /24 order, and the column
    is stored as is.
    """
    records = derive_records(internet, network_names, day, at_offset)
    return slash24_counts(records[0]), records


class PtrPool:
    """The series' unique PTR names, each with a dense id.

    Ids are assigned in first-seen order of the collection walk, so
    serial, parallel, sharded and cache-replayed series share one pool.
    On a cache hit the names stay in the blockfile's PTRS record:
    ``len()`` answers from the record headers, and the first read of a
    name (or a new interning) decodes them.
    """

    def __init__(self, reader: Optional[BlockFileReader] = None):
        self._reader = reader
        self._interner: Optional[_Interner] = None if reader is not None else _Interner()

    def _materialise(self) -> _Interner:
        if self._interner is None:
            self._interner = _Interner(self._reader.ptr_names())
        return self._interner

    def __len__(self) -> int:
        if self._interner is None:
            return self._reader.unique_ptr_count
        return len(self._interner.values)

    @property
    def names(self) -> List[str]:
        """The names in id order (shared; treat as read-only)."""
        return self._materialise().values

    def encode(self, records: DayRecords) -> RecordColumns:
        """``records`` as an (address, id) column pair, interning new names."""
        return encode_columns(records, self._materialise())


def encode_columns(records: DayRecords, interner: _Interner) -> RecordColumns:
    """A day's records as its ``u32`` address column and a ``u32`` id column.

    Ids index ``interner``, which assigns new names the next id.
    """
    addresses, hostnames = records
    ids = np.fromiter(map(interner.code, hostnames), dtype=np.uint32, count=len(hostnames))
    return addresses, ids


class SnapshotSeries:
    """The output of one collector over one period.

    Per-day /24 counts are materialised eagerly (they feed the
    dynamicity heuristic) and held columnar — a shared
    :class:`~repro.scan.storage.PrefixTable` plus one dense count
    column per day (:class:`~repro.scan.storage.CountMatrix`); the
    dict-shaped accessors below are thin views over those columns.
    Each collected day also keeps its PTR records as data: a ``u32``
    address column in collection walk order and a ``u32`` column of
    ids into the series' :class:`PtrPool`, the way one re-reads raw
    snapshot files from disk.  Only a day appended as bare counts
    (:meth:`~repro.serve.repositories.SnapshotRepository.append_counts`)
    has no columns; its records are derived from the world on demand.
    """

    def __init__(
        self,
        name: str,
        internet: Internet,
        networks: Optional[Sequence[str]] = None,
        *,
        at_offset: Optional[int] = None,
        cadence_days: int = 1,
    ):
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        self.name = name
        self._internet = internet
        self._network_names = list(networks) if networks is not None else None
        self._at_offset = at_offset
        self._cadence_days = cadence_days
        self._days: List[dt.date] = []
        self._day_index: Dict[dt.date, int] = {}
        self._matrix = CountMatrix()
        self._total_responses = 0
        self._pool = PtrPool()
        #: Per-day record columns (``None``: a day appended as counts).
        self._records: List[Optional[RecordColumns]] = []
        #: Counters from the most recent :meth:`sample_records` call.
        self.last_sample_metrics: Optional["SampleMetrics"] = None

    # -- collection (used by SnapshotCollector) ------------------------------

    def _collect_day(self, day: dt.date) -> None:
        derived = derive_day(self._internet, self._network_names, day, self._at_offset)
        self._ingest_day(day, *derived)

    def _ingest_day(
        self, day: dt.date, counts: Dict[str, int], records: Optional[DayRecords]
    ) -> None:
        """Append one day, enforcing order and cadence.

        ``records`` are the day's address column and hostnames, stored
        as columns; ``None`` appends the counts alone.
        """
        if self._days:
            gap = (day - self._days[-1]).days
            if gap <= 0:
                raise ValueError(f"{self.name}: day {day} is not after {self._days[-1]}")
            if gap != self._cadence_days:
                raise ValueError(
                    f"{self.name}: snapshot spacing {gap}d contradicts the "
                    f"declared cadence of {self._cadence_days}d"
                )
        self._day_index[day] = len(self._days)
        self._matrix.append_day(counts)
        self._total_responses += self._matrix.day_total(self._day_index[day])
        self._records.append(None if records is None else self._pool.encode(records))
        self._days.append(day)

    # -- access ------------------------------------------------------------------

    @property
    def days(self) -> List[dt.date]:
        return list(self._days)

    @property
    def cadence_days(self) -> int:
        """The collector's declared cadence (1 = daily, 7 = weekly).

        Declared at construction and validated against the actual
        snapshot spacing as days are ingested — a single-snapshot
        weekly series still reports 7, where the old first-two-days
        inference silently returned 1.
        """
        return self._cadence_days

    def counts_by_slash24(self, day: dt.date) -> Dict[str, int]:
        """Day's /24 counts as a fresh dict (callers may mutate it)."""
        return self._matrix.day_counts(self._day_index[day])

    def counts_view(self, day: dt.date) -> Mapping[str, int]:
        """Day's /24 counts as a no-copy read-only mapping.

        The view is backed directly by the series' count column —
        analysis loops that only read (the dynamicity heuristic, the
        occupancy series) use this to skip the per-day dict copy that
        :meth:`counts_by_slash24` pays for mutability.
        """
        return self._matrix.day_view(self._day_index[day])

    def count_matrix(self) -> CountMatrix:
        """The interned columnar store itself (shared, treat as read-only).

        Columnar consumers — :class:`repro.core.dynamicity.DynamicityAnalyzer`
        walks count columns by prefix ID — take this instead of
        re-assembling ``{date: {prefix: count}}`` dicts.
        """
        return self._matrix

    def prefix_table(self) -> PrefixTable:
        """The series' interned prefix table (shared with the matrix)."""
        return self._matrix.prefixes

    def daily_totals(self) -> Dict[dt.date, int]:
        """Per-day response totals (accumulated at ingest, never re-summed)."""
        return dict(zip(self._days, self._matrix.totals))

    def _columns(self, days: Sequence[dt.date]) -> Tuple[List[RecordColumns], List[str]]:
        """The record columns of ``days`` and the names their ids index.

        A day without columns is derived from the world and encoded
        against a private copy of the pool, so reading never changes
        the series.
        """
        for day in days:
            if day not in self._day_index:
                raise KeyError(f"{self.name} holds no snapshot for {day}")
        stored = [self._records[self._day_index[day]] for day in days]
        names = self._pool.names if days else []
        if any(columns is None for columns in stored):
            interner = _Interner(names)
            names = interner.values
            stored = [
                columns
                if columns is not None
                else encode_columns(
                    derive_records(self._internet, self._network_names, day, self._at_offset),
                    interner,
                )
                for day, columns in zip(days, stored)
            ]
        return stored, names

    def record_pairs(self, day: dt.date) -> Iterator[Record]:
        """The day's ``(address as int, hostname)`` records, in walk order."""
        [(addresses, ids)], names = self._columns([day])
        return iter(RecordSample(addresses, ids, names))

    def records_on(self, day: dt.date) -> Iterator[Tuple[ipaddress.IPv4Address, str]]:
        """The full (address, hostname) record list of a collected day."""
        for address, hostname in self.record_pairs(day):
            yield ipaddress.IPv4Address(address), hostname

    def sample_records(
        self,
        days: Optional[Sequence[dt.date]] = None,
        *,
        obs=None,
    ) -> "RecordSample":
        """One deduplicated record sample over ``days``, as columns.

        The shared pass behind the leak funnel: the days' record
        columns are concatenated and deduplicated on integer
        ``address << 32 | ptr_id`` keys in first-seen order.  The
        sample keeps the unique records as an address column and an id
        column into the names their ids index; no per-record object is
        built.
        Counters land in :attr:`last_sample_metrics`, and when ``obs``
        (an :class:`repro.obs.Observability` handle) is given the pass
        is traced as a ``snapshot.sample`` span with deterministic
        record counters.
        """
        from repro.obs import resolve_obs

        obs = resolve_obs(obs)
        sample_days = list(days) if days is not None else list(self._days)
        started = time.perf_counter()
        columns, names = self._columns(sample_days)
        metrics = SampleMetrics(days=len(sample_days))
        self.last_sample_metrics = metrics

        with obs.span("snapshot.sample", collector=self.name) as span:
            addresses = np.concatenate([a for a, _ in columns] or [np.empty(0, np.uint32)])
            ids = np.concatenate([i for _, i in columns] or [np.empty(0, np.uint32)])
            keys = (addresses.astype(np.uint64) << np.uint64(32)) | ids
            _, first = np.unique(keys, return_index=True)
            first.sort()
            sample = RecordSample(addresses[first], ids[first], names)
            metrics.raw_records = len(keys)
            metrics.unique_records = len(sample)
            span.set("days", metrics.days)
            span.set("raw_records", metrics.raw_records)
            span.set("unique_records", metrics.unique_records)
            obs.metrics.counter("snapshot_sample_records_total").inc(metrics.raw_records)
            obs.metrics.counter("snapshot_sample_unique_total").inc(metrics.unique_records)
        metrics.total_seconds = time.perf_counter() - started
        return sample

    def stats(self) -> SnapshotStats:
        return SnapshotStats(
            name=self.name,
            start_date=self._days[0],
            end_date=self._days[-1],
            snapshots=len(self._days),
            total_responses=self._total_responses,
            unique_ptrs=len(self._pool),
        )

    def __len__(self) -> int:
        return len(self._days)

    # -- cache serialisation -------------------------------------------------

    def blockfile_parts(self) -> Tuple[List[str], List[int], list, List[int]]:
        """``(prefixes, day_ordinals, columns, totals)`` for the blockfile.

        Columns are handed out as-is (heap arrays or zero-copy views),
        so re-encoding an mmap-backed series never materialises the
        matrix.
        """
        matrix = self._matrix
        return (
            list(matrix.prefixes.values),
            [day.toordinal() for day in self._days],
            [matrix.column(index) for index in range(matrix.day_count)],
            list(matrix.totals),
        )

    def encode_blockfile(self) -> bytes:
        """The whole series as blockfile bytes: counts, PTR pool and records.

        What :meth:`~repro.scan.cache.SnapshotCache.store_series` writes.
        """
        records = [
            (day.toordinal(), *columns)
            for day, columns in zip(self._days, self._records)
            if columns is not None
        ]
        return encode_records(*self.blockfile_parts(), self._pool.names, records)

    def to_cache_payload(self) -> dict:
        """The cache JSON document's metadata.

        The counts, the PTR pool and the per-day records live in the
        ``.rbf`` sidecar (:meth:`encode_blockfile`); the cache adds the
        sidecar's name, size and SHA-256 when it stores the pair.
        ``unique_ptr_count`` is denormalised here so inspection tools
        can report it without touching the sidecar; decoders take it
        from the PTRS record headers instead.
        """
        return {
            "version": DATASET_FORMAT_VERSION,
            "name": self.name,
            "networks": self._network_names,
            "at_offset": self._at_offset,
            "cadence_days": self._cadence_days,
            "days": [day.isoformat() for day in self._days],
            "total_responses": self._total_responses,
            "unique_ptr_count": len(self._pool),
        }

    @classmethod
    def from_payload(cls, payload: dict, internet: Internet) -> "SnapshotSeries":
        """Rebuild a series from a :class:`~repro.scan.cache.SnapshotCache` hit.

        ``payload`` is the document :meth:`to_cache_payload` wrote, as
        :meth:`~repro.scan.cache.SnapshotCache.load` returns it, with
        the sidecar already open in ``blockfile_reader``.  The count
        matrix and the record columns are views into the mmap-ed
        sidecar.
        ``internet`` must be the world the payload was derived from —
        days without record columns are derived from it.  The cache
        layer guarantees this by keying entries on
        :meth:`~repro.netsim.internet.Internet.cache_token`.
        """
        series = cls(
            payload["name"],
            internet,
            payload["networks"],
            at_offset=payload["at_offset"],
            cadence_days=payload["cadence_days"],
        )
        series._days = [dt.date.fromisoformat(text) for text in payload["days"]]
        series._day_index = {day: index for index, day in enumerate(series._days)}
        reader = payload["blockfile_reader"]
        if reader.days != [day.toordinal() for day in series._days]:
            raise ValueError(
                f"blockfile day ordinals disagree with the payload's "
                f"{len(series._days)} declared days"
            )
        series._matrix = reader.count_matrix()
        series._pool = PtrPool(reader)
        series._records = [reader.day_records(ordinal) for ordinal in reader.days]
        series._total_responses = int(payload["total_responses"])
        return series


def block_merger(series: SnapshotSeries, block_count: int):
    """``merge(block, ordinal, counts, records)``: fold one block's day into ``series``.

    Blocks must arrive in block order, each block's days in date order.
    Per-/24 keys are disjoint across networks (prefixes never overlap),
    so updating counts in block order reproduces the insertion order of
    a whole-world derivation, and concatenating records in block order
    reproduces its record walk.  A day is ingested when the last block
    delivers it, so a one-block collection streams day by day.
    """
    pending: Dict[int, Tuple[Dict[str, int], DayRecords]] = {}
    last = block_count - 1

    def merge(block: int, ordinal: int, counts: Dict[str, int], records: DayRecords) -> None:
        if block:
            merged_counts, (addresses, hostnames) = pending.pop(ordinal)
            merged_counts.update(counts)
            counts = merged_counts
            records = (np.concatenate((addresses, records[0])), hostnames + records[1])
        if block == last:
            series._ingest_day(dt.date.fromordinal(ordinal), counts, records)
        else:
            pending[ordinal] = (counts, records)

    return merge


class SnapshotCollector:
    """Collects a snapshot series at a fixed cadence.

    ``internet`` is a built world (an :class:`~repro.netsim.internet.Internet`
    or :class:`~repro.netsim.internet.World`) or a plan (a
    :class:`~repro.netsim.worldplan.WorldPlan`, or a
    :class:`~repro.netsim.worldplan.LazyPlanInternet` over one).  Work
    splits into blocks of networks × day-chunks.  A built world is one
    block, shared with pool workers by fork.  A plan splits into
    ``shards`` contiguous blocks that each process builds for itself,
    so no process holds the whole plan.  The merged series is
    byte-identical for any shard count, worker count or cache
    temperature.
    """

    #: Second-of-day at which the daily sweep samples PTR state.  A
    #: snapshot is a point-in-time measurement: an evening-only client
    #: whose one-hour lease expired by noon has no record to observe.
    DEFAULT_SNAPSHOT_OFFSET = 12 * 3600

    def __init__(
        self,
        internet,
        name: str,
        *,
        cadence_days: int = 1,
        networks: Optional[Sequence[str]] = None,
        at_offset: Optional[int] = DEFAULT_SNAPSHOT_OFFSET,
        shards: int = 1,
        fault_token: Optional[str] = None,
        obs=None,
    ):
        if cadence_days < 1:
            raise ValueError("cadence_days must be at least 1")
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        self.plan, self.internet = world_source(internet)
        self.name = name
        self.cadence_days = cadence_days
        self.networks = networks
        self.at_offset = at_offset
        self.shards = shards
        #: Key salt only.  Snapshot *content* never depends on faults
        #: (they model resolver-path failures, not zone state), but the
        #: evaluation matrix passes its cell's fault token so no two
        #: cells can share a cache entry.
        self.fault_token = fault_token
        #: Optional :class:`repro.obs.Observability` handle; spans and
        #: counters are recorded there (no-op when ``None``).
        self.obs = obs
        #: Counters from the most recent :meth:`collect` call.
        self.last_metrics: Optional[CollectionMetrics] = None

    @classmethod
    def openintel_style(cls, internet, **kwargs) -> "SnapshotCollector":
        """Daily snapshots (OpenINTEL collects daily)."""
        return cls(internet, "OpenINTEL", cadence_days=1, **kwargs)

    @classmethod
    def rapid7_style(cls, internet, **kwargs) -> "SnapshotCollector":
        """Weekly snapshots (Rapid7 collects one weekday every week)."""
        return cls(internet, "Rapid7 Sonar", cadence_days=7, **kwargs)

    def snapshot_days(self, start: dt.date, end: dt.date) -> List[dt.date]:
        """The days a collection over ``[start, end)`` snapshots."""
        if end <= start:
            raise ValueError("end must be after start")
        return [
            day
            for index, day in enumerate(days_between(start, end))
            if index % self.cadence_days == 0
        ]

    def blocks(self) -> List[Optional[Sequence[str]]]:
        """The network blocks of one collection, in merge order.

        ``None`` stands for every network of a built world.
        """
        if self.plan is None:
            return [self.networks]
        names = self.networks if self.networks is not None else self.plan.network_names
        return contiguous_blocks(names, self.shards)

    def new_series(self) -> SnapshotSeries:
        """An empty series for this collector's days to be ingested into."""
        return SnapshotSeries(
            self.name,
            self.internet,
            self.networks,
            at_offset=self.at_offset,
            cadence_days=self.cadence_days,
        )

    def cache_key(self, cache: "SnapshotCache", start: dt.date, end: dt.date) -> str:
        """The cache key one ``collect(start, end)`` uses.

        A plan keys on its fingerprint and policy token, never on the
        shard count, so runs at any shard width share one entry (their
        payloads are identical bytes).
        """
        return cache.key_for(
            world_token=self.internet.cache_token(),
            name=self.name,
            networks=self.networks,
            start=start,
            end=end,
            cadence_days=self.cadence_days,
            at_offset=self.at_offset,
            policy_token=self.plan.policy_token() if self.plan is not None else None,
            fault_token=self.fault_token,
        )

    def collect(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: int = 1,
        cache: Optional["SnapshotCache"] = None,
    ) -> SnapshotSeries:
        """Collect all snapshots in the half-open window ``[start, end)``.

        ``workers > 1`` fans blocks × day-chunks out over a process pool;
        ``cache`` consults and fills an on-disk
        :class:`~repro.scan.cache.SnapshotCache`.  Both produce results
        bit-identical to a serial, uncached run.  The pool is capped by
        :func:`repro.scan.parallel.effective_workers` so a ``workers``
        request can never run slower than serial (short windows and
        single-core hosts fall back); the cap actually used is recorded
        in :attr:`CollectionMetrics.effective_workers`.  Timing and
        cache counters land in :attr:`last_metrics`; when the collector
        carries an :class:`repro.obs.Observability` handle, the call is
        traced as a ``snapshot.collect`` span, deterministic counts
        land in the metrics registry and run-shape details (workers,
        cache traffic) under ``timings.execution``.
        """
        from repro.obs import resolve_obs

        obs = resolve_obs(self.obs)
        cache_baseline = cache.execution_snapshot() if cache is not None else None
        with obs.span("snapshot.collect", collector=self.name) as span:
            series = self._collect(start, end, workers=workers, cache=cache)
            metrics = self.last_metrics
            span.set("days", metrics.days)
            span.set("responses", metrics.responses)
            span.set("cadence_days", self.cadence_days)
            obs.metrics.counter("snapshot_days_total").inc(metrics.days)
            obs.metrics.counter("snapshot_responses_total").inc(metrics.responses)
        obs.record_execution(
            "snapshot",
            workers=metrics.workers,
            effective_workers=metrics.effective_workers,
            cache_hit=metrics.cache_hit,
            transport_bytes=metrics.transport_bytes,
        )
        if cache is not None:
            cache.export_metrics(obs, section="snapshot", baseline=cache_baseline)
        return series

    def _collect(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: int,
        cache: Optional["SnapshotCache"],
    ) -> SnapshotSeries:
        from repro.scan.parallel import collect_days, effective_workers

        started = time.perf_counter()
        days = self.snapshot_days(start, end)
        blocks = self.blocks()
        metrics = CollectionMetrics(workers=max(1, workers), days=len(days))
        metrics.effective_workers = effective_workers(workers, len(blocks) * len(days))
        self.last_metrics = metrics

        key: Optional[str] = None
        if cache is not None:
            key = self.cache_key(cache, start, end)
            metrics.cache_key = key
            payload = cache.load(key)
            if payload is not None:
                simulate_started = time.perf_counter()
                series = SnapshotSeries.from_payload(payload, self.internet)
                metrics.cache_hit = True
                metrics.responses = series.stats().total_responses
                metrics.simulate_seconds = time.perf_counter() - simulate_started
                metrics.total_seconds = time.perf_counter() - started
                return series

        simulate_started = time.perf_counter()
        if metrics.effective_workers > 1:
            series = collect_days(
                self,
                days,
                workers=metrics.effective_workers,
                obs=self.obs,
                metrics=metrics,
            )
        else:
            series = self.new_series()
            merge = block_merger(series, len(blocks))
            # Block by block: a plan holds one block's networks at a time.
            for block, names in enumerate(blocks):
                internet = self.internet if self.plan is None else self.plan.build(names).internet
                for day in days:
                    merge(block, day.toordinal(), *derive_day(internet, names, day, self.at_offset))
        metrics.simulate_seconds = time.perf_counter() - simulate_started
        metrics.responses = series.stats().total_responses if days else 0

        if cache is not None and key is not None:
            # Best-effort: losing the cache write (full disk, bad
            # payload) must not lose the freshly collected series.
            try:
                cache.store_series(key, series)
                metrics.cache_stored = True
            except (OSError, TypeError, ValueError):
                metrics.cache_store_failed = True
        metrics.total_seconds = time.perf_counter() - started
        return series
