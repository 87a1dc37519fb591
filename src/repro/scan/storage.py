"""Columnar storage for campaign observation streams.

A six-week supplemental campaign emits millions of ICMP and rDNS
observations; keeping each as a frozen dataclass instance costs ~
hundreds of bytes of object overhead per row and thrashes the
allocator.  These column stores keep the same data as parallel
``array`` columns (4-byte addresses, 8-byte timestamps, small-integer
dictionary codes for networks/statuses/hostnames) while presenting the
familiar sequence-of-observations API: ``append``, ``len``, indexing,
iteration.  Observation objects are materialised lazily on access, so
every existing consumer (grouping, tracking, occupancy, persistence)
keeps working unchanged.

The stores travel and rest as ``.rbf`` ICMP/RDNS records
(:mod:`repro.scan.blockfile`): pool workers return them that way, and
a campaign cache sidecar holds the merged pair.  Equality compares *contents*, and also accepts a plain list of
observations on either side, which is what the bit-identical
equivalence tests assert against.
"""

from __future__ import annotations

import heapq
import ipaddress
from array import array
from collections.abc import Mapping, Sequence
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.dns.resolver import ResolutionStatus
from repro.scan.observations import IcmpObservation, RdnsObservation

#: 32-bit-capable unsigned typecode ('I' is 4 bytes on CPython, but the
#: C standard only guarantees 2; fall back to 'L' where needed).
_ADDR = "I" if array("I").itemsize >= 4 else "L"

#: Cache-payload format version shared by the snapshot and campaign
#: payload families; :func:`repro.scan.cache.is_current` treats any
#: other stored version as a miss.  Every entry is a JSON document
#: holding only metadata plus a pointer to a sidecar ``.rbf`` blockfile
#: (:mod:`repro.scan.blockfile`).  A snapshot sidecar holds the prefix
#: table, raw little-endian ``u32`` count columns, the PTR name pool and
#: each day's (address, PTR id) record columns, mmap-ed and exposed as
#: zero-copy views on load; a campaign sidecar holds the dataset's
#: ICMP and RDNS observation columns.
DATASET_FORMAT_VERSION = 6

_STATUSES: Tuple[ResolutionStatus, ...] = tuple(ResolutionStatus)
_STATUS_INDEX: Dict[ResolutionStatus, int] = {
    status: index for index, status in enumerate(_STATUSES)
}


class _Interner:
    """A list + reverse index assigning dense ids to repeated strings."""

    __slots__ = ("values", "_index")

    def __init__(self, values: Sequence[str] = ()):
        self.values: List[str] = list(values)
        self._index: Dict[str, int] = {value: i for i, value in enumerate(self.values)}

    def code(self, value: str) -> int:
        index = self._index.get(value)
        if index is None:
            index = len(self.values)
            self.values.append(value)
            self._index[value] = index
        return index


class PrefixTable:
    """Stable string↔int interning for /24 prefix keys.

    IDs are dense and assigned in first-seen order, so a table built
    from a chronologically ingested series is a deterministic function
    of the series — serial, parallel and cache-replayed collections
    produce identical tables, which is what keeps the cached blockfile
    bytes (and everything derived from prefix IDs) bit-identical across
    run modes.
    """

    __slots__ = ("values", "_index")

    def __init__(self, values: Sequence[str] = ()):
        #: Interned prefixes in ID order.  Treat as read-only.
        self.values: List[str] = list(values)
        self._index: Dict[str, int] = {value: i for i, value in enumerate(self.values)}

    def intern(self, prefix: str) -> int:
        """The ID for ``prefix``, assigning the next dense ID if new."""
        index = self._index.get(prefix)
        if index is None:
            index = len(self.values)
            self.values.append(prefix)
            self._index[prefix] = index
        return index

    def get(self, prefix: str) -> Optional[int]:
        """The ID for ``prefix``, or ``None`` if it was never interned."""
        return self._index.get(prefix)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, prefix: object) -> bool:
        return prefix in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if isinstance(other, PrefixTable):
            return self.values == other.values
        return NotImplemented

    def __repr__(self) -> str:
        return f"PrefixTable({len(self.values)} prefixes)"


class _DayCountsView(Mapping):
    """A read-only ``{prefix: count}`` view over one day's count column.

    Semantically identical to the dict the row-oriented code kept —
    only prefixes with a non-zero count are present — but backed by the
    shared :class:`CountMatrix` column with no per-call copy.
    """

    __slots__ = ("_table", "_column", "_length")

    def __init__(self, table: PrefixTable, column: "array"):
        self._table = table
        self._column = column
        self._length: Optional[int] = None

    def __getitem__(self, prefix: str) -> int:
        prefix_id = self._table.get(prefix)
        if prefix_id is None or prefix_id >= len(self._column):
            raise KeyError(prefix)
        count = self._column[prefix_id]
        if not count:
            raise KeyError(prefix)
        # int() keeps mmap-backed (NumPy) columns JSON-safe.
        return int(count)

    def __iter__(self) -> Iterator[str]:
        values = self._table.values
        for prefix_id, count in enumerate(self._column):
            if count:
                yield values[prefix_id]

    def __len__(self) -> int:
        if self._length is None:
            self._length = sum(1 for count in self._column if count)
        return self._length

    def __repr__(self) -> str:
        return f"_DayCountsView({len(self)} prefixes)"


class CountMatrix:
    """Per-day dense count columns over interned prefix IDs.

    The columnar twin of ``{date: {prefix: count}}``: one
    ``array('I')`` per day, indexed by :class:`PrefixTable` ID.  A
    column is as long as the table was when its day was appended;
    shorter columns implicitly carry zeroes for later prefixes.
    Per-day totals are accumulated at append time so ``daily_totals``
    never re-sums.

    A matrix may also be *view-backed* (:meth:`from_columns`): columns
    are then zero-copy ``u32`` views into an mmap-ed blockfile rather
    than heap arrays, so a 100k+-prefix world never has to be resident.
    View columns are read-only; :meth:`append_day` simply appends fresh
    heap columns alongside the views.  Every scalar accessor
    coerces through ``int()`` so NumPy integers never leak to JSON.
    """

    __slots__ = ("prefixes", "_columns", "_totals", "_source")

    def __init__(self, prefixes: Optional[PrefixTable] = None):
        self.prefixes = prefixes if prefixes is not None else PrefixTable()
        self._columns: List[array] = []
        self._totals: List[int] = []
        #: Optional object owning the buffers behind view columns (a
        #: blockfile reader); held only to pin the mapping's lifetime.
        self._source = None

    # -- building ------------------------------------------------------------

    def append_day(self, counts: Mapping[str, int]) -> None:
        """Intern ``counts``'s prefixes and append a dense column."""
        intern = self.prefixes.intern
        ids = [intern(prefix) for prefix in counts]
        column = array(_ADDR, bytes(array(_ADDR).itemsize * len(self.prefixes)))
        total = 0
        for prefix_id, count in zip(ids, counts.values()):
            column[prefix_id] = count
            total += count
        self._columns.append(column)
        self._totals.append(total)

    @classmethod
    def from_day_dicts(cls, day_dicts: Iterable[Mapping[str, int]]) -> "CountMatrix":
        matrix = cls()
        for counts in day_dicts:
            matrix.append_day(counts)
        return matrix

    @classmethod
    def from_columns(
        cls,
        prefixes: Sequence[str],
        columns: Sequence[Sequence[int]],
        totals: Sequence[int],
        *,
        source=None,
    ) -> "CountMatrix":
        """A matrix over pre-built columns (typically zero-copy views).

        ``columns`` are adopted as-is — NumPy ``frombuffer`` views,
        ``memoryview`` casts or plain ``array`` objects all work.
        ``source`` (e.g. a blockfile reader) is retained so the buffer
        behind the views outlives the caller's handle.
        """
        matrix = cls(PrefixTable(prefixes))
        matrix._columns = list(columns)
        matrix._totals = [int(total) for total in totals]
        matrix._source = source
        return matrix

    # -- access --------------------------------------------------------------

    @property
    def day_count(self) -> int:
        return len(self._columns)

    def column(self, index: int) -> array:
        """Day ``index``'s raw column (may be shorter than the table)."""
        return self._columns[index]

    def count(self, index: int, prefix_id: int) -> int:
        column = self._columns[index]
        return int(column[prefix_id]) if prefix_id < len(column) else 0

    def day_total(self, index: int) -> int:
        return self._totals[index]

    @property
    def totals(self) -> List[int]:
        """Per-day totals in day order.  Treat as read-only."""
        return self._totals

    def day_counts(self, index: int) -> Dict[str, int]:
        """Day ``index`` as a fresh ``{prefix: count}`` dict (non-zero only)."""
        values = self.prefixes.values
        return {
            values[prefix_id]: int(count)
            for prefix_id, count in enumerate(self._columns[index])
            if count
        }

    def day_view(self, index: int) -> _DayCountsView:
        """Day ``index`` as a no-copy read-only mapping."""
        return _DayCountsView(self.prefixes, self._columns[index])

    def row(self, prefix_id: int) -> List[int]:
        """One prefix's count history across all days."""
        return [self.count(index, prefix_id) for index in range(len(self._columns))]

    def __eq__(self, other) -> bool:
        if isinstance(other, CountMatrix):
            return self.day_count == other.day_count and all(
                self.day_counts(index) == other.day_counts(index)
                for index in range(self.day_count)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"CountMatrix({self.day_count} days × {len(self.prefixes)} prefixes)"


def _merge_entries(stream, order: int):
    """Yield (at, order, index, stream) rows; binds ``stream`` eagerly."""
    ats = stream._ats
    for index in range(len(ats)):
        yield (ats[index], order, index, stream)


def _read_only_views(*columns: array) -> Tuple[np.ndarray, ...]:
    views = tuple(np.frombuffer(column, column.typecode) for column in columns)
    for view in views:
        view.flags.writeable = False
    return views


class IcmpColumns(Sequence):
    """ICMP observations as (address, at, network) columns."""

    __slots__ = ("_addresses", "_ats", "_network_ids", "_networks")

    def __init__(self):
        self._addresses = array(_ADDR)
        self._ats = array("q")
        self._network_ids = array("H")
        self._networks = _Interner()

    # -- building ------------------------------------------------------------

    def append(self, observation: IcmpObservation) -> None:
        self._addresses.append(int(observation.address))
        self._ats.append(observation.at)
        self._network_ids.append(self._networks.code(observation.network))

    def extend(self, observations) -> None:
        for observation in observations:
            self.append(observation)

    # -- columnar access -------------------------------------------------------

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(addresses, ats, network_ids)`` as read-only NumPy views.

        Network ids index :attr:`networks`.  A view pins its column:
        appending while one is alive raises ``BufferError``.
        """
        return _read_only_views(self._addresses, self._ats, self._network_ids)

    @property
    def networks(self) -> List[str]:
        """The network names in id order (shared; treat as read-only)."""
        return self._networks.values

    # -- sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ats)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return IcmpObservation(
            address=ipaddress.IPv4Address(self._addresses[index]),
            at=self._ats[index],
            network=self._networks.values[self._network_ids[index]],
        )

    def __iter__(self) -> Iterator[IcmpObservation]:
        networks = self._networks.values
        for value, at, network_id in zip(self._addresses, self._ats, self._network_ids):
            yield IcmpObservation(
                address=ipaddress.IPv4Address(value), at=at, network=networks[network_id]
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, IcmpColumns):
            return (
                self._addresses == other._addresses
                and self._ats == other._ats
                and [self._networks.values[i] for i in self._network_ids]
                == [other._networks.values[i] for i in other._network_ids]
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"IcmpColumns({len(self)} observations)"

    # -- merging ---------------------------------------------------------------

    @classmethod
    def merged(cls, streams: Sequence["IcmpColumns"]) -> "IcmpColumns":
        """A k-way merge by timestamp; ties keep the stream order given.

        Each per-network stream is already time-ordered (observations
        are appended in event-execution order), so the merge is a
        deterministic function of the inputs — the property that makes
        parallel campaign output bit-identical to serial.
        """
        merged = cls()
        entries = heapq.merge(
            *(_merge_entries(stream, order) for order, stream in enumerate(streams))
        )
        for _, _, index, stream in entries:
            merged._addresses.append(stream._addresses[index])
            merged._ats.append(stream._ats[index])
            merged._network_ids.append(
                merged._networks.code(stream._networks.values[stream._network_ids[index]])
            )
        return merged


class RdnsColumns(Sequence):
    """rDNS observations as (address, at, status, hostname, network) columns."""

    __slots__ = ("_addresses", "_ats", "_status_ids", "_hostname_ids", "_network_ids", "_hostnames", "_networks")

    def __init__(self):
        self._addresses = array(_ADDR)
        self._ats = array("q")
        self._status_ids = array("B")
        self._hostname_ids = array("L")
        self._network_ids = array("H")
        self._hostnames = _Interner([""])  # id 0 = no hostname
        self._networks = _Interner()

    # -- building ------------------------------------------------------------

    def append(self, observation: RdnsObservation) -> None:
        self._addresses.append(int(observation.address))
        self._ats.append(observation.at)
        self._status_ids.append(_STATUS_INDEX[observation.status])
        self._hostname_ids.append(self._hostnames.code(observation.hostname))
        self._network_ids.append(self._networks.code(observation.network))

    def extend(self, observations) -> None:
        for observation in observations:
            self.append(observation)

    # -- columnar access -------------------------------------------------------

    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(addresses, ats, status_ids, hostname_ids, network_ids)`` as read-only NumPy views.

        Status ids index ``tuple(ResolutionStatus)``; hostname ids are
        dense per distinct hostname (id 0 is the empty one).  As with
        :meth:`IcmpColumns.columns`, a view pins its column.
        """
        return _read_only_views(
            self._addresses, self._ats, self._status_ids, self._hostname_ids, self._network_ids
        )

    # -- sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ats)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return RdnsObservation(
            address=ipaddress.IPv4Address(self._addresses[index]),
            at=self._ats[index],
            status=_STATUSES[self._status_ids[index]],
            hostname=self._hostnames.values[self._hostname_ids[index]],
            network=self._networks.values[self._network_ids[index]],
        )

    def __iter__(self) -> Iterator[RdnsObservation]:
        hostnames = self._hostnames.values
        networks = self._networks.values
        for i in range(len(self._ats)):
            yield RdnsObservation(
                address=ipaddress.IPv4Address(self._addresses[i]),
                at=self._ats[i],
                status=_STATUSES[self._status_ids[i]],
                hostname=hostnames[self._hostname_ids[i]],
                network=networks[self._network_ids[i]],
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, RdnsColumns):
            return (
                self._addresses == other._addresses
                and self._ats == other._ats
                and self._status_ids == other._status_ids
                and [self._hostnames.values[i] for i in self._hostname_ids]
                == [other._hostnames.values[i] for i in other._hostname_ids]
                and [self._networks.values[i] for i in self._network_ids]
                == [other._networks.values[i] for i in other._network_ids]
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"RdnsColumns({len(self)} observations)"

    # -- merging ---------------------------------------------------------------

    @classmethod
    def merged(cls, streams: Sequence["RdnsColumns"]) -> "RdnsColumns":
        """A k-way timestamp merge; see :meth:`IcmpColumns.merged`."""
        merged = cls()
        entries = heapq.merge(
            *(_merge_entries(stream, order) for order, stream in enumerate(streams))
        )
        for _, _, index, stream in entries:
            merged._addresses.append(stream._addresses[index])
            merged._ats.append(stream._ats[index])
            merged._status_ids.append(stream._status_ids[index])
            merged._hostname_ids.append(
                merged._hostnames.code(stream._hostnames.values[stream._hostname_ids[index]])
            )
            merged._network_ids.append(
                merged._networks.code(stream._networks.values[stream._network_ids[index]])
            )
        return merged
