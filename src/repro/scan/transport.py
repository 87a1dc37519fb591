"""Columnar result transport for process-pool workers.

Pool workers used to return plain Python structures — per-day
``{prefix: count}`` dicts, PTR string sets, whole observation column
objects — which the executor pickled in the worker and unpickled in
the parent.  At shard scale that serialize-merge tax exceeded the work
being parallelised (``BENCH_shards.json`` recorded 0.74x "speedup" at
4 workers).  This module replaces the pickle round-trip with packed
columnar blobs: a worker flattens its results into one contiguous byte
string (raw little-endian integer columns plus newline-joined string
pools), publishes it out-of-band, and returns only a tiny
:class:`BlobHandle`.  The parent unpacks straight out of the shared
buffer — for counts, two ``frombuffer`` views and a ``zip`` — and the
rebuilt dicts preserve the worker's insertion order exactly, so prefix
interning (and therefore every downstream byte) is identical to a
serial run.

The blob lives in a ``multiprocessing.shared_memory`` segment; only its
name and size cross the process boundary.  The parent parses directly
from the mapped buffer, then closes and unlinks the segment.  If no
segment can be created (tiny ``/dev/shm``, exotic platform),
:func:`publish` falls back to carrying the bytes inline in the result
pickle — still one memcpy-friendly buffer instead of a million small
objects.  That branch is error handling, not a mode: the pool
primitive (:func:`repro.scan.parallel.run_pool`) is the only caller
and counts every blob's size as ``transport_bytes`` either way.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

import numpy as np

_MAGIC = b"RTB1"

T = TypeVar("T")


@dataclass
class BlobHandle:
    """A cheap-to-pickle reference to one published result blob."""

    kind: str  # "shm" | "inline"
    size: int
    data: Optional[bytes] = None
    name: Optional[str] = None


def publish(blob: bytes, name: Optional[str] = None) -> BlobHandle:
    """Put ``blob`` in a shared-memory segment; return its handle.

    ``name`` picks the segment name (the pool primitive names segments
    up front so it can sweep them after a failed run); ``None`` lets
    the platform choose.  When no segment can be created the bytes ride
    inline in the handle instead.
    """
    size = len(blob)
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=name, create=True, size=max(1, size))
    except (ImportError, OSError, ValueError):
        return BlobHandle(kind="inline", size=size, data=blob)
    segment.buf[:size] = blob
    segment.close()
    return BlobHandle(kind="shm", size=size, name=segment.name)


def consume(handle: BlobHandle, parser: Callable[[memoryview], T]) -> T:
    """Run ``parser`` over the blob behind ``handle``, then release it.

    Shared-memory segments are parsed in place (no copy into the
    parent's heap beyond what the parser materialises) and unlinked
    before parsing starts, so a parser that raises leaks nothing.
    """
    if handle.kind != "shm":
        return parser(memoryview(handle.data))
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=handle.name)
    # Unlinking drops the name only; the mapping stays valid until close.
    segment.unlink()
    try:
        view = memoryview(segment.buf)[: handle.size]
        try:
            return parser(view)
        finally:
            view.release()
    finally:
        segment.close()


def discard(names: Sequence[str]) -> None:
    """Unlink whichever of the named segments still exist."""
    from multiprocessing import shared_memory

    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        segment.unlink()


# -- primitive framing -------------------------------------------------------

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class _Writer:
    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: List[bytes] = [_MAGIC]

    def u32(self, value: int) -> None:
        self._parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self._parts.append(_U64.pack(value))

    def raw(self, data: bytes) -> None:
        self._parts.append(_U64.pack(len(data)))
        self._parts.append(data)

    def u32_column(self, values: Sequence[int]) -> None:
        """A length-prefixed little-endian ``u32`` column."""
        self.u32(len(values))
        self._parts.append(np.asarray(values, dtype="<u4").tobytes())

    def typed_column(self, column: array) -> None:
        """An ``array`` column with its typecode (same-machine framing).

        Worker and parent share one machine and interpreter build, so
        ``tobytes``/``frombytes`` round-trips exactly — the same
        contract the previous pickle transport relied on.
        """
        self._parts.append(column.typecode.encode("ascii"))
        self.raw(column.tobytes())

    def strings(self, values: Sequence[str]) -> None:
        """A string pool: newline-joined UTF-8 (the hot path), or a
        length-prefixed stream when a value embeds a newline."""
        if any("\n" in value for value in values):
            self._parts.append(b"\x01")
            self.u32(len(values))
            for value in values:
                self.raw(value.encode("utf-8"))
            return
        self._parts.append(b"\x00")
        self.u32(len(values))
        self.raw("\n".join(values).encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    __slots__ = ("_view", "_offset")

    def __init__(self, view: memoryview) -> None:
        self._view = view
        if bytes(view[:4]) != _MAGIC:
            raise ValueError("bad transport blob magic")
        self._offset = 4

    def u32(self) -> int:
        value = _U32.unpack_from(self._view, self._offset)[0]
        self._offset += 4
        return value

    def u64(self) -> int:
        value = _U64.unpack_from(self._view, self._offset)[0]
        self._offset += 8
        return value

    def raw(self) -> memoryview:
        length = self.u64()
        data = self._view[self._offset : self._offset + length]
        self._offset += length
        return data

    def u32_list(self) -> List[int]:
        count = self.u32()
        data = self._view[self._offset : self._offset + 4 * count]
        self._offset += 4 * count
        return np.frombuffer(data, dtype="<u4").tolist()

    def typed_column(self) -> array:
        typecode = bytes(self._view[self._offset : self._offset + 1]).decode("ascii")
        self._offset += 1
        column = array(typecode)
        column.frombytes(self.raw())
        return column

    def strings(self) -> List[str]:
        mode = self._view[self._offset]
        self._offset += 1
        count = self.u32()
        if mode == 1:
            return [str(self.raw(), "utf-8") for _ in range(count)]
        text = str(self.raw(), "utf-8")
        if not count:
            return []
        values = text.split("\n")
        if len(values) != count:
            raise ValueError(
                f"string pool declares {count} values, decoded {len(values)}"
            )
        return values


# -- day-count chunks (snapshot collection) ----------------------------------


def pack_day_chunk(results: Sequence[Tuple[int, Dict[str, int], Set[str]]]) -> bytes:
    """Pack ``(ordinal, {prefix: count}, {ptr, ...})`` day results.

    Prefixes are interned into one chunk-local pool in first-seen
    (dict-insertion) order and each day stores parallel ``u32``
    id/count columns, so unpacking rebuilds every dict with exactly
    the iteration order the worker produced — the property that keeps
    parent-side prefix interning bit-identical to a serial run.
    """
    writer = _Writer()
    pool: Dict[str, int] = {}
    per_day: List[Tuple[int, List[int], List[int], List[str]]] = []
    for ordinal, counts, ptrs in results:
        ids = []
        for prefix in counts:
            code = pool.get(prefix)
            if code is None:
                code = len(pool)
                pool[prefix] = code
            ids.append(code)
        per_day.append((ordinal, ids, list(counts.values()), sorted(ptrs)))
    writer.u32(len(per_day))
    writer.strings(list(pool))
    for ordinal, ids, values, ptrs in per_day:
        writer.u64(ordinal)
        writer.u32_column(ids)
        writer.u32_column(values)
        writer.strings(ptrs)
    return writer.getvalue()


def unpack_day_chunk(view: memoryview) -> List[Tuple[int, Dict[str, int], Set[str]]]:
    reader = _Reader(view)
    day_count = reader.u32()
    pool = reader.strings()
    results = []
    for _ in range(day_count):
        ordinal = reader.u64()
        ids = reader.u32_list()
        values = reader.u32_list()
        if len(ids) != len(values):
            raise ValueError("day chunk id/count columns disagree")
        counts = {pool[code]: value for code, value in zip(ids, values)}
        ptrs = set(reader.strings())
        results.append((ordinal, counts, ptrs))
    return results


# -- record chunks (full per-day record sampling) ----------------------------


def pack_record_chunk(results: Sequence[Tuple[int, List[Tuple[int, str]]]]) -> bytes:
    """Pack ``(ordinal, [(address_int, hostname), ...])`` day results."""
    writer = _Writer()
    writer.u32(len(results))
    for ordinal, records in results:
        writer.u64(ordinal)
        writer.u32_column([address for address, _ in records])
        writer.strings([hostname for _, hostname in records])
    return writer.getvalue()


def unpack_record_chunk(view: memoryview) -> List[Tuple[int, List[Tuple[int, str]]]]:
    reader = _Reader(view)
    results = []
    for _ in range(reader.u32()):
        ordinal = reader.u64()
        addresses = reader.u32_list()
        hostnames = reader.strings()
        if len(addresses) != len(hostnames):
            raise ValueError("record chunk address/hostname columns disagree")
        results.append((ordinal, list(zip(addresses, hostnames))))
    return results


# -- observation columns (campaign fan-out) ----------------------------------


def pack_icmp_columns(columns) -> bytes:
    """Flatten an :class:`~repro.scan.storage.IcmpColumns` store."""
    writer = _Writer()
    writer.typed_column(columns._addresses)
    writer.typed_column(columns._ats)
    writer.typed_column(columns._network_ids)
    writer.strings(columns._networks.values)
    return writer.getvalue()


def unpack_icmp_columns(view: memoryview):
    from repro.scan.storage import IcmpColumns, _Interner

    reader = _Reader(view)
    columns = IcmpColumns()
    columns._addresses = reader.typed_column()
    columns._ats = reader.typed_column()
    columns._network_ids = reader.typed_column()
    columns._networks = _Interner(reader.strings())
    return columns


def pack_rdns_columns(columns) -> bytes:
    """Flatten an :class:`~repro.scan.storage.RdnsColumns` store.

    Status ids travel raw: worker and parent run the same interpreter
    image, so the enum table is identical on both sides (the JSON
    payload path keeps the value-remapping defence for at-rest data).
    """
    writer = _Writer()
    writer.typed_column(columns._addresses)
    writer.typed_column(columns._ats)
    writer.typed_column(columns._status_ids)
    writer.typed_column(columns._hostname_ids)
    writer.typed_column(columns._network_ids)
    writer.strings(columns._hostnames.values)
    writer.strings(columns._networks.values)
    return writer.getvalue()


def pack_campaign_batch(column_pairs) -> bytes:
    """One blob for a block of network results: ``[(icmp, rdns), ...]`` in order."""
    writer = _Writer()
    pairs = list(column_pairs)
    writer.u32(len(pairs))
    for icmp, rdns in pairs:
        writer.raw(pack_icmp_columns(icmp))
        writer.raw(pack_rdns_columns(rdns))
    return writer.getvalue()


def unpack_campaign_batch(view: memoryview):
    reader = _Reader(view)
    return [
        (unpack_icmp_columns(reader.raw()), unpack_rdns_columns(reader.raw()))
        for _ in range(reader.u32())
    ]


def unpack_rdns_columns(view: memoryview):
    from repro.scan.storage import RdnsColumns, _Interner

    reader = _Reader(view)
    columns = RdnsColumns()
    columns._addresses = reader.typed_column()
    columns._ats = reader.typed_column()
    columns._status_ids = reader.typed_column()
    columns._hostname_ids = reader.typed_column()
    columns._network_ids = reader.typed_column()
    columns._hostnames = _Interner(reader.strings())
    columns._networks = _Interner(reader.strings())
    return columns
