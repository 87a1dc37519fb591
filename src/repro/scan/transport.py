"""Shared-memory hand-off of pool-worker results.

A pool worker flattens its results into one ``.rbf`` byte string
(:mod:`repro.scan.blockfile`, the same codec as the cache sidecars),
publishes it out-of-band, and returns only a tiny :class:`BlobHandle`.
The parent parses the blob in place — a
:class:`~repro.scan.blockfile.BlockFileReader` over the mapped buffer —
so only the objects the parser materialises land in its heap, with the
worker's order preserved exactly.  This replaced pickling per-day
dicts and whole observation column objects, whose serialize-merge tax
at shard scale exceeded the work being parallelised
(``BENCH_shards.json`` recorded 0.74x "speedup" at 4 workers).

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

import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

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
    The parser must not return views into the buffer: the segment is
    closed as soon as it returns.
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
        except BaseException as error:
            # A failed parser's frames still hold its views into the
            # segment; drop them so the segment can close and the
            # parser's own error propagates.
            traceback.clear_frames(error.__traceback__)
            raise
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
