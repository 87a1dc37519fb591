"""Binary, mmap-able columnar container: the one codec for column data.

Every column-shaped data set crosses process and disk boundaries in
this format (dataset format v6): snapshot cache sidecars, campaign
cache sidecars, and the result blobs pool workers hand back through
shared memory (:mod:`repro.scan.transport`).  Counts, per-day PTR
records and campaign observations live on disk exactly as the
little-endian words the in-memory columns hold, padded to 64-byte
boundaries, so a warm read is ``mmap`` (or a shared-memory view) plus
``numpy.frombuffer`` — memory bandwidth, not parse speed.

On-disk layout (all integers little-endian)::

    FILE HEADER (64 bytes)
      0   magic           4s   b"RBF1"
      4   format_version  u16  currently 1
      6   flags           u16  reserved, 0
      8   alignment       u16  64
      10  reserved        u16  0
      12  reserved        u32  0
      16  record_count    u64  advisory; readers scan to EOF
      24  reserved        32x  zero
      56  header_crc32    u32  crc32 of bytes [0, 56)
      60  reserved        u32  0

    RECORD (header 64 bytes, 64-byte aligned, body immediately after)
      0   magic           4s   b"RBRC"
      4   record_type     u16  1 = PREFIXES, 2 = DAY, 3 = PTRS, 4 = RECORDS,
                               5 = ICMP, 6 = RDNS
      6   reserved        u16  0
      8   body_length     u64  exact body bytes (pre-padding)
      16  body_crc32      u32  crc32 of the body bytes
      20  reserved        u32  0
      24  aux1            u64  PREFIXES/PTRS: string count · DAY/RECORDS: day ordinal
                               · ICMP/RDNS: observation count
      32  aux2            u64  PREFIXES/PTRS: 0 · DAY: element count · RECORDS: record
                               count · ICMP/RDNS: network count
      40  aux3            u64  PREFIXES/PTRS/RECORDS/ICMP: 0 · DAY: column total
                               · RDNS: hostname count
      48  reserved        8x   zero
      56  header_crc32    u32  crc32 of record header bytes [0, 56)
      60  reserved        u32  0
      <body, zero-padded to the next 64-byte boundary>

A ``PREFIXES`` record appends newline-joined UTF-8 prefix strings to
the interned prefix table (first-seen order, the determinism anchor
shared with :class:`~repro.scan.storage.PrefixTable`).  A ``DAY``
record's body is the raw ``<u4`` count column for one day; its length
may trail the prefix table (ragged columns, exactly as in memory).
A ``PTRS`` record carries the series' PTR name pool (newline-joined
UTF-8) in pool order: the order the names were first seen in the
collection walk, so a name's position is its id.  A ``RECORDS``
record holds one day's PTR records: ``aux2`` ``<u4`` addresses in the
collection walk's order (duplicates kept), then as many ``<u4`` ids
into the PTRS pool.  PTRS and RECORDS bodies are *lazy*: :meth:`_scan`
only notes their spans (plus one ``max`` over each id column, so an
id outside the pool fails at open), and nothing is decoded until
:meth:`BlockFileReader.ptr_names` or
:meth:`BlockFileReader.day_records` is called — warm count reads never
pay for records or name parsing, while
:attr:`BlockFileReader.unique_ptr_count` (from ``aux1``) stays O(1).

``ICMP`` and ``RDNS`` records carry one campaign observation stream
each (:class:`~repro.scan.storage.IcmpColumns`,
:class:`~repro.scan.storage.RdnsColumns`) and always come in
(ICMP, RDNS) pairs, one per network in a worker result and one for the
merged dataset in a campaign sidecar.  An ICMP body is ``<i8``
timestamps, ``<u4`` addresses and ``<u2`` network ids, then the
network pool; an RDNS body is ``<i8`` timestamps, ``<u4`` addresses,
``<u4`` hostname ids, ``<u2`` network ids and ``u1`` status ids, then
the network pool, the hostname pool and the status table *by value*
(so a reordered :class:`~repro.dns.resolver.ResolutionStatus` cannot
corrupt a stored stream), all in one newline-joined UTF-8 block.  These
bodies are always read whole, so :meth:`_scan` checks their CRC, their
string counts and every id column's range at open.

No string may contain a newline: :func:`encode_records` raises
``ValueError`` naming the table rather than write a file that fails
only when it is opened.

Appending a day is "write new records at EOF": record headers carry
their own CRC, so a reader that mapped the shorter file is untouched
and a torn append is detected (and truncated away by
:meth:`BlockFileReader.open` in repair mode or reported by
``repro cache verify``).

Zero-copy views come from ``numpy.frombuffer`` over the mapping.  Both
directions name the little-endian dtypes explicitly, so the bytes are
the same on any host.
"""
from __future__ import annotations

import io
import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dns.resolver import ResolutionStatus

from .storage import _STATUS_INDEX, _STATUSES, CountMatrix, IcmpColumns, RdnsColumns, _Interner

MAGIC = b"RBF1"
RECORD_MAGIC = b"RBRC"
BLOCKFILE_VERSION = 1
ALIGNMENT = 64
HEADER_SIZE = 64
RECORD_HEADER_SIZE = 64

RECORD_PREFIXES = 1
RECORD_DAY = 2
RECORD_PTRS = 3
RECORD_RECORDS = 4
RECORD_ICMP = 5
RECORD_RDNS = 6

#: How :meth:`BlockFileReader.verify` names each record type.
_KIND = {
    RECORD_PREFIXES: "prefix table",
    RECORD_DAY: "day column",
    RECORD_PTRS: "ptr table",
    RECORD_RECORDS: "record columns",
    RECORD_ICMP: "ICMP columns",
    RECORD_RDNS: "rDNS columns",
}

#: Each observation record's columns in body order: (dtype, store attribute).
#: Widest first, so every column starts naturally aligned.
_OBSERVATION_COLUMNS = {
    RECORD_ICMP: (("<i8", "_ats"), ("<u4", "_addresses"), ("<u2", "_network_ids")),
    RECORD_RDNS: (
        ("<i8", "_ats"),
        ("<u4", "_addresses"),
        ("<u4", "_hostname_ids"),
        ("<u2", "_network_ids"),
        ("u1", "_status_ids"),
    ),
}
_OBSERVATION_WIDTH = {
    rtype: sum(np.dtype(dtype).itemsize for dtype, _ in layout)
    for rtype, layout in _OBSERVATION_COLUMNS.items()
}

_HEADER = struct.Struct("<4sHHHHIQ32xI4x")
_RECORD = struct.Struct("<4sHHQIIQQQ8xI4x")

#: File suffix used by the snapshot cache for its sidecar blockfiles.
SUFFIX = ".rbf"


class BlockFileError(ValueError):
    """A structurally invalid, truncated, or corrupt blockfile."""


def _pad(length: int) -> int:
    """Bytes of zero padding after ``length`` to reach the next boundary."""
    return (-length) % ALIGNMENT


def _pack_header(record_count: int) -> bytes:
    head = _HEADER.pack(
        MAGIC, BLOCKFILE_VERSION, 0, ALIGNMENT, 0, 0, record_count, 0
    )
    crc = zlib.crc32(head[:56])
    return head[:56] + struct.pack("<I4x", crc)


def _pack_record_header(
    record_type: int, body: bytes, aux1: int, aux2: int, aux3: int
) -> bytes:
    head = _RECORD.pack(
        RECORD_MAGIC,
        record_type,
        0,
        len(body),
        zlib.crc32(body),
        0,
        aux1,
        aux2,
        aux3,
        0,
    )
    crc = zlib.crc32(head[:56])
    return head[:56] + struct.pack("<I4x", crc)


def _column_bytes(column: Sequence[int]) -> bytes:
    """A count column as raw little-endian ``u4`` words."""
    return np.asarray(column, dtype="<u4").tobytes()


def _text(strings: Sequence[str], table: str) -> bytes:
    """A string table as newline-joined UTF-8; no value may hold a newline."""
    text = "\n".join(strings)
    if text.count("\n") != max(len(strings) - 1, 0):
        raise ValueError(f"{table}: a string contains a newline")
    return text.encode("utf-8")


def _write_record(
    out: io.BytesIO, record_type: int, body: bytes, aux1: int, aux2: int, aux3: int
) -> None:
    out.write(_pack_record_header(record_type, body, aux1, aux2, aux3))
    out.write(body)
    out.write(b"\0" * _pad(len(body)))


def _write_observations(out: io.BytesIO, record_type: int, store) -> None:
    """One ICMP or RDNS record for an observation column store."""
    parts = [
        np.asarray(getattr(store, attribute), dtype=dtype).tobytes()
        for dtype, attribute in _OBSERVATION_COLUMNS[record_type]
    ]
    strings = list(store._networks.values)
    hostnames = 0
    if record_type == RECORD_RDNS:
        hostnames = len(store._hostnames.values)
        strings += store._hostnames.values + [status.value for status in _STATUSES]
    parts.append(_text(strings, f"{_KIND[record_type]} string pools"))
    _write_record(
        out, record_type, b"".join(parts), len(store), len(store._networks.values), hostnames
    )


def encode_records(
    prefixes: Sequence[str] = (),
    days: Sequence[int] = (),
    columns: Sequence[Sequence[int]] = (),
    totals: Sequence[int] = (),
    ptrs: Optional[Sequence[str]] = None,
    records: Sequence[Tuple[int, Sequence[int], Sequence[int]]] = (),
    observations: Sequence[Tuple[IcmpColumns, RdnsColumns]] = (),
) -> bytes:
    """The full blockfile byte string (header + records).

    ``prefixes``/``days``/``columns``/``totals`` are a count matrix;
    ``ptrs`` is the PTR name pool in id order; ``records`` holds
    ``(ordinal, addresses, ptr_ids)`` per day that has record columns;
    ``observations`` holds ``(icmp, rdns)`` campaign streams, written
    as ICMP/RDNS record pairs in order.  Raises ``ValueError`` naming
    the table if any string contains a newline.
    """
    if len(days) != len(columns) or len(days) != len(totals):
        raise ValueError("days, columns and totals must be parallel sequences")
    out = io.BytesIO()
    record_count = (
        (1 if prefixes else 0) + (1 if ptrs else 0) + len(days) + len(records)
        + 2 * len(observations)
    )
    out.write(_pack_header(record_count))
    if prefixes:
        _write_record(out, RECORD_PREFIXES, _text(prefixes, "prefix table"), len(prefixes), 0, 0)
    if ptrs:
        _write_record(out, RECORD_PTRS, _text(ptrs, "ptr table"), len(ptrs), 0, 0)
    for ordinal, column, total in zip(days, columns, totals):
        body = _column_bytes(column)
        _write_record(out, RECORD_DAY, body, int(ordinal), len(column), int(total))
    for ordinal, addresses, ptr_ids in records:
        if len(addresses) != len(ptr_ids):
            raise ValueError("record address and id columns must be parallel")
        body = _column_bytes(addresses) + _column_bytes(ptr_ids)
        _write_record(out, RECORD_RECORDS, body, int(ordinal), len(addresses), 0)
    for icmp, rdns in observations:
        _write_observations(out, RECORD_ICMP, icmp)
        _write_observations(out, RECORD_RDNS, rdns)
    return out.getvalue()


def write_blockfile(
    path: Union[str, Path],
    prefixes: Sequence[str],
    days: Sequence[int],
    columns: Sequence[Sequence[int]],
    totals: Sequence[int],
    ptrs: Optional[Sequence[str]] = None,
) -> int:
    """Atomically write a blockfile; returns the byte size written.

    The write goes to ``<path>.tmp`` and is published with
    ``os.replace`` — racing writers each publish a complete file and
    the last rename wins, exactly like the cache entries.
    """
    target = Path(path)
    blob = encode_records(prefixes, days, columns, totals, ptrs)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, target)
    return len(blob)


def append_day_records(
    path: Union[str, Path],
    new_prefixes: Sequence[str],
    ordinal: int,
    column: Sequence[int],
    total: int,
) -> int:
    """Append one day (and any newly interned prefixes) at EOF.

    Returns the bytes appended.  Existing records are never rewritten,
    so readers holding a mapping of the shorter file are unaffected.
    """
    out = io.BytesIO()
    if new_prefixes:
        body = _text(new_prefixes, "prefix table")
        _write_record(out, RECORD_PREFIXES, body, len(new_prefixes), 0, 0)
    body = _column_bytes(column)
    _write_record(out, RECORD_DAY, body, int(ordinal), len(column), int(total))
    blob = out.getvalue()
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() % ALIGNMENT:
            raise BlockFileError(
                f"{path}: size {handle.tell()} is not {ALIGNMENT}-byte aligned; "
                "refusing to append to a torn file"
            )
        handle.write(blob)
        handle.flush()
    return len(blob)


def _u32_view(buffer, offset: int, count: int):
    """A zero-copy little-endian ``u32`` view into a buffer."""
    return np.frombuffer(buffer, dtype="<u4", count=count, offset=offset)


class BlockFileReader:
    """A validated, read-only view over one blockfile.

    ``prefixes``, ``days``, ``totals`` are plain Python lists; each
    entry of ``columns`` is a zero-copy ``u32`` NumPy view into the
    mapping, and so are the record columns :meth:`day_records` hands
    out.  The reader object keeps the mapping alive; views taken
    from it remain valid for its lifetime (and, because
    ``numpy.frombuffer`` holds a reference to its buffer, beyond it).
    :meth:`open` maps a file; :meth:`from_buffer` parses bytes already
    in memory, such as a pool worker's result in shared memory.
    """

    def __init__(
        self,
        path: Union[Path, str],
        buffer,
        mapping: Optional[mmap.mmap],
        handle: Optional[BinaryIO],
    ):
        self.path = path
        self._buffer = buffer
        self._mmap = mapping
        self._handle = handle
        self.prefixes: List[str] = []
        self.days: List[int] = []
        self.totals: List[int] = []
        self.columns: List[Sequence[int]] = []
        #: PTR-record spans, decoded lazily: (body_offset, body_len, count)
        self._ptr_spans: List[Tuple[int, int, int]] = []
        #: RECORDS spans by day ordinal: (body_offset, record count)
        self._record_spans: Dict[int, Tuple[int, int]] = {}
        #: ICMP/RDNS records in file order: (record_type, body_offset,
        #: body_len, observations, networks, hostnames)
        self._observation_spans: List[Tuple[int, int, int, int, int, int]] = []
        #: (record_type, header_offset, body_offset, body_length, body_crc)
        self._records: List[Tuple[int, int, int, int, int]] = []
        self._scan()

    # -- construction --------------------------------------------------

    @classmethod
    def open(cls, path: Union[str, Path]) -> "BlockFileReader":
        """Map (or read) ``path`` and validate header + record headers.

        Body CRCs are *not* checked here — that is the cheap warm path.
        Call :meth:`verify` for a full integrity sweep.
        """
        target = Path(path)
        handle: Optional[BinaryIO] = None
        mapping: Optional[mmap.mmap] = None
        try:
            handle = open(target, "rb")
        except OSError as exc:
            raise BlockFileError(f"{target}: cannot open blockfile: {exc}") from exc
        try:
            try:
                mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                buffer = mapping
            except (ValueError, OSError):
                # Empty file or mmap-hostile filesystem: fall back.
                buffer = handle.read()
            return cls(target, buffer, mapping, handle if mapping is not None else None)
        except Exception:
            if mapping is not None:
                # A failed _scan may have exported views over the
                # mapping already; they pin it, so closing can raise.
                # The mapping is freed once the views are collected.
                try:
                    mapping.close()
                except BufferError:
                    pass
            handle.close()
            raise
        finally:
            if mapping is None and handle is not None:
                handle.close()

    @classmethod
    def from_buffer(cls, buffer) -> "BlockFileReader":
        """Parse ``buffer`` (bytes or a memoryview) in place, validated as :meth:`open` does.

        Views handed out point into ``buffer``; a caller that must
        release it (a shared-memory segment) drops the reader and every
        view first.
        """
        return cls("<buffer>", buffer, None, None)

    # -- validation ----------------------------------------------------

    def _strings(self, body, count: int, kind: str) -> List[str]:
        """Split a newline-joined UTF-8 table that declares ``count`` strings."""
        strings = bytes(body).decode("utf-8").split("\n") if body or count else []
        if len(strings) != count:
            raise BlockFileError(
                f"{self.path}: {kind} record declares {count} strings "
                f"but carries {len(strings)}"
            )
        return strings

    def _scan(self) -> None:
        buf = self._buffer
        size = len(buf)
        if size < HEADER_SIZE:
            raise BlockFileError(f"{self.path}: truncated header ({size} bytes)")
        (magic, version, _flags, alignment, _r0, _r1, _count, header_crc) = (
            _HEADER.unpack_from(buf, 0)
        )
        if magic != MAGIC:
            raise BlockFileError(f"{self.path}: bad magic {magic!r}")
        if version != BLOCKFILE_VERSION:
            raise BlockFileError(
                f"{self.path}: unsupported blockfile version {version}"
            )
        if alignment != ALIGNMENT:
            raise BlockFileError(f"{self.path}: unsupported alignment {alignment}")
        if zlib.crc32(bytes(buf[:56])) != header_crc:
            raise BlockFileError(f"{self.path}: file header checksum mismatch")
        offset = HEADER_SIZE
        while offset < size:
            if offset + RECORD_HEADER_SIZE > size:
                raise BlockFileError(
                    f"{self.path}: truncated record header at offset {offset}"
                )
            (
                rmagic,
                rtype,
                _pad0,
                body_len,
                body_crc,
                _pad1,
                aux1,
                aux2,
                aux3,
                header_crc,
            ) = _RECORD.unpack_from(buf, offset)
            if rmagic != RECORD_MAGIC:
                raise BlockFileError(
                    f"{self.path}: bad record magic at offset {offset}"
                )
            if zlib.crc32(bytes(buf[offset : offset + 56])) != header_crc:
                raise BlockFileError(
                    f"{self.path}: record header checksum mismatch at offset {offset}"
                )
            body_offset = offset + RECORD_HEADER_SIZE
            if body_offset + body_len > size:
                raise BlockFileError(
                    f"{self.path}: record body truncated at offset {offset}"
                )
            if rtype in (RECORD_PREFIXES, RECORD_ICMP, RECORD_RDNS):
                # Bodies that are always read whole are checked whole.
                if zlib.crc32(buf[body_offset : body_offset + body_len]) != body_crc:
                    raise BlockFileError(
                        f"{self.path}: {_KIND[rtype]} checksum mismatch at "
                        f"offset {offset}"
                    )
            if rtype == RECORD_PREFIXES:
                body = buf[body_offset : body_offset + body_len]
                self.prefixes.extend(self._strings(body, int(aux1), "prefix"))
            elif rtype == RECORD_DAY:
                if body_len != 4 * aux2:
                    raise BlockFileError(
                        f"{self.path}: day record at offset {offset} declares "
                        f"{aux2} elements but {body_len} body bytes"
                    )
                self.days.append(int(aux1))
                self.totals.append(int(aux3))
                self.columns.append(_u32_view(buf, body_offset, int(aux2)))
            elif rtype == RECORD_PTRS:
                # Lazy: note the span only — names are decoded on the
                # first ptr_names() call, never on the warm count path.
                self._ptr_spans.append((body_offset, int(body_len), int(aux1)))
            elif rtype == RECORD_RECORDS:
                if body_len != 8 * aux2:
                    raise BlockFileError(
                        f"{self.path}: RECORDS record at offset {offset} declares "
                        f"{aux2} records but {body_len} body bytes"
                    )
                if aux1 in self._record_spans:
                    raise BlockFileError(
                        f"{self.path}: day ordinal {aux1} has two RECORDS records"
                    )
                self._record_spans[int(aux1)] = (body_offset, int(aux2))
            elif rtype in (RECORD_ICMP, RECORD_RDNS):
                self._scan_observations(rtype, offset, body_offset, body_len, aux1, aux2, aux3)
            else:
                raise BlockFileError(
                    f"{self.path}: unknown record type {rtype} at offset {offset}"
                )
            self._records.append((rtype, offset, body_offset, body_len, body_crc))
            offset = body_offset + body_len + _pad(body_len)
        if len(self.prefixes) != len(set(self.prefixes)):
            raise BlockFileError(f"{self.path}: duplicate interned prefixes")
        width = len(self.prefixes)
        for column in self.columns:
            if len(column) > width:
                raise BlockFileError(
                    f"{self.path}: day column wider ({len(column)}) than the "
                    f"prefix table ({width})"
                )
        days = set(self.days)
        pool = self.unique_ptr_count
        for ordinal, (body_offset, count) in self._record_spans.items():
            if ordinal not in days:
                raise BlockFileError(
                    f"{self.path}: RECORDS for day ordinal {ordinal}, "
                    "which has no day record"
                )
            if count and int(_u32_view(buf, body_offset + 4 * count, count).max()) >= pool:
                raise BlockFileError(
                    f"{self.path}: RECORDS for day ordinal {ordinal} name a PTR id "
                    f"outside the {pool}-name pool"
                )
        kinds = [span[0] for span in self._observation_spans]
        if kinds != [RECORD_ICMP, RECORD_RDNS] * (len(kinds) // 2):
            raise BlockFileError(
                f"{self.path}: ICMP and RDNS records must alternate in pairs"
            )

    def _scan_observations(
        self, rtype: int, offset: int, body_offset: int, body_len: int,
        count: int, networks: int, hostnames: int,
    ) -> None:
        """Check one ICMP/RDNS record's shape, string counts and id ranges."""
        where = f"{self.path}: {_KIND[rtype]} record at offset {offset}"
        text_offset = body_offset + count * _OBSERVATION_WIDTH[rtype]
        if text_offset > body_offset + body_len:
            raise BlockFileError(
                f"{where} declares {count} observations but {body_len} body bytes"
            )
        text = bytes(self._buffer[text_offset : body_offset + body_len])
        statuses = (text.count(b"\n") + 1 if text else 0) - networks - hostnames
        # ICMP pools only networks; RDNS appends a non-empty status table.
        if statuses < 0 or bool(statuses) != (rtype == RECORD_RDNS):
            raise BlockFileError(f"{where} carries the wrong number of pooled strings")
        limits = {"_network_ids": networks, "_hostname_ids": hostnames, "_status_ids": statuses}
        for (_, attribute), column in zip(
            _OBSERVATION_COLUMNS[rtype], self._observation_views(rtype, body_offset, count)
        ):
            limit = limits.get(attribute)
            if limit is not None and count and int(column.max()) >= limit:
                raise BlockFileError(
                    f"{where} has {attribute.strip('_')} outside its {limit}-string table"
                )
        self._observation_spans.append(
            (rtype, body_offset, body_len, count, networks, hostnames)
        )

    def _observation_views(self, rtype: int, body_offset: int, count: int) -> List[np.ndarray]:
        """Zero-copy views of one ICMP/RDNS record's columns, in body order."""
        views = []
        for dtype, _ in _OBSERVATION_COLUMNS[rtype]:
            views.append(np.frombuffer(self._buffer, dtype=dtype, count=count, offset=body_offset))
            body_offset += count * np.dtype(dtype).itemsize
        return views

    def verify(self) -> int:
        """Check every body CRC; returns the record count on success."""
        buf = self._buffer
        for rtype, offset, body_offset, body_len, body_crc in self._records:
            body = bytes(buf[body_offset : body_offset + body_len])
            if zlib.crc32(body) != body_crc:
                raise BlockFileError(
                    f"{self.path}: {_KIND[rtype]} body checksum mismatch at offset {offset}"
                )
        return len(self._records)

    # -- accessors -----------------------------------------------------

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def unique_ptr_count(self) -> int:
        """Total PTR names across PTRS records — O(1), no body decode."""
        return sum(count for _, _, count in self._ptr_spans)

    def ptr_names(self) -> List[str]:
        """Decode the PTRS record bodies into the name pool, in id order."""
        names: List[str] = []
        for body_offset, body_len, count in self._ptr_spans:
            body = self._buffer[body_offset : body_offset + body_len]
            names.extend(self._strings(body, count, "ptr"))
        return names

    def day_records(self, ordinal: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """One day's ``(addresses, ptr_ids)`` as zero-copy ``u32`` views.

        ``None`` when the file holds no RECORDS record for ``ordinal``.
        """
        span = self._record_spans.get(ordinal)
        if span is None:
            return None
        body_offset, count = span
        return (
            _u32_view(self._buffer, body_offset, count),
            _u32_view(self._buffer, body_offset + 4 * count, count),
        )

    def observation_columns(self) -> List[Tuple[IcmpColumns, RdnsColumns]]:
        """The ICMP/RDNS record pairs as ``(IcmpColumns, RdnsColumns)``, in file order.

        Columns are copied out of the buffer into the stores' own
        arrays, so nothing returned pins it.  Status ids are re-mapped
        through the stored status table by value.
        """
        streams = []
        for rtype, body_offset, body_len, count, networks, hostnames in self._observation_spans:
            text_offset = body_offset + count * _OBSERVATION_WIDTH[rtype]
            text = bytes(self._buffer[text_offset : body_offset + body_len]).decode("utf-8")
            strings = text.split("\n") if text else []
            store = IcmpColumns() if rtype == RECORD_ICMP else RdnsColumns()
            store._networks = _Interner(strings[:networks])
            views = self._observation_views(rtype, body_offset, count)
            if rtype == RECORD_RDNS:
                store._hostnames = _Interner(strings[networks : networks + hostnames])
                try:
                    table = [ResolutionStatus(value) for value in strings[networks + hostnames :]]
                except ValueError as error:
                    raise BlockFileError(f"{self.path}: {error}") from None
                remap = np.array([_STATUS_INDEX[status] for status in table], dtype=np.uint8)
                views[-1] = remap[views[-1]]
            for (_, attribute), view in zip(_OBSERVATION_COLUMNS[rtype], views):
                column = getattr(store, attribute)
                column.frombytes(view.astype(column.typecode, copy=False).tobytes())
            streams.append(store)
        return list(zip(streams[0::2], streams[1::2]))

    def count_matrix(self):
        """The file's contents as a view-backed ``CountMatrix``.

        The matrix holds a reference to this reader, keeping the
        mapping alive for as long as any view column is reachable.
        """
        return CountMatrix.from_columns(
            self.prefixes, self.columns, self.totals, source=self
        )

    def close(self) -> None:
        """Release the mapping (views taken earlier keep it alive)."""
        if self._mmap is not None:
            # Views exported from the mmap pin it; closing would raise
            # BufferError while any are alive, so only close when free.
            try:
                self._mmap.close()
            except BufferError:
                pass
            self._mmap = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "BlockFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
