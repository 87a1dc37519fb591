"""The snapshot store behind the query service.

:class:`SnapshotRepository` holds the collected
:class:`~repro.scan.snapshot.SnapshotSeries` and owns what the series
itself does not: the optional on-disk blockfile mirror of its count
matrix, the cadence's next expected day, and the two append paths of
the incremental-ingest contract.  Services read the series directly
through :attr:`SnapshotRepository.series`.
"""

from __future__ import annotations

import datetime as dt
import ipaddress
from pathlib import Path
from typing import List, Mapping, Optional, Union

from repro.netsim.network import slash24_of
from repro.scan.blockfile import BlockFileReader, append_day_records, write_blockfile
from repro.scan.snapshot import SnapshotSeries


def normalise_slash24(text: str) -> str:
    """Canonicalise a client-supplied prefix to the '/24 key' form.

    Accepts ``192.0.2.0``, ``192.0.2.0/24`` (also percent-encoded as
    ``192.0.2.0%2F24`` once the HTTP layer has decoded it) and any
    address inside the /24; raises :class:`ValueError` otherwise
    (IPv6 text included: the store keys IPv4 /24s only).
    """
    candidate = text.strip()
    if "/" in candidate:
        network = ipaddress.IPv4Network(candidate, strict=False)
        if network.prefixlen != 24:
            raise ValueError(f"{text!r} is not a /24 prefix")
        return str(network)
    return slash24_of(candidate)


class SnapshotRepository:
    """Read/append access to the collected snapshot series.

    The series' columnar internals (prefix table + count matrix) back
    every read; appends go through the series' own cadence-validated
    ingest, so the repository can never hold an irregular window.

    With ``blockfile_path`` set, the series is re-homed onto an on-disk
    blockfile (:mod:`repro.scan.blockfile`): the matrix is written once
    at boot, mapped read-only, and every count read is a zero-copy view
    into the map instead of heap arrays.  Appends then extend the file
    — new day records land at EOF (:func:`append_day_records`), the old
    records are never rewritten — and the repository remaps to pick the
    new segment up.  Reads are byte-identical to the in-memory mode.
    """

    def __init__(
        self,
        series: SnapshotSeries,
        *,
        blockfile_path: Optional[Union[str, Path]] = None,
    ):
        self._series = series
        self._blockfile_path: Optional[Path] = None
        self._reader: Optional[BlockFileReader] = None
        if blockfile_path is not None:
            self._attach_blockfile(Path(blockfile_path))

    def _attach_blockfile(self, path: Path) -> None:
        """Write the series' matrix to ``path`` and serve reads from it."""
        write_blockfile(path, *self._series.blockfile_parts())
        self._blockfile_path = path
        self._remap()

    def _remap(self) -> None:
        """(Re-)open the blockfile and swap the series onto its views.

        The old mapping is closed only after the new one is live;
        day-count views created from here on read the appended segment.
        """
        assert self._blockfile_path is not None
        reader = BlockFileReader.open(self._blockfile_path)
        self._series._matrix = reader.count_matrix()
        previous, self._reader = self._reader, reader
        if previous is not None:
            previous.close()

    def _append_blockfile(self, day: dt.date) -> None:
        """Append ``day``'s freshly ingested column as an EOF segment."""
        if self._blockfile_path is None:
            return
        matrix = self._series.count_matrix()
        index = self._series.days.index(day)
        known = len(self._reader.prefixes) if self._reader is not None else 0
        append_day_records(
            self._blockfile_path,
            matrix.prefixes.values[known:],
            day.toordinal(),
            matrix.column(index),
            matrix.day_total(index),
        )
        self._remap()

    @property
    def blockfile_path(self) -> Optional[Path]:
        """The backing blockfile, or ``None`` in in-memory mode."""
        return self._blockfile_path

    @property
    def series(self) -> SnapshotSeries:
        """The wrapped series (shared; treat as read-only outside appends)."""
        return self._series

    @property
    def next_day(self) -> Optional[dt.date]:
        """The only date the cadence contract will accept next."""
        days = self._series.days
        if not days:
            return None
        return days[-1] + dt.timedelta(days=self._series.cadence_days)

    def history(self, prefix: str) -> Optional[List[int]]:
        """One /24's per-day count history, or ``None`` if never seen."""
        prefix_id = self._series.prefix_table().get(prefix)
        if prefix_id is None:
            return None
        return self._series.count_matrix().row(prefix_id)

    # -- appends (the incremental-ingest contract) ----------------------------

    def append_derived_day(self, day: dt.date) -> Mapping[str, int]:
        """Derive ``day`` (counts and records) from the simulated world and append it.

        Returns the appended day's counts (the no-copy columnar view),
        which the caller folds into the incremental analyzer.
        """
        self._series._collect_day(day)
        self._append_blockfile(day)
        return self._series.counts_view(day)

    def append_counts(self, day: dt.date, counts: Mapping[str, int]) -> Mapping[str, int]:
        """Append an externally supplied count column for ``day``.

        The day carries no records: reads derive them from the world.
        """
        self._series._ingest_day(day, dict(counts), None)
        self._append_blockfile(day)
        return self._series.counts_view(day)

