"""Data access for the query service: stores behind repositories.

Following the MAAS service-layer split, repositories are the only
layer that touches storage: :class:`SnapshotRepository` wraps the
collected :class:`~repro.scan.snapshot.SnapshotSeries` (and through it
the columnar :class:`~repro.scan.storage.CountMatrix`), and
:class:`CampaignRepository` wraps the supplemental campaign behind a
:class:`~repro.scan.cache.CampaignCache` so hourly-occupancy queries
replay a previously measured dataset instead of re-simulating it.

Services (:mod:`repro.serve.services`) depend on these classes, never
on the stores directly; handlers (:mod:`repro.serve.app`) depend on
services only.
"""

from __future__ import annotations

import datetime as dt
import ipaddress
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.netsim.internet import World
from repro.netsim.network import slash24_of
from repro.netsim.worldplan import WorldPlan
from repro.scan.blockfile import BlockFileReader, append_day_records, write_blockfile
from repro.scan.cache import CampaignCache
from repro.scan.campaign import SupplementalCampaign, SupplementalDataset
from repro.scan.snapshot import SnapshotSeries
from repro.scan.storage import CountMatrix, PrefixTable


def normalise_slash24(text: str) -> str:
    """Canonicalise a client-supplied prefix to the '/24 key' form.

    Accepts ``192.0.2.0``, ``192.0.2.0/24`` (also percent-encoded as
    ``192.0.2.0%2F24`` once the HTTP layer has decoded it) and any
    address inside the /24; raises :class:`ValueError` otherwise.
    """
    candidate = text.strip()
    if "/" in candidate:
        network = ipaddress.ip_network(candidate, strict=False)
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

    # -- window ---------------------------------------------------------------

    @property
    def series(self) -> SnapshotSeries:
        """The wrapped series (shared; treat as read-only outside appends)."""
        return self._series

    @property
    def days(self) -> List[dt.date]:
        return self._series.days

    @property
    def day_count(self) -> int:
        return len(self._series)

    @property
    def cadence_days(self) -> int:
        return self._series.cadence_days

    @property
    def next_day(self) -> Optional[dt.date]:
        """The only date the cadence contract will accept next."""
        days = self._series.days
        if not days:
            return None
        return days[-1] + dt.timedelta(days=self._series.cadence_days)

    # -- columnar reads -------------------------------------------------------

    def prefix_table(self) -> PrefixTable:
        return self._series.prefix_table()

    def matrix(self) -> CountMatrix:
        return self._series.count_matrix()

    def history(self, prefix: str) -> Optional[List[int]]:
        """One /24's per-day count history, or ``None`` if never seen."""
        prefix_id = self._series.prefix_table().get(prefix)
        if prefix_id is None:
            return None
        return self._series.count_matrix().row(prefix_id)

    def counts_view(self, day: dt.date) -> Mapping[str, int]:
        return self._series.counts_view(day)

    def daily_totals(self) -> Dict[dt.date, int]:
        return self._series.daily_totals()

    def records_on(self, day: dt.date) -> Iterator[Tuple[object, str]]:
        return self._series.records_on(day)

    def stats(self):
        return self._series.stats()

    # -- appends (the incremental-ingest contract) ----------------------------

    def append_derived_day(self, day: dt.date) -> Mapping[str, int]:
        """Derive ``day`` from the simulated world and append it.

        Returns the appended day's counts (the no-copy columnar view),
        which the caller folds into the incremental analyzer.
        """
        self._series._collect_day(day)
        self._append_blockfile(day)
        return self._series.counts_view(day)

    def append_counts(
        self, day: dt.date, counts: Mapping[str, int], ptrs: Optional[Set[str]] = None
    ) -> Mapping[str, int]:
        """Append an externally supplied count column for ``day``."""
        self._series._ingest_day(day, dict(counts), set(ptrs or ()))
        self._append_blockfile(day)
        return self._series.counts_view(day)


class CampaignRepository:
    """Lazy access to the supplemental campaign dataset.

    ``world`` is a built world or a
    :class:`~repro.netsim.worldplan.WorldPlan` (measured in ``shards``
    blocks, so the serve process never builds it whole).  The dataset
    is only materialised when an hourly-occupancy query needs it; a
    :class:`~repro.scan.cache.CampaignCache` (when given)
    makes that a replay rather than a re-simulation.  ``last_outcome``
    records whether the materialisation hit the cache, for the
    service layer's cache counters.
    """

    def __init__(
        self,
        world: Union[World, WorldPlan],
        *,
        start: dt.date,
        end: dt.date,
        networks: Optional[Sequence[str]] = None,
        cache: Optional[CampaignCache] = None,
        fault_plan=None,
        shards: int = 1,
        obs=None,
    ):
        self._start = start
        self._end = end
        self._networks = list(networks) if networks is not None else None
        self._cache = cache
        fault_kwargs = {"fault_plan": fault_plan} if fault_plan is not None else {}
        self._campaign = SupplementalCampaign(
            world, networks=self._networks, shards=shards, obs=obs, **fault_kwargs
        )
        self._dataset: Optional[SupplementalDataset] = None
        #: "hit" / "miss" / "memo" after :meth:`dataset`; None before.
        self.last_outcome: Optional[str] = None

    @property
    def window(self) -> Tuple[dt.date, dt.date]:
        return (self._start, self._end)

    def dataset(self) -> SupplementalDataset:
        if self._dataset is not None:
            self.last_outcome = "memo"
            return self._dataset
        self._dataset = self._campaign.run(self._start, self._end, cache=self._cache)
        metrics = self._campaign.last_metrics
        self.last_outcome = (
            "hit" if metrics is not None and metrics.cache_hit else "miss"
        )
        return self._dataset

    def networks(self) -> List[str]:
        """The networks the campaign measures (for 404 detail)."""
        if self._networks is not None:
            return list(self._networks)
        return sorted(self._campaign.network_names)
