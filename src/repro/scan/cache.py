"""On-disk caches for collected snapshot series and campaign datasets.

Repeated studies and the benchmark harness re-simulate the same
windows over and over; the caches make each simulation a one-time cost
across processes and sessions.

Layout: every entry is a *pair* of files under the cache root, named
by a SHA-256 **key** over everything that determines the entry's
content: a ``<key>.json`` metadata document and the ``<key>.rbf``
sidecar blockfile (:mod:`repro.scan.blockfile`) it names, which holds
the columns.  Both caches share the pair mechanics
(:class:`_PairCache`): the sidecar is written before the document, a
load validates the sidecar, and a bad half drops both.  For snapshot
series (:class:`SnapshotCache`):

* the world fingerprint (:meth:`repro.netsim.internet.Internet.cache_token`
  — covers the seed, scale and every network/subnet spec),
* the collector name and network restriction,
* the half-open ``[start, end)`` window,
* the cadence and snapshot ``at_offset``,
* the cache *key* format version (:data:`FORMAT_VERSION`).

Key versioning is deliberately separate from payload versioning
(:data:`repro.scan.storage.DATASET_FORMAT_VERSION`).  The key names
*what* was computed; the payload version names the *format* it was
stored in, and :func:`is_current` — used only by this module's loaders
and the ``repro cache`` tools — is the single place that judges it.  A
stored payload of any other version is a miss: the entry is dropped
(both halves of the pair) and the caller recomputes and rewrites
it in the current format.  Entries are rebuildable local artefacts, so
no older format is decoded or migrated.  Bumping :data:`FORMAT_VERSION`
instead changes every key and orphans every existing entry.

For supplemental campaign datasets (:class:`CampaignCache`): the world
fingerprint, the network list, the window, the reactive backoff
schedule (steps and tail), the sweep interval, the rDNS rate limit and
the blocklist.

Changing any of these (a different seed, a widened window, a new
schedule) therefore *misses* and re-simulates — stale reuse is
impossible by construction.  Explicit invalidation is still available
via :meth:`invalidate` and :meth:`clear` (or the CLI's
``--clear-snapshot-cache`` / ``--clear-campaign-cache``).

Default roots live under ``~/.cache/repro-rdns/`` (``snapshots`` and
``campaigns``); the constructor argument overrides them.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Callable, List, Optional, Sequence, Tuple

from repro.scan.blockfile import BlockFileError, BlockFileReader
from repro.scan.storage import DATASET_FORMAT_VERSION

#: Version of the cache *key* material.  Bump only when the keying
#: scheme itself changes (every old entry then misses).  Payload schema
#: changes are versioned inside the payload
#: (:data:`repro.scan.storage.DATASET_FORMAT_VERSION`, see
#: :func:`is_current`).
FORMAT_VERSION = 1

def _default_root(name: str) -> pathlib.Path:
    return pathlib.Path.home() / ".cache" / "repro-rdns" / name


def is_current(payload) -> bool:
    """Whether a stored payload is in the format this code writes."""
    return isinstance(payload, dict) and payload.get("version") == DATASET_FORMAT_VERSION


class _PairCache:
    """Shared mechanics: a ``<key>.json`` document plus its ``<key>.rbf`` sidecar.

    :meth:`store` writes the sidecar first and the document last — the
    document's rename is the commit point, so a torn writer can only
    leave an unreferenced sidecar behind, never a referenced-but-missing
    one.  :meth:`load` validates the sidecar and repairs the whole
    entry if either half is corrupt or missing.
    """

    def __init__(self, root: pathlib.Path):
        self.root = root
        #: Traffic counters for the observability layer.  They describe
        #: *this process's* cache usage (hits/misses/stores) plus the
        #: corrupt entries it repaired, so they belong in the run
        #: manifest's ``timings.execution`` section — equivalent runs
        #: legitimately differ here (a warm run hits, a cold run
        #: misses).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_entries = 0
        #: ``*.tmp`` files unlinked after a failed store — non-zero
        #: means a serialisation or rename raised mid-write and the
        #: partial file was cleaned up rather than leaked.
        self.tmp_cleanups = 0

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def blockfile_path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.rbf"

    # -- access --------------------------------------------------------------

    def load(self, key: str) -> Optional[dict]:
        """The stored document with its sidecar open, or ``None`` on a miss.

        The sidecar is opened once, here: its header, every record
        header and the record columns' structure are checked, and so
        are the CRCs of the bodies that are always decoded whole
        (prefix tables and campaign observations).  Count and record
        bodies are not hashed — that is
        :meth:`~repro.scan.blockfile.BlockFileReader.verify`'s job,
        exposed via ``repro cache verify``.  The document comes back
        with ``payload["blockfile_path"]`` (the sidecar's absolute
        path) and ``payload["blockfile_reader"]`` (the validated
        reader, which the decoders use instead of opening it again).

        A corrupt entry (torn write, disk error, truncated JSON, a
        missing or structurally bad sidecar) is *repaired*, not just
        skipped: both files are deleted and counted in
        :attr:`corrupt_entries`, so the next :meth:`store` rewrites the
        pair cleanly.  A stale entry (a document that is not
        :func:`is_current`) is dropped the same way and counts as a
        plain miss.
        """
        try:
            with self.path_for(key).open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, OSError):
            return self._repair(key)
        if not is_current(payload):
            self.misses += 1
            self.invalidate(key)
            return None
        path = self.root / payload.get("blockfile", f"{key}.rbf")
        try:
            reader = BlockFileReader.open(path)
        except (BlockFileError, OSError):
            return self._repair(key)
        self.hits += 1
        payload["blockfile_path"] = str(path)
        payload["blockfile_reader"] = reader
        return payload

    def _repair(self, key: str) -> None:
        self.corrupt_entries += 1
        self.misses += 1
        self.invalidate(key)
        return None

    def store(self, key: str, document: dict, blob: bytes) -> pathlib.Path:
        """Persist ``blob`` as the sidecar and ``document`` as the entry.

        The document is stored with the sidecar's name, size and
        SHA-256 (checked by ``repro cache verify``).  Both halves are
        write-temp-then-rename, so racing writers — who by construction
        serialise identical bytes for a given key — each publish a
        complete pair and the last rename wins.  Any failure on either
        half — an unserialisable document, a full disk, the rename
        itself — unlinks that half's ``*.tmp`` file (counted in
        :attr:`tmp_cleanups`) before the exception propagates.
        :attr:`stores` counts *successful* stores only.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        sidecar = self.blockfile_path_for(key)
        self._publish(sidecar, "wb", lambda handle: handle.write(blob))
        document = {
            **document,
            "blockfile": sidecar.name,
            "blockfile_sha256": hashlib.sha256(blob).hexdigest(),
            "blockfile_bytes": len(blob),
        }
        path = self.path_for(key)
        self._publish(path, "w", lambda handle: json.dump(document, handle))
        self.stores += 1
        return path

    def _publish(self, target: pathlib.Path, mode: str, write: Callable) -> None:
        """Write ``target`` through a unique temp file and an atomic rename."""
        encoding = None if "b" in mode else "utf-8"
        handle = tempfile.NamedTemporaryFile(
            mode, dir=self.root, suffix=".tmp", delete=False, encoding=encoding
        )
        committed = False
        try:
            with handle:
                write(handle)
            os.replace(handle.name, target)
            committed = True
        finally:
            if not committed:
                self.tmp_cleanups += 1
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop one entry — both halves; returns whether its document existed."""
        try:
            self.path_for(key).unlink()
            removed = True
        except OSError:
            removed = False
        try:
            self.blockfile_path_for(key).unlink()
        except OSError:
            pass
        return removed

    def clear(self) -> int:
        """Drop everything; returns entries plus orphans removed.

        Each entry counts once regardless of how many files represent
        it on disk (an entry's ``*.rbf`` sidecar is swept silently with
        its ``*.json`` document).  Orphaned ``*.tmp`` files left
        behind by writers that crashed between creating the temp file
        and the atomic rename count individually — they are leaks, not
        entries, and the old ``*.json``-only glob kept them forever.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for pattern in ("*.json", "*.rbf", "*.tmp"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                    removed += pattern != "*.rbf"
                except OSError:
                    pass
        return removed

    def entries(self) -> List[str]:
        """Keys currently stored (sorted, for stable output)."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json"))

    # -- observability -------------------------------------------------------

    def execution_snapshot(self) -> dict:
        """Traffic counters for the manifest's ``timings.execution``
        section (hit/miss/store/corrupt counts vary run to run by
        design, so they are kept out of the deterministic metrics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_entries": self.corrupt_entries,
            "tmp_cleanups": self.tmp_cleanups,
        }

    def export_metrics(self, obs, *, section: str, baseline: Optional[dict] = None) -> None:
        """Record this cache's traffic under ``timings.execution``.

        ``baseline`` (an earlier :meth:`execution_snapshot`) restricts
        the export to traffic since that snapshot, so repeated
        collections against one cache don't double count.
        ``cache_corrupt_entries`` is the headline counter: non-zero
        means this run found and repaired torn entries.
        """
        snapshot = self.execution_snapshot()
        baseline = baseline or {}
        obs.record_execution(
            section,
            accumulate=True,
            **{
                f"cache_{key}": value - baseline.get(key, 0)
                for key, value in snapshot.items()
            },
        )


class SnapshotCache(_PairCache):
    """A content-keyed store of collected snapshot series.

    The ``<key>.json`` document holds the metadata (name, networks,
    days, totals); the ``<key>.rbf`` sidecar carries the prefix table,
    the raw count columns, the PTR name pool and each day's record
    columns.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(pathlib.Path(root) if root is not None else _default_root("snapshots"))

    def store_series(self, key: str, series) -> pathlib.Path:
        """Persist a series as a metadata document + blockfile pair."""
        return self.store(key, series.to_cache_payload(), series.encode_blockfile())

    @staticmethod
    def key_for(
        *,
        world_token: str,
        name: str,
        networks: Optional[Sequence[str]],
        start: dt.date,
        end: dt.date,
        cadence_days: int,
        at_offset: Optional[int],
        policy_token: Optional[str] = None,
        fault_token: Optional[str] = None,
    ) -> str:
        fields = {
            "version": FORMAT_VERSION,
            "world": world_token,
            "name": name,
            "networks": list(networks) if networks is not None else None,
            "start": start.isoformat(),
            "end": end.isoformat(),
            "cadence_days": cadence_days,
            "at_offset": at_offset,
        }
        # Evaluation-matrix cells fold their policy and fault-plan
        # identity in explicitly, so no two cells can ever share an
        # entry; both default to None so every pre-existing key is
        # unchanged.
        if policy_token is not None:
            fields["policy"] = policy_token
        if fault_token is not None:
            fields["faults"] = fault_token
        material = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


class CampaignCache(_PairCache):
    """A content-keyed store of supplemental campaign datasets.

    The ``<key>.json`` document is
    :meth:`~repro.scan.campaign.SupplementalDataset.to_payload` plus the
    campaign's merged metrics; the ``<key>.rbf`` sidecar holds the
    dataset's ICMP and RDNS observation columns.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(pathlib.Path(root) if root is not None else _default_root("campaigns"))

    @staticmethod
    def key_for(
        *,
        world_token: str,
        networks: Sequence[str],
        start: dt.date,
        end: dt.date,
        schedule_steps: Sequence[Tuple[int, int]],
        schedule_tail: int,
        sweep_interval: int,
        rdns_rate: float,
        blocklist: Sequence[str],
        fault_token: Optional[str] = None,
        policy_token: Optional[str] = None,
    ) -> str:
        fields = {
            "version": FORMAT_VERSION,
            "world": world_token,
            "networks": list(networks),
            "start": start.isoformat(),
            "end": end.isoformat(),
            "schedule_steps": [list(step) for step in schedule_steps],
            "schedule_tail": schedule_tail,
            "sweep_interval": sweep_interval,
            "rdns_rate": rdns_rate,
            "blocklist": sorted(blocklist),
        }
        # Only fault-injected runs carry the token: keeping it out of
        # clean-run material preserves every pre-fault cache key.  The
        # policy token (plans that declare update_policy entries) works
        # the same way.
        if fault_token is not None:
            fields["faults"] = fault_token
        if policy_token is not None:
            fields["policy"] = policy_token
        material = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()
