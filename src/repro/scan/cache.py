"""On-disk caches for collected snapshot series and campaign datasets.

Repeated studies and the benchmark harness re-simulate the same
windows over and over; the caches make each simulation a one-time cost
across processes and sessions.

Layout: one JSON file per entry under the cache root, named by a
SHA-256 **key** over everything that determines the entry's content.
For snapshot series (:class:`SnapshotCache`):

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
(both halves of a snapshot pair) and the caller recomputes and rewrites
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
``campaigns``), overridable with the ``REPRO_SNAPSHOT_CACHE`` /
``REPRO_CAMPAIGN_CACHE`` environment variables or the constructor
argument.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import pathlib
import tempfile
from typing import List, Optional, Sequence, Tuple

from repro.scan.storage import DATASET_FORMAT_VERSION

#: Version of the cache *key* material.  Bump only when the keying
#: scheme itself changes (every old entry then misses).  Payload schema
#: changes are versioned inside the payload
#: (:data:`repro.scan.storage.DATASET_FORMAT_VERSION`, see
#: :func:`is_current`).
FORMAT_VERSION = 1

CACHE_ENV_VAR = "REPRO_SNAPSHOT_CACHE"
CAMPAIGN_CACHE_ENV_VAR = "REPRO_CAMPAIGN_CACHE"


def default_cache_root() -> pathlib.Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro-rdns" / "snapshots"


def default_campaign_cache_root() -> pathlib.Path:
    override = os.environ.get(CAMPAIGN_CACHE_ENV_VAR)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro-rdns" / "campaigns"


def is_current(payload) -> bool:
    """Whether a stored payload is in the format this code writes."""
    return isinstance(payload, dict) and payload.get("version") == DATASET_FORMAT_VERSION


class _JsonFileCache:
    """Shared mechanics: one ``<key>.json`` per entry, atomic writes."""

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

    # -- access --------------------------------------------------------------

    def load(self, key: str) -> Optional[dict]:
        """The stored payload, or ``None`` on a miss, stale or corrupt entry.

        A corrupt entry (torn write, disk error, truncated JSON) is
        *repaired*, not just skipped: the file is deleted and counted
        in :attr:`corrupt_entries`, so the next :meth:`store` rewrites
        it cleanly.  Leaving it in place meant every later run paid the
        decode failure and re-fetched forever.  A stale entry (a payload
        that is not :func:`is_current`) is dropped the same way and
        counts as a plain miss.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, OSError):
            self.corrupt_entries += 1
            self.misses += 1
            self.invalidate(key)
            return None
        if not is_current(payload):
            self.misses += 1
            self.invalidate(key)
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> pathlib.Path:
        """Atomically persist a payload (write-temp-then-rename).

        Any failure between creating the temp file and the atomic
        ``os.replace`` — unserialisable payload, full disk, the rename
        itself — unlinks the partial ``*.tmp`` file (counted in
        :attr:`tmp_cleanups`) before the exception propagates, so a
        failed store can never leak temp files into the cache root.
        :attr:`stores` counts *successful* stores only.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.root, suffix=".tmp", delete=False, encoding="utf-8"
        )
        committed = False
        try:
            with handle:
                json.dump(payload, handle)
            os.replace(handle.name, path)
            committed = True
        finally:
            if not committed:
                self.tmp_cleanups += 1
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
        self.stores += 1
        return path

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError:
            return False

    def clear(self) -> int:
        """Drop everything; returns entries plus orphans removed.

        Each entry counts once regardless of how many files represent
        it on disk (a snapshot pair's ``*.rbf`` sidecar is swept silently
        with its ``*.json`` document).  Orphaned ``*.tmp`` files left
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


class SnapshotCache(_JsonFileCache):
    """A content-keyed store of collected snapshot series.

    An entry is a *pair* of files: the ``<key>.json`` document holds
    the metadata (name, networks, days, totals) plus a pointer to a
    ``<key>.rbf`` sidecar blockfile (:mod:`repro.scan.blockfile`)
    carrying the prefix table, the raw count columns, the PTR name pool
    and each day's record columns.  :meth:`store_series` writes the
    pair (blockfile first, JSON last — the JSON rename is the commit
    point, so a torn writer can only ever leave an unreferenced sidecar
    behind, never a referenced-but-missing one).  :meth:`load` validates the sidecar's
    header and record checksums and repairs the whole entry if either
    half is corrupt or missing.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(pathlib.Path(root) if root is not None else default_cache_root())

    def blockfile_path_for(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.rbf"

    def load(self, key: str) -> Optional[dict]:
        """The stored payload, with the sidecar validated and resolved.

        The sidecar blockfile is opened once to check its header and
        per-record header checksums plus the record columns' structure
        (record lengths, day ordinals, PTR ids inside the pool; bodies
        are not hashed —
        that is :meth:`~repro.scan.blockfile.BlockFileReader.verify`'s
        job, exposed via ``repro cache verify``), and its absolute path
        is injected as ``payload["blockfile_path"]`` for the decoder.
        A missing or structurally corrupt sidecar repairs the entry
        exactly like torn JSON: both files are deleted, the read counts
        as a miss, and the next store rewrites the pair.
        """
        payload = super().load(key)
        if payload is None:
            return None
        from .blockfile import BlockFileError, BlockFileReader

        path = self.root / payload.get("blockfile", f"{key}.rbf")
        try:
            reader = BlockFileReader.open(path)
            reader.close()
        except (BlockFileError, OSError):
            self.hits -= 1
            self.misses += 1
            self.corrupt_entries += 1
            self.invalidate(key)
            return None
        payload["blockfile_path"] = str(path)
        return payload

    def store_series(self, key: str, series) -> pathlib.Path:
        """Persist a series as a blockfile + JSON metadata pair.

        The sidecar is written through a unique temp file and renamed
        into place before the JSON document (itself atomic), so racing
        writers — who by construction serialise identical bytes for a
        given key — each publish a complete pair and the last rename
        wins.  A failure on either half cleans up its temp file
        (counted in :attr:`tmp_cleanups`) before propagating.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        blob = series.encode_blockfile()
        digest = hashlib.sha256(blob).hexdigest()
        target = self.blockfile_path_for(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        committed = False
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, target)
            committed = True
        finally:
            if not committed:
                self.tmp_cleanups += 1
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        return self.store(
            key, series.to_cache_payload(target.name, digest, len(blob))
        )

    def invalidate(self, key: str) -> bool:
        """Drop one entry — both the JSON document and its sidecar."""
        removed = super().invalidate(key)
        try:
            self.blockfile_path_for(key).unlink()
        except OSError:
            pass
        return removed

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


class CampaignCache(_JsonFileCache):
    """A content-keyed store of :meth:`SupplementalDataset.to_payload` blobs."""

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(
            pathlib.Path(root) if root is not None else default_campaign_cache_root()
        )

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
