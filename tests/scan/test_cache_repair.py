"""Regression tests for cache self-repair and traffic accounting.

A torn write used to leave a corrupt ``<key>.json`` in place forever
(every later run paid the decode failure and re-simulated), and
``clear()`` only swept ``*.json`` so crashed writers leaked ``*.tmp``
files indefinitely.  Both caches share these mechanics (an entry is a
JSON document plus its ``.rbf`` sidecar), so every case runs over a
snapshot and a campaign cache.
"""

import datetime as dt

import pytest

from repro.netsim.internet import WorldScale, build_world
from repro.obs import Observability
from repro.scan.blockfile import ALIGNMENT, encode_records
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import SupplementalCampaign
from repro.scan.storage import DATASET_FORMAT_VERSION, IcmpColumns, RdnsColumns
from tests.cache_bytes import dataset_bytes

#: A structurally valid sidecar for entries whose content does not matter.
SIDECAR = encode_records(observations=[(IcmpColumns(), RdnsColumns())])


def caches(tmp_path):
    """One cache of each kind, in separate roots."""
    return [SnapshotCache(tmp_path / "snapshots"), CampaignCache(tmp_path / "campaigns")]


def entry(**fields) -> dict:
    """A document in the current format (any other version is a miss)."""
    return {"version": DATASET_FORMAT_VERSION, **fields}


def document(payload: dict) -> dict:
    """A loaded payload without the fields the cache adds."""
    return {
        name: value for name, value in payload.items() if not name.startswith("blockfile")
    }


class TestCorruptEntryRepair:
    def test_corrupt_entry_is_deleted_and_counted(self, tmp_path):
        for cache in caches(tmp_path):
            cache.store("k1", {"ok": True}, SIDECAR)
            cache.path_for("k1").write_text("{torn", encoding="utf-8")

            assert cache.load("k1") is None
            assert cache.corrupt_entries == 1
            # Both files are gone: the next load is a plain miss, not
            # another decode failure.
            assert not cache.path_for("k1").exists()
            assert not cache.blockfile_path_for("k1").exists()
            assert cache.load("k1") is None
            assert cache.corrupt_entries == 1
            assert cache.misses == 2

    def test_store_after_repair_rewrites_cleanly(self, tmp_path):
        for cache in caches(tmp_path):
            cache.store("k1", entry(value=1), SIDECAR)
            cache.path_for("k1").write_text("not json", encoding="utf-8")
            assert cache.load("k1") is None
            cache.store("k1", entry(value=2), SIDECAR)
            assert document(cache.load("k1")) == entry(value=2)

    def test_traffic_counters(self, tmp_path):
        for cache in caches(tmp_path):
            assert cache.load("missing") is None
            cache.store("k1", entry(), SIDECAR)
            assert document(cache.load("k1")) == entry()
            snapshot = cache.execution_snapshot()
            assert snapshot == {
                "hits": 1,
                "misses": 1,
                "stores": 1,
                "corrupt_entries": 0,
                "tmp_cleanups": 0,
            }

    def test_export_metrics_records_deltas(self, tmp_path):
        for cache in caches(tmp_path):
            cache.store("k1", entry(), SIDECAR)
            cache.load("k1")
            baseline = cache.execution_snapshot()
            cache.load("k1")
            cache.load("k2")
            obs = Observability()
            cache.export_metrics(obs, section="snapshot", baseline=baseline)
            assert obs.execution["snapshot"] == {
                "cache_hits": 1,
                "cache_misses": 1,
                "cache_stores": 0,
                "cache_corrupt_entries": 0,
                "cache_tmp_cleanups": 0,
            }


class TestFailedStoreCleansUp:
    """Regression: a store that raised mid-write (unserialisable
    payload, failed rename) used to leak its ``*.tmp`` file into the
    cache root and still count in ``stores``."""

    def test_unserialisable_payload_leaves_no_tmp(self, tmp_path):
        for cache in caches(tmp_path):
            with pytest.raises(TypeError):
                cache.store("k1", {"bad": object()}, SIDECAR)
            assert list(cache.root.glob("*.tmp")) == []
            assert not cache.path_for("k1").exists()
            assert cache.tmp_cleanups == 1
            assert cache.stores == 0

    def test_failed_store_does_not_clobber_existing_entry(self, tmp_path):
        for cache in caches(tmp_path):
            cache.store("k1", entry(value=1), SIDECAR)
            with pytest.raises(TypeError):
                cache.store("k1", {"bad": {1, 2}}, SIDECAR)
            assert document(cache.load("k1")) == entry(value=1)
            assert cache.tmp_cleanups == 1
            assert cache.stores == 1

    def test_collection_survives_store_failure(self, tmp_path, monkeypatch):
        from repro.scan.snapshot import SnapshotCollector

        world = build_world(seed=3, scale=WorldScale.small())
        cache = SnapshotCache(tmp_path)
        monkeypatch.setattr(
            type(cache),
            "store",
            lambda self, *args: (_ for _ in ()).throw(OSError("disk full")),
        )
        collector = SnapshotCollector.openintel_style(world.internet)
        series = collector.collect(
            dt.date(2021, 1, 1), dt.date(2021, 1, 4), cache=cache
        )
        # The freshly collected series is returned despite the failed
        # persistence, and the failure is surfaced in the metrics.
        assert len(series) == 3
        assert collector.last_metrics.cache_store_failed is True
        assert collector.last_metrics.cache_stored is False


class TestClearSweepsOrphans:
    def test_clear_removes_orphaned_tmp_files(self, tmp_path):
        for cache in caches(tmp_path):
            cache.store("k1", {}, SIDECAR)
            # A writer that crashed between temp-file creation and the
            # atomic rename leaves exactly this behind.
            orphan = cache.root / "orphanXYZ.tmp"
            orphan.write_text("partial", encoding="utf-8")

            removed = cache.clear()
            assert removed == 2
            assert not orphan.exists()
            assert cache.entries() == []
            assert list(cache.root.iterdir()) == []

    def test_clear_on_missing_root(self, tmp_path):
        for cache in caches(tmp_path / "never-created"):
            assert cache.clear() == 0


class TestCorruptRecordColumns:
    """A sidecar whose record columns are structurally bad is caught
    when the cache opens it: the entry is counted corrupt, deleted and
    recollected, never decoded halfway through a study."""

    @staticmethod
    def tear(sidecar):
        blob = sidecar.read_bytes()
        # The last record is the last day's RECORDS: cut inside its body.
        sidecar.write_bytes(blob[: len(blob) - 64 - 16])

    @staticmethod
    def point_past_pool(sidecar):
        import numpy as np

        from repro.scan.blockfile import BlockFileReader, encode_records

        with BlockFileReader.open(sidecar) as reader:
            pool = reader.ptr_names()
            columns = [np.array(column) for column in reader.columns]
            records = [
                (ordinal, *(np.array(part) for part in reader.day_records(ordinal)))
                for ordinal in reader.days
            ]
            parts = (list(reader.prefixes), list(reader.days), columns, list(reader.totals))
        records[-1][2][0] = len(pool)  # CRCs stay valid; only the id is wrong
        sidecar.write_bytes(encode_records(*parts, pool, records))

    @pytest.mark.parametrize("damage", ["tear", "point_past_pool"])
    def test_bad_records_repaired_as_a_miss(self, tmp_path, damage):
        from repro.scan.snapshot import SnapshotCollector
        from tests.cache_bytes import series_bytes

        start, end = dt.date(2021, 1, 1), dt.date(2021, 1, 4)
        world = build_world(seed=3, scale=WorldScale.small())
        cache = SnapshotCache(tmp_path)
        collector = SnapshotCollector.openintel_style(world.internet)
        original = series_bytes(collector.collect(start, end, cache=cache))
        key = collector.last_metrics.cache_key
        getattr(self, damage)(cache.blockfile_path_for(key))

        series = collector.collect(start, end, cache=cache)
        assert not collector.last_metrics.cache_hit
        assert cache.corrupt_entries == 1
        assert collector.last_metrics.cache_stored  # recollected and rewritten
        assert series_bytes(series) == original

        collector.collect(start, end, cache=cache)
        assert collector.last_metrics.cache_hit
        assert cache.corrupt_entries == 1


class TestCorruptCampaignSidecar:
    """A campaign sidecar that is torn, bit-flipped or missing is
    repaired exactly like a snapshot sidecar: a miss, counted corrupt,
    both files deleted, the dataset recomputed and rewritten."""

    @staticmethod
    def tear(sidecar):
        sidecar.write_bytes(sidecar.read_bytes()[:-100])

    @staticmethod
    def flip(sidecar):
        blob = bytearray(sidecar.read_bytes())
        blob[2 * ALIGNMENT] ^= 0x04  # the first ICMP timestamp, after two headers
        sidecar.write_bytes(bytes(blob))

    @staticmethod
    def remove(sidecar):
        sidecar.unlink()

    @staticmethod
    def run(cache):
        """One network for one day, on a fresh world (a run mutates its world)."""
        world = build_world(seed=3, scale=WorldScale.small())
        name = SupplementalCampaign(world).network_names[0]
        campaign = SupplementalCampaign(world, networks=[name])
        return campaign, campaign.run(dt.date(2021, 11, 1), dt.date(2021, 11, 2), cache=cache)

    @pytest.mark.parametrize("damage", ["tear", "flip", "remove"])
    def test_bad_sidecar_repaired_as_a_miss(self, tmp_path, damage):
        cache = CampaignCache(tmp_path)
        campaign, cold = self.run(cache)
        original = dataset_bytes(cold)
        key = campaign.last_metrics.cache_key
        getattr(self, damage)(cache.blockfile_path_for(key))

        assert cache.load(key) is None
        assert cache.corrupt_entries == 1
        assert not cache.path_for(key).exists()
        assert not cache.blockfile_path_for(key).exists()

        campaign, dataset = self.run(cache)
        assert not campaign.last_metrics.cache_hit
        assert campaign.last_metrics.cache_stored  # recomputed and rewritten
        assert dataset_bytes(dataset) == original
        campaign, warm = self.run(cache)
        assert campaign.last_metrics.cache_hit
        assert dataset_bytes(warm) == original
        assert cache.corrupt_entries == 1
