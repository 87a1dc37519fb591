"""Regression tests for cache self-repair and traffic accounting.

A torn write used to leave a corrupt ``<key>.json`` in place forever
(every later run paid the decode failure and re-simulated), and
``clear()`` only swept ``*.json`` so crashed writers leaked ``*.tmp``
files indefinitely.
"""

import pytest

from repro.obs import Observability
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.storage import DATASET_FORMAT_VERSION


def make_cache(tmp_path) -> CampaignCache:
    """A JSON-only cache: the shared mechanics, no sidecar to validate."""
    return CampaignCache(tmp_path)


def entry(**fields) -> dict:
    """A payload in the current format (any other version is a miss)."""
    return {"version": DATASET_FORMAT_VERSION, **fields}


class TestCorruptEntryRepair:
    def test_corrupt_entry_is_deleted_and_counted(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.store("k1", {"ok": True})
        cache.path_for("k1").write_text("{torn", encoding="utf-8")

        assert cache.load("k1") is None
        assert cache.corrupt_entries == 1
        # The file is gone: the next load is a plain miss, not another
        # decode failure.
        assert not cache.path_for("k1").exists()
        assert cache.load("k1") is None
        assert cache.corrupt_entries == 1
        assert cache.misses == 2

    def test_store_after_repair_rewrites_cleanly(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.store("k1", entry(value=1))
        cache.path_for("k1").write_text("not json", encoding="utf-8")
        assert cache.load("k1") is None
        cache.store("k1", entry(value=2))
        assert cache.load("k1") == entry(value=2)

    def test_traffic_counters(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.load("missing") is None
        cache.store("k1", entry())
        assert cache.load("k1") == entry()
        snapshot = cache.execution_snapshot()
        assert snapshot == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "corrupt_entries": 0,
            "tmp_cleanups": 0,
        }

    def test_export_metrics_records_deltas(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.store("k1", entry())
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
        cache = make_cache(tmp_path)
        with pytest.raises(TypeError):
            cache.store("k1", {"bad": object()})
        assert list(tmp_path.glob("*.tmp")) == []
        assert not cache.path_for("k1").exists()
        assert cache.tmp_cleanups == 1
        assert cache.stores == 0

    def test_failed_store_does_not_clobber_existing_entry(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.store("k1", entry(value=1))
        with pytest.raises(TypeError):
            cache.store("k1", {"bad": {1, 2}})
        assert cache.load("k1") == entry(value=1)
        assert cache.tmp_cleanups == 1
        assert cache.stores == 1

    def test_collection_survives_store_failure(self, tmp_path, monkeypatch):
        import datetime as dt

        from repro.netsim.internet import WorldScale, build_world
        from repro.scan.snapshot import SnapshotCollector

        world = build_world(seed=3, scale=WorldScale.small())
        cache = SnapshotCache(tmp_path)
        monkeypatch.setattr(
            type(cache),
            "store",
            lambda self, key, payload: (_ for _ in ()).throw(OSError("disk full")),
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
        cache = make_cache(tmp_path)
        cache.store("k1", {})
        # A writer that crashed between temp-file creation and the
        # atomic rename leaves exactly this behind.
        orphan = cache.root / "orphanXYZ.tmp"
        orphan.write_text("partial", encoding="utf-8")

        removed = cache.clear()
        assert removed == 2
        assert not orphan.exists()
        assert cache.entries() == []

    def test_clear_on_missing_root(self, tmp_path):
        cache = SnapshotCache(tmp_path / "never-created")
        assert cache.clear() == 0
