"""The v4 snapshot cache representation: blockfile pair store/load/repair."""

import datetime as dt
import json
import threading

from repro.netsim.internet import WorldScale, build_world
from repro.scan.blockfile import BlockFileReader
from repro.scan.cache import SnapshotCache
from repro.scan.snapshot import SnapshotCollector, SnapshotSeries
from repro.scan.storage import DATASET_FORMAT_VERSION
from tests.cache_bytes import series_bytes

START = dt.date(2021, 1, 1)
END = dt.date(2021, 1, 8)


def collect(cache=None, seed=5):
    world = build_world(seed=seed, scale=WorldScale.small())
    collector = SnapshotCollector.openintel_style(world.internet)
    series = collector.collect(START, END, cache=cache)
    return collector, series


class TestStoreSeries:
    def test_cold_store_writes_pair(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        collector, series = collect(cache)
        key = collector.last_metrics.cache_key
        assert collector.last_metrics.cache_stored

        document = json.loads(cache.path_for(key).read_text())
        assert document["version"] == DATASET_FORMAT_VERSION
        assert document["blockfile"] == f"{key}.rbf"
        sidecar = cache.blockfile_path_for(key)
        assert sidecar.is_file()
        assert document["blockfile_bytes"] == sidecar.stat().st_size
        with BlockFileReader.open(sidecar) as reader:
            reader.verify()
            assert reader.days == [day.toordinal() for day in series.days]
        assert list(tmp_path.glob("*.tmp")) == []

    def test_warm_hit_is_byte_identical_and_mmap_backed(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        _, cold = collect(cache)
        collector, warm = collect(cache)
        assert collector.last_metrics.cache_hit
        assert series_bytes(warm) == series_bytes(cold)
        # The warm matrix is view-backed: its source pins the mapping.
        assert warm.count_matrix()._source is not None

    def test_load_resolves_blockfile_path(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        collector, _ = collect(cache)
        payload = cache.load(collector.last_metrics.cache_key)
        assert payload["blockfile_path"] == str(
            cache.blockfile_path_for(collector.last_metrics.cache_key)
        )
        series = SnapshotSeries.from_payload(payload, None)
        assert series.days[0] == START


class TestOneOpenPerWarmHit:
    """A warm hit opens (and validates) its sidecar once: the cache's
    load hands the open reader to the decoder."""

    @staticmethod
    def count_opens(monkeypatch):
        opens = []
        real_open = BlockFileReader.open.__func__

        def counting_open(cls, path):
            opens.append(path)
            return real_open(cls, path)

        monkeypatch.setattr(BlockFileReader, "open", classmethod(counting_open))
        return opens

    def test_snapshot_hit(self, tmp_path, monkeypatch):
        cache = SnapshotCache(tmp_path)
        collect(cache)
        opens = self.count_opens(monkeypatch)
        collector, _ = collect(cache)
        assert collector.last_metrics.cache_hit
        assert len(opens) == 1

    def test_campaign_hit(self, tmp_path, monkeypatch):
        from repro.scan.cache import CampaignCache
        from repro.scan.campaign import SupplementalCampaign

        def run():
            world = build_world(seed=5, scale=WorldScale.small())
            name = SupplementalCampaign(world).network_names[0]
            campaign = SupplementalCampaign(world, networks=[name])
            campaign.run(dt.date(2021, 11, 1), dt.date(2021, 11, 2), cache=cache)
            return campaign

        cache = CampaignCache(tmp_path)
        run()
        opens = self.count_opens(monkeypatch)
        assert run().last_metrics.cache_hit
        assert len(opens) == 1


class TestConcurrentStore:
    def test_racing_stores_publish_one_complete_pair(self, tmp_path):
        # Writers racing on one key serialise identical bytes; both
        # halves are write-temp-then-rename (sidecar first, JSON as the
        # commit point), so the root must end with one valid pair and
        # no leaked temp files whatever the interleaving.
        _, series = collect()
        key = "racing-key"
        barrier = threading.Barrier(4)
        errors = []

        def writer():
            try:
                cache = SnapshotCache(tmp_path)
                barrier.wait(timeout=30)
                cache.store_series(key, series)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors

        assert [path.name for path in sorted(tmp_path.iterdir())] == [
            f"{key}.json",
            f"{key}.rbf",
        ]
        cache = SnapshotCache(tmp_path)
        payload = cache.load(key)
        assert payload is not None and cache.hits == 1
        with BlockFileReader.open(payload["blockfile_path"]) as reader:
            reader.verify()
        assert series_bytes(SnapshotSeries.from_payload(payload, None)) == series_bytes(series)


class TestRepair:
    def test_corrupt_sidecar_repairs_whole_entry(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        collector, cold = collect(cache)
        key = collector.last_metrics.cache_key
        sidecar = cache.blockfile_path_for(key)
        blob = bytearray(sidecar.read_bytes())
        blob[8] ^= 0xFF  # alignment field: breaks the header CRC
        sidecar.write_bytes(bytes(blob))

        assert cache.load(key) is None
        assert cache.corrupt_entries == 1
        assert not cache.path_for(key).exists()
        assert not sidecar.exists()

        # The next collection recollects and restores a valid pair.
        collector, again = collect(cache)
        assert collector.last_metrics.cache_stored
        assert series_bytes(again) == series_bytes(cold)

    def test_missing_sidecar_repairs_entry(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        collector, _ = collect(cache)
        key = collector.last_metrics.cache_key
        cache.blockfile_path_for(key).unlink()
        assert cache.load(key) is None
        assert not cache.path_for(key).exists()

    def test_invalidate_drops_both_halves(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        collector, _ = collect(cache)
        key = collector.last_metrics.cache_key
        assert cache.invalidate(key)
        assert not cache.path_for(key).exists()
        assert not cache.blockfile_path_for(key).exists()

    def test_clear_sweeps_sidecars(self, tmp_path):
        cache = SnapshotCache(tmp_path)
        collect(cache)
        assert cache.clear() == 1  # one entry (its sidecar swept with it)
        assert list(tmp_path.iterdir()) == []
