"""Blockfile-backed serve mode: boot write, parity, append-on-ingest.

With ``blockfile_path`` set, :class:`SnapshotRepository` re-homes the
series onto an mmap-backed blockfile at boot and extends it on every
``POST /ingest/day``.  Reads must stay byte-identical to the in-memory
repository before *and* after ingest, the file must strictly grow
(append-only, no rewrite), and the sidecar must stay fully verifiable.
"""

import dataclasses
import json

from repro.scan.blockfile import BlockFileReader
from repro.scan.snapshot import SnapshotSeries
from repro.serve import SnapshotRepository
from tests.serve.conftest import build_quick_app


def build_blockfile_app(world, series, config, path):
    # The same wiring as ``build_app`` with ``config.serve_blockfile``
    # set, over an already collected series.
    return build_quick_app(
        world, series, dataclasses.replace(config, serve_blockfile=path)
    )


def dispatch_json(app, method, route, body=None):
    status, payload = app.dispatch(
        method, route, body=json.dumps(body).encode() if body is not None else None
    )
    assert status == 200
    return payload


READ_ROUTES = ["/healthz", "/leaks", "/names", "/occupancy"]


class TestBlockfileMode:
    def test_boot_writes_verifiable_blockfile(
        self, quick_world, fresh_series, quick_config, tmp_path
    ):
        path = tmp_path / "serve.rbf"
        app = build_blockfile_app(quick_world, fresh_series, quick_config, path)
        snapshots = app.snapshots
        assert snapshots.blockfile_path == path
        with BlockFileReader.open(path) as reader:
            reader.verify()
            assert reader.days == [day.toordinal() for day in fresh_series.days]
        # The live matrix is the mapped view, not the heap original.
        assert fresh_series.count_matrix()._source is not None

    def test_read_parity_with_in_memory_mode(
        self, quick_world, series_payload, quick_config, tmp_path
    ):
        def series():
            return SnapshotSeries.from_payload(series_payload, quick_world.internet)

        memory_app = build_quick_app(quick_world, series(), quick_config)
        mapped_app = build_blockfile_app(
            quick_world, series(), quick_config, tmp_path / "serve.rbf"
        )
        for route in READ_ROUTES:
            expected = dispatch_json(memory_app, "GET", route)
            actual = dispatch_json(mapped_app, "GET", route)
            assert json.dumps(actual, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            ), route

    def test_ingest_appends_and_stays_in_parity(
        self, quick_world, series_payload, quick_config, tmp_path
    ):
        def series():
            return SnapshotSeries.from_payload(series_payload, quick_world.internet)

        path = tmp_path / "serve.rbf"
        memory_app = build_quick_app(quick_world, series(), quick_config)
        mapped_app = build_blockfile_app(quick_world, series(), quick_config, path)

        sizes = [path.stat().st_size]
        for _ in range(2):
            day = mapped_app.snapshots.next_day
            body = {"day": day.isoformat()}
            expected = dispatch_json(memory_app, "POST", "/ingest/day", body)
            actual = dispatch_json(mapped_app, "POST", "/ingest/day", body)
            assert json.dumps(actual, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )
            sizes.append(path.stat().st_size)

        # Append-only: the file strictly grows by whole segments.
        assert sizes == sorted(set(sizes))
        with BlockFileReader.open(path) as reader:
            reader.verify()
            assert len(reader.days) == len(
                mapped_app.snapshots.series.days
            )

        # Post-ingest reads still match the in-memory app.
        for route in READ_ROUTES:
            expected = dispatch_json(memory_app, "GET", route)
            actual = dispatch_json(mapped_app, "GET", route)
            assert json.dumps(actual, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            ), route

    def test_repository_remap_closes_previous_reader(
        self, quick_world, fresh_series, quick_config, tmp_path
    ):
        path = tmp_path / "serve.rbf"
        repo = SnapshotRepository(fresh_series, blockfile_path=path)
        first_reader = repo._reader
        day = repo.next_day
        repo.append_derived_day(day)
        assert repo._reader is not first_reader
        assert first_reader._mmap is None  # closed by the remap
