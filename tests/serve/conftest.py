"""Shared fixtures for the query-service tests.

The quick world and its collected dynamicity window are expensive
relative to a unit test, so they are built once per session and the
series is stored once in a session snapshot cache; each test that
mutates service state (ingest) gets a *fresh* series rebuilt from that
cache hit — `SnapshotSeries.from_payload` is cheap and bit-identical to
the original collection.
"""

import pytest

from repro.netsim.internet import build_world
from repro.obs import Observability
from repro.scan.cache import SnapshotCache
from repro.scan.snapshot import SnapshotCollector, SnapshotSeries
from repro.serve import ServeApp
from tests.cli_env import cli_config


@pytest.fixture(scope="session")
def quick_config():
    # The CLI's config, so REPRO_FAULT_PROFILE reaches the occupancy campaign.
    return cli_config("--quick", "--seed", "1")


@pytest.fixture(scope="session")
def quick_world(quick_config):
    return build_world(seed=quick_config.seed, scale=quick_config.scale)


@pytest.fixture(scope="session")
def series_payload(quick_world, quick_config, tmp_path_factory):
    cache = SnapshotCache(tmp_path_factory.mktemp("snapshots"))
    collector = SnapshotCollector.openintel_style(quick_world.internet)
    collector.collect(
        quick_config.dynamicity_start, quick_config.dynamicity_end, cache=cache
    )
    return cache.load(collector.last_metrics.cache_key)


@pytest.fixture
def fresh_series(quick_world, series_payload):
    return SnapshotSeries.from_payload(series_payload, quick_world.internet)


def build_quick_app(world, series, config, *, obs=None) -> ServeApp:
    return ServeApp(series, config, world, obs=obs or Observability())


@pytest.fixture
def app(quick_world, fresh_series, quick_config):
    return build_quick_app(quick_world, fresh_series, quick_config)
