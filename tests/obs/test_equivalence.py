"""The manifest equivalence guarantee, end to end.

Serial, parallel and cache-replay campaign runs must produce
bit-identical manifests once the explicitly non-deterministic
``timings`` section is dropped — the discipline the whole ``repro.obs``
package is built around.
"""

import datetime as dt
import json

import pytest

from repro.netsim.internet import WorldScale, build_world
from repro.obs import Observability
from repro.scan.cache import CampaignCache
from repro.scan.campaign import SupplementalCampaign
from tests.cli_env import env_fault_plan

START = dt.date(2021, 11, 1)
END = dt.date(2021, 11, 3)


def run_campaign(*, workers=1, cache=None, seed=11):
    obs = Observability()
    world = build_world(seed=seed, scale=WorldScale.small())
    campaign = SupplementalCampaign(world, obs=obs, fault_plan=env_fault_plan(world.rngs.seed))
    campaign.run(START, END, workers=workers, cache=cache)
    return obs, campaign


def deterministic_json(obs) -> str:
    return obs.manifest().to_json(include_timings=False)


@pytest.fixture(scope="module")
def serial_manifest():
    obs, _ = run_campaign()
    return deterministic_json(obs)


class TestManifestEquivalence:
    def test_parallel_bit_identical_to_serial(self, serial_manifest):
        obs, _ = run_campaign(workers=2)
        assert deterministic_json(obs) == serial_manifest

    def test_cache_replay_bit_identical_to_serial(self, serial_manifest, tmp_path):
        cache = CampaignCache(tmp_path)
        cold_obs, cold = run_campaign(cache=cache)
        assert cold.last_metrics.cache_stored
        assert deterministic_json(cold_obs) == serial_manifest

        warm_obs, warm = run_campaign(cache=cache)
        assert warm.last_metrics.cache_hit
        assert deterministic_json(warm_obs) == serial_manifest

    def test_manifest_carries_expected_counters_and_spans(self, serial_manifest):
        payload = json.loads(serial_manifest)
        counters = payload["metrics"]["counters"]
        assert counters["resolver_queries_total"]["value"] > 0
        assert "rcode=noerror" in counters["resolver_rcode_total"]["labels"]
        assert counters["rdns_lookups_total"]["value"] > 0
        assert counters["icmp_probes_sent_total"]["value"] > 0
        assert counters["reactive_sweeps_total"]["value"] > 0
        assert counters["engine_events_total"]["value"] > 0
        assert counters["dns_server_queries_total"]["value"] > 0
        assert counters["rdns_ratelimit_acquired_total"]["value"] > 0
        assert payload["metrics"]["gauges"]["engine_queue_high_water"]["value"] > 0
        paths = [span["name"] for span in payload["spans"]]
        assert "campaign.run" in paths
        children = payload["spans"][0]["children"]
        assert len(children) == 9  # one per Table-4 network

    def test_timings_section_is_present_but_excluded(self, tmp_path):
        obs, _ = run_campaign()
        manifest = obs.manifest()
        full = json.loads(manifest.to_json())
        assert "timings" in full
        assert full["timings"]["execution"]["campaign"]["workers"] == 1
        det = json.loads(manifest.to_json(include_timings=False))
        assert "timings" not in det

    def test_different_seed_differs(self, serial_manifest):
        obs, _ = run_campaign(seed=12)
        assert deterministic_json(obs) != serial_manifest
