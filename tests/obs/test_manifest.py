"""Tests for the run manifest and the Observability handle."""

import json

import pytest

from repro.obs import NULL_OBS, Observability, resolve_obs
from repro.obs.manifest import MANIFEST_VERSION, RunManifest


def make_obs():
    obs = Observability()
    obs.set_run_info(seed=7, command="campaign")
    obs.metrics.counter("lookups_total").inc(12)
    with obs.span("campaign.run") as span:
        span.set("networks", 2)
        obs.tracer.add_span("campaign.network", labels={"network": "A"}, seconds=0.25)
    obs.record_execution("campaign", workers=4, cache_hit=False)
    obs.record_execution("campaign", accumulate=True, cache_hits=1)
    obs.record_execution("campaign", accumulate=True, cache_hits=2)
    return obs


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        manifest = make_obs().manifest()
        path = manifest.write(tmp_path / "m.json")
        recovered = RunManifest.read(path)
        assert recovered.to_payload() == manifest.to_payload()

    def test_deterministic_payload_excludes_timings(self):
        manifest = make_obs().manifest()
        payload = manifest.deterministic_payload()
        assert set(payload) == {"manifest_version", "run", "metrics", "spans"}
        assert payload["manifest_version"] == MANIFEST_VERSION

    def test_timings_carry_execution_and_span_seconds(self):
        manifest = make_obs().manifest()
        assert manifest.timings["execution"]["campaign"] == {
            "workers": 4,
            "cache_hit": False,
            "cache_hits": 3,
        }
        assert "campaign.run/campaign.network[network=A]" in manifest.timings["spans"]

    def test_json_is_sorted_and_stable(self):
        manifest = make_obs().manifest()
        text = manifest.to_json(include_timings=False)
        assert text == manifest.to_json(include_timings=False)
        assert json.loads(text) == manifest.deterministic_payload()

    def test_version_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RunManifest.from_payload({"manifest_version": 999})

    def test_counter_value_and_span_paths(self):
        manifest = make_obs().manifest()
        counters = manifest.metrics["counters"]
        assert counters["lookups_total"]["value"] == 12
        assert "unknown" not in counters
        [run] = manifest.spans
        assert run["name"] == "campaign.run"
        assert [(child["name"], child["labels"]) for child in run["children"]] == [
            ("campaign.network", {"network": "A"})
        ]


class TestObservability:
    def test_disabled_handle_records_nothing(self):
        obs = Observability.disabled()
        obs.set_run_info(seed=1)
        obs.record_execution("campaign", workers=8)
        obs.metrics.counter("x").inc()
        with obs.span("stage") as span:
            span.set("a", 1)
        manifest = obs.manifest()
        assert manifest.run_info == {}
        assert manifest.metrics["counters"] == {}
        assert manifest.spans == []
        assert manifest.timings["execution"] == {}

    def test_resolve_obs_defaults_to_shared_null(self):
        assert resolve_obs(None) is NULL_OBS
        obs = Observability()
        assert resolve_obs(obs) is obs

    def test_record_execution_overwrite_vs_accumulate(self):
        obs = Observability()
        obs.record_execution("s", workers=2)
        obs.record_execution("s", workers=4)
        obs.record_execution("s", accumulate=True, hits=1)
        obs.record_execution("s", accumulate=True, hits=1, transport="fork")
        assert obs.execution["s"] == {"workers": 4, "hits": 2, "transport": "fork"}
