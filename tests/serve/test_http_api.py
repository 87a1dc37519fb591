"""End-to-end tests over a real socket (ServerThread + http.client)."""

import http.client
import json

import pytest

from repro.serve import ServerThread


@pytest.fixture
def server(app):
    with ServerThread(app) as thread:
        yield thread


def request(server, method, target, body=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, target, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["days"] == 21
        assert payload["next_day"] == "2021-01-22"

    def test_prefix_dynamicity_with_encoded_slash(self, app, server):
        prefix = app.snapshots.series.prefix_table().values[0]
        encoded = prefix.replace("/", "%2F")
        status, payload = request(server, "GET", f"/prefix/{encoded}/dynamicity")
        assert status == 200
        assert payload["prefix"] == prefix
        # The literal-slash spelling resolves to the same verdict.
        status2, payload2 = request(server, "GET", f"/prefix/{prefix}/dynamicity")
        assert status2 == 200
        assert payload2 == payload

    def test_leaks(self, server):
        status, payload = request(server, "GET", "/leaks")
        assert status == 200
        assert "stateu.edu" in payload["identified"]
        status, payload = request(server, "GET", "/leaks?suffix=stateu.edu")
        assert status == 200
        assert payload["identified"] is True

    def test_names(self, server):
        status, payload = request(server, "GET", "/names?top=5")
        assert status == 200
        assert len(payload["names"]["all"]) == 5
        assert payload["device_terms"]["all"]

    def test_occupancy_daily_and_hourly(self, server):
        status, payload = request(server, "GET", "/occupancy")
        assert status == 200
        assert payload["scope"] == "daily"
        assert len(payload["totals"]) == 21
        status, payload = request(
            server, "GET", "/occupancy?network=Academic-C&source=rdns"
        )
        assert status == 200
        assert payload["scope"] == "hourly"
        assert payload["hours"]

    def test_ingest_day_extends_window(self, server):
        body = json.dumps({"day": "2021-01-22"})
        status, payload = request(server, "POST", "/ingest/day", body)
        assert status == 200
        assert payload["days"] == 22
        status, payload = request(server, "GET", "/healthz")
        assert payload["days"] == 22
        assert payload["next_day"] == "2021-01-23"

    def test_metrics_manifest_shape(self, server):
        request(server, "GET", "/leaks")
        status, payload = request(server, "GET", "/metrics")
        assert status == 200
        counters = payload["metrics"]["counters"]
        assert "serve_requests_total" in counters
        assert any(
            name.startswith("serve_request_seconds_")
            for name in payload["metrics"]["histograms"]
        )
        assert "serve_inflight_high_water" in payload["metrics"]["gauges"]


class TestErrorPaths:
    def test_unknown_route_is_404(self, server):
        status, payload = request(server, "GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_wrong_method_is_405(self, server):
        status, payload = request(server, "POST", "/leaks")
        assert status == 405
        assert "GET" in payload["error"]

    def test_bad_prefix_is_400(self, server):
        status, payload = request(server, "GET", "/prefix/banana/dynamicity")
        assert status == 400

    def test_ipv6_prefix_is_400(self, server):
        status, payload = request(server, "GET", "/prefix/2001:db8::/24/dynamicity")
        assert status == 400, payload

    def test_unobserved_prefix_is_404(self, server):
        status, payload = request(server, "GET", "/prefix/203.0.113.0/dynamicity")
        assert status == 404

    def test_ingest_bad_json_is_400(self, server):
        status, payload = request(server, "POST", "/ingest/day", "{torn")
        assert status == 400

    def test_ingest_missing_day_is_400(self, server):
        status, payload = request(server, "POST", "/ingest/day", "{}")
        assert status == 400

    def test_ingest_wrong_cadence_is_409(self, server):
        body = json.dumps({"day": "2021-02-15"})
        status, payload = request(server, "POST", "/ingest/day", body)
        assert status == 409
        assert payload["expected_day"] == "2021-01-22"


class TestKeepAlive:
    def test_two_requests_on_one_connection(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            first = connection.getresponse()
            assert first.status == 200
            first.read()
            connection.request("GET", "/leaks")
            second = connection.getresponse()
            assert second.status == 200
            second.read()
        finally:
            connection.close()

    def test_request_counter_labels_by_endpoint_and_status(self, app, server):
        request(server, "GET", "/healthz")
        request(server, "GET", "/nope")
        metrics = app.obs.metrics
        assert metrics.value(
            "serve_requests_total", {"endpoint": "healthz", "status": "200"}
        ) >= 1
        assert metrics.value(
            "serve_requests_total", {"endpoint": "unknown", "status": "404"}
        ) >= 1
