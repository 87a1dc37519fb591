"""Tests for the cache-free stub resolver."""

import pytest

from repro.dns import (
    AuthoritativeServer,
    FailureModel,
    ResolutionStatus,
    ReverseZone,
    StubResolver,
    reverse_pointer,
)


def build_world(failure_model=None):
    server = AuthoritativeServer("ns1.example.edu", failure_model=failure_model)
    zone = ReverseZone("192.0.2.0/24")
    zone.set_ptr("192.0.2.10", "brians-iphone.campus.example.edu")
    server.add_zone(zone)
    resolver = StubResolver()
    resolver.delegate(server)
    return server, zone, resolver


class TestResolution:
    def test_resolves_existing_ptr(self):
        _, _, resolver = build_world()
        result = resolver.resolve_ptr("192.0.2.10")
        assert result.ok
        assert result.status is ResolutionStatus.NOERROR
        assert result.hostname == "brians-iphone.campus.example.edu"

    def test_missing_ptr_is_nxdomain(self):
        _, _, resolver = build_world()
        result = resolver.resolve_ptr("192.0.2.77")
        assert result.status is ResolutionStatus.NXDOMAIN
        assert result.hostname is None
        assert result.status is not ResolutionStatus.NOERROR

    def test_fresh_answers_after_zone_change(self):
        # The measurement queries authoritatives directly, so a zone
        # change is visible immediately (no cache staleness).
        _, zone, resolver = build_world()
        assert resolver.resolve_ptr("192.0.2.10").ok
        zone.remove_ptr("192.0.2.10")
        assert resolver.resolve_ptr("192.0.2.10").status is ResolutionStatus.NXDOMAIN
        zone.set_ptr("192.0.2.10", "new-host.campus.example.edu")
        assert resolver.resolve_ptr("192.0.2.10").hostname == "new-host.campus.example.edu"

    def test_undelegated_space_is_no_server(self):
        _, _, resolver = build_world()
        result = resolver.resolve_ptr("203.0.113.5")
        assert result.status is ResolutionStatus.NO_SERVER

    def test_resolve_many(self):
        _, _, resolver = build_world()
        results = resolver.lookup_batch(["192.0.2.10", "192.0.2.11"])
        assert [r.status for r in results] == [ResolutionStatus.NOERROR, ResolutionStatus.NXDOMAIN]

    def test_query_counter(self):
        _, _, resolver = build_world()
        resolver.resolve_ptr("192.0.2.10")
        resolver.resolve_ptr("192.0.2.11")
        assert resolver.queries_sent == 2


class TestFailureHandling:
    def test_servfail_surfaces(self):
        _, _, resolver = build_world(FailureModel(servfail_rate=1.0))
        result = resolver.resolve_ptr("192.0.2.10")
        assert result.status is ResolutionStatus.SERVFAIL

    def test_timeout_after_retries(self):
        _, _, resolver = build_world(FailureModel(timeout_rate=1.0))
        result = resolver.resolve_ptr("192.0.2.10")
        assert result.status is ResolutionStatus.TIMEOUT
        assert result.attempts == resolver.retries + 1
        assert result.elapsed_seconds == pytest.approx(resolver.timeout_seconds * result.attempts)

    def test_retry_recovers_from_transient_timeout(self):
        # With a ~50% timeout rate and one retry, most lookups succeed.
        _, _, resolver = build_world(FailureModel(timeout_rate=0.5, seed=5))
        outcomes = [resolver.resolve_ptr("192.0.2.10").status for _ in range(200)]
        ok_share = sum(s is ResolutionStatus.NOERROR for s in outcomes) / len(outcomes)
        assert ok_share > 0.6

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StubResolver(timeout_seconds=0)
        with pytest.raises(ValueError):
            StubResolver(retries=-1)
        with pytest.raises(ValueError):
            StubResolver(backoff_base=-1.0)

    def test_refused_is_distinct_from_servfail(self):
        from repro.netsim.faults import FaultPlan, NetworkFaultProfile

        plan = FaultPlan(
            default_profile=NetworkFaultProfile(rdns_refused_rate=1.0)
        )
        server, _, _ = build_world()
        resolver = StubResolver(fault_plan=plan)
        resolver.delegate(server)
        result = resolver.resolve_ptr("192.0.2.10")
        assert result.status is ResolutionStatus.REFUSED
        assert result.status is not ResolutionStatus.SERVFAIL
        assert result.status is not ResolutionStatus.NOERROR
        assert resolver.server_health["ns1.example.edu"].refused == 1

    def test_server_health_counters(self):
        _, _, resolver = build_world(FailureModel(timeout_rate=0.5, seed=5))
        for _ in range(100):
            resolver.resolve_ptr("192.0.2.10")
        health = resolver.server_health["ns1.example.edu"]
        assert health.queries == 100
        assert health.answers > 0
        assert health.timeouts == resolver.timeouts_seen > 0
        assert health.max_consecutive_timeouts >= 1

    def test_backoff_extends_elapsed_time(self):
        server, _, _ = build_world(FailureModel(timeout_rate=1.0))
        resolver = StubResolver(backoff_base=2.0)
        resolver.delegate(server)
        result = resolver.resolve_ptr("192.0.2.10")
        expected_min = resolver.timeout_seconds * result.attempts + sum(
            2.0 * 2 ** (attempt - 1) * 0.5 for attempt in range(1, result.attempts + 1)
        )
        assert result.elapsed_seconds >= expected_min


class TestDelegation:
    def test_longest_match_delegation(self):
        narrow_server = AuthoritativeServer("narrow")
        narrow_zone = ReverseZone("10.1.2.0/24")
        narrow_zone.set_ptr("10.1.2.3", "narrow.example.net")
        narrow_server.add_zone(narrow_zone)

        wide_server = AuthoritativeServer("wide")
        wide_zone = ReverseZone("10.0.0.0/8")
        wide_zone.set_ptr("10.9.9.9", "wide.example.net")
        wide_server.add_zone(wide_zone)

        resolver = StubResolver()
        resolver.delegate(wide_server)
        resolver.delegate(narrow_server)
        assert resolver.resolve_ptr("10.1.2.3").hostname == "narrow.example.net"
        assert resolver.resolve_ptr("10.9.9.9").hostname == "wide.example.net"

    def test_server_for_unserved_name(self):
        resolver = StubResolver()
        assert resolver.server_for(reverse_pointer("10.0.0.1")) is None
