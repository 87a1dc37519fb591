"""Tests for the authoritative server and failure injection."""

import pytest

from repro.dns import (
    AuthoritativeServer,
    DnsMessage,
    FailureModel,
    NoSuchZoneError,
    Rcode,
    RecordType,
    ReverseZone,
    ServerBehavior,
    reverse_pointer,
)
from repro.dns.name import DomainName
from repro.dns.rcode import Opcode


@pytest.fixture
def server():
    server = AuthoritativeServer("ns1.campus.example.edu")
    zone = ReverseZone("192.0.2.0/24")
    zone.set_ptr("192.0.2.10", "brians-mbp.campus.example.edu")
    server.add_zone(zone)
    return server


class TestAnswering:
    def test_answers_ptr_query(self, server):
        response = server.lookup_ptr(reverse_pointer("192.0.2.10"))
        assert response.rcode is Rcode.NOERROR
        assert response.authoritative
        assert response.answers[0].rdata_text() == "brians-mbp.campus.example.edu."

    def test_nxdomain_includes_soa_in_authority(self, server):
        response = server.lookup_ptr(reverse_pointer("192.0.2.11"))
        assert response.rcode is Rcode.NXDOMAIN
        assert response.answers == []
        assert response.authority[0].rtype is RecordType.SOA

    def test_out_of_bailiwick_is_refused(self, server):
        response = server.lookup_ptr(reverse_pointer("10.9.9.9"))
        assert response.rcode is Rcode.REFUSED

    def test_non_query_opcode_is_notimp(self, server):
        query = DnsMessage.query(reverse_pointer("192.0.2.10"))
        query.opcode = Opcode.NOTIFY
        assert server.handle(query).rcode is Rcode.NOTIMP

    def test_response_echoes_msg_id(self, server):
        query = DnsMessage.query(reverse_pointer("192.0.2.10"), msg_id=999)
        assert server.handle(query).msg_id == 999

    def test_query_counter(self, server):
        server.lookup_ptr(reverse_pointer("192.0.2.10"))
        server.lookup_ptr(reverse_pointer("192.0.2.11"))
        assert server.queries_handled == 2


class TestZoneSelection:
    def test_longest_origin_match(self):
        server = AuthoritativeServer()
        wide = ReverseZone("10.0.0.0/8")
        narrow = ReverseZone("10.1.2.0/24")
        narrow.set_ptr("10.1.2.3", "narrow.example.net")
        wide.set_ptr("10.1.2.3", "wide.example.net")
        server.add_zone(wide)
        server.add_zone(narrow)
        assert server.zone_for(reverse_pointer("10.1.2.3")) is narrow
        assert server.zone_for(reverse_pointer("10.250.0.1")) is wide

    def test_duplicate_zone_rejected(self):
        server = AuthoritativeServer()
        server.add_zone(ReverseZone("10.0.0.0/24"))
        with pytest.raises(Exception):
            server.add_zone(ReverseZone("10.0.0.0/24"))

    def test_zone_for_unserved_name_raises(self):
        server = AuthoritativeServer()
        with pytest.raises(NoSuchZoneError):
            server.zone_for(DomainName.parse("1.1.1.1.in-addr.arpa"))


class TestFailureModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FailureModel(servfail_rate=1.5)
        with pytest.raises(ValueError):
            FailureModel(servfail_rate=0.6, timeout_rate=0.6)

    def test_zero_rates_always_answer(self):
        model = FailureModel()
        assert all(model.draw() is ServerBehavior.ANSWER for _ in range(100))

    def test_total_failure_never_answers(self):
        model = FailureModel(servfail_rate=0.5, timeout_rate=0.5, seed=3)
        assert all(model.draw() is not ServerBehavior.ANSWER for _ in range(100))

    def test_deterministic_given_seed(self):
        draws_a = [FailureModel(0.3, 0.3, seed=7).draw() for _ in range(1)]
        draws_b = [FailureModel(0.3, 0.3, seed=7).draw() for _ in range(1)]
        assert draws_a == draws_b

    def test_rates_approximately_respected(self):
        model = FailureModel(servfail_rate=0.2, timeout_rate=0.1, seed=11)
        draws = [model.draw() for _ in range(5000)]
        servfail_share = sum(d is ServerBehavior.SERVFAIL for d in draws) / len(draws)
        timeout_share = sum(d is ServerBehavior.TIMEOUT for d in draws) / len(draws)
        assert abs(servfail_share - 0.2) < 0.03
        assert abs(timeout_share - 0.1) < 0.03

    def test_timeout_returns_none(self):
        server = AuthoritativeServer(failure_model=FailureModel(timeout_rate=1.0))
        server.add_zone(ReverseZone("10.0.0.0/24"))
        assert server.handle(DnsMessage.query(reverse_pointer("10.0.0.1"))) is None
        assert server.failures_injected == 1

    def test_servfail_response(self):
        server = AuthoritativeServer(failure_model=FailureModel(servfail_rate=1.0))
        server.add_zone(ReverseZone("10.0.0.0/24"))
        response = server.handle(DnsMessage.query(reverse_pointer("10.0.0.1")))
        assert response.rcode is Rcode.SERVFAIL


class TestCheckpoint:
    def test_restore_rolls_back_zones_and_failure_draws(self):
        server = AuthoritativeServer(failure_model=FailureModel(0.3, 0.3, seed=5))
        covering = ReverseZone("192.0.2.0/24")
        child = ReverseZone("192.0.2.0/28")
        covering.set_ptr("192.0.2.200", "static.example.net")
        server.add_zone(covering)
        server.add_zone(child)

        def state():
            return [
                (list(zone.entries()), list(zone.glue_records()), zone.serial, zone.journal)
                for zone in server.zones()
            ]

        before = state()
        checkpoint = server.checkpoint()
        expected_draws = [server.failure_model.draw() for _ in range(20)]
        server.restore(checkpoint)
        covering.set_ptr("192.0.2.10", "brians-mbp.example.net")
        covering.remove_ptr("192.0.2.200")
        covering.add_rfc2317_glue(child)
        child.set_ptr("192.0.2.3", "laptop.example.net")
        server.handle(DnsMessage.query(reverse_pointer("192.0.2.10")))
        server.restore(checkpoint)
        assert state() == before
        assert [server.failure_model.draw() for _ in range(20)] == expected_draws
        assert server.queries_handled == 1
