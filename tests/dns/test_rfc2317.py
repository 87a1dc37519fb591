"""RFC 2317 classless reverse delegation: origins, glue, resolution.

Sub-/24 allocations cannot own a conventional ``in-addr.arpa`` cut, so
they are served from a classless child zone (``0-29.2.0.192.in-addr.arpa.``)
reached through CNAME glue installed in the covering /24 zone.  These
tests pin the whole chain: origin naming, glue installation, the
server's CNAME answer and the resolver's chase.
"""

import ipaddress

import pytest

from repro.dns import (
    Rcode,
    RecordType,
    ReverseZone,
    StubResolver,
    ZoneError,
    reverse_pointer,
    rfc2317_zone_origin,
)
from repro.dns.errors import LabelError
from repro.dns.name import DomainName, rfc2317_zone_label
from repro.dns.resolver import ResolutionStatus
from repro.dns.server import AuthoritativeServer


class TestOrigins:
    def test_dash_form_label(self):
        assert rfc2317_zone_label("192.0.2.0/29") == "0-29"
        assert rfc2317_zone_label("192.0.2.128/25") == "128-25"

    def test_child_zone_origin(self):
        origin = rfc2317_zone_origin("192.0.2.0/29")
        assert origin.to_text() == "0-29.2.0.192.in-addr.arpa."

    def test_octet_aligned_prefix_rejected(self):
        with pytest.raises(LabelError):
            rfc2317_zone_label("192.0.2.0/24")

    def test_sub_slash24_zone_is_classless(self):
        zone = ReverseZone("192.0.2.0/29")
        assert zone.rfc2317
        assert not zone.origin_rounded
        assert zone.origin.to_text() == "0-29.2.0.192.in-addr.arpa."

    def test_misaligned_mid_prefix_flags_rounded_origin(self):
        # A /17 has no octet-aligned origin of its own: the zone claims
        # the covering /16 and flags that it rounded.  World plans turn
        # this flag into a hard validation error.
        zone = ReverseZone("172.16.128.0/17")
        assert not zone.rfc2317
        assert zone.origin_rounded
        assert zone.origin.to_text() == "16.172.in-addr.arpa."

    def test_aligned_zone_is_not_rounded(self):
        assert not ReverseZone("192.0.2.0/24").origin_rounded
        assert not ReverseZone("172.16.0.0/16").origin_rounded


class TestClasslessZone:
    def test_name_for_uses_child_form(self):
        zone = ReverseZone("192.0.2.0/29")
        name = zone.name_for("192.0.2.3")
        assert name.to_text() == "3.0-29.2.0.192.in-addr.arpa."

    def test_name_address_round_trip(self):
        zone = ReverseZone("192.0.2.8/29")
        for address in ipaddress.ip_network("192.0.2.8/29"):
            assert zone.address_for_name(zone.name_for(address)) == address

    def test_out_of_prefix_octet_rejected(self):
        zone = ReverseZone("192.0.2.0/29")
        stray = zone.origin.child("9")  # 192.0.2.9 is outside the /29
        assert zone.address_for_name(stray) is None
        assert zone.lookup(stray, RecordType.PTR) == (Rcode.NXDOMAIN, [])

    def test_set_ptr_and_lookup_child_name(self):
        zone = ReverseZone("192.0.2.0/29")
        zone.set_ptr("192.0.2.3", "brians-iphone.corp.example.com")
        assert zone.get_hostname("192.0.2.3") == "brians-iphone.corp.example.com"
        rcode, answers = zone.lookup(zone.name_for("192.0.2.3"), RecordType.PTR)
        assert rcode is Rcode.NOERROR
        assert answers[0].rdata_text().rstrip(".") == "brians-iphone.corp.example.com"


class TestGlue:
    def test_glue_installs_one_cname_per_address(self):
        covering = ReverseZone("192.0.2.0/24")
        child = ReverseZone("192.0.2.0/29")
        assert covering.add_rfc2317_glue(child) == 8
        glue = list(covering.glue_records())
        assert len(glue) == 8
        assert all(record.rtype is RecordType.CNAME for record in glue)

    def test_glue_maps_parent_form_onto_child_form(self):
        covering = ReverseZone("192.0.2.0/24")
        child = ReverseZone("192.0.2.0/29")
        covering.add_rfc2317_glue(child)
        rcode, answers = covering.lookup(reverse_pointer("192.0.2.3"), RecordType.PTR)
        assert rcode is Rcode.NOERROR
        assert answers[0].rtype is RecordType.CNAME
        assert answers[0].rdata == child.name_for("192.0.2.3")

    def test_glue_rejects_non_classless_child(self):
        covering = ReverseZone("192.0.0.0/16")
        with pytest.raises(ZoneError):
            covering.add_rfc2317_glue(ReverseZone("192.0.2.0/24"))

    def test_glue_rejects_classless_host(self):
        host = ReverseZone("192.0.2.0/25")
        with pytest.raises(ZoneError):
            host.add_rfc2317_glue(ReverseZone("192.0.2.0/29"))

    def test_glue_rejects_child_outside_prefix(self):
        covering = ReverseZone("192.0.2.0/24")
        with pytest.raises(ZoneError):
            covering.add_rfc2317_glue(ReverseZone("192.0.3.0/29"))

    def test_duplicate_glue_rejected(self):
        covering = ReverseZone("192.0.2.0/24")
        child = ReverseZone("192.0.2.0/29")
        covering.add_rfc2317_glue(child)
        with pytest.raises(ZoneError):
            covering.add_glue_cname(
                reverse_pointer("192.0.2.3"), child.name_for("192.0.2.3")
            )


class TestResolution:
    @pytest.fixture
    def delegation(self):
        server = AuthoritativeServer("ns1.corp.example.com")
        covering = ReverseZone("192.0.2.0/24")
        child = ReverseZone("192.0.2.0/29")
        covering.add_rfc2317_glue(child)
        child.set_ptr("192.0.2.3", "printer.corp.example.com")
        server.add_zone(covering)
        server.add_zone(child)
        resolver = StubResolver()
        resolver.delegate(server)
        return resolver

    def test_resolver_chases_glue_cname(self, delegation):
        result = delegation.resolve_ptr("192.0.2.3")
        assert result.status is ResolutionStatus.NOERROR
        assert result.hostname == "printer.corp.example.com"
        # One glue hop: the parent-form query plus the child-form query.
        assert delegation.queries_sent == 2

    def test_unpublished_address_is_nxdomain_through_glue(self, delegation):
        result = delegation.resolve_ptr("192.0.2.4")
        assert result.status is ResolutionStatus.NXDOMAIN

    def test_glue_loop_breaks_as_servfail(self):
        server = AuthoritativeServer("ns1.loop.example.com")
        zone = ReverseZone("192.0.2.0/24")
        # Two glue records chasing each other: a broken delegation.
        left = reverse_pointer("192.0.2.3")
        right = reverse_pointer("192.0.2.4")
        zone.add_glue_cname(left, right)
        zone.add_glue_cname(right, left)
        server.add_zone(zone)
        resolver = StubResolver()
        resolver.delegate(server)
        result = resolver.resolve_ptr("192.0.2.3")
        assert result.status is ResolutionStatus.SERVFAIL


class TestDomainNameHelpers:
    def test_relativize_under_origin(self):
        origin = rfc2317_zone_origin("192.0.2.0/29")
        name = origin.child("3")
        assert DomainName.parse(name.to_text()) == name
