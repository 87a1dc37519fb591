"""Tests for domain names and in-addr.arpa reversal."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns import DomainName, LabelError, from_reverse_pointer, reverse_pointer
from repro.dns.name import IN_ADDR_ARPA, ROOT, reverse_zone_origin


class TestDomainName:
    def test_parse_and_to_text_roundtrip(self):
        name = DomainName.parse("www.example.com")
        assert name.to_text() == "www.example.com."

    def test_parse_absolute_form(self):
        assert DomainName.parse("example.com.") == DomainName.parse("example.com")

    def test_root_parses_from_dot(self):
        assert DomainName.parse(".") == ROOT
        assert ROOT.to_text() == "."
        assert ROOT.is_root

    def test_equality_is_case_insensitive(self):
        assert DomainName.parse("Example.COM") == DomainName.parse("example.com")

    def test_hash_is_case_insensitive(self):
        assert hash(DomainName.parse("A.B")) == hash(DomainName.parse("a.b"))

    def test_labels_preserve_case(self):
        assert DomainName.parse("Example.com").labels == ("Example", "com")

    def test_empty_label_rejected(self):
        with pytest.raises(LabelError):
            DomainName.parse("a..b")

    def test_long_label_rejected(self):
        with pytest.raises(LabelError):
            DomainName(["x" * 64])

    def test_63_octet_label_accepted(self):
        DomainName(["x" * 63])

    def test_non_ascii_label_rejected(self):
        with pytest.raises(LabelError):
            DomainName(["héllo"])

    def test_name_length_limit(self):
        # 5 labels of 63 octets exceed the 255-octet wire limit.
        with pytest.raises(LabelError):
            DomainName(["x" * 63] * 5)

    def test_parent_strips_leftmost_label(self):
        assert DomainName.parse("a.b.c").parent() == DomainName.parse("b.c")

    def test_root_has_no_parent(self):
        with pytest.raises(LabelError):
            ROOT.parent()

    def test_child_prepends_label(self):
        assert DomainName.parse("b.c").child("a") == DomainName.parse("a.b.c")

    def test_subdomain_relation(self):
        child = DomainName.parse("host.example.com")
        parent = DomainName.parse("example.com")
        assert child.is_subdomain_of(parent)
        assert not parent.is_subdomain_of(child)

    def test_name_is_subdomain_of_itself(self):
        name = DomainName.parse("example.com")
        assert name.is_subdomain_of(name)

    def test_everything_is_under_root(self):
        assert DomainName.parse("a.b").is_subdomain_of(ROOT)

    def test_subdomain_requires_label_boundary(self):
        assert not DomainName.parse("notexample.com").is_subdomain_of(
            DomainName.parse("example.com")
        )

    def test_relativize(self):
        name = DomainName.parse("34.216.184.93.in-addr.arpa")
        assert name.relativize(IN_ADDR_ARPA) == ("34", "216", "184", "93")

    def test_relativize_outside_origin_raises(self):
        with pytest.raises(LabelError):
            DomainName.parse("example.com").relativize(IN_ADDR_ARPA)

    def test_ordering_is_by_reversed_labels(self):
        a = DomainName.parse("a.example.com")
        z = DomainName.parse("z.example.com")
        other = DomainName.parse("a.example.net")
        assert a < z < other

    @given(st.lists(st.from_regex(r"[a-z][a-z0-9-]{0,20}", fullmatch=True), min_size=0, max_size=6))
    def test_parse_to_text_roundtrip_property(self, labels):
        name = DomainName(labels)
        assert DomainName.parse(name.to_text()) == name


class TestReversePointer:
    def test_paper_example_1(self):
        # Example 1 from the paper: 93.184.216.34.
        assert reverse_pointer("93.184.216.34").to_text() == "34.216.184.93.in-addr.arpa."

    def test_accepts_ip_address_objects(self):
        ip = ipaddress.IPv4Address("10.0.0.1")
        assert reverse_pointer(ip) == reverse_pointer("10.0.0.1")

    def test_ipv6_reverse_pointer(self):
        name = reverse_pointer("2001:db8::1")
        assert name.to_text().endswith("ip6.arpa.")
        assert len(name.labels) == 32 + 2

    def test_from_reverse_pointer_roundtrip(self):
        ip = ipaddress.IPv4Address("192.0.2.55")
        assert from_reverse_pointer(reverse_pointer(ip)) == ip

    def test_from_reverse_pointer_rejects_forward_names(self):
        with pytest.raises(LabelError):
            from_reverse_pointer(DomainName.parse("www.example.com"))

    def test_from_reverse_pointer_rejects_partial_names(self):
        with pytest.raises(LabelError):
            from_reverse_pointer(DomainName.parse("184.93.in-addr.arpa"))

    def test_from_reverse_pointer_rejects_bad_octets(self):
        with pytest.raises(LabelError):
            from_reverse_pointer(DomainName.parse("999.0.0.10.in-addr.arpa"))
        with pytest.raises(LabelError):
            from_reverse_pointer(DomainName.parse("a.b.c.d.in-addr.arpa"))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, packed):
        ip = ipaddress.IPv4Address(packed)
        assert from_reverse_pointer(reverse_pointer(ip)) == ip


class TestReverseZoneOrigin:
    def test_slash24_origin(self):
        origin = reverse_zone_origin("192.0.2.0/24")
        assert origin.to_text() == "2.0.192.in-addr.arpa."

    def test_slash16_origin(self):
        origin = reverse_zone_origin("10.20.0.0/16")
        assert origin.to_text() == "20.10.in-addr.arpa."

    def test_slash8_origin(self):
        assert reverse_zone_origin("10.0.0.0/8").to_text() == "10.in-addr.arpa."

    def test_non_octet_aligned_rounds_down(self):
        # A /22 is served from the covering /16-style origin.
        origin = reverse_zone_origin("172.16.4.0/22")
        assert origin.to_text() == "16.172.in-addr.arpa."

    def test_reverse_names_fall_under_origin(self):
        origin = reverse_zone_origin("192.0.2.0/24")
        assert reverse_pointer("192.0.2.9").is_subdomain_of(origin)
        assert not reverse_pointer("192.0.3.9").is_subdomain_of(origin)
