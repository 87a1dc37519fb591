"""Tests for DNS-update policies."""

import ipaddress

import pytest

from repro.dhcp import Lease
from repro.ipam import CarryOverPolicy, HashedPolicy, NoUpdatePolicy, StaticTemplatePolicy


def make_lease(host_name="Brian's iPhone", address="10.1.2.3", client="mac-aa"):
    return Lease(
        address=ipaddress.IPv4Address(address),
        client_id=client,
        duration=3600,
        bound_at=0,
        host_name=host_name,
    )


class TestCarryOverPolicy:
    def test_publishes_sanitized_device_name(self):
        policy = CarryOverPolicy("campus.example.edu")
        assert policy.hostname_for(make_lease()) == "brians-iphone.campus.example.edu"

    def test_fallback_when_no_host_name(self):
        policy = CarryOverPolicy("campus.example.edu")
        assert policy.hostname_for(make_lease(host_name=None)) == "dhcp-10-1-2-3.campus.example.edu"

    def test_custom_fallback_prefix(self):
        policy = CarryOverPolicy("isp.example.net", fallback_prefix="client")
        assert policy.hostname_for(make_lease(host_name="")) == "client-10-1-2-3.isp.example.net"

    def test_exposes_dynamics(self):
        assert CarryOverPolicy("x.example").exposes_dynamics

    def test_suffix_normalised(self):
        assert CarryOverPolicy("campus.example.edu.").suffix == "campus.example.edu"

    def test_empty_suffix_rejected(self):
        with pytest.raises(ValueError):
            CarryOverPolicy("")

    def test_no_static_form(self):
        assert CarryOverPolicy("x.example").static_hostname_for("10.1.2.3") is None


class TestStaticTemplatePolicy:
    def test_fixed_form_hostname(self):
        policy = StaticTemplatePolicy("dynamic.institute.edu")
        assert policy.hostname_for(make_lease()) == "host-10-1-2-3.dynamic.institute.edu"

    def test_ignores_device_name(self):
        policy = StaticTemplatePolicy("dynamic.institute.edu")
        a = policy.hostname_for(make_lease(host_name="Brian's iPhone"))
        b = policy.hostname_for(make_lease(host_name="Alices-Android"))
        assert a == b

    def test_static_form_matches_dynamic_form(self):
        policy = StaticTemplatePolicy("dynamic.institute.edu")
        lease = make_lease()
        assert policy.static_hostname_for(lease.address) == policy.hostname_for(lease)
        # Integer and text addresses name the same record.
        assert policy.static_hostname_for(int(lease.address)) == policy.hostname_for(lease)
        assert policy.static_hostname_for(str(lease.address)) == policy.hostname_for(lease)

    def test_last_octet_template(self):
        policy = StaticTemplatePolicy("pool.example.net", template="c{last_octet}")
        assert policy.hostname_for(make_lease(address="10.1.2.77")) == "c77.pool.example.net"

    def test_template_without_placeholders_rejected(self):
        with pytest.raises(ValueError):
            StaticTemplatePolicy("x.example", template="host")

    def test_does_not_expose_dynamics(self):
        assert not StaticTemplatePolicy("x.example").exposes_dynamics


class TestHashedPolicy:
    def test_hostname_contains_no_identity(self):
        policy = HashedPolicy("campus.example.edu")
        hostname = policy.hostname_for(make_lease())
        assert "brian" not in hostname
        assert "iphone" not in hostname
        assert hostname.endswith(".campus.example.edu")

    def test_stable_per_client(self):
        policy = HashedPolicy("x.example")
        a = policy.hostname_for(make_lease(client="mac-aa"))
        b = policy.hostname_for(make_lease(client="mac-aa", address="10.9.9.9"))
        assert a.split(".")[0] == b.split(".")[0]

    def test_distinct_clients_distinct_digests(self):
        policy = HashedPolicy("x.example")
        a = policy.hostname_for(make_lease(client="mac-aa"))
        b = policy.hostname_for(make_lease(client="mac-bb"))
        assert a != b

    def test_key_changes_digest(self):
        lease = make_lease()
        a = HashedPolicy("x.example", key=b"k1").hostname_for(lease)
        b = HashedPolicy("x.example", key=b"k2").hostname_for(lease)
        assert a != b

    def test_digest_length_honored(self):
        policy = HashedPolicy("x.example", digest_length=8)
        label = policy.hostname_for(make_lease()).split(".")[0]
        assert label == "h-" + label[2:]
        assert len(label) == 2 + 8

    def test_digest_length_validated(self):
        with pytest.raises(ValueError):
            HashedPolicy("x.example", digest_length=2)


class TestNoUpdatePolicy:
    def test_never_publishes(self):
        policy = NoUpdatePolicy("x.example")
        assert policy.hostname_for(make_lease()) is None
        assert not policy.exposes_dynamics
