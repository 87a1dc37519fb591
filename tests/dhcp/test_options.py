"""Tests for DHCP options and the RFC 7844 anonymity profile."""

from repro.dhcp import (
    ANONYMITY_PROFILE,
    ClientFqdn,
    DhcpOptionCode,
    OptionSet,
    apply_anonymity_profile,
)
from repro.dhcp.options import AnonymityProfile


class TestOptionSet:
    def test_set_get_remove(self):
        options = OptionSet()
        options.set(DhcpOptionCode.LEASE_TIME, 3600)
        assert options.get(DhcpOptionCode.LEASE_TIME) == 3600
        options.remove(DhcpOptionCode.LEASE_TIME)
        assert options.get(DhcpOptionCode.LEASE_TIME) is None

    def test_remove_is_idempotent(self):
        options = OptionSet()
        options.remove(DhcpOptionCode.HOST_NAME)

    def test_host_name_property(self):
        options = OptionSet()
        options.host_name = "Brians-iPhone"
        assert options.host_name == "Brians-iPhone"
        assert DhcpOptionCode.HOST_NAME in options
        options.host_name = None
        assert DhcpOptionCode.HOST_NAME not in options

    def test_client_fqdn_property(self):
        options = OptionSet()
        fqdn = ClientFqdn("brians-iphone.example.com")
        options.client_fqdn = fqdn
        assert options.client_fqdn is fqdn

    def test_copy_is_independent(self):
        options = OptionSet()
        options.host_name = "a"
        clone = options.copy()
        clone.host_name = "b"
        assert options.host_name == "a"

    def test_equality(self):
        a, b = OptionSet(), OptionSet()
        a.host_name = "x"
        b.host_name = "x"
        assert a == b

    def test_iteration_and_len(self):
        options = OptionSet()
        options.host_name = "x"
        options.set(DhcpOptionCode.LEASE_TIME, 60)
        assert len(options) == 2
        assert set(options) == {DhcpOptionCode.HOST_NAME, DhcpOptionCode.LEASE_TIME}


class TestClientFqdn:
    def test_defaults(self):
        fqdn = ClientFqdn("host.example.com")
        assert not fqdn.no_server_update

    def test_no_update_flag(self):
        fqdn = ClientFqdn("host.example.com", no_server_update=True)
        assert fqdn.no_server_update


class TestAnonymityProfile:
    def make_identifying_options(self):
        options = OptionSet()
        options.host_name = "Brians-iPhone"
        options.client_fqdn = ClientFqdn("brians-iphone.example.com")
        options.set(DhcpOptionCode.CLIENT_IDENTIFIER, "aa:bb:cc")
        options.set(DhcpOptionCode.VENDOR_CLASS, "android-dhcp-12")
        options.set(DhcpOptionCode.LEASE_TIME, 3600)
        return options

    def test_default_profile_strips_all_identifiers(self):
        cleaned = apply_anonymity_profile(self.make_identifying_options())
        assert cleaned.host_name is None
        assert cleaned.client_fqdn is None
        assert cleaned.get(DhcpOptionCode.CLIENT_IDENTIFIER) is None
        assert cleaned.get(DhcpOptionCode.VENDOR_CLASS) is None

    def test_profile_keeps_non_identifying_options(self):
        cleaned = apply_anonymity_profile(self.make_identifying_options())
        assert cleaned.get(DhcpOptionCode.LEASE_TIME) == 3600

    def test_original_options_untouched(self):
        options = self.make_identifying_options()
        apply_anonymity_profile(options)
        assert options.host_name == "Brians-iPhone"

    def test_partial_profile(self):
        profile = AnonymityProfile(strip_host_name=False)
        cleaned = apply_anonymity_profile(self.make_identifying_options(), profile)
        assert cleaned.host_name == "Brians-iPhone"
        assert cleaned.client_fqdn is None

    def test_stripped_codes(self):
        codes = ANONYMITY_PROFILE.stripped_codes()
        assert DhcpOptionCode.HOST_NAME in codes
        assert DhcpOptionCode.CLIENT_FQDN in codes
