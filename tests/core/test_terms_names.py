"""Tests for term extraction, suffixes, router filtering, name matching."""

from collections import Counter

import pytest

from repro.core import GivenNameMatcher, extract_terms, hostname_suffix, is_router_level


class TestExtractTerms:
    def test_paper_style_hostname(self):
        assert extract_terms("brians-galaxy-note9.campus.example.edu") == [
            "brians",
            "galaxy",
            "note",
            "campus",
            "example",
            "edu",
        ]

    def test_lowercases(self):
        assert extract_terms("Brians-iPhone") == ["brians", "iphone"]

    def test_min_length_filter(self):
        # The paper considers terms of three or more characters ("hp"
        # adds a lot of noise).
        assert extract_terms("hp-laptop-ab12", min_length=3) == ["laptop"]

    def test_numeric_only_hostname(self):
        assert extract_terms("192-0-2-1") == []


class TestHostnameSuffix:
    def test_paper_example(self):
        assert hostname_suffix("client1.someisp.com") == "someisp.com"
        assert hostname_suffix("client2.someisp.com") == "someisp.com"

    def test_multi_label_public_suffix(self):
        assert hostname_suffix("host.campus.techuni.ac.nl") == "techuni.ac.nl"

    def test_extra_levels(self):
        assert hostname_suffix("a.campus.stateu.edu", extra_levels=2) == "campus.stateu.edu"

    def test_short_names(self):
        assert hostname_suffix("localhost") == "localhost"
        assert hostname_suffix("example.com") == "example.com"

    def test_trailing_dot_ignored(self):
        assert hostname_suffix("a.b.example.com.") == "example.com"


class TestRouterLevel:
    def test_compass_terms_are_router_level(self):
        assert is_router_level("xe-0-0-0.core1.north.isp.net")
        assert is_router_level("gw1.south.example.com")

    def test_interface_terms(self):
        assert is_router_level("ae1.border1.denver.as6400.example.net")

    def test_client_hostnames_are_not(self):
        assert not is_router_level("brians-iphone.campus.stateu.edu")
        assert not is_router_level("emmas-galaxy-s10.dyn.metronet.net")

    def test_generic_word_in_suffix_does_not_exclude(self):
        # 'dyn' sits in the network suffix, not the host prefix.
        assert not is_router_level("jacobs-mbp.dyn.metronet.net")

    def test_bare_suffix_is_not_router_level(self):
        assert not is_router_level("example.com")


class TestCountTerms:
    def test_three_character_minimum(self):
        terms = extract_terms("hp-box.example.com", min_length=3)
        assert "hp" not in terms
        assert terms.count("box") == 1


class TestGivenNameMatcher:
    def test_matches_paper_hostnames(self):
        matcher = GivenNameMatcher()
        assert matcher.match("brians-iphone.campus.stateu.edu") == {"brian"}
        assert matcher.matches("emmas-galaxy-s10.dyn.metronet.net")

    def test_city_confounds_match_too(self):
        # Jackson/Jacksonville style collisions are intentionally
        # matched; the suffix thresholds absorb them later.
        matcher = GivenNameMatcher()
        assert "jackson" in matcher.match("jacksonville.core1.isp.net")
        assert "madison" in matcher.match("ae1.madison.isp.net")

    def test_non_matching_hostname(self):
        matcher = GivenNameMatcher()
        assert matcher.match("client-10-0-0-1.pool.example.net") == set()

    def test_short_names_dropped(self):
        matcher = GivenNameMatcher(["al", "bo", "brian"])
        assert len(matcher) == 1
        assert "brian" in matcher

    def test_all_short_names_rejected(self):
        with pytest.raises(ValueError):
            GivenNameMatcher(["al", "bo"])

    def test_count_matches(self):
        matcher = GivenNameMatcher()
        hostnames = ["brians-iphone.a.edu", "brians-mbp.a.edu", "emmas-ipad.a.edu"]
        counter = Counter(name for hostname in hostnames for name in matcher.match(hostname))
        assert counter["brian"] == 2
        assert counter["emma"] == 1

    def test_contains_and_case(self):
        matcher = GivenNameMatcher()
        assert matcher.match("BRIANS-IPHONE.A.EDU") == {"brian"}
