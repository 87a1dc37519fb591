"""Given-name and device-term matching: equivalence with the naive substring rules."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.names import MIN_NAME_LENGTH, GivenNameMatcher
from repro.core.terms import device_terms_in, extract_terms
from repro.datasets.names import TOP_GIVEN_NAMES
from repro.datasets.terms import DEVICE_TERMS
from tests.oracles import naive_find_unique

name = st.text(alphabet="abcdefABC -", min_size=1, max_size=8)
text = st.text(alphabet="abcdefABCDEF-.0123456789", max_size=40)


def cleaned(names):
    """The names a matcher keeps: lower-cased, stripped, long enough."""
    return {n.lower().strip() for n in names if len(n.lower().strip()) >= MIN_NAME_LENGTH}


def two_path_device_terms(hostname):
    """Device terms by token or by substring, the leak identifier's old rule."""
    substrings = {term for term in DEVICE_TERMS if term in hostname.lower()}
    return set(extract_terms(hostname)) & set(DEVICE_TERMS) | substrings


class TestNaiveEquivalence:
    @given(names=st.lists(name, min_size=1, max_size=20), haystack=text)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_on_random_inputs(self, names, haystack):
        usable = cleaned(names)
        if not usable:
            with pytest.raises(ValueError):
                GivenNameMatcher(names)
            return
        matcher = GivenNameMatcher(names)
        expected = naive_find_unique(usable, haystack.lower())
        assert matcher.match(haystack) == set(expected)
        assert matcher.matches(haystack) == bool(expected)
        longest = min(expected, key=lambda n: (-len(n), n)) if expected else None
        assert matcher.first_match(haystack) == longest

    def test_matches_naive_on_random_hostnames_full_name_list(self):
        rng = random.Random(20220901)
        matcher = GivenNameMatcher()
        names = cleaned(TOP_GIVEN_NAMES)
        pieces = sorted(names) + ["laptop", "iphone", "router", "dyn", "rev", "x1"]
        for _ in range(200):
            hostname = "-".join(rng.sample(pieces, rng.randint(1, 4))) + ".campus.example.edu"
            assert matcher.match(hostname) == set(naive_find_unique(names, hostname))


class TestDeviceTerms:
    @given(
        parts=st.lists(
            st.sampled_from(DEVICE_TERMS + ["brian", "emma", "jackson", "dyn", "x1", "note9"])
            | st.text(alphabet="abcxyz019", max_size=6),
            max_size=6,
        ),
        separator=st.sampled_from(["", "-", "."]),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_two_path_rule_on_mixed_case(self, parts, separator, rng):
        joined = separator.join(parts) + ".dyn.example.net"
        hostname = "".join(char.upper() if rng.random() < 0.5 else char for char in joined)
        assert device_terms_in(hostname) == two_path_device_terms(hostname)


class TestGivenNameMatcherSemantics:
    def test_jacksonville_longest_first(self):
        # The paper's confound: 'jacksonville' contains nested names.
        matcher = GivenNameMatcher(["jack", "jackson", "ville"])
        assert matcher.match("jacksonville.city.example.net") == {"jack", "jackson", "ville"}
        assert matcher.first_match("jacksonville.city.example.net") == "jackson"

    def test_full_name_list_unchanged_vs_naive(self):
        matcher = GivenNameMatcher()
        hostnames = [
            "brians-iphone.campus.stateu.edu",
            "jacksonville-gw.router.example.net",
            "marias-macbook-pro.office.globex.com",
            "DESKTOP-A1B2C3.corp.initech.com",
            "christophers-galaxy-note9.dorm.college.edu",
            "no-names-at-all.example",
        ]
        for hostname in hostnames:
            naive = set(naive_find_unique(matcher.names, hostname.lower()))
            assert matcher.match(hostname) == naive
            assert matcher.matches(hostname) == bool(naive)
        counted = matcher.count_matches(hostnames)
        assert counted["brian"] == 1
        assert counted["jackson"] == 1

    def test_first_match_deterministic_on_length_ties(self):
        matcher = GivenNameMatcher(["dana", "anna"])
        # Both four-letter names occur; the alphabetical tiebreak wins.
        assert matcher.first_match("dananna-box") == "anna"

    def test_duplicate_names_collapse(self):
        matcher = GivenNameMatcher(["ann", "Ann", " ann "])
        assert matcher.names == ["ann"]
        assert matcher.match("joanne.example.net") == {"ann"}

    def test_empty_name_list_rejected(self):
        with pytest.raises(ValueError):
            GivenNameMatcher([])
