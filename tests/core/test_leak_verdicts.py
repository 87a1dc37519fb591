"""Bulk verdicts: :meth:`LeakIdentifier.judge` against the per-hostname reference.

``judge`` sweeps every name's first label and each distinct parent zone
once, and computes suffix and router level once per zone of three or
more labels.  Row for row it must give what
:func:`tests.oracles.reference_verdict` gives for each hostname alone,
whatever the case, the trailing dots, the label count or the public
suffix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GivenNameMatcher, LeakIdentifier
from repro.core.leaks import NO_NAME, ROUTER_LEVEL
from repro.core.names import LABEL_BREAK
from repro.datasets.terms import DEVICE_TERMS
from tests.oracles import reference_verdict

PIECES = ["brian", "emma", "jackson", "iphone", "galaxy", "air", "xe", "core1", "gw", "north", "7", "ab"]
MIDDLES = ["core", "north", "jacksonville", "dyn", "pool", "campus", "brian", "edge2", "wifi", "x"]
# Tails from none (a one-label name) to three labels, with the
# multi-label public suffixes ac.nl and co.uk.
TAILS = [
    [], ["com"], ["example", "com"], ["ac", "nl"], ["co", "uk"], ["uni", "ac", "nl"],
    ["jacksonville", "net"], ["stateu", "edu"],
]

first_label = st.lists(st.sampled_from(PIECES), max_size=4).map("-".join)
case = st.sampled_from([str.lower, str.upper, str.title, str.swapcase])
structured = st.builds(
    lambda case, first, middles, tail, dots: case(LABEL_BREAK.join([first, *middles, *tail])) + dots,
    case,
    first_label,
    st.lists(st.sampled_from(MIDDLES), max_size=2),
    st.sampled_from(TAILS),
    st.sampled_from(["", ".", ".."]),
)
# Empty labels, stray characters and lone dots too.
raw = st.text(alphabet="abjcksonvilEMA.-07 ", max_size=24)
hostname = st.one_of(structured, raw)


def verdict_rows(identifier, verdicts):
    """The bulk table in the reference's per-hostname form."""
    given = len(identifier.matcher.names)
    names = [[] for _ in range(len(verdicts.suffix))]
    terms = [[] for _ in range(len(verdicts.suffix))]
    for row, which in zip(verdicts.rows.tolist(), verdicts.which.tolist()):
        (names if which < given else terms)[row].append(identifier.patterns[which])
    suffixes = list(identifier.suffixes)
    rows = []
    for row, code in enumerate(verdicts.suffix.tolist()):
        if code == NO_NAME:
            assert not names[row] and not terms[row]
            rows.append(None)
            continue
        suffix = None if code == ROUTER_LEVEL else suffixes[code]
        rows.append((tuple(sorted(names[row])), tuple(sorted(terms[row])), suffix))
    return rows


def assert_matches_reference(identifier, hostnames):
    distinct = list(dict.fromkeys(hostnames))
    assert verdict_rows(identifier, identifier.judge(distinct)) == [
        reference_verdict(identifier, name) for name in distinct
    ]


class TestBulkVerdicts:
    @given(st.lists(hostname, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_per_hostname_reference(self, hostnames):
        assert_matches_reference(LeakIdentifier(GivenNameMatcher()), hostnames)

    @given(st.lists(hostname, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_overlapping_names_inside_the_suffix(self, hostnames):
        matcher = GivenNameMatcher(["jack", "jackson", "ville", "brian"])
        assert_matches_reference(LeakIdentifier(matcher), hostnames)

    def test_router_term_in_first_versus_middle_label(self):
        identifier = LeakIdentifier(GivenNameMatcher())
        names = [
            "xe-0-1.brian.bigisp.net",  # router term in the first label
            "brians-iphone.core.bigisp.net",  # in a middle label
            "brians-iphone.dyn.bigisp.net",  # in neither
            "brian.core.ac.nl",  # in the registrable part of a .ac.nl suffix
            "brians-ipad.uni.ac.nl",
            "jacksonville.co.uk",
        ]
        assert_matches_reference(identifier, names)
        suffix = identifier.judge(names).suffix.tolist()
        assert suffix[:3] == [ROUTER_LEVEL, ROUTER_LEVEL, suffix[2]] and suffix[2] >= 0
        assert suffix[3] >= 0  # core.ac.nl is the suffix, not a router label

    def test_no_pattern_holds_the_label_break(self):
        assert not any(LABEL_BREAK in term for term in DEVICE_TERMS)
        with pytest.raises(ValueError):
            GivenNameMatcher(["brian", "jo.hn"])

    def test_empty_input(self):
        verdicts = LeakIdentifier(GivenNameMatcher()).judge([])
        assert len(verdicts.suffix) == len(verdicts.rows) == 0
