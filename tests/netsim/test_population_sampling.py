"""Background /24 selection and static record sets against their oracles.

The builders derive /24s and host addresses from integer indices; the
oracles in ``tests/oracles.py`` enumerate the whole prefix first.  Both
must yield the same values in the same order, and the same rng draws.
"""

import ipaddress
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.population import (
    NetworkBuilder,
    make_infrastructure_entries,
    make_server_entries,
    make_vanity_entries,
    sample_slash24s,
)
from repro.netsim.rng import RngStreams
from repro.netsim.worldplan import WorldPlan
from tests.oracles import (
    enumerated_infrastructure_entries,
    enumerated_server_entries,
    enumerated_slash24_sample,
    enumerated_vanity_entries,
)


@st.composite
def prefixes(draw, min_len, max_len):
    prefixlen = draw(st.integers(min_value=min_len, max_value=max_len))
    base = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    return str(ipaddress.IPv4Network((base, prefixlen), strict=False))


class TestSlash24Selection:
    @given(
        prefixes(8, 24),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_index_sampling_matches_enumeration(self, prefix, needed, seed):
        total = 1 << (24 - ipaddress.IPv4Network(prefix).prefixlen)
        needed = min(needed, total)
        chosen = sample_slash24s(prefix, random.Random(seed), needed)
        assert chosen == enumerated_slash24_sample(prefix, random.Random(seed), needed)

    @given(prefixes(20, 24), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_whole_space_sample_matches_enumeration(self, prefix, seed):
        # needed == total: the permutation path of random.sample.
        total = 1 << (24 - ipaddress.IPv4Network(prefix).prefixlen)
        chosen = sample_slash24s(prefix, random.Random(seed), total)
        assert chosen == enumerated_slash24_sample(prefix, random.Random(seed), total)
        assert len(set(chosen)) == total

    def test_narrower_than_slash24_names_the_prefix(self):
        with pytest.raises(ValueError, match=r"10\.0\.0\.0/25 is narrower than a /24"):
            sample_slash24s("10.0.0.0/25", random.Random(1), 1)

    def test_too_few_slash24s(self):
        with pytest.raises(ValueError, match=r"10\.0\.0\.0/23 holds only 2 /24s, need 3"):
            sample_slash24s("10.0.0.0/23", random.Random(1), 3)

    def test_background_reports_both_errors(self):
        builder = NetworkBuilder(RngStreams(1))
        with pytest.raises(ValueError, match=r"10\.0\.0\.0/26 is narrower"):
            builder.background("bg", "10.0.0.0/26", "bg.example.net")
        with pytest.raises(ValueError, match="holds only 2 /24s, need 6"):
            builder.background("bg", "10.0.0.0/23", "bg.example.net")

    def test_spec_background_narrower_than_slash24(self):
        spec = {
            "seed": 7,
            "networks": [
                {
                    "kind": "background",
                    "name": "bg-z",
                    "prefix": "10.32.0.0/25",
                    "suffix": "as99.example.net",
                    "static_24s": 1,
                    "dynamic_24s": 1,
                }
            ],
        }
        with pytest.raises(ValueError, match=r"10\.32\.0\.0/25 is narrower than a /24"):
            WorldPlan.from_payload(spec).build()


class TestEntryFactories:
    @given(prefixes(22, 32), st.one_of(st.none(), st.integers(min_value=0, max_value=300)))
    @settings(max_examples=40, deadline=None)
    def test_server_entries(self, prefix, count):
        assert make_server_entries(prefix, "x.example", count=count) == (
            enumerated_server_entries(prefix, "x.example", count=count)
        )

    @given(
        prefixes(22, 32),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_infrastructure_entries(self, prefix, count, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert make_infrastructure_entries(prefix, "x.example", rng, count=count) == (
            enumerated_infrastructure_entries(prefix, "x.example", oracle_rng, count=count)
        )
        assert rng.getstate() == oracle_rng.getstate()

    @given(
        prefixes(22, 32),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_vanity_entries(self, prefix, count, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert make_vanity_entries(prefix, "x.example", rng, count=count) == (
            enumerated_vanity_entries(prefix, "x.example", oracle_rng, count=count)
        )
        assert rng.getstate() == oracle_rng.getstate()
