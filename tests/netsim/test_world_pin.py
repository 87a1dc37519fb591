"""The pinned benchmark world, checked without running the benchmark.

``bench/golden/digests.json`` records each pinned seed's world cache
token; building the world here must reproduce it.  The construction
bound keeps world build proportional to the /24s it keeps: enumerating
the background address space would build ~260,000 networks.
"""

import ipaddress
import json
import pathlib

import pytest

from repro.netsim.internet import build_world

DIGESTS = pathlib.Path(__file__).parents[2] / "bench" / "golden" / "digests.json"

#: ``build_world(42)`` builds about 800 networks, one per subnet.
MAX_NETWORK_CONSTRUCTIONS = 5000


@pytest.mark.parametrize("seed", [42, 7])
def test_world_matches_golden_digest(seed):
    golden = json.loads(DIGESTS.read_text())["seeds"][str(seed)]["world"]
    assert build_world(seed).internet.cache_token() == golden


def count_network_constructions(monkeypatch, build):
    """``(IPv4Network constructions made by build(), its result)``."""
    constructions = [0]
    original = ipaddress.IPv4Network.__init__

    def counting_init(self, *args, **kwargs):
        constructions[0] += 1
        original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ipaddress.IPv4Network, "__init__", counting_init)
        result = build()
    return constructions[0], result


def test_build_does_not_enumerate_the_address_space(monkeypatch):
    constructions, _ = count_network_constructions(monkeypatch, lambda: build_world(42))
    assert 0 < constructions <= MAX_NETWORK_CONSTRUCTIONS
