"""Run the doctest examples embedded in module docstrings."""

import doctest

import pytest

import repro.core.names
import repro.core.terms
import repro.dns.name
import repro.dns.records
import repro.ipam.hostname
import repro.netsim.simtime
import repro.reporting.tables

MODULES = [
    repro.core.names,
    repro.core.terms,
    repro.dns.name,
    repro.dns.records,
    repro.ipam.hostname,
    repro.netsim.simtime,
    repro.reporting.tables,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
