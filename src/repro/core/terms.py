"""Hostname term extraction and suffix handling (Section 5.1).

Terms are maximal runs of alphabetical characters ("we use a regular
expression that extracts words consisting of alphabetical characters
from PTR records").  Suffix extraction indexes networks "by hostname
suffix (TLD+1)", with a small built-in public-suffix table so that
``campus.uni.ac.nl`` groups under ``uni.ac.nl`` rather than ``ac.nl``.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import FrozenSet, Iterable, List, Set

from repro.datasets.terms import DEVICE_TERMS, GENERIC_ROUTER_TERMS

_WORD_RE = re.compile(r"[a-z]+")

#: Multi-label public suffixes the simulated worlds use; real
#: deployments would plug in the full PSL here.
MULTI_LABEL_PUBLIC_SUFFIXES: FrozenSet[str] = frozenset(
    {
        "ac.nl",
        "ac.uk",
        "ac.jp",
        "co.uk",
        "co.jp",
        "com.au",
        "edu.au",
        "or.jp",
        "gov.uk",
    }
)


def extract_terms(hostname: str, *, min_length: int = 1) -> List[str]:
    """Lower-cased alphabetical words in a hostname, in order.

    >>> extract_terms("brians-galaxy-note9.campus.example.edu")
    ['brians', 'galaxy', 'note', 'campus', 'example', 'edu']
    """
    terms = _WORD_RE.findall(hostname.lower())
    if min_length > 1:
        terms = [term for term in terms if len(term) >= min_length]
    return terms


def device_terms_in(hostname: str) -> Set[str]:
    """The Figure-3 device terms contained in a hostname (lower-cased substring).

    Substrings, not :func:`extract_terms` tokens: ``samsunggalaxytab``
    is one token, yet it names a *galaxy*.

    >>> sorted(device_terms_in("brians-galaxy-note9.campus.example.edu"))
    ['galaxy']
    """
    hostname = hostname.lower()
    return {term for term in DEVICE_TERMS if term in hostname}


def hostname_suffix(hostname: str, *, extra_levels: int = 1) -> str:
    """The TLD+1 suffix of a hostname (the paper's network index key).

    ``extra_levels`` adds labels beyond the registrable domain, e.g.
    ``extra_levels=2`` keeps ``campus.stateu.edu`` for
    ``brians-mbp.campus.stateu.edu``.

    >>> hostname_suffix("client1.someisp.com")
    'someisp.com'
    >>> hostname_suffix("host.campus.uni.ac.nl")
    'uni.ac.nl'
    """
    labels = hostname.lower().rstrip(".").split(".")
    if len(labels) < 2:
        return hostname.lower().rstrip(".")
    public = 1
    if len(labels) >= 2 and ".".join(labels[-2:]) in MULTI_LABEL_PUBLIC_SUFFIXES:
        public = 2
    keep = min(len(labels), public + extra_levels)
    return ".".join(labels[-keep:])


def is_router_level(hostname: str, *, generic_terms: FrozenSet[str] = GENERIC_ROUTER_TERMS) -> bool:
    """Whether a hostname looks like router/location infrastructure.

    Only the *prefix* part (labels below the suffix) is examined, so a
    network whose suffix happens to contain a generic word (e.g.
    ``dyn.metronet.net``) is not blanket-excluded — the paper excludes
    router-level *records*, not whole networks.
    """
    suffix = hostname_suffix(hostname)
    prefix_part = hostname.lower().rstrip(".")
    if prefix_part.endswith(suffix):
        prefix_part = prefix_part[: -len(suffix)].rstrip(".")
    if not prefix_part:
        return False
    return has_router_term(prefix_part, generic_terms=generic_terms)


def has_router_term(text: str, *, generic_terms: FrozenSet[str] = GENERIC_ROUTER_TERMS) -> bool:
    """Whether any alphabetical word of ``text`` is a generic router/location term.

    >>> has_router_term("xe-0-0-1.core1"), has_router_term("brians-iphone")
    (True, False)
    """
    return not generic_terms.isdisjoint(extract_terms(text))


def count_terms(hostnames: Iterable[str], *, min_length: int = 3) -> Counter:
    """Occurrences of each term across hostnames (Section 5.1's common
    terms, with the paper's three-character minimum)."""
    counter: Counter = Counter()
    for hostname in hostnames:
        counter.update(set(extract_terms(hostname, min_length=min_length)))
    return counter
