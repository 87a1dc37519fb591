"""Operator-facing exposure audit.

The paper's mitigation advice (Section 8) asks operators to review
"the configuration of the internal networks".  This module gives them
the attacker's view of their own address space: given a window of rDNS
observations (their own zone's content over time), it scores how much
an outsider can learn.

Three exposure dimensions are scored, each normalised to [0, 1]:

* **identity** — share of observed records whose hostnames carry
  person or device identifiers;
* **dynamics** — how strongly record churn tracks client presence
  (records appearing and disappearing rather than staying constant);
* **trackability** — how stable (address, hostname) pairings are over
  time, i.e. how easy it is to follow one device across days.
"""

from __future__ import annotations

import datetime as dt
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.names import GivenNameMatcher
from repro.core.terms import device_terms_in, is_router_level
from repro.netsim.simtime import date_of
from repro.scan.observations import RdnsObservation


@dataclass(frozen=True)
class ExposureReport:
    """The audit outcome for one network."""

    records_observed: int
    identity_score: float
    dynamics_score: float
    trackability_score: float
    named_hostnames: Tuple[str, ...]
    device_term_hostnames: Tuple[str, ...]

    @property
    def overall(self) -> float:
        """Overall exposure in [0, 1] (simple mean of the dimensions)."""
        return (self.identity_score + self.dynamics_score + self.trackability_score) / 3

    def grade(self) -> str:
        """A letter grade an operator can act on."""
        overall = self.overall
        if overall < 0.15:
            return "A"
        if overall < 0.35:
            return "B"
        if overall < 0.55:
            return "C"
        if overall < 0.75:
            return "D"
        return "F"

    def summary(self) -> str:
        return (
            f"exposure grade {self.grade()} "
            f"(identity={self.identity_score:.2f}, dynamics={self.dynamics_score:.2f}, "
            f"trackability={self.trackability_score:.2f}; "
            f"{self.records_observed} records observed)"
        )


class ExposureAuditor:
    """Scores rDNS exposure from observation data alone."""

    def __init__(self, matcher: Optional[GivenNameMatcher] = None, *, sample_limit: int = 10):
        self.matcher = matcher or GivenNameMatcher()
        self.sample_limit = sample_limit

    def audit(self, observations: Iterable[RdnsObservation]) -> ExposureReport:
        """Audit one network's observation window."""
        ok_observations = [obs for obs in observations if obs.ok]
        hostnames_by_address: Dict[object, Set[str]] = defaultdict(set)
        days_by_pair: Dict[Tuple[object, str], Set[dt.date]] = defaultdict(set)
        presence_by_address: Dict[object, Set[dt.date]] = defaultdict(set)
        # Insertion-ordered dicts: first-seen order, O(1) de-duplication.
        named: Dict[str, None] = {}
        device_termed: Dict[str, None] = {}
        client_hostnames: Set[str] = set()

        for obs in ok_observations:
            hostname = obs.hostname
            hostnames_by_address[obs.address].add(hostname)
            day = date_of(obs.at)
            days_by_pair[(obs.address, hostname)].add(day)
            presence_by_address[obs.address].add(day)
            if is_router_level(hostname):
                continue
            client_hostnames.add(hostname)
            if self.matcher.matches(hostname):
                named[hostname] = None
            if device_terms_in(hostname):
                device_termed[hostname] = None

        if not ok_observations:
            return ExposureReport(0, 0.0, 0.0, 0.0, (), ())

        identity = self._identity_score(client_hostnames, named, device_termed)
        dynamics = self._dynamics_score(presence_by_address)
        trackability = self._trackability_score(days_by_pair, hostnames_by_address)
        return ExposureReport(
            records_observed=len({(obs.address, obs.hostname) for obs in ok_observations}),
            identity_score=identity,
            dynamics_score=dynamics,
            trackability_score=trackability,
            named_hostnames=tuple(named)[: self.sample_limit],
            device_term_hostnames=tuple(device_termed)[: self.sample_limit],
        )

    def _identity_score(self, client_hostnames, named, device_termed) -> float:
        if not client_hostnames:
            return 0.0
        carrying = named.keys() | device_termed.keys()
        return len(carrying & client_hostnames) / len(client_hostnames)

    def _dynamics_score(self, presence_by_address) -> float:
        """Share of addresses whose records come and go across days."""
        if not presence_by_address:
            return 0.0
        all_days: Set[dt.date] = set()
        for days in presence_by_address.values():
            all_days |= days
        if len(all_days) < 2:
            return 0.0
        intermittent = sum(
            1 for days in presence_by_address.values() if 0 < len(days) < len(all_days)
        )
        return intermittent / len(presence_by_address)

    def _trackability_score(self, days_by_pair, hostnames_by_address) -> float:
        """How persistently (address, hostname) pairs recur over days."""
        multi_day = [days for days in days_by_pair.values() if len(days) >= 2]
        if not days_by_pair:
            return 0.0
        persistence = len(multi_day) / len(days_by_pair)
        # Stable addressing amplifies persistence: one hostname per
        # address means an observer needs no correlation step at all.
        single_named = sum(1 for names in hostnames_by_address.values() if len(names) == 1)
        stability = single_named / len(hostnames_by_address)
        return (persistence + stability) / 2


def audit_by_network(
    observations: Iterable[RdnsObservation], *, auditor: Optional[ExposureAuditor] = None
) -> Dict[str, ExposureReport]:
    """Run the audit separately for every network in the observations."""
    auditor = auditor or ExposureAuditor()
    by_network: Dict[str, List[RdnsObservation]] = defaultdict(list)
    for obs in observations:
        by_network[obs.network].append(obs)
    return {network: auditor.audit(batch) for network, batch in sorted(by_network.items())}
