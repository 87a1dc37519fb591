"""Authoritative name servers with failure injection.

The paper's supplemental measurement observes three error classes when
querying authoritative servers for PTR records (Figure 6): NXDOMAIN,
name-server failure (SERVFAIL) and timeouts.  :class:`FailureModel`
injects the latter two at configurable rates using a deterministic RNG,
so reproductions of Figure 6 are repeatable.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dns.errors import NoSuchZoneError, ZoneError
from repro.dns.message import DnsMessage
from repro.dns.name import DomainName
from repro.dns.rcode import Opcode, Rcode
from repro.dns.zone import ReverseZone


class ServerBehavior(enum.Enum):
    """Outcome chosen by the failure model for one query."""

    ANSWER = "answer"
    SERVFAIL = "servfail"
    TIMEOUT = "timeout"


@dataclass
class FailureModel:
    """Bernoulli failure injection per query.

    ``servfail_rate`` and ``timeout_rate`` are probabilities in [0, 1];
    their sum must not exceed 1.  A seed makes the draw deterministic.
    """

    servfail_rate: float = 0.0
    timeout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, rate in (("servfail_rate", self.servfail_rate), ("timeout_rate", self.timeout_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.servfail_rate + self.timeout_rate > 1.0:
            raise ValueError("servfail_rate + timeout_rate exceeds 1")
        self._rng = random.Random(self.seed)

    def draw(self) -> ServerBehavior:
        roll = self._rng.random()
        if roll < self.timeout_rate:
            return ServerBehavior.TIMEOUT
        if roll < self.timeout_rate + self.servfail_rate:
            return ServerBehavior.SERVFAIL
        return ServerBehavior.ANSWER


class AuthoritativeServer:
    """An authoritative server holding one or more reverse zones.

    ``handle`` implements the QUERY data path: it matches the question
    name to the longest-origin zone it serves, applies the failure
    model, and returns an authoritative response — or ``None`` to model
    a timeout (no response on the wire).
    """

    def __init__(
        self,
        name: str = "ns.example.net",
        failure_model: Optional[FailureModel] = None,
    ):
        self.name = name
        self.failure_model = failure_model or FailureModel()
        self._zones: Dict[DomainName, ReverseZone] = {}
        self.queries_handled = 0
        self.failures_injected = 0
        #: Responses sent per rcode name (lower-case); injected
        #: timeouts count under the pseudo-rcode ``"timeout"``.
        self.rcode_counts: Dict[str, int] = {}

    def add_zone(self, zone: ReverseZone) -> None:
        if zone.origin in self._zones:
            raise ZoneError(f"already serving a zone at {zone.origin}")
        self._zones[zone.origin] = zone

    def zones(self) -> List[ReverseZone]:
        return list(self._zones.values())

    def checkpoint(self) -> Tuple:
        """Every zone's content plus the failure model's draw state, for :meth:`restore`."""
        zones = [(zone, zone.checkpoint()) for zone in self._zones.values()]
        return zones, self.failure_model._rng.getstate()

    def restore(self, state: Tuple) -> None:
        """Roll zones and failure draws back to a :meth:`checkpoint` (counters keep counting)."""
        zones, draws = state
        for zone, zone_state in zones:
            zone.restore(zone_state)
        self.failure_model._rng.setstate(draws)

    def zone_for(self, name: DomainName) -> ReverseZone:
        """The longest-match zone authoritative for ``name``."""
        best: Optional[ReverseZone] = None
        for origin, zone in self._zones.items():
            if name.is_subdomain_of(origin):
                if best is None or len(origin) > len(best.origin):
                    best = zone
        if best is None:
            raise NoSuchZoneError(f"{self.name} serves no zone for {name}")
        return best

    def handle(
        self,
        query: DnsMessage,
        *,
        at: Optional[int] = None,
        network: str = "",
        faults=None,
    ) -> Optional[DnsMessage]:
        """Answer one query; ``None`` models a timeout.

        ``faults`` (a :class:`repro.netsim.faults.FaultPlan`) injects
        timeouts, SERVFAILs, transient REFUSEDs, flaps and scheduled
        outages keyed on ``(network, question, at)`` — stateless draws,
        so any caller in any process sees the same outcome.  The legacy
        :class:`FailureModel` (sequential draws) still applies when no
        plan fires.
        """
        response = self._handle(query, at=at, network=network, faults=faults)
        rcode_key = "timeout" if response is None else response.rcode.name.lower()
        self.rcode_counts[rcode_key] = self.rcode_counts.get(rcode_key, 0) + 1
        return response

    def _handle(
        self,
        query: DnsMessage,
        *,
        at: Optional[int] = None,
        network: str = "",
        faults=None,
    ) -> Optional[DnsMessage]:
        self.queries_handled += 1
        if faults is not None:
            key = str(query.questions[0].name) if query.questions else ""
            injected = faults.server_behavior(network or self.name, key, at or 0)
            if injected == "timeout":
                self.failures_injected += 1
                return None
            if injected == "servfail":
                self.failures_injected += 1
                return query.response(Rcode.SERVFAIL)
            if injected == "refused":
                self.failures_injected += 1
                return query.response(Rcode.REFUSED)
        behavior = self.failure_model.draw()
        if behavior is ServerBehavior.TIMEOUT:
            self.failures_injected += 1
            return None
        if behavior is ServerBehavior.SERVFAIL:
            self.failures_injected += 1
            return query.response(Rcode.SERVFAIL)
        if query.opcode is not Opcode.QUERY or not query.questions:
            return query.response(Rcode.NOTIMP)
        question = query.questions[0]
        try:
            zone = self.zone_for(question.name)
        except NoSuchZoneError:
            return query.response(Rcode.REFUSED)
        rcode, answers = zone.lookup(question.name, question.rtype)
        response = query.response(rcode)
        response.authoritative = True
        response.answers = answers
        if rcode is Rcode.NXDOMAIN or (rcode is Rcode.NOERROR and not answers):
            response.authority = [zone.soa_record]
        return response

    def metrics_snapshot(self) -> Dict[str, int]:
        """Flat counter values, for delta accounting across a run.

        In a serial campaign successive networks share one world (and
        its servers), so absolute counters mix networks; callers
        snapshot before/after and publish the difference (see
        :func:`diff_metrics_snapshots`).
        """
        snapshot = {
            "queries_handled": self.queries_handled,
            "failures_injected": self.failures_injected,
        }
        for rcode, count in self.rcode_counts.items():
            snapshot[f"rcode_{rcode}"] = count
        return snapshot

    def export_metrics(self, registry, *, snapshot: Optional[Dict[str, int]] = None) -> None:
        """Publish this server's counters into a metrics registry.

        ``snapshot`` (from :meth:`metrics_snapshot`) restricts the
        export to activity since that snapshot was taken.
        """
        current = self.metrics_snapshot()
        delta = diff_metrics_snapshots(current, snapshot or {})
        registry.counter("dns_server_queries_total").inc(delta.get("queries_handled", 0))
        registry.counter("dns_server_failures_injected_total").inc(
            delta.get("failures_injected", 0)
        )
        rcodes = registry.counter("dns_server_rcode_total")
        for key in sorted(delta):
            if key.startswith("rcode_") and delta[key]:
                rcodes.labels(rcode=key[len("rcode_"):]).inc(delta[key])
                rcodes.inc(delta[key])

    def __repr__(self) -> str:
        return f"AuthoritativeServer({self.name!r}, zones={len(self._zones)})"


def diff_metrics_snapshots(current: Dict[str, int], baseline: Dict[str, int]) -> Dict[str, int]:
    """``current - baseline`` per key (missing baseline keys read as 0)."""
    return {key: value - baseline.get(key, 0) for key, value in current.items()}
