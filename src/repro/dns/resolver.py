"""A stub resolver that queries authoritative servers directly.

The paper's reactive measurement "queries the authoritative name server
for the IP address in question directly, to make sure we get a fresh
answer (i.e., not from a cache)" (Section 6.1).  :class:`StubResolver`
models exactly that: a delegation map routes each reverse name to the
serving :class:`~repro.dns.server.AuthoritativeServer`; timeouts are
retried up to a configurable count, and the outcome is folded into a
:class:`ResolutionStatus` that matches the error classes of Figure 6.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dns.errors import NoSuchZoneError
from repro.dns.message import DnsMessage
from repro.dns.name import DomainName, IPAddress, reverse_pointer
from repro.dns.rcode import Rcode, RecordType
from repro.dns.server import AuthoritativeServer

DEFAULT_TIMEOUT_SECONDS = 5.0
DEFAULT_RETRIES = 1

#: How many CNAME links a single lookup may follow (RFC 2317 glue chains
#: are one link deep; the bound exists to stop glue loops, not real use).
MAX_CNAME_CHAIN = 8


class ResolutionStatus(enum.Enum):
    """Outcome classes, matching the paper's Figure 6 categories.

    REFUSED is kept distinct from SERVFAIL: a server-side refusal (the
    server answers, but declines) is a policy signal, not a failure,
    and folding the two together would distort the Figure 6 breakdown.
    """

    NOERROR = "noerror"
    NXDOMAIN = "nxdomain"
    SERVFAIL = "servfail"
    TIMEOUT = "timeout"
    REFUSED = "refused"
    NO_SERVER = "no_server"


@dataclass
class ServerHealth:
    """Per-authoritative-server health counters kept by the resolver."""

    queries: int = 0
    answers: int = 0
    timeouts: int = 0
    servfails: int = 0
    refused: int = 0
    consecutive_timeouts: int = 0
    max_consecutive_timeouts: int = 0

    def record(self, status: "ResolutionStatus", timeouts_seen: int) -> None:
        """Fold one completed lookup (with its timed-out attempts) in."""
        self.queries += 1
        if timeouts_seen:
            self.timeouts += timeouts_seen
            self.consecutive_timeouts += timeouts_seen
            self.max_consecutive_timeouts = max(
                self.max_consecutive_timeouts, self.consecutive_timeouts
            )
        if status is ResolutionStatus.SERVFAIL:
            self.servfails += 1
        elif status is ResolutionStatus.REFUSED:
            self.refused += 1
        if status is not ResolutionStatus.TIMEOUT:
            # Any response — even SERVFAIL/REFUSED — proves the server
            # is reachable again.
            self.answers += 1
            self.consecutive_timeouts = 0


@dataclass(frozen=True)
class ResolutionResult:
    """The outcome of one PTR resolution."""

    query_name: DomainName
    status: ResolutionStatus
    hostname: Optional[str] = None
    attempts: int = 1
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is ResolutionStatus.NOERROR


class StubResolver:
    """Routes PTR queries to the responsible authoritative server."""

    def __init__(
        self,
        *,
        timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = 0.0,
        fault_plan=None,
    ):
        if timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        self.timeout_seconds = timeout_seconds
        self.retries = retries
        #: With ``backoff_base > 0``, each retry waits
        #: ``backoff_base * 2**(attempt-1)`` seconds, scaled by a
        #: deterministic jitter factor in [0.5, 1.5) — the Section 6.1
        #: retry discipline, reproducible across runs.
        self.backoff_base = backoff_base
        #: Optional :class:`repro.netsim.faults.FaultPlan` forwarded to
        #: every authoritative server on the query path.
        self.fault_plan = fault_plan
        self._delegations: Dict[DomainName, AuthoritativeServer] = {}
        #: Memoised longest-origin matches; a pure function of the
        #: delegation table, so it is dropped whenever that changes.
        self._server_cache: Dict[DomainName, Optional[AuthoritativeServer]] = {}
        self._msg_ids = itertools.count(1)
        self.queries_sent = 0
        self.timeouts_seen = 0
        #: Completed lookups per :class:`ResolutionStatus`.
        self.status_counts: Dict[ResolutionStatus, int] = {}
        #: Wire attempts beyond the first, summed over all lookups.
        self.retries_sent = 0
        #: Backoff waits taken and their total (simulated) duration.
        self.backoff_waits = 0
        self.backoff_seconds_total = 0.0
        #: Per-server health, keyed by server name.
        self.server_health: Dict[str, ServerHealth] = {}

    def delegate(self, server: AuthoritativeServer) -> None:
        """Register every zone origin served by ``server``."""
        for zone in server.zones():
            self._delegations[zone.origin] = server
        self._server_cache.clear()

    def server_for(self, name: DomainName) -> Optional[AuthoritativeServer]:
        """Longest-origin-match delegation lookup, memoised per name.

        Sweeps re-resolve the same few thousand reverse names every
        interval; the linear scan over all delegations only runs on the
        first sight of each name.
        """
        try:
            return self._server_cache[name]
        except KeyError:
            pass
        best_origin: Optional[DomainName] = None
        best_server: Optional[AuthoritativeServer] = None
        for origin, server in self._delegations.items():
            if name.is_subdomain_of(origin):
                if best_origin is None or len(origin) > len(best_origin):
                    best_origin, best_server = origin, server
        self._server_cache[name] = best_server
        return best_server

    def backoff_delay(self, name: DomainName, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based).

        Exponential in the attempt number, scaled by deterministic
        jitter: the fault plan's keyed stream when one is attached,
        otherwise a stable hash of (name, attempt) — either way the
        same inputs always produce the same schedule.
        """
        if self.backoff_base <= 0:
            return 0.0
        if self.fault_plan is not None:
            jitter = self.fault_plan.backoff_jitter(str(name), attempt)
        else:
            from repro.netsim.faults import keyed_uniform

            jitter = keyed_uniform(0, "backoff", str(name), attempt)
        return self.backoff_base * (2 ** (attempt - 1)) * (0.5 + jitter)

    def resolve_name(
        self, name: DomainName, *, at: Optional[int] = None, network: str = ""
    ) -> ResolutionResult:
        """Resolve a PTR query for an arbitrary reverse name.

        ``at`` (simulation seconds) and ``network`` key the fault plan's
        deterministic draws; both are optional and ignored when no plan
        is attached.  CNAME answers — the RFC 2317 classless-delegation
        glue — are followed up to :data:`MAX_CNAME_CHAIN` links, each
        link re-routed through the delegation table.
        """
        original = name
        attempts = 0
        elapsed = 0.0
        for _ in range(MAX_CNAME_CHAIN + 1):
            server = self.server_for(name)
            if server is None:
                status = ResolutionStatus.NO_SERVER
                self.status_counts[status] = self.status_counts.get(status, 0) + 1
                return ResolutionResult(
                    original, status, attempts=max(attempts, 1), elapsed_seconds=elapsed
                )
            timeouts = 0
            link_attempts = 0
            response: Optional[DnsMessage] = None
            for _ in range(self.retries + 1):
                attempts += 1
                link_attempts += 1
                self.queries_sent += 1
                query = DnsMessage.query(name, RecordType.PTR, msg_id=next(self._msg_ids))
                try:
                    response = server.handle(
                        query, at=at, network=network, faults=self.fault_plan
                    )
                except NoSuchZoneError:
                    response = query.response(Rcode.REFUSED)
                if response is not None:
                    break
                timeouts += 1
                delay = self.backoff_delay(name, link_attempts)
                if delay > 0:
                    self.backoff_waits += 1
                    self.backoff_seconds_total += delay
                elapsed += self.timeout_seconds + delay
            self.timeouts_seen += timeouts
            self.retries_sent += link_attempts - 1
            if response is None:
                status = ResolutionStatus.TIMEOUT
            elif response.rcode is Rcode.NXDOMAIN:
                status = ResolutionStatus.NXDOMAIN
            elif response.rcode is Rcode.NOERROR and response.answers:
                status = ResolutionStatus.NOERROR
            elif response.rcode is Rcode.NOERROR:
                # NODATA for PTR behaves like a missing record for our purposes.
                status = ResolutionStatus.NXDOMAIN
            elif response.rcode is Rcode.REFUSED:
                status = ResolutionStatus.REFUSED
            else:
                status = ResolutionStatus.SERVFAIL
            health = self.server_health.get(server.name)
            if health is None:
                health = self.server_health[server.name] = ServerHealth()
            health.record(status, timeouts)
            if (
                status is ResolutionStatus.NOERROR
                and response is not None
                and response.answers[0].rtype is RecordType.CNAME
            ):
                target = response.answers[0].rdata
                if isinstance(target, DomainName):
                    name = target
                    continue
                status = ResolutionStatus.SERVFAIL
            self.status_counts[status] = self.status_counts.get(status, 0) + 1
            hostname: Optional[str] = None
            if status is ResolutionStatus.NOERROR and response is not None:
                hostname = response.answers[0].rdata_text().rstrip(".")
            return ResolutionResult(original, status, hostname, attempts, elapsed)
        # Chain longer than MAX_CNAME_CHAIN: a glue loop, effectively broken.
        status = ResolutionStatus.SERVFAIL
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        return ResolutionResult(original, status, attempts=attempts, elapsed_seconds=elapsed)

    def resolve_ptr(
        self, address: IPAddress, *, at: Optional[int] = None, network: str = ""
    ) -> ResolutionResult:
        """Resolve the PTR record for an IP address.

        This is the operation the rDNS scanners perform: reverse the
        address and ask the authoritative server for a fresh answer.
        """
        return self.resolve_name(reverse_pointer(address), at=at, network=network)

    def lookup_batch(
        self,
        addresses: List[IPAddress],
        *,
        at: Optional[int] = None,
        network: str = "",
    ) -> List[ResolutionResult]:
        """Resolve PTR records for a whole sweep segment in one call.

        Results are in input order, and every per-address draw (fault
        plan, server failure model, backoff jitter) happens in exactly
        the order the per-address loop would produce — batch callers
        stay bit-identical to ``resolve_ptr`` loops under any
        ``FaultPlan``.
        """
        resolve = self.resolve_name
        return [
            resolve(reverse_pointer(address), at=at, network=network)
            for address in addresses
        ]

    def export_metrics(self, registry) -> None:
        """Publish query/rcode/retry/backoff totals into a registry.

        Counters are deterministic functions of the queries resolved,
        so snapshots from per-network resolvers merge bit-identically
        regardless of process split.  Per-server health lands as
        labelled children of the ``resolver_server_*`` counters.
        """
        registry.counter("resolver_queries_total").inc(self.queries_sent)
        registry.counter("resolver_timeouts_total").inc(self.timeouts_seen)
        registry.counter("resolver_retries_total").inc(self.retries_sent)
        registry.counter("resolver_backoff_waits_total").inc(self.backoff_waits)
        registry.counter("resolver_backoff_seconds_total").inc(self.backoff_seconds_total)
        rcodes = registry.counter("resolver_rcode_total")
        for status in sorted(self.status_counts, key=lambda s: s.value):
            rcodes.labels(rcode=status.value).inc(self.status_counts[status])
            rcodes.inc(self.status_counts[status])
        server_queries = registry.counter("resolver_server_queries_total")
        server_timeouts = registry.counter("resolver_server_timeouts_total")
        for name in sorted(self.server_health):
            health = self.server_health[name]
            server_queries.labels(server=name).inc(health.queries)
            server_timeouts.labels(server=name).inc(health.timeouts)
