"""The reverse-DNS lookup engine.

"For the rDNS measurement we use custom-built software wrapping
dnspython. We rate-limit requests to authoritative name servers ...
We query the authoritative name server for the IP address in question
directly, to make sure we get a fresh answer (i.e., not from a cache)."
(Section 6.1)
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from repro.dns.name import as_ip
from repro.dns.resolver import ResolutionStatus, StubResolver
from repro.scan.observations import RdnsObservation
from repro.scan.ratelimit import TokenBucket


class RdnsLookupEngine:
    """Issues PTR lookups through a stub resolver, with rate limiting."""

    def __init__(self, resolver: StubResolver, *, rate_limit: Optional[TokenBucket] = None):
        self.resolver = resolver
        self.rate_limit = rate_limit
        self.lookups_performed = 0
        self.lookups_suppressed = 0
        #: Wire-level attempts (including retries) and attempts that
        #: timed out, summed across all lookups.
        self.attempts_made = 0
        self.timeouts_seen = 0
        self.status_counts: Counter = Counter()

    def lookup(self, address, at: int, *, network: str = "") -> Optional[RdnsObservation]:
        """One PTR lookup; ``None`` only when rate-limited away."""
        ip = as_ip(address)
        if self.rate_limit is not None and not self.rate_limit.acquire(at):
            self.lookups_suppressed += 1
            return None
        self.lookups_performed += 1
        before = self.resolver.timeouts_seen
        result = self.resolver.resolve_ptr(ip, at=at, network=network)
        self.attempts_made += result.attempts
        self.timeouts_seen += self.resolver.timeouts_seen - before
        self.status_counts[result.status] += 1
        return RdnsObservation(
            address=ip,
            at=at,
            status=result.status,
            hostname=result.hostname or "",
            network=network,
        )

    def lookup_batch(
        self, addresses, at: int, *, network: str = ""
    ) -> List[Optional[RdnsObservation]]:
        """PTR lookups for a sweep's worth of addresses, in input order.

        Semantically identical to calling :meth:`lookup` per address —
        the rate limiter is consulted once per lookup (the whole batch
        shares its token state at ``at``), counters advance the same
        way, and fault/failure draws stay per-address inside the
        resolver — so batch and per-address callers produce the same
        observations bit for bit.  Suppressed lookups appear as ``None``
        placeholders to keep the result aligned with the input.
        """
        rate = self.rate_limit
        resolver = self.resolver
        status_counts = self.status_counts
        observations: List[Optional[RdnsObservation]] = []
        append = observations.append
        for address in addresses:
            ip = as_ip(address)
            if rate is not None and not rate.acquire(at):
                self.lookups_suppressed += 1
                append(None)
                continue
            self.lookups_performed += 1
            before = resolver.timeouts_seen
            result = resolver.resolve_ptr(ip, at=at, network=network)
            self.attempts_made += result.attempts
            self.timeouts_seen += resolver.timeouts_seen - before
            status_counts[result.status] += 1
            append(
                RdnsObservation(
                    address=ip,
                    at=at,
                    status=result.status,
                    hostname=result.hostname or "",
                    network=network,
                )
            )
        return observations

    def export_metrics(self, registry) -> None:
        """Publish lookup/rcode totals (and the bucket's counters)."""
        registry.counter("rdns_lookups_total").inc(self.lookups_performed)
        registry.counter("rdns_lookups_suppressed_total").inc(self.lookups_suppressed)
        registry.counter("rdns_attempts_total").inc(self.attempts_made)
        registry.counter("rdns_timeouts_total").inc(self.timeouts_seen)
        rcodes = registry.counter("rdns_rcode_total")
        for status in sorted(self.status_counts, key=lambda s: s.value):
            rcodes.labels(rcode=status.value).inc(self.status_counts[status])
            rcodes.inc(self.status_counts[status])
        if self.rate_limit is not None:
            self.rate_limit.export_metrics(registry, prefix="rdns_ratelimit")
        self.resolver.export_metrics(registry)

    @property
    def error_rate(self) -> float:
        """Share of lookups that did not return a PTR record."""
        if not self.lookups_performed:
            return 0.0
        errors = sum(
            count
            for status, count in self.status_counts.items()
            if status is not ResolutionStatus.NOERROR
        )
        return errors / self.lookups_performed
