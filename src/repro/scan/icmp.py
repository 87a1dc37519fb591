"""A ZMap-style ICMP sweeper.

"We use Zmap for the ICMP measurements. Zmap allows us to easily
implement rate limiting and IP address blocklisting. The blocklisting
capability is used to allow subjects to opt-out. ... Zmap only includes
hosts that were reachable in its output." (Section 6.1)
"""

from __future__ import annotations

import ipaddress
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dns.name import as_ip
from repro.netsim.finegrained import ECHO_LOST, ECHO_REPLY, NetworkRuntime
from repro.scan.observations import IcmpObservation
from repro.scan.ratelimit import TokenBucket


class IcmpScanner:
    """Sweeps target prefixes against live network runtimes.

    ``retries`` is the per-probe retry budget used under fault
    injection: a probe whose echo was *lost* (the host is up, the
    packet dropped — :data:`repro.netsim.finegrained.ECHO_LOST`) is
    re-sent up to ``retries`` extra times before the address is written
    off.  Hosts that are genuinely silent are not retried — in the
    simulation their state cannot change within one probe burst, so
    retrying them would only inflate ``probes_sent`` without changing
    any outcome.  The default budget of 0 preserves ZMap's
    single-probe behaviour exactly.
    """

    def __init__(
        self,
        runtimes: Dict[str, NetworkRuntime],
        *,
        rate_limit: Optional[TokenBucket] = None,
        blocklist: Iterable = (),
        retries: int = 0,
    ):
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self._runtimes = dict(runtimes)
        self.rate_limit = rate_limit
        self.retries = retries
        self._blocked_addresses: Set[ipaddress.IPv4Address] = set()
        #: Opted-out prefixes, kept as (first, last) integer ranges —
        #: never materialised into individual addresses (a /8 opt-out
        #: is two integers, not 16M set entries).
        self._blocked_ranges: List[Tuple[int, int]] = []
        for entry in blocklist:
            self.add_to_blocklist(entry)
        self.probes_sent = 0
        self.probes_suppressed = 0
        #: Probes whose echo was dropped by the fault plan (including
        #: retried ones) / extra probes spent overcoming loss.
        self.echoes_lost = 0
        self.retries_sent = 0
        self._target_cache: Dict[str, list] = {}

    # -- blocklist (the opt-out mechanism) ---------------------------------

    def add_to_blocklist(self, entry) -> None:
        """Opt an address or a whole prefix out of the measurement."""
        try:
            self._blocked_addresses.add(ipaddress.IPv4Address(entry))
        except ValueError:
            network = ipaddress.IPv4Network(entry)
            first = int(network.network_address)
            self._blocked_ranges.append((first, first + network.num_addresses - 1))

    def is_blocked(self, address) -> bool:
        ip = as_ip(address)
        if ip in self._blocked_addresses:
            return True
        if self._blocked_ranges:
            value = int(ip)
            for first, last in self._blocked_ranges:
                if first <= value <= last:
                    return True
        return False

    @property
    def _has_blocklist(self) -> bool:
        return bool(self._blocked_addresses or self._blocked_ranges)

    # -- probing ------------------------------------------------------------

    def _runtime_for(self, address: ipaddress.IPv4Address) -> Optional[NetworkRuntime]:
        for runtime in self._runtimes.values():
            if address in runtime.network.prefix:
                return runtime
        return None

    def _echo(self, runtime: NetworkRuntime, address, at: int) -> bool:
        """Send one probe (plus the retry budget on loss); True on reply."""
        outcome = runtime.echo_outcome(address, at, 0)
        attempt = 0
        while outcome == ECHO_LOST and attempt < self.retries:
            self.echoes_lost += 1
            attempt += 1
            self.probes_sent += 1
            self.retries_sent += 1
            outcome = runtime.echo_outcome(address, at, attempt)
        if outcome == ECHO_LOST:
            self.echoes_lost += 1
        return outcome == ECHO_REPLY

    def probe(self, address, at: int, *, network: str = "") -> Optional[IcmpObservation]:
        """One echo request; an observation only if the host responded."""
        ip = as_ip(address)
        if self._has_blocklist and self.is_blocked(ip):
            self.probes_suppressed += 1
            return None
        if self.rate_limit is not None and not self.rate_limit.acquire(at):
            self.probes_suppressed += 1
            return None
        self.probes_sent += 1
        runtime = self._runtime_for(ip)
        if runtime is None or not self._echo(runtime, ip, at):
            return None
        return IcmpObservation(ip, at, network or runtime.network.name)

    def sweep(self, targets: Iterable, at: int, *, network: str = "") -> List[IcmpObservation]:
        """Probe every address in the target prefixes; responders only.

        ``targets`` may mix prefixes and single addresses, like a ZMap
        target list.  The per-target runtime segments and address lists
        are cached: a supplemental campaign sweeps the same prefixes
        every hour for weeks.  Blocklist semantics are identical to
        :meth:`probe`/:meth:`is_blocked` — prefix opt-outs suppress
        sweep probes too.
        """
        observations: List[IcmpObservation] = []
        check_block = self._has_blocklist
        rate = self.rate_limit
        for target in targets:
            for runtime, addresses in self._target_plan(target):
                if rate is None and not check_block:
                    # Batched segment: with no per-address gatekeeping,
                    # one bulk probe count plus a vectorised presence
                    # scan replaces 256 per-address loop iterations.
                    # Counters and observation order are identical to
                    # the per-address path below.
                    self.probes_sent += len(addresses)
                    if runtime is None:
                        continue
                    label = network or runtime.network.name
                    if runtime.fault_plan is None:
                        observations.extend(
                            IcmpObservation(address, at, label)
                            for address in runtime.echo_batch(addresses)
                        )
                    else:
                        # Loss draws are keyed per (address, time,
                        # attempt); spend them address by address so
                        # retry accounting matches the per-address path.
                        echo = self._echo
                        observations.extend(
                            IcmpObservation(address, at, label)
                            for address in addresses
                            if echo(runtime, address, at)
                        )
                    continue
                for address in addresses:
                    if check_block and self.is_blocked(address):
                        self.probes_suppressed += 1
                        continue
                    if rate is not None and not rate.acquire(at):
                        self.probes_suppressed += 1
                        continue
                    self.probes_sent += 1
                    if runtime is not None and self._echo(runtime, address, at):
                        observations.append(
                            IcmpObservation(address, at, network or runtime.network.name)
                        )
        return observations

    def _target_plan(self, target) -> List[tuple]:
        """(runtime, addresses) segments for one target.

        The runtime is resolved per address and consecutive addresses
        sharing a runtime are grouped, so a target that spans two
        networks attributes each observation to the network that
        actually answered (one cached runtime per *target* mis-credited
        every address beyond the first network).
        """
        plan = self._target_cache.get(str(target))
        if plan is None:
            plan = []
            current_runtime: Optional[NetworkRuntime] = None
            current: List[ipaddress.IPv4Address] = []
            for address in self._iter_target(target):
                runtime = self._runtime_for(address)
                if current and runtime is not current_runtime:
                    plan.append((current_runtime, current))
                    current = []
                current_runtime = runtime
                current.append(address)
            if current:
                plan.append((current_runtime, current))
            self._target_cache[str(target)] = plan
        return plan

    @staticmethod
    def _iter_target(target):
        try:
            yield ipaddress.IPv4Address(target)
        except ValueError:
            yield from ipaddress.IPv4Network(target)

    def export_metrics(self, registry) -> None:
        """Publish probe totals into a :class:`repro.obs.MetricsRegistry`."""
        registry.counter("icmp_probes_sent_total").inc(self.probes_sent)
        registry.counter("icmp_probes_suppressed_total").inc(self.probes_suppressed)
        registry.counter("icmp_echoes_lost_total").inc(self.echoes_lost)
        registry.counter("icmp_retries_total").inc(self.retries_sent)
        if self.rate_limit is not None:
            self.rate_limit.export_metrics(registry, prefix="icmp_ratelimit")
