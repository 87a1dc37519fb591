"""Deterministic fault injection for the measurement plane.

The paper's instruments live on a lossy Internet: ZMap probes go
unanswered, authoritative servers flap, time out or answer SERVFAIL,
and whole name servers disappear for maintenance windows (Section 6.1
rate-limits and retries; Figure 6 breaks lookups down into
NOERROR/NXDOMAIN/SERVFAIL/Timeout classes).  :class:`FaultPlan` brings
those partial failures into the simulation *deterministically*: every
fault decision is a pure function of ``(plan seed, network, address,
timestamp, attempt)``, drawn through a stateless keyed hash — the same
discipline as :class:`repro.netsim.rng.RngStreams.fresh` — so serial,
``--workers N`` and cache-replayed campaign runs observe bit-identical
fault sequences no matter which process asks, or in what order.

Fault classes modelled:

* **echo loss** — an ICMP echo request (or its reply) dropped with
  probability ``icmp_loss_rate``, independently per (address, time,
  attempt);
* **per-query DNS failures** — timeouts (no response on the wire),
  SERVFAIL, and transient REFUSED at per-query Bernoulli rates;
* **server flaps** — short correlated outages: any five-minute window
  is a *flap window* with probability ``flap_rate``, and every query in
  it times out (this is what distinguishes a flaky server from
  independent per-query noise);
* **scheduled outages** — per (network, day) maintenance windows drawn
  from date-keyed streams (``outage_daily_rate`` chance per day, lasting
  ``outage_duration`` seconds, answering nothing or SERVFAIL), plus any
  explicitly listed :class:`OutageWindow`.

``FaultPlan.none()`` / ``mild()`` / ``harsh()`` are the CLI's
``--fault-profile`` presets (:func:`plan_from_profile`).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.netsim.simtime import HOUR, MINUTE, DAY

#: Window size for correlated server flaps.
FLAP_WINDOW = 5 * MINUTE

_MASK = (1 << 64) - 1
_DOUBLE_SCALE = 2.0 ** -53


def _splitmix64(value: int) -> int:
    """One round of splitmix64 — a fast, well-mixed 64-bit permutation."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


def keyed_uniform(seed: int, *parts: object) -> float:
    """A deterministic uniform draw in [0, 1) for a composite key.

    Stateless: the same (seed, parts) always yields the same value, in
    any process, in any order — the property that keeps fault-injected
    runs bit-identical across serial, parallel and cached paths.
    Strings are folded in via CRC-32 (stable across interpreters,
    unlike built-in ``hash``); integers directly.
    """
    state = _splitmix64(seed & _MASK)
    for part in parts:
        if isinstance(part, int):
            value = part & _MASK
        else:
            value = zlib.crc32(str(part).encode("utf-8"))
        state = _splitmix64(state ^ value)
    return (state >> 11) * _DOUBLE_SCALE


@dataclass(frozen=True)
class OutageWindow:
    """One explicit authoritative-server outage, in simulation seconds."""

    start: int
    end: int
    #: "timeout" (no response) or "servfail".
    mode: str = "timeout"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("outage end must be after start")
        if self.mode not in ("timeout", "servfail"):
            raise ValueError("outage mode must be 'timeout' or 'servfail'")

    def covers(self, at: int) -> bool:
        return self.start <= at < self.end


@dataclass(frozen=True)
class NetworkFaultProfile:
    """Per-network fault rates; all probabilities in [0, 1]."""

    icmp_loss_rate: float = 0.0
    rdns_timeout_rate: float = 0.0
    rdns_servfail_rate: float = 0.0
    rdns_refused_rate: float = 0.0
    flap_rate: float = 0.0
    outage_daily_rate: float = 0.0
    outage_duration: int = HOUR
    outages: Tuple[OutageWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "icmp_loss_rate",
            "rdns_timeout_rate",
            "rdns_servfail_rate",
            "rdns_refused_rate",
            "flap_rate",
            "outage_daily_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.outage_duration <= 0:
            raise ValueError("outage_duration must be positive")

    @property
    def quiet(self) -> bool:
        """True when this profile can never inject anything."""
        return (
            self.icmp_loss_rate == 0.0
            and self.rdns_timeout_rate == 0.0
            and self.rdns_servfail_rate == 0.0
            and self.rdns_refused_rate == 0.0
            and self.flap_rate == 0.0
            and self.outage_daily_rate == 0.0
            and not self.outages
        )

    def token_dict(self) -> dict:
        """A JSON-stable description (for cache keys)."""
        return {
            "icmp_loss_rate": self.icmp_loss_rate,
            "rdns_timeout_rate": self.rdns_timeout_rate,
            "rdns_servfail_rate": self.rdns_servfail_rate,
            "rdns_refused_rate": self.rdns_refused_rate,
            "flap_rate": self.flap_rate,
            "outage_daily_rate": self.outage_daily_rate,
            "outage_duration": self.outage_duration,
            "outages": [[w.start, w.end, w.mode] for w in self.outages],
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of measurement-plane faults.

    ``default_profile`` applies to every network not listed in
    ``per_network``.  ``icmp_retry_budget`` / ``rdns_retry_budget`` are
    the per-probe retry counts the instruments adopt under this plan
    (Section 6.1's "retry" discipline); ``rdns_backoff_base`` enables
    exponential backoff (with deterministic jitter) in the stub
    resolver.
    """

    name: str = "custom"
    seed: int = 0
    default_profile: NetworkFaultProfile = field(default_factory=NetworkFaultProfile)
    per_network: Mapping[str, NetworkFaultProfile] = field(default_factory=dict)
    icmp_retry_budget: int = 0
    rdns_retry_budget: int = 1
    rdns_backoff_base: float = 0.0

    def __post_init__(self) -> None:
        if self.icmp_retry_budget < 0 or self.rdns_retry_budget < 0:
            raise ValueError("retry budgets must be non-negative")
        if self.rdns_backoff_base < 0:
            raise ValueError("rdns_backoff_base must be non-negative")

    # -- profiles ------------------------------------------------------------

    def profile_for(self, network: str) -> NetworkFaultProfile:
        return self.per_network.get(network, self.default_profile)

    @property
    def quiet(self) -> bool:
        return self.default_profile.quiet and all(
            profile.quiet for profile in self.per_network.values()
        )

    # -- ICMP ---------------------------------------------------------------

    def echo_lost(self, network: str, address: int, at: int, attempt: int = 0) -> bool:
        """Would this echo request (or its reply) be dropped?"""
        rate = self.profile_for(network).icmp_loss_rate
        if rate <= 0.0:
            return False
        return keyed_uniform(self.seed, "icmp-loss", network, address, at, attempt) < rate

    # -- authoritative servers ------------------------------------------------

    def outage_for_day(self, network: str, day_index: int) -> Optional[OutageWindow]:
        """The scheduled maintenance window for (network, day), if any.

        Drawn from date/network-keyed streams only — never from call
        order — so every path that asks sees the same window.
        """
        profile = self.profile_for(network)
        if profile.outage_daily_rate <= 0.0:
            return None
        if keyed_uniform(self.seed, "outage", network, day_index) >= profile.outage_daily_rate:
            return None
        day_start = day_index * DAY
        latest = max(0, DAY - profile.outage_duration)
        offset = int(keyed_uniform(self.seed, "outage-start", network, day_index) * latest)
        mode = (
            "servfail"
            if keyed_uniform(self.seed, "outage-mode", network, day_index) < 0.3
            else "timeout"
        )
        return OutageWindow(day_start + offset, day_start + offset + profile.outage_duration, mode)

    def server_behavior(self, network: str, key: object, at: int) -> Optional[str]:
        """The injected outcome for one query, or ``None`` to answer.

        ``key`` identifies the query (typically the reverse name or
        address); returns "timeout", "servfail" or "refused".
        """
        profile = self.profile_for(network)
        if profile.quiet:
            return None
        for window in profile.outages:
            if window.covers(at):
                return window.mode
        if profile.outage_daily_rate > 0.0:
            window = self.outage_for_day(network, at // DAY)
            if window is not None and window.covers(at):
                return window.mode
        if profile.flap_rate > 0.0:
            if keyed_uniform(self.seed, "flap", network, at // FLAP_WINDOW) < profile.flap_rate:
                return "timeout"
        roll = keyed_uniform(self.seed, "rdns", network, key, at)
        if roll < profile.rdns_timeout_rate:
            return "timeout"
        roll -= profile.rdns_timeout_rate
        if roll < profile.rdns_servfail_rate:
            return "servfail"
        roll -= profile.rdns_servfail_rate
        if roll < profile.rdns_refused_rate:
            return "refused"
        return None

    # -- resolver backoff ---------------------------------------------------

    def backoff_jitter(self, key: object, attempt: int) -> float:
        """Deterministic jitter factor in [0, 1) for one retry."""
        return keyed_uniform(self.seed, "backoff", key, attempt)

    # -- identity -----------------------------------------------------------

    def cache_token(self) -> str:
        """A stable fingerprint for cache keys and metrics."""
        material = {
            "name": self.name,
            "seed": self.seed,
            "default": self.default_profile.token_dict(),
            "per_network": {
                name: profile.token_dict()
                for name, profile in sorted(self.per_network.items())
            },
            "icmp_retry_budget": self.icmp_retry_budget,
            "rdns_retry_budget": self.rdns_retry_budget,
            "rdns_backoff_base": self.rdns_backoff_base,
        }
        return json.dumps(material, sort_keys=True)

    # -- presets ------------------------------------------------------------

    @classmethod
    def none(cls) -> Optional["FaultPlan"]:
        """The perfectly reliable world (what ``None`` also means)."""
        return None

    @classmethod
    def mild(cls, seed: int = 0) -> "FaultPlan":
        """Realistic background noise: ~2% echo loss, ~2% rDNS errors."""
        return cls(
            name="mild",
            seed=seed,
            default_profile=NetworkFaultProfile(
                icmp_loss_rate=0.02,
                rdns_timeout_rate=0.01,
                rdns_servfail_rate=0.005,
                rdns_refused_rate=0.003,
                flap_rate=0.002,
                outage_daily_rate=0.05,
                outage_duration=HOUR,
            ),
            icmp_retry_budget=2,
            rdns_retry_budget=2,
            rdns_backoff_base=1.0,
        )

    @classmethod
    def harsh(cls, seed: int = 0) -> "FaultPlan":
        """A bad week on the Internet: heavy loss, flappy servers."""
        return cls(
            name="harsh",
            seed=seed,
            default_profile=NetworkFaultProfile(
                icmp_loss_rate=0.12,
                rdns_timeout_rate=0.05,
                rdns_servfail_rate=0.02,
                rdns_refused_rate=0.01,
                flap_rate=0.01,
                outage_daily_rate=0.3,
                outage_duration=2 * HOUR,
            ),
            icmp_retry_budget=3,
            rdns_retry_budget=3,
            rdns_backoff_base=2.0,
        )


#: The CLI's ``--fault-profile`` choices.
FAULT_PROFILES = ("none", "mild", "harsh")


def plan_from_profile(profile: str, seed: int = 0) -> Optional[FaultPlan]:
    """Build the named preset plan ("none" maps to ``None``)."""
    normalized = profile.strip().lower()
    if normalized == "none":
        return None
    if normalized == "mild":
        return FaultPlan.mild(seed)
    if normalized == "harsh":
        return FaultPlan.harsh(seed)
    raise ValueError(
        f"unknown fault profile {profile!r} (choose from {', '.join(FAULT_PROFILES)})"
    )
