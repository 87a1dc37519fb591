"""The simulated Internet: all networks, announced prefixes, the world.

:class:`Internet` aggregates networks into one measurable address
space: snapshot collectors iterate its PTR records per day, the
dynamicity analysis consumes its per-/24 counts, and the reactive
measurement resolves against its authoritative servers.

:func:`build_world` assembles the paper's world: the nine supplemental
networks of Table 4 (with their ICMP policies, lease times, COVID
timelines and the Brian personas on Academic-A), a wider set of
identity-leaking networks whose type mix reproduces Figure 4, and
background announced prefixes of sizes /8 through /23 for Figure 1.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dns.resolver import StubResolver
from repro.dns.server import FailureModel
from repro.netsim.calendar import CovidTimeline
from repro.netsim.network import IcmpPolicy, Network, NetworkType, Subnet, dotted, slash24_of
from repro.netsim.personas import make_brian_devices
from repro.netsim.population import NetworkBuilder
from repro.netsim.rng import RngStreams


@dataclass(frozen=True)
class AnnouncedPrefix:
    """One BGP-announced prefix and its holder network's name."""

    prefix: ipaddress.IPv4Network
    holder: str


class Internet:
    """All simulated networks, addressable as one measurement target."""

    def __init__(self) -> None:
        self._networks: Dict[str, Network] = {}
        #: ``(subnet count, token)`` of the last :meth:`cache_token` call.
        self._token: Optional[Tuple[int, str]] = None

    def add(self, network: Network) -> Network:
        if network.name in self._networks:
            raise ValueError(f"duplicate network name {network.name!r}")
        for existing in self._networks.values():
            if network.prefix.overlaps(existing.prefix):
                raise ValueError(
                    f"{network.name} ({network.prefix}) overlaps "
                    f"{existing.name} ({existing.prefix})"
                )
        self._networks[network.name] = network
        self._token = None
        return network

    def network(self, name: str) -> Network:
        return self._networks[name]

    @property
    def networks(self) -> List[Network]:
        return list(self._networks.values())

    def announced_prefixes(self) -> List[AnnouncedPrefix]:
        return [
            AnnouncedPrefix(network.prefix, network.name)
            for network in self._networks.values()
        ]

    def records_on(
        self, day: dt.date, *, at_offset: Optional[int] = None
    ) -> Iterator[Tuple[ipaddress.IPv4Address, str]]:
        """Every (address, hostname) PTR pair present on ``day``."""
        for network in self._networks.values():
            for address, hostname in network.records_on(day, at_offset=at_offset):
                yield ipaddress.IPv4Address(address), hostname

    def cache_token(self) -> str:
        """A deterministic fingerprint of the simulated world.

        Captures everything that determines snapshot content: the seed
        of each network's RNG streams, topology, per-subnet backing
        (device identities and naming, count-model parameters, static
        entry counts) and the occupancy calendars.  Two worlds built
        with the same ``build_world(seed, scale)`` arguments share a
        token; changing the seed, scale, or any network spec changes
        it.  The on-disk snapshot cache folds this token into its keys.
        The token is memoised; :meth:`add` drops the memo, and a subnet
        joining a member network changes the subnet count it is keyed on.
        """
        subnets = sum(len(network.subnets) for network in self._networks.values())
        if self._token is None or self._token[0] != subnets:
            self._token = (subnets, self._compute_token())
        return self._token[1]

    def _compute_token(self) -> str:
        parts: List[str] = []
        for network in self._networks.values():
            parts.append(
                "|".join(
                    [
                        network.name,
                        network.net_type.value,
                        str(network.prefix),
                        network.suffix,
                        f"seed={network.rngs.seed}",
                        f"lease={network.lease_time}",
                        f"housing={network.housing_response}",
                        f"icmp={network.icmp_policy.value}",
                        f"holidays={network.holidays!r}",
                        f"covid={network.covid!r}",
                    ]
                    # Zone layout only affects the DNS-serving side, but
                    # it is still world shape; appended only when
                    # non-default so historical tokens stay stable.
                    + ([f"layout={network.zone_layout}"] if network.zone_layout != "flat" else [])
                )
            )
            for subnet in network.subnets:
                if subnet.devices:
                    backing = "devices=" + ",".join(
                        f"{device.device_id}/{device.naming.value}/{device.model.key}"
                        f"/{device.owner_name or '-'}/{device.session_participation}"
                        for device in subnet.devices
                    )
                elif subnet.count_model is not None:
                    model = subnet.count_model
                    backing = (
                        f"count={model.mean}/{model.weekend_factor}/{model.noise}"
                        f"/{subnet.count_template}/{subnet.count_suffix}"
                    )
                else:
                    backing = "static=" + ",".join(
                        f"{dotted(int(address))}={hostname}"
                        for address, hostname in subnet.static_entries
                    )
                mode = subnet.rdns_mode
                mode_marker = "" if mode.value == "enabled" else f"|rdns={mode.value}"
                # The full policy token, not just the class name: two
                # HashedPolicy instances with different keys (or two
                # templates) publish different zones, and the class
                # name alone let them share a cache entry.
                policy_token = (
                    subnet.policy.cache_token()
                    if subnet.policy is not None
                    else "NoneType"
                )
                parts.append(
                    f"  {subnet.prefix}|{subnet.role.value}"
                    f"|policy={policy_token}|{backing}{mode_marker}"
                )
        digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
        return digest.hexdigest()

    def resolver(self, **kwargs) -> StubResolver:
        """A stub resolver delegated to every network's name server.

        Keyword arguments (``retries``, ``backoff_base``,
        ``fault_plan``, ...) are forwarded to :class:`StubResolver`.
        """
        resolver = StubResolver(**kwargs)
        for network in self._networks.values():
            resolver.delegate(network.server)
        return resolver

    def __len__(self) -> int:
        return len(self._networks)


@dataclass
class WorldScale:
    """Size knobs for :func:`build_world`.

    The paper operates at full-Internet scale (6.15M populated /24s,
    197 identified networks); the defaults here scale that down while
    preserving the type mix of Figure 4 (62% academic, 15% ISP, 11%
    other, 9% enterprise, 3% government among identified networks) and
    the rarity of dynamic space within announced prefixes (Figure 1).
    """

    extra_academic: int = 16
    extra_isp: int = 3
    extra_other: int = 3
    extra_enterprise: int = 0
    extra_government: int = 1
    people_per_extra: int = 70
    background_per_size: int = 2
    background_sizes: Tuple[int, ...] = (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)
    supplemental_people: int = 90

    @classmethod
    def small(cls) -> "WorldScale":
        """A quick world for unit tests."""
        return cls(
            extra_academic=2,
            extra_isp=1,
            extra_other=1,
            extra_government=0,
            people_per_extra=18,
            background_per_size=1,
            background_sizes=(12, 16, 20, 23),
            supplemental_people=20,
        )

    @property
    def identified_target(self) -> int:
        """How many identity-leaking networks the world contains."""
        # 9 supplemental minus the non-leaking ISPs configured with
        # fixed-form names, plus all the extras (extras always leak).
        return (
            9
            + self.extra_academic
            + self.extra_isp
            + self.extra_other
            + self.extra_enterprise
            + self.extra_government
        )


class _PrefixAllocator:
    """Hands out non-overlapping prefixes, aligned to their size."""

    def __init__(self, start: str = "60.0.0.0"):
        self._cursor = int(ipaddress.IPv4Address(start))

    def take(self, prefixlen: int) -> ipaddress.IPv4Network:
        size = 2 ** (32 - prefixlen)
        aligned = (self._cursor + size - 1) // size * size
        network = ipaddress.ip_network((aligned, prefixlen))
        self._cursor = aligned + size
        return network


@dataclass
class World:
    """A fully built simulation world."""

    internet: Internet
    rngs: RngStreams
    scale: WorldScale
    #: The nine Table-4 networks, keyed by their anonymised paper names.
    supplemental: Dict[str, Network] = field(default_factory=dict)

    @property
    def academic_a(self) -> Network:
        return self.supplemental["Academic-A"]

    def supplemental_targets(self, name: str) -> List[Subnet]:
        """The device-backed subnets targeted by supplemental measurement.

        The paper targets only the address space "which contains the
        most dynamically assigned hosts" (Section 6.1).
        """
        return self.supplemental[name].device_backed_subnets()


def build_world(seed: int = 0, scale: Optional[WorldScale] = None) -> World:
    """Assemble the complete simulated Internet."""
    scale = scale or WorldScale()
    rngs = RngStreams(seed)
    builder = NetworkBuilder(rngs)
    internet = Internet()
    world = World(internet=internet, rngs=rngs, scale=scale)
    people = scale.supplemental_people

    dns_failures = FailureModel(servfail_rate=0.004, timeout_rate=0.003, seed=seed)

    # --- the nine supplemental networks (Table 4) -------------------------
    brian_edu, brian_housing = make_brian_devices(2021)
    academic_a = builder.academic(
        "Academic-A",
        "20.0.0.0/16",
        "campus.stateu.edu",
        education_prefix="20.0.10.0/24",
        housing_prefix="20.0.20.0/24",
        servers_prefix="20.0.1.0/26",
        infrastructure_prefix="20.0.2.0/26",
        staff=people // 3,
        students=people // 3,
        residents=people,
        lease_time=5400,  # the long-lease laggard of Figure 7b
        covid=CovidTimeline.risk_reporting_campus(),
        us_campus=True,
        housing_response="exodus",  # risk reports send students home
        extra_education_devices=brian_edu,
        extra_housing_devices=brian_housing,
    )
    academic_a.server.failure_model = dns_failures
    internet.add(academic_a)
    world.supplemental["Academic-A"] = academic_a

    academic_b = builder.academic(
        "Academic-B",
        "21.0.0.0/16",
        "net.college.edu",
        education_prefix="21.0.10.0/24",
        servers_prefix="21.0.1.0/26",
        infrastructure_prefix="21.0.2.0/26",
        staff=people // 2,
        students=people // 2,
        residents=0,
        lease_time=3600,
        icmp_policy=IcmpPolicy.BLOCK,
        covid=CovidTimeline.typical_university(),
        us_campus=True,
    )
    # Exactly two hosts answer pings, and they carry no PTR record:
    # appliance addresses at the top of the targeted education /24,
    # above the device range, so the sweep sees them but rDNS has
    # nothing to say about them (Section 6.2's Academic-B).
    academic_b.icmp_allowlist = {
        ipaddress.IPv4Address("21.0.10.253"),
        ipaddress.IPv4Address("21.0.10.254"),
    }
    internet.add(academic_b)
    world.supplemental["Academic-B"] = academic_b

    academic_c = builder.academic(
        "Academic-C",
        "22.0.0.0/16",
        "campus.techuni.ac.nl",
        education_prefix="22.0.10.0/24",
        housing_prefix="22.0.20.0/24",
        servers_prefix="22.0.1.0/26",
        infrastructure_prefix="22.0.2.0/26",
        staff=people // 2,
        students=people // 2,
        residents=people,
        lease_time=3600,
        covid=CovidTimeline.typical_university(),
        us_campus=False,  # the authors' home institution: Carnaval dips
    )
    internet.add(academic_c)
    world.supplemental["Academic-C"] = academic_c

    enterprise_a = builder.enterprise(
        "Enterprise-A",
        "30.0.0.0/16",
        "corp.initech.com",
        office_prefix="30.0.10.0/24",
        servers_prefix="30.0.1.0/26",
        employees=people,
        lease_time=3600,
    )
    internet.add(enterprise_a)
    world.supplemental["Enterprise-A"] = enterprise_a

    enterprise_b = builder.enterprise(
        "Enterprise-B",
        "31.0.0.0/16",
        "office.globex.com",
        office_prefix="31.0.10.0/24",
        servers_prefix="31.0.1.0/26",
        employees=people,
        lease_time=3600,
        icmp_policy=IcmpPolicy.BLOCK,
        covid=CovidTimeline.late_lockdown_enterprise(),
    )
    internet.add(enterprise_b)
    world.supplemental["Enterprise-B"] = enterprise_b

    enterprise_c = builder.enterprise(
        "Enterprise-C",
        "32.0.0.0/16",
        "hq.umbrella-co.com",
        office_prefix="32.0.10.0/25",
        employees=people // 2,
        lease_time=3600,
        icmp_policy=IcmpPolicy.BLOCK,
        covid=CovidTimeline.late_lockdown_enterprise(),
    )
    internet.add(enterprise_c)
    world.supplemental["Enterprise-C"] = enterprise_c

    isp_a = builder.isp(
        "ISP-A",
        "40.0.0.0/16",
        "dyn.metronet.net",
        access_prefix="40.0.10.0/24",
        infrastructure_prefix="40.0.2.0/26",
        subscribers=people,
        lease_time=3600,
        icmp_response_rate=0.45,  # Table 4: ISP-A sees ~35% responsive
    )
    internet.add(isp_a)
    world.supplemental["ISP-A"] = isp_a

    isp_b = builder.isp(
        "ISP-B",
        "41.0.0.0/16",
        "cust.coastal-broadband.net",
        access_prefix="41.0.10.0/24",
        subscribers=people,
        lease_time=3600,
        icmp_response_rate=0.01,  # Table 4: ISP-B at 0.3%
    )
    internet.add(isp_b)
    world.supplemental["ISP-B"] = isp_b

    isp_c = builder.isp(
        "ISP-C",
        "42.0.0.0/16",
        "res.valley-isp.net",
        access_prefix="42.0.10.0/24",
        subscribers=people,
        lease_time=5400,
        icmp_response_rate=0.04,  # Table 4: ISP-C at 1.7%
    )
    internet.add(isp_c)
    world.supplemental["ISP-C"] = isp_c

    # --- the wider identified set (Figure 4's type mix) --------------------
    allocator = _PrefixAllocator("50.0.0.0")
    for index in range(scale.extra_academic):
        prefix = allocator.take(16)
        base = prefix.network_address
        internet.add(
            builder.academic(
                f"academic-{index:02d}",
                str(prefix),
                f"campus.uni{index:02d}.edu",
                education_prefix=slash24_of(int(base) + 10 * 256),
                housing_prefix=slash24_of(int(base) + 20 * 256),
                servers_prefix=str(ipaddress.ip_network((int(base) + 256, 26))),
                staff=scale.people_per_extra // 2,
                students=scale.people_per_extra // 2,
                residents=scale.people_per_extra // 2,
            )
        )
    for index in range(scale.extra_isp):
        prefix = allocator.take(16)
        base = prefix.network_address
        internet.add(
            builder.isp(
                f"isp-{index:02d}",
                str(prefix),
                f"dyn.region{index:02d}-isp.net",
                access_prefix=slash24_of(int(base) + 10 * 256),
                subscribers=scale.people_per_extra,
                icmp_response_rate=0.2,
            )
        )
    for index in range(scale.extra_other):
        prefix = allocator.take(16)
        base = prefix.network_address
        internet.add(
            builder.enterprise(
                f"other-{index:02d}",
                str(prefix),
                f"members.club{index:02d}.example",
                office_prefix=slash24_of(int(base) + 10 * 256),
                employees=scale.people_per_extra,
                net_type=NetworkType.OTHER,
            )
        )
    for index in range(scale.extra_enterprise):
        prefix = allocator.take(16)
        base = prefix.network_address
        internet.add(
            builder.enterprise(
                f"enterprise-{index:02d}",
                str(prefix),
                f"corp.firm{index:02d}.com",
                office_prefix=slash24_of(int(base) + 10 * 256),
                employees=scale.people_per_extra,
            )
        )
    for index in range(scale.extra_government):
        prefix = allocator.take(16)
        base = prefix.network_address
        internet.add(
            builder.government(
                f"government-{index:02d}",
                str(prefix),
                f"agency{index:02d}.state.gov",
                office_prefix=slash24_of(int(base) + 10 * 256),
                employees=scale.people_per_extra,
            )
        )

    # --- background announced prefixes (Figure 1) --------------------------
    background_allocator = _PrefixAllocator("80.0.0.0")
    rng = rngs.stream("background-shape")
    counter = 0
    for prefixlen in scale.background_sizes:
        for _ in range(scale.background_per_size):
            prefix = background_allocator.take(prefixlen)
            total_24s = 2 ** max(0, 24 - prefixlen)
            dynamic_24s = min(rng.randrange(0, 4), max(total_24s - 1, 0))
            static_24s = min(max(2, total_24s // 64), 6, total_24s - dynamic_24s)
            internet.add(
                builder.background(
                    f"bg-{counter:03d}",
                    str(prefix),
                    f"as{counter + 6400:d}.example.net",
                    static_24s=static_24s,
                    dynamic_24s=dynamic_24s,
                    vanity=counter % 3 == 0,
                    vanity_hosting_24s=(2 if counter % 2 == 0 and total_24s >= 8 else 0),
                )
            )
            counter += 1

    return world
