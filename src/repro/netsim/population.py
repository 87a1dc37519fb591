"""Population builders: whole networks of people, devices and records.

These factories assemble :class:`~repro.netsim.network.Network` objects
of the types the paper identifies (academic, ISP, enterprise,
government, other), including the static content — server farms,
router-level infrastructure names with city words, vanity hosts — that
the Section 5.1 filtering steps must see through.
"""

from __future__ import annotations

import ipaddress
import random
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.datasets.terms import CITY_NAMES_WITH_GIVEN_NAME_OVERLAP, PLAIN_CITY_NAMES
from repro.ipam.policy import CarryOverPolicy, DnsUpdatePolicy, StaticTemplatePolicy
from repro.netsim.behavior import ProfileKind
from repro.netsim.calendar import CovidTimeline, HolidayCalendar
from repro.netsim.device import Device
from repro.netsim.network import (
    IcmpPolicy,
    Network,
    NetworkType,
    RdnsMode,
    Subnet,
    SubnetRole,
    slash24_of,
)
from repro.netsim.person import Person, PersonGenerator
from repro.netsim.rng import RngStreams

StaticEntry = Tuple[ipaddress.IPv4Address, str]

_SERVER_LABELS = [
    "www", "mail", "smtp", "imap", "ns1", "ns2", "vpn", "proxy",
    "lb1", "lb2", "db1", "db2", "backup", "monitor", "git", "wiki",
]

_ROUTER_INTERFACES = ["xe-0-0-0", "xe-1-0-1", "ge-0-1-0", "ae1", "ae2", "te-2-0-0", "eth0"]
_ROUTER_ROLES = ["core1", "core2", "edge1", "edge2", "border1", "gw1", "gw2"]
_ROUTER_LOCATIONS = (
    ["north", "south", "east", "west"]
    + PLAIN_CITY_NAMES
    + CITY_NAMES_WITH_GIVEN_NAME_OVERLAP
)


def _host_range(prefix: str) -> Tuple[ipaddress.IPv4Address, int]:
    """``prefix``'s network address and its usable host count.

    Host ``i`` (0-based) is ``base + (1 + i)``: the same addresses as
    ``list(network)[1:-1]``, computed only for the entries returned.
    """
    network = ipaddress.IPv4Network(prefix)
    return network.network_address, max(0, network.num_addresses - 2)


def make_server_entries(prefix: str, suffix: str, *, count: Optional[int] = None) -> List[StaticEntry]:
    """Fixed records for a server subnet (www, mail, ns1, srvNN...)."""
    base, usable = _host_range(prefix)
    labels = list(_SERVER_LABELS)
    total = count if count is not None else min(usable, len(labels) + 16)
    while len(labels) < total:
        labels.append(f"srv{len(labels):02d}")
    return [
        (base + (1 + index), f"{labels[index]}.{suffix}")
        for index in range(min(total, usable))
    ]


def make_infrastructure_entries(
    prefix: str, suffix: str, rng: random.Random, *, count: int = 24
) -> List[StaticEntry]:
    """Router-level records in the style the literature decodes.

    These deliberately contain location words — including city names
    like ``jackson`` that collide with given names — so that the
    analysis' generic-term exclusion and suffix thresholds (Section
    5.1, "Dealing with City Names") have realistic confounders.
    """
    base, usable = _host_range(prefix)
    entries: List[StaticEntry] = []
    for index in range(min(count, usable)):
        interface = rng.choice(_ROUTER_INTERFACES)
        role = rng.choice(_ROUTER_ROLES)
        location = rng.choice(_ROUTER_LOCATIONS)
        entries.append((base + (1 + index), f"{interface}.{role}.{location}.{suffix}"))
    return entries


def make_vanity_entries(
    prefix: str, suffix: str, rng: random.Random, *, count: int = 8
) -> List[StaticEntry]:
    """Static hosts named after people (vanity boxes, legacy hosting).

    Such records carry given names but sit in *static* space, so they
    appear among Figure 2's "all matches" and must be excluded from
    the filtered set by the dynamicity requirement.  Names follow the
    SSA popularity weighting, as real name usage does.
    """
    from repro.datasets.names import name_popularity_weights

    base, usable = _host_range(prefix)
    weights = name_popularity_weights()
    names = list(weights)
    # Cumulative once: choices(weights=...) re-accumulates on every draw.
    cum_weights = list(accumulate(weights[name] for name in names))
    entries: List[StaticEntry] = []
    for index in range(min(count, usable)):
        name = rng.choices(names, cum_weights=cum_weights, k=1)[0]
        style = rng.choice(
            [
                "{name}", "{name}-pc", "{name}-ws", "{name}-desk", "{name}{n}",
                # Static boxes named after owner and device class: these
                # put device terms into Figure 3's "all matches" series
                # without being dynamic.
                "{name}-laptop", "{name}-desktop", "{name}-macbook",
            ]
        )
        label = style.format(name=name, n=rng.randrange(1, 99))
        entries.append((base + (1 + index), f"{label}.{suffix}"))
    return entries


def sample_slash24s(prefix: str, rng: random.Random, needed: int) -> List[str]:
    """``needed`` distinct /24 keys of ``prefix``, drawn with ``rng``.

    ``random.sample`` picks by position from the population's length
    alone, so sampling /24 indices draws the same /24s, in the same
    order, as sampling the enumerated subnets would, without building
    one object per /24 of the space.
    """
    space = ipaddress.IPv4Network(prefix)
    if space.prefixlen > 24:
        raise ValueError(f"background prefix {prefix} is narrower than a /24")
    total = 1 << (24 - space.prefixlen)
    if needed > total:
        raise ValueError(f"{prefix} holds only {total} /24s, need {needed}")
    base = int(space.network_address)
    return [slash24_of(base + (index << 8)) for index in rng.sample(range(total), needed)]


def _take_devices(people: Iterable[Person]) -> List[Device]:
    return [device for person in people for device in person.devices]


class NetworkBuilder:
    """Assembles the standard network archetypes.

    One builder per simulated world; it owns the RNG streams and hands
    each network a distinct sub-stream so worlds are reproducible.
    """

    def __init__(self, rngs: RngStreams):
        self.rngs = rngs

    def _generator(self, network_name: str, **kwargs) -> PersonGenerator:
        return PersonGenerator(self.rngs.stream("population", network_name), **kwargs)

    def academic(
        self,
        name: str,
        prefix: str,
        suffix: str,
        *,
        education_prefix: str,
        housing_prefix: Optional[str] = None,
        servers_prefix: Optional[str] = None,
        infrastructure_prefix: Optional[str] = None,
        staff: int = 40,
        students: int = 80,
        residents: int = 100,
        lease_time: int = 3600,
        icmp_policy: IcmpPolicy = IcmpPolicy.ALLOW,
        covid: Optional[CovidTimeline] = None,
        us_campus: bool = True,
        housing_response: str = "shelter",
        policy: Optional[DnsUpdatePolicy] = None,
        extra_education_devices: Sequence[Device] = (),
        extra_housing_devices: Sequence[Device] = (),
        rdns_mode: "str | RdnsMode" = RdnsMode.ENABLED,
        zone_layout: str = "flat",
    ) -> Network:
        """A campus: education buildings, optional housing, servers.

        ``rdns_mode`` applies to the dynamic (education/housing) subnets;
        static server/infrastructure records are always published.
        """
        rdns_mode = RdnsMode.parse(rdns_mode)
        generator = self._generator(name)
        policy = policy or CarryOverPolicy(suffix)
        holidays = HolidayCalendar(
            observes_thanksgiving=us_campus, observes_carnaval=not us_campus
        )
        network = Network(
            name,
            NetworkType.ACADEMIC,
            prefix,
            suffix,
            icmp_policy=icmp_policy,
            lease_time=lease_time,
            housing_response=housing_response,
            holidays=holidays,
            covid=covid or CovidTimeline.typical_university(),
            rngs=self.rngs,
            zone_layout=zone_layout,
        )
        education_people = generator.make_population(
            staff, id_prefix=f"{name}-staff", profile_kind=ProfileKind.OFFICE_WORKER
        ) + generator.make_population(
            students, id_prefix=f"{name}-stu", profile_kind=ProfileKind.STUDENT
        )
        education_devices = _take_devices(education_people) + list(extra_education_devices)
        network.add_subnet(
            Subnet(education_prefix, SubnetRole.EDUCATION, devices=education_devices, policy=policy, rdns_mode=rdns_mode)
        )
        if housing_prefix is not None:
            housing_people = generator.make_population(
                residents, id_prefix=f"{name}-res", profile_kind=ProfileKind.RESIDENT
            )
            housing_devices = _take_devices(housing_people) + list(extra_housing_devices)
            network.add_subnet(
                Subnet(housing_prefix, SubnetRole.HOUSING, devices=housing_devices, policy=policy, rdns_mode=rdns_mode)
            )
        if servers_prefix is not None:
            network.add_subnet(
                Subnet(
                    servers_prefix,
                    SubnetRole.STATIC_SERVERS,
                    static_entries=make_server_entries(servers_prefix, suffix),
                )
            )
        if infrastructure_prefix is not None:
            network.add_subnet(
                Subnet(
                    infrastructure_prefix,
                    SubnetRole.INFRASTRUCTURE,
                    static_entries=make_infrastructure_entries(
                        infrastructure_prefix, f"net.{suffix}", self.rngs.stream("infra", name)
                    ),
                )
            )
        return network

    def enterprise(
        self,
        name: str,
        prefix: str,
        suffix: str,
        *,
        office_prefix: str,
        servers_prefix: Optional[str] = None,
        employees: int = 60,
        lease_time: int = 3600,
        icmp_policy: IcmpPolicy = IcmpPolicy.ALLOW,
        covid: Optional[CovidTimeline] = None,
        policy: Optional[DnsUpdatePolicy] = None,
        net_type: NetworkType = NetworkType.ENTERPRISE,
        rdns_mode: "str | RdnsMode" = RdnsMode.ENABLED,
        zone_layout: str = "flat",
    ) -> Network:
        """An office network of 9-to-5 workers."""
        rdns_mode = RdnsMode.parse(rdns_mode)
        generator = self._generator(name)
        policy = policy or CarryOverPolicy(suffix)
        network = Network(
            name,
            net_type,
            prefix,
            suffix,
            icmp_policy=icmp_policy,
            lease_time=lease_time,
            holidays=HolidayCalendar(observes_thanksgiving=True, fall_break=False),
            covid=covid or CovidTimeline.late_lockdown_enterprise(),
            rngs=self.rngs,
            zone_layout=zone_layout,
        )
        people = generator.make_population(
            employees, id_prefix=f"{name}-emp", profile_kind=ProfileKind.OFFICE_WORKER
        )
        network.add_subnet(
            Subnet(office_prefix, SubnetRole.DYNAMIC_CLIENTS, devices=_take_devices(people), policy=policy, rdns_mode=rdns_mode)
        )
        if servers_prefix is not None:
            network.add_subnet(
                Subnet(
                    servers_prefix,
                    SubnetRole.STATIC_SERVERS,
                    static_entries=make_server_entries(servers_prefix, suffix),
                )
            )
        return network

    def government(self, name: str, prefix: str, suffix: str, **kwargs) -> Network:
        """Government office: an enterprise under a .gov suffix."""
        kwargs.setdefault("net_type", NetworkType.GOVERNMENT)
        return self.enterprise(name, prefix, suffix, **kwargs)

    def isp(
        self,
        name: str,
        prefix: str,
        suffix: str,
        *,
        access_prefix: str,
        infrastructure_prefix: Optional[str] = None,
        subscribers: int = 80,
        lease_time: int = 3600,
        icmp_response_rate: float = 0.35,
        carry_over_names: bool = True,
        policy: Optional[DnsUpdatePolicy] = None,
        covid: Optional[CovidTimeline] = None,
        rdns_mode: "str | RdnsMode" = RdnsMode.ENABLED,
        zone_layout: str = "flat",
    ) -> Network:
        """A residential access network.

        ``carry_over_names=False`` models the common ISP practice of
        fixed-form pool names (``client-1-2-3-4.dsl.example.net``) —
        dynamic DHCP, but no identity leak.  An explicit ``policy``
        overrides the flag entirely (the countermeasure-evaluation
        matrix swaps policies uniformly across network kinds).
        ``icmp_response_rate`` models CPE behaviour: the paper's ISP-B
        and ISP-C see under 2% responsiveness.
        """
        generator = self._generator(name, release_rate=0.6)
        rdns_mode = RdnsMode.parse(rdns_mode)
        if policy is None:
            if carry_over_names:
                policy = CarryOverPolicy(suffix)
            else:
                policy = StaticTemplatePolicy(suffix, template="client-{dashed}")
        network = Network(
            name,
            NetworkType.ISP,
            prefix,
            suffix,
            icmp_policy=IcmpPolicy.ALLOW,
            lease_time=lease_time,
            holidays=HolidayCalendar(fall_break=False, christmas_break=False),
            covid=covid or CovidTimeline.none(),
            rngs=self.rngs,
            zone_layout=zone_layout,
        )
        people = generator.make_population(
            subscribers, id_prefix=f"{name}-sub", profile_kind=ProfileKind.RESIDENT
        )
        devices = _take_devices(people)
        rng = self.rngs.stream("isp-icmp", name)
        for device in devices:
            device.icmp_responds = rng.random() < icmp_response_rate
        network.add_subnet(
            Subnet(access_prefix, SubnetRole.DYNAMIC_CLIENTS, devices=devices, policy=policy, rdns_mode=rdns_mode)
        )
        if infrastructure_prefix is not None:
            network.add_subnet(
                Subnet(
                    infrastructure_prefix,
                    SubnetRole.INFRASTRUCTURE,
                    static_entries=make_infrastructure_entries(
                        infrastructure_prefix, suffix, self.rngs.stream("infra", name), count=40
                    ),
                )
            )
        return network

    def background(
        self,
        name: str,
        prefix: str,
        suffix: str,
        *,
        static_24s: int = 4,
        dynamic_24s: int = 2,
        dynamic_mean: int = 60,
        vanity: bool = False,
        vanity_hosting_24s: int = 0,
        rdns_mode: "str | RdnsMode" = RdnsMode.ENABLED,
        zone_layout: str = "flat",
    ) -> Network:
        """Background space for Internet-scale realism (Figure 1).

        Static /24s carry infrastructure (and optionally vanity)
        records; dynamic /24s are count-backed with template names, so
        they register as dynamic without leaking identities.
        ``vanity_hosting_24s`` adds legacy static-hosting /24s densely
        populated with person-named records — the static name mass that
        separates Figure 2's "all matches" from its filtered series.
        """
        from repro.netsim.network import CountModel

        rdns_mode = RdnsMode.parse(rdns_mode)
        network = Network(
            name, NetworkType.OTHER, prefix, suffix, rngs=self.rngs,
            zone_layout=zone_layout,
        )
        rng = self.rngs.stream("background", name)
        needed = static_24s + dynamic_24s + vanity_hosting_24s
        chosen = sample_slash24s(prefix, rng, needed)
        for index, subnet_prefix in enumerate(chosen[:static_24s]):
            if vanity and index == 0:
                entries = make_vanity_entries(subnet_prefix, suffix, rng)
            else:
                entries = make_infrastructure_entries(subnet_prefix, suffix, rng)
            network.add_subnet(
                Subnet(subnet_prefix, SubnetRole.INFRASTRUCTURE, static_entries=entries)
            )
        for subnet_prefix in chosen[static_24s + dynamic_24s:]:
            entries = make_vanity_entries(subnet_prefix, f"hosting.{suffix}", rng, count=180)
            network.add_subnet(
                Subnet(subnet_prefix, SubnetRole.STATIC_SERVERS, static_entries=entries)
            )
        for subnet_prefix in chosen[static_24s:static_24s + dynamic_24s]:
            mean = max(12, int(rng.gauss(dynamic_mean, dynamic_mean * 0.3)))
            network.add_subnet(
                Subnet(
                    subnet_prefix,
                    SubnetRole.DYNAMIC_CLIENTS,
                    count_model=CountModel(mean=min(mean, 220)),
                    count_suffix=f"dyn.{suffix}",
                    rdns_mode=rdns_mode,
                )
            )
        return network
