"""Networks: numbering plans, subnets and their rDNS behaviour.

A :class:`Network` owns an IPv4 prefix, one reverse zone, and a
numbering plan of :class:`Subnet` objects — mirroring the paper's
validation network, "a single /16 prefix with a numbering plan in which
some subprefixes are used for dynamic allocations whereas other
subprefixes contain static allocations" (Section 4.1).

Subnets come in three content flavours:

* **device-backed dynamic** — a population of :class:`Device` objects
  whose daily presence materialises PTR records via the subnet's
  DNS-update policy (the networks the paper identifies);
* **count-backed dynamic** — background dynamic space modelled only by
  a daily client-count process (enough for the dynamicity heuristic,
  no identities);
* **static** — fixed record sets: servers, router infrastructure, and
  fixed-form "dynamic pool" names.
"""

from __future__ import annotations

import datetime as dt
import enum
import ipaddress
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.dhcp.lease import Lease
from repro.dns.server import AuthoritativeServer, FailureModel
from repro.dns.zone import RdnsMode, ReverseZone
from repro.ipam.policy import CarryOverPolicy, DnsUpdatePolicy
from repro.netsim.calendar import CovidTimeline, HolidayCalendar
from repro.netsim.device import Device
from repro.netsim.rng import RngStreams

#: Addresses reserved at the bottom of every subnet (gateway, etc.).
RESERVED_LOW_ADDRESSES = 10


class IcmpPolicy(enum.Enum):
    """Ingress filtering: do echo requests reach hosts at all?

    Two of the paper's enterprise networks "do not see responses to
    ICMP pings at all. We suspect the operators of these networks block
    pings on ingress" (Section 6.2).
    """

    ALLOW = "allow"
    BLOCK = "block"


class NetworkType(enum.Enum):
    ACADEMIC = "academic"
    ISP = "isp"
    ENTERPRISE = "enterprise"
    GOVERNMENT = "government"
    OTHER = "other"


class SubnetRole(enum.Enum):
    DYNAMIC_CLIENTS = "dynamic_clients"
    HOUSING = "housing"          # dynamic: on-campus student housing
    EDUCATION = "education"      # dynamic: education/office buildings
    STATIC_SERVERS = "static_servers"
    INFRASTRUCTURE = "infrastructure"

    @property
    def is_dynamic(self) -> bool:
        return self in (SubnetRole.DYNAMIC_CLIENTS, SubnetRole.HOUSING, SubnetRole.EDUCATION)


@dataclass
class CountModel:
    """A daily client-count process for count-backed dynamic subnets."""

    mean: int
    weekend_factor: float = 0.75
    noise: float = 0.08

    def count_on(self, day: dt.date, rng: random.Random) -> int:
        base = self.mean * (self.weekend_factor if day.weekday() >= 5 else 1.0)
        value = rng.gauss(base, max(base * self.noise, 1.0))
        return max(0, int(round(value)))


class Subnet:
    """One prefix of a network's numbering plan."""

    def __init__(
        self,
        prefix: str,
        role: SubnetRole,
        *,
        devices: Optional[List[Device]] = None,
        count_model: Optional[CountModel] = None,
        static_entries: Optional[List[Tuple[ipaddress.IPv4Address, str]]] = None,
        policy: Optional[DnsUpdatePolicy] = None,
        count_template: str = "client-{dashed}",
        count_suffix: Optional[str] = None,
        rdns_mode: "Union[str, RdnsMode]" = RdnsMode.ENABLED,
    ):
        self.prefix = ipaddress.IPv4Network(prefix)
        self.role = role
        self.devices = devices or []
        self.count_model = count_model
        self.static_entries = static_entries or []
        self.policy = policy
        self.count_template = count_template
        self.count_suffix = count_suffix
        #: How reverse DNS is published for this prefix: ENABLED (the
        #: conventional zone), DISABLED (no PTRs at all) or RFC2317
        #: (classless child zone behind CNAME glue; sub-/24 only).
        self.rdns_mode = RdnsMode.parse(rdns_mode)
        if self.rdns_mode is RdnsMode.RFC2317 and self.prefix.prefixlen <= 24:
            raise ValueError(
                f"rdns_mode=rfc2317 needs a sub-/24 prefix, got {self.prefix}"
            )
        self._validate()
        self._device_fqdn_cache: Dict[str, str] = {}
        self._provisioned_cache: Optional[List[Tuple[ipaddress.IPv4Address, str]]] = None
        usable = self.prefix.num_addresses - RESERVED_LOW_ADDRESSES - 1
        if self.devices and len(self.devices) > usable:
            raise ValueError(
                f"{len(self.devices)} devices do not fit in {self.prefix} "
                f"({usable} usable addresses)"
            )

    def _validate(self) -> None:
        if self.role.is_dynamic:
            if self.devices and self.count_model:
                raise ValueError("a dynamic subnet is device-backed or count-backed, not both")
            if not self.devices and self.count_model is None:
                raise ValueError(f"dynamic subnet {self.prefix} needs devices or a count model")
            if self.devices and self.policy is None:
                raise ValueError("device-backed subnets need a DNS-update policy")
            if self.count_model is not None and self.count_suffix is None:
                raise ValueError("count-backed subnets need count_suffix")
        elif self.devices or self.count_model:
            raise ValueError(f"static subnet {self.prefix} cannot have dynamic content")

    # -- addressing ---------------------------------------------------------

    def device_address(self, index: int) -> ipaddress.IPv4Address:
        """The stable address of the index-th device (day-level path).

        Stability across days is what lets an outside observer track a
        device over time (the colour-coded bars of Figure 8).

        Addresses are computed, not materialised: a sharded 100k-prefix
        world would otherwise hold 256 ``IPv4Address`` objects per /24.
        """
        return self.prefix.network_address + (RESERVED_LOW_ADDRESSES + index)

    def device_fqdn(self, index: int) -> Optional[str]:
        """The PTR hostname published for the index-th device, if any."""
        device = self.devices[index]
        cached = self._device_fqdn_cache.get(device.device_id)
        if cached is not None:
            return cached or None
        assert self.policy is not None
        lease = Lease(
            address=self.device_address(index),
            client_id=device.device_id,
            duration=3600,
            bound_at=0,
            host_name=device.host_name(),
        )
        fqdn = self.policy.hostname_for(lease)
        self._device_fqdn_cache[device.device_id] = fqdn or ""
        return fqdn

    def _count_address(self, index: int) -> ipaddress.IPv4Address:
        return self.prefix.network_address + (RESERVED_LOW_ADDRESSES + index)

    def _count_fqdn(self, address: ipaddress.IPv4Address) -> str:
        text = str(address)
        label = self.count_template.format(
            dashed=text.replace(".", "-"), last_octet=text.rsplit(".", 1)[-1]
        )
        return f"{label}.{self.count_suffix}"

    # -- day-level snapshot ---------------------------------------------------

    def _device_present(self, device, day: dt.date, rngs: RngStreams, factor: float, at_offset: Optional[int]) -> bool:
        if at_offset is None:
            return device.is_present_on(day, rngs, factor)
        return device.is_present_at(day, at_offset, rngs, factor)

    def records_on(
        self,
        day: dt.date,
        rngs: RngStreams,
        factor: float = 1.0,
        *,
        at_offset: Optional[int] = None,
    ) -> Iterator[Tuple[ipaddress.IPv4Address, str]]:
        """(address, hostname) pairs present on ``day``.

        ``at_offset`` restricts presence to a specific second-of-day
        (point-in-time snapshot semantics); ``None`` means present at
        any time that day.
        """
        if self.rdns_mode is RdnsMode.DISABLED:
            return
        if not self.role.is_dynamic:
            yield from self.static_entries
            return
        if self.count_model is not None:
            rng = rngs.fresh("count", self.prefix, day.toordinal())
            count = min(
                self.count_model.count_on(day, rng),
                self.prefix.num_addresses - RESERVED_LOW_ADDRESSES - 1,
            )
            for index in range(count):
                address = self._count_address(index)
                yield address, self._count_fqdn(address)
            return
        if self.policy is not None and not self.policy.exposes_dynamics:
            # Static rDNS over dynamic DHCP: fixed-form records are
            # pre-provisioned for the whole pool and never change (the
            # 83 confirmed prefixes in the paper's validation), or —
            # with a no-update policy — nothing is published at all.
            yield from self._provisioned_entries()
            return
        for index, device in enumerate(self.devices):
            if self._device_present(device, day, rngs, factor, at_offset):
                fqdn = self.device_fqdn(index)
                if fqdn is not None:
                    yield self.device_address(index), fqdn

    def _provisioned_entries(self) -> List[Tuple[ipaddress.IPv4Address, str]]:
        if self._provisioned_cache is None:
            entries: List[Tuple[ipaddress.IPv4Address, str]] = []
            assert self.policy is not None
            base = self.prefix.network_address
            for offset in range(RESERVED_LOW_ADDRESSES, self.prefix.num_addresses - 1):
                address = base + offset
                hostname = self.policy.static_hostname_for(address)
                if hostname is not None:
                    entries.append((address, hostname))
            self._provisioned_cache = entries
        return self._provisioned_cache

    def count_on(
        self,
        day: dt.date,
        rngs: RngStreams,
        factor: float = 1.0,
        *,
        at_offset: Optional[int] = None,
    ) -> int:
        """Number of PTR records present on ``day`` (cheap path)."""
        if self.rdns_mode is RdnsMode.DISABLED:
            return 0
        if not self.role.is_dynamic:
            return len(self.static_entries)
        if self.count_model is not None:
            rng = rngs.fresh("count", self.prefix, day.toordinal())
            return min(
                self.count_model.count_on(day, rng),
                self.prefix.num_addresses - RESERVED_LOW_ADDRESSES - 1,
            )
        if self.policy is not None and not self.policy.exposes_dynamics:
            return len(self._provisioned_entries())
        count = 0
        for index, device in enumerate(self.devices):
            if self._device_present(device, day, rngs, factor, at_offset) and self.device_fqdn(index) is not None:
                count += 1
        return count

    def __repr__(self) -> str:
        backing = (
            f"{len(self.devices)} devices"
            if self.devices
            else f"count~{self.count_model.mean}" if self.count_model else f"{len(self.static_entries)} static"
        )
        return f"Subnet({self.prefix}, {self.role.value}, {backing})"


class Network:
    """One organisation's network."""

    #: How many (day, at_offset) /24 count derivations each network
    #: memoises.  Small on purpose: a multi-year sweep visits each day
    #: once.  Records are not memoised: a snapshot series stores each
    #: day's records when it collects them, so re-reads (leak sampling,
    #: the serve leak window) never reach the world.
    DAY_CACHE_SIZE = 32

    def __init__(
        self,
        name: str,
        net_type: NetworkType,
        prefix: str,
        suffix: str,
        *,
        subnets: Optional[List[Subnet]] = None,
        icmp_policy: IcmpPolicy = IcmpPolicy.ALLOW,
        icmp_allowlist: Optional[Iterable] = None,
        lease_time: int = 3600,
        housing_response: str = "shelter",
        holidays: Optional[HolidayCalendar] = None,
        covid: Optional[CovidTimeline] = None,
        dns_failure_model: Optional[FailureModel] = None,
        rngs: Optional[RngStreams] = None,
        zone_layout: str = "flat",
    ):
        self.name = name
        self.net_type = net_type
        self.prefix = ipaddress.IPv4Network(prefix)
        self.suffix = suffix.strip(".")
        self.subnets: List[Subnet] = []
        self.icmp_policy = icmp_policy
        # Hosts that answer pings even when the network blocks ICMP on
        # ingress (the paper's Academic-B: exactly two such hosts).
        self.icmp_allowlist = {
            ipaddress.ip_address(address) for address in (icmp_allowlist or ())
        }
        self.lease_time = lease_time
        if housing_response not in ("shelter", "exodus"):
            raise ValueError("housing_response must be 'shelter' or 'exodus'")
        # How campus housing reacts to lockdowns: "shelter" keeps (and
        # concentrates) residents on campus, the Figure-10 crossover;
        # "exodus" sends them home, so housing drops with the rest of
        # the campus (the paper's Academic-A risk-level dips).
        self.housing_response = housing_response
        self.holidays = holidays or HolidayCalendar()
        self.covid = covid or CovidTimeline.none()
        self.rngs = rngs or RngStreams(0)
        self._slash24_cache: Dict[ipaddress.IPv4Network, str] = {}
        self._counts_cache: "OrderedDict[Tuple[dt.date, Optional[int]], Dict[str, int]]" = OrderedDict()
        if zone_layout not in ("flat", "delegated"):
            raise ValueError("zone_layout must be 'flat' or 'delegated'")
        #: "flat" serves the whole network prefix from one apex zone (the
        #: historical layout); "delegated" gives every populated /24 its
        #: own child zone under the apex — the per-shard delegation the
        #: sharded world model serves (``16.172.in-addr.arpa`` → per-/24
        #: children, RFC 2317 glue below the /24 boundary).
        self.zone_layout = zone_layout
        self.zone = ReverseZone(self.prefix, primary_ns=f"ns1.{self.suffix}")
        self.server = AuthoritativeServer(
            f"ns1.{self.suffix}", failure_model=dns_failure_model
        )
        self.server.add_zone(self.zone)
        #: Zone serving each subnet's PTRs, keyed by subnet prefix; None
        #: for DISABLED subnets (nothing is published).
        self._subnet_zones: Dict[ipaddress.IPv4Network, Optional[ReverseZone]] = {}
        #: Delegated per-/24 child zones (and RFC 2317 glue hosts).
        self._slash24_zones: Dict[ipaddress.IPv4Network, ReverseZone] = {}
        for subnet in subnets or []:
            self.add_subnet(subnet)

    def add_subnet(self, subnet: Subnet) -> None:
        if not subnet.prefix.subnet_of(self.prefix):
            raise ValueError(f"{subnet.prefix} is not inside {self.prefix}")
        for existing in self.subnets:
            if subnet.prefix.overlaps(existing.prefix):
                raise ValueError(f"{subnet.prefix} overlaps {existing.prefix}")
        self._wire_subnet_zone(subnet)
        self.subnets.append(subnet)
        self.clear_day_caches()

    # -- zone layout -------------------------------------------------------

    def _slash24_child_zone(self, slash24: ipaddress.IPv4Network) -> ReverseZone:
        zone = self._slash24_zones.get(slash24)
        if zone is None:
            zone = ReverseZone(slash24, primary_ns=f"ns1.{self.suffix}")
            self.server.add_zone(zone)
            self._slash24_zones[slash24] = zone
        return zone

    def _wire_subnet_zone(self, subnet: Subnet) -> None:
        """Decide (and create) the zone that serves ``subnet``'s PTRs."""
        if subnet.rdns_mode is RdnsMode.DISABLED:
            self._subnet_zones[subnet.prefix] = None
            return
        sub24 = subnet.prefix.prefixlen > 24
        if subnet.rdns_mode is RdnsMode.RFC2317:
            # Classless child zone; CNAME glue lives in the zone that is
            # conventionally authoritative for the covering /24 — the
            # per-/24 child under a delegated layout, the apex otherwise.
            child = ReverseZone(subnet.prefix, primary_ns=f"ns1.{self.suffix}")
            covering = subnet.prefix.supernet(new_prefix=24)
            if self.zone_layout == "delegated":
                host = self._slash24_child_zone(covering)
            else:
                host = self.zone
            host.add_rfc2317_glue(child)
            self.server.add_zone(child)
            self._subnet_zones[subnet.prefix] = child
            return
        if self.zone_layout == "delegated" and subnet.prefix.prefixlen >= 24:
            covering = (
                subnet.prefix
                if subnet.prefix.prefixlen == 24
                else subnet.prefix.supernet(new_prefix=24)
            )
            self._subnet_zones[subnet.prefix] = self._slash24_child_zone(covering)
            return
        # Flat layout, or a subnet wider than /24 (served from the apex).
        self._subnet_zones[subnet.prefix] = self.zone

    def zone_for_subnet(self, subnet: Subnet) -> Optional[ReverseZone]:
        """The zone PTRs for ``subnet`` land in (None when rDNS is off)."""
        return self._subnet_zones.get(subnet.prefix, self.zone)

    def zone_for_address(self, address) -> Optional[ReverseZone]:
        """The most specific zone covering ``address``."""
        ip = (
            address
            if isinstance(address, ipaddress.IPv4Address)
            else ipaddress.ip_address(address)
        )
        best: Optional[ReverseZone] = None
        for prefix, zone in self._subnet_zones.items():
            if ip in prefix and zone is not None:
                if best is None or prefix.prefixlen > best.prefix.prefixlen:
                    best = zone
        if best is not None:
            return best
        if ip in self.prefix:
            return self.zone
        return None

    def zones(self) -> List[ReverseZone]:
        """Every zone this network serves, apex first."""
        return list(self.server.zones())

    def clear_day_caches(self) -> None:
        """Drop memoised per-day counts (after topology changes)."""
        self._counts_cache.clear()

    def default_policy(self) -> DnsUpdatePolicy:
        return CarryOverPolicy(self.suffix)

    # -- occupancy factors ----------------------------------------------------

    def day_factor(self, day: dt.date, subnet: Subnet) -> float:
        """Holiday and COVID suppression for one subnet on one day."""
        factor = self.holidays.occupancy_factor(day)
        if subnet.role is SubnetRole.HOUSING and self.housing_response == "shelter":
            covid_factor = self.covid.housing_factor(day)
        else:
            covid_factor = self.covid.onsite_factor(day)
        return max(0.0, min(factor * covid_factor, 1.3))

    # -- day-level snapshot -----------------------------------------------------

    def records_on(
        self, day: dt.date, *, at_offset: Optional[int] = None
    ) -> Iterator[Tuple[ipaddress.IPv4Address, str]]:
        """(address, hostname) pairs present on ``day``, subnet by subnet.

        Every call re-runs the day's presence draws; a snapshot series
        stores what collection derived, so analyses read that instead.
        """
        for subnet in self.subnets:
            yield from subnet.records_on(
                day, self.rngs, self.day_factor(day, subnet), at_offset=at_offset
            )

    def counts_by_subnet(self, day: dt.date, *, at_offset: Optional[int] = None) -> Dict[SubnetRole, int]:
        counts: Dict[SubnetRole, int] = {}
        for subnet in self.subnets:
            count = subnet.count_on(
                day, self.rngs, self.day_factor(day, subnet), at_offset=at_offset
            )
            counts[subnet.role] = counts.get(subnet.role, 0) + count
        return counts

    def total_count_on(self, day: dt.date, *, at_offset: Optional[int] = None) -> int:
        return sum(self.counts_by_subnet(day, at_offset=at_offset).values())

    def counts_by_slash24(self, day: dt.date, *, at_offset: Optional[int] = None) -> Dict[str, int]:
        """Records per /24 (the unit of the dynamicity heuristic).

        Subnets no wider than a /24 map to a single key, so their count
        is taken without materialising records — the fast path that
        makes multi-year daily collection tractable.  Results are
        memoised per ``(day, at_offset)``.
        """
        cache_key = (day, at_offset)
        cached = self._counts_cache.get(cache_key)
        if cached is not None:
            self._counts_cache.move_to_end(cache_key)
            return dict(cached)
        counts: Dict[str, int] = {}
        for subnet in self.subnets:
            factor = self.day_factor(day, subnet)
            if subnet.prefix.prefixlen >= 24:
                key = self._subnet_slash24(subnet)
                count = subnet.count_on(day, self.rngs, factor, at_offset=at_offset)
                if count:
                    counts[key] = counts.get(key, 0) + count
            else:
                for address, _ in subnet.records_on(day, self.rngs, factor, at_offset=at_offset):
                    key = slash24_of(address)
                    counts[key] = counts.get(key, 0) + 1
        self._counts_cache[cache_key] = counts
        while len(self._counts_cache) > self.DAY_CACHE_SIZE:
            self._counts_cache.popitem(last=False)
        return dict(counts)

    def _subnet_slash24(self, subnet: Subnet) -> str:
        key = self._slash24_cache.get(subnet.prefix)
        if key is None:
            key = slash24_of(subnet.prefix.network_address)
            self._slash24_cache[subnet.prefix] = key
        return key

    def dynamic_subnets(self) -> List[Subnet]:
        return [subnet for subnet in self.subnets if subnet.role.is_dynamic]

    def device_backed_subnets(self) -> List[Subnet]:
        return [subnet for subnet in self.subnets if subnet.devices]

    def all_devices(self) -> List[Device]:
        return [device for subnet in self.subnets for device in subnet.devices]

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, {self.net_type.value}, {self.prefix}, "
            f"{len(self.subnets)} subnets)"
        )


def slash24_of(address: Union[ipaddress.IPv4Address, int, str]) -> str:
    """The /24 prefix key of an address, e.g. '192.0.2.0/24'.

    Integer arithmetic on ``int(address)``, with no network object
    built; only text input is parsed (as an :class:`IPv4Address`).
    """
    if isinstance(address, str):
        address = ipaddress.IPv4Address(address)
    value = int(address)
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.0/24"
