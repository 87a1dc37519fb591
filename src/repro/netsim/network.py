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
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dhcp.lease import Lease
from repro.dns.server import AuthoritativeServer, FailureModel
from repro.dns.zone import RdnsMode, ReverseZone
from repro.ipam.policy import DnsUpdatePolicy
from repro.netsim.calendar import CovidTimeline, HolidayCalendar
from repro.netsim.device import DaySessions, Device
from repro.netsim.rng import RngStreams

#: Addresses reserved at the bottom of every subnet (gateway, etc.).
RESERVED_LOW_ADDRESSES = 10

#: One PTR record: ``(IPv4 address as int, hostname)``.
Record = Tuple[int, str]


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
        self._device_record_cache: Optional[List[Optional[Record]]] = None
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

    def _device_records(self) -> List[Optional[Record]]:
        """Each device's ``(address, hostname)`` record; None when unnamed.

        Memoised: devices are in memory already, and a device's address
        and published name never change.
        """
        if self._device_record_cache is None:
            assert self.policy is not None
            records: List[Optional[Record]] = []
            for index, device in enumerate(self.devices):
                address = self.device_address(index)
                lease = Lease(
                    address=address,
                    client_id=device.device_id,
                    duration=3600,
                    bound_at=0,
                    host_name=device.host_name(),
                )
                fqdn = self.policy.hostname_for(lease)
                records.append((int(address), fqdn) if fqdn is not None else None)
            self._device_record_cache = records
        return self._device_record_cache

    def _count_records(self, count: int) -> List[Record]:
        """The first ``count`` count-backed records, named from integers."""
        base = int(self.prefix.network_address) + RESERVED_LOW_ADDRESSES
        template, suffix = self.count_template, self.count_suffix
        records: List[Record] = []
        for address in range(base, base + count):
            last = address & 0xFF
            dashed = f"{address >> 24}-{(address >> 16) & 0xFF}-{(address >> 8) & 0xFF}-{last}"
            label = template.format(dashed=dashed, last_octet=str(last))
            records.append((address, f"{label}.{suffix}"))
        return records

    # -- day-level snapshot ---------------------------------------------------

    def records_on(
        self,
        day: dt.date,
        rngs: RngStreams,
        factor: float = 1.0,
        *,
        at_offset: Optional[int] = None,
        sessions: Optional[DaySessions] = None,
    ) -> List[Record]:
        """``(address as int, hostname)`` records present on ``day``.

        ``at_offset`` restricts presence to a specific second-of-day
        (point-in-time snapshot semantics); ``None`` means present at
        any time that day.  ``sessions`` is the walk's owner-session
        memo (one per network-day); a fresh one is used when omitted.
        """
        if self.rdns_mode is RdnsMode.DISABLED:
            return []
        if not self.role.is_dynamic:
            return [(int(address), hostname) for address, hostname in self.static_entries]
        if self.count_model is not None:
            rng = rngs.fresh("count", self.prefix, day.toordinal())
            count = min(
                self.count_model.count_on(day, rng),
                self.prefix.num_addresses - RESERVED_LOW_ADDRESSES - 1,
            )
            return self._count_records(count)
        if self.policy is not None and not self.policy.exposes_dynamics:
            # Static rDNS over dynamic DHCP: fixed-form records are
            # pre-provisioned for the whole pool and never change (the
            # 83 confirmed prefixes in the paper's validation), or —
            # with a no-update policy — nothing is published at all.
            return self._provisioned_records()
        if sessions is None:
            sessions = DaySessions(day, rngs)
        present = sessions.present
        return [
            record
            for device, record in zip(self.devices, self._device_records())
            if record is not None and present(device, factor, at_offset)
        ]

    def _provisioned_records(self) -> List[Record]:
        """The whole pool's pre-provisioned records, named from integers."""
        assert self.policy is not None
        static_hostname_for = self.policy.static_hostname_for
        base = int(self.prefix.network_address)
        records: List[Record] = []
        for address in range(base + RESERVED_LOW_ADDRESSES, base + self.prefix.num_addresses - 1):
            hostname = static_hostname_for(address)
            if hostname is not None:
                records.append((address, hostname))
        return records

    def __repr__(self) -> str:
        backing = (
            f"{len(self.devices)} devices"
            if self.devices
            else f"count~{self.count_model.mean}" if self.count_model else f"{len(self.static_entries)} static"
        )
        return f"Subnet({self.prefix}, {self.role.value}, {backing})"


class Network:
    """One organisation's network."""

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

    def zones(self) -> List[ReverseZone]:
        """Every zone this network serves, apex first."""
        return list(self.server.zones())

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

    def records_on(self, day: dt.date, *, at_offset: Optional[int] = None) -> List[Record]:
        """``(address as int, hostname)`` records present on ``day``.

        The one derivation walk: subnet by subnet, each device's
        presence decided once, each owner's sessions drawn once.  Every
        call re-runs the day's draws; a snapshot series stores what
        collection derived, so analyses read that instead.
        """
        sessions = DaySessions(day, self.rngs)
        records: List[Record] = []
        for subnet in self.subnets:
            records += subnet.records_on(
                day, self.rngs, self.day_factor(day, subnet),
                at_offset=at_offset, sessions=sessions,
            )
        return records

    def counts_by_slash24(self, day: dt.date, *, at_offset: Optional[int] = None) -> Dict[str, int]:
        """Records per /24 (the unit of the dynamicity heuristic).

        A tally of :meth:`records_on`, in first-seen /24 order.
        """
        return slash24_counts([address for address, _ in self.records_on(day, at_offset=at_offset)])

    def device_backed_subnets(self) -> List[Subnet]:
        return [subnet for subnet in self.subnets if subnet.devices]

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


def dotted(value: int) -> str:
    """An IPv4 address given as an integer, as dotted-quad text.

    >>> dotted(3221225985)
    '192.0.2.1'
    """
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def slash24_counts(addresses: Sequence[int]) -> Dict[str, int]:
    """Records per /24 of an address column, in first-seen /24 order.

    ``addresses`` are IPv4 addresses as integers (a ``u32`` array or
    any integer sequence), one per record.
    """
    blocks = np.asarray(addresses, dtype=np.uint32) >> np.uint32(8)
    unique, first, counts = np.unique(blocks, return_index=True, return_counts=True)
    order = np.argsort(first)
    return {
        f"{block >> 16}.{(block >> 8) & 0xFF}.{block & 0xFF}.0/24": count
        for block, count in zip(unique[order].tolist(), counts[order].tolist())
    }
