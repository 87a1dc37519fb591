"""World plans: declarative, shardable descriptions of a simulated Internet.

:func:`~repro.netsim.internet.build_world` assembles the paper's fixed
world in code, whole, in one process.  A :class:`WorldPlan` is the one
JSON world format (the CLI's ``--plan``, also spelled ``--spec``): a
fully *materialised* list of network entries — every
keyword argument already computed, nothing drawn from a sequential
world-level RNG — so any contiguous subset of entries builds into
exactly the networks the full plan would build.  That property is what
makes sharding sound: :meth:`WorldPlan.shard_names` partitions the plan
into contiguous shards, each worker process builds only its shard's
networks (all per-network randomness is keyed by network name through
``RngStreams.stream(label, name)``), and the shard outputs merge back
in plan order, bit-identical to a single-process build.

:meth:`WorldPlan.validate` is also where misconfigured reverse zones
fail loudly.  A network prefix that sits between /8 and /24 without
octet alignment cannot be parented correctly in ``in-addr.arpa``
(its rounded origin collides with its siblings'), and prefixes longer
than /24 are only reachable through RFC 2317 glue — which the flat
zone layout provides automatically, but the plan still refuses shapes
that would silently round (see ``origin_rounded`` on
:class:`~repro.dns.zone.ReverseZone`).

:func:`synthetic_plan` generates multi-/16 worlds of arbitrary width —
the scale harness behind ``benchmarks/test_shard_scaling.py`` — mixing
academic, ISP, enterprise and background networks, delegated per-/24
child zones, RFC 2317 classless subnets and rDNS-disabled space.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.dns.zone import RdnsMode
from repro.ipam.policy import POLICY_NAMES, make_policy
from repro.netsim.internet import Internet, World, WorldScale
from repro.netsim.population import NetworkBuilder
from repro.netsim.rng import RngStreams

PathLike = Union[str, Path]

_KINDS = ("academic", "enterprise", "government", "isp", "background")

_REQUIRED = {"kind", "name", "prefix", "suffix"}

_ZONE_LAYOUTS = ("flat", "delegated")


class PlanError(ValueError):
    """The world plan cannot be built (or would build the wrong DNS tree)."""


def contiguous_blocks(items: Sequence[Any], shards: int) -> List[List[Any]]:
    """Partition ``items`` into at most ``shards`` contiguous blocks.

    Blocks preserve order and differ in size by at most one; asking for
    more blocks than items yields one block per item (never an empty
    block).  Shared by plan sharding and the campaign's per-shard
    network batches, so both partition identically.
    """
    if shards < 1:
        raise PlanError(f"shard count must be >= 1, got {shards}")
    items = list(items)
    shards = min(shards, len(items)) or 1
    base, extra = divmod(len(items), shards)
    blocks: List[List[Any]] = []
    cursor = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        blocks.append(items[cursor:cursor + size])
        cursor += size
    return blocks


def _aligned_for_reverse_dns(prefix: ipaddress.IPv4Network) -> bool:
    """Can this prefix own a correctly-parented reverse zone?

    Octet-aligned prefixes (/8, /16, /24) map onto classic
    ``in-addr.arpa`` cuts; longer-than-/24 prefixes get RFC 2317
    classless child zones.  Anything between /8 and /24 off an octet
    boundary would *round* its origin and collide with its siblings —
    the silent mis-parenting this validation exists to catch.
    """
    if prefix.prefixlen > 24:
        return True
    return prefix.prefixlen % 8 == 0


class WorldPlan:
    """An ordered, fully-materialised list of network entries plus a seed.

    Each entry names a :class:`~repro.netsim.population.NetworkBuilder`
    factory by ``kind`` and gives its ``name``/``prefix``/``suffix``,
    its keyword arguments and an optional ``supplemental`` flag.  Entry
    order is load-bearing: shards are contiguous runs of this list, and
    merged shard output reproduces a full build *because* both iterate
    in plan order.
    """

    def __init__(self, seed: int, entries: Sequence[Dict[str, Any]]):
        self.seed = int(seed)
        self.entries: List[Dict[str, Any]] = [dict(entry) for entry in entries]

    # -- validation --------------------------------------------------------

    def validate(self) -> "WorldPlan":
        """Raise :class:`PlanError` if the plan cannot build correctly."""
        if not self.entries:
            raise PlanError("plan needs at least one network entry")
        seen_names = set()
        prefixes: List[ipaddress.IPv4Network] = []
        for index, entry in enumerate(self.entries):
            if not isinstance(entry, dict):
                raise PlanError(f"entries[{index}] must be a mapping")
            missing = _REQUIRED - set(entry)
            if missing:
                raise PlanError(f"entries[{index}] missing keys: {sorted(missing)}")
            if entry["kind"] not in _KINDS:
                raise PlanError(
                    f"entries[{index}] has unknown kind {entry['kind']!r}"
                    f" (want one of {_KINDS})"
                )
            name = entry["name"]
            if name in seen_names:
                raise PlanError(f"duplicate network name {name!r}")
            seen_names.add(name)
            try:
                prefix = ipaddress.IPv4Network(entry["prefix"])
            except ValueError as exc:
                raise PlanError(f"network {name!r}: bad prefix: {exc}") from exc
            if not _aligned_for_reverse_dns(prefix):
                raise PlanError(
                    f"network {name!r}: prefix {prefix} does not sit on an octet "
                    "boundary, so its reverse zone origin would round and collide "
                    "with sibling allocations; use a /8, /16 or /24-aligned "
                    "allocation, or sub-/24 prefixes (served via RFC 2317 glue)"
                )
            layout = entry.get("zone_layout", "flat")
            if layout not in _ZONE_LAYOUTS:
                raise PlanError(
                    f"network {name!r}: unknown zone_layout {layout!r}"
                    f" (want one of {_ZONE_LAYOUTS})"
                )
            if "update_policy" in entry:
                policy_name = entry["update_policy"]
                if policy_name not in POLICY_NAMES:
                    raise PlanError(
                        f"network {name!r}: unknown update_policy {policy_name!r}"
                        f" (want one of {POLICY_NAMES})"
                    )
                if entry["kind"] == "background":
                    raise PlanError(
                        f"network {name!r}: background networks have no "
                        "DHCP-coupled DNS updates, so update_policy does "
                        "not apply"
                    )
            if "rdns_mode" in entry:
                try:
                    mode = RdnsMode.parse(entry["rdns_mode"])
                except ValueError as exc:
                    raise PlanError(f"network {name!r}: {exc}") from exc
                if mode is RdnsMode.RFC2317 and prefix.prefixlen <= 24:
                    # The mode applies to the factory's dynamic-client
                    # subnets; a whole-/16 network cannot promise its
                    # /24s will be classless.  Catch the obvious misuse.
                    for key, value in entry.items():
                        if key.endswith("_prefix"):
                            sub = ipaddress.IPv4Network(value)
                            if sub.prefixlen <= 24:
                                raise PlanError(
                                    f"network {name!r}: rdns_mode=rfc2317 needs "
                                    f"sub-/24 client subnets, got {key}={sub}"
                                )
            prefixes.append(prefix)
        prefixes.sort(key=lambda p: (int(p.network_address), p.prefixlen))
        for left, right in zip(prefixes, prefixes[1:]):
            if left.overlaps(right):
                raise PlanError(f"prefixes overlap: {left} and {right}")
        return self

    # -- identity ----------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return {"seed": self.seed, "networks": [dict(e) for e in self.entries]}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "WorldPlan":
        if not isinstance(payload, dict) or "networks" not in payload:
            raise PlanError("plan payload must be a mapping with a 'networks' list")
        return cls(payload.get("seed", 0), payload["networks"])

    def fingerprint(self) -> str:
        """A deterministic digest of the plan — the plan runs' cache key.

        Unlike :meth:`~repro.netsim.internet.Internet.cache_token`, this
        never needs the world built: two processes holding the same plan
        JSON agree on the fingerprint before constructing a single
        network, which is what lets shard workers share one cache
        namespace with the coordinating process.
        """
        canonical = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def policy_token(self) -> Optional[str]:
        """The plan's declared ``update_policy`` mix, or ``None``.

        Folded into snapshot *and* campaign cache keys alongside the
        plan fingerprint, so two evaluation-matrix cells that differ
        only in DNS-update policy can never share a cache entry even
        if a future fingerprint change stopped covering the entries.
        ``None`` (no entry declares a policy) keeps pre-existing cache
        keys valid.
        """
        declared = sorted(
            {
                f"{entry['name']}={entry['update_policy']}"
                for entry in self.entries
                if "update_policy" in entry
            }
        )
        return ",".join(declared) if declared else None

    def with_update_policy(self, policy_name: str) -> "WorldPlan":
        """A copy of the plan with every eligible entry on ``policy_name``.

        "Eligible" means every kind whose factory wires a DNS-update
        policy into its dynamic-client subnets (academic, enterprise,
        government, isp); background networks model third-party space
        whose naming is not DHCP-coupled and keep their entries
        untouched.  The copy fingerprints differently from the base
        plan, which is what keys each evaluation-matrix cell's caches.
        """
        if policy_name not in POLICY_NAMES:
            raise PlanError(
                f"unknown update_policy {policy_name!r} (want one of {POLICY_NAMES})"
            )
        entries = []
        for entry in self.entries:
            entry = dict(entry)
            if entry.get("kind") != "background":
                entry["update_policy"] = policy_name
            entries.append(entry)
        return WorldPlan(self.seed, entries)

    def save(self, path: PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_payload(), indent=2) + "\n")

    @classmethod
    def load(cls, path: PathLike) -> "WorldPlan":
        return cls.from_payload(json.loads(Path(path).read_text()))

    # -- sharding ----------------------------------------------------------

    @property
    def network_names(self) -> List[str]:
        return [entry["name"] for entry in self.entries]

    @property
    def supplemental_names(self) -> List[str]:
        return [e["name"] for e in self.entries if e.get("supplemental")]

    def shard_names(self, shards: int) -> List[List[str]]:
        """Partition the plan into ``shards`` contiguous name blocks.

        Blocks follow plan order and differ in size by at most one, so
        merging shard results in shard-id order walks the networks in
        exactly the order a single-shard run does.  Asking for more
        shards than entries yields fewer (never empty) blocks.
        """
        return contiguous_blocks(self.network_names, shards)

    # -- building ----------------------------------------------------------

    def build(self, names: Optional[Sequence[str]] = None) -> World:
        """Build the plan's world — or just the networks in ``names``.

        A subset build produces networks identical to the ones a full
        build produces (all randomness is keyed per network name), so a
        shard worker holding only its own networks derives the same
        counts and PTR records the full world would.
        """
        self.validate()
        wanted = None if names is None else set(names)
        if wanted is not None:
            known = set(self.network_names)
            unknown = wanted - known
            if unknown:
                raise PlanError(f"unknown network names: {sorted(unknown)}")
        rngs = RngStreams(self.seed)
        builder = NetworkBuilder(rngs)
        internet = Internet()
        world = World(internet=internet, rngs=rngs, scale=WorldScale.small())
        for entry in self.entries:
            if wanted is not None and entry["name"] not in wanted:
                continue
            entry = dict(entry)
            kind = entry.pop("kind")
            supplemental = bool(entry.pop("supplemental", False))
            name = entry.pop("name")
            prefix = entry.pop("prefix")
            suffix = entry.pop("suffix")
            # A plan carries the policy by *name* (entries must stay
            # pure JSON); the instance is built here, per network, so
            # subset builds hand every factory the same fresh policy a
            # full build would.
            update_policy = entry.pop("update_policy", None)
            if update_policy is not None:
                entry["policy"] = make_policy(update_policy, suffix)
            factory = getattr(builder, kind)
            try:
                network = factory(name, prefix, suffix, **entry)
            except TypeError as exc:
                raise PlanError(f"network {name!r}: {exc}") from exc
            internet.add(network)
            if supplemental:
                world.supplemental[name] = network
        return world


class LazyPlanInternet:
    """An :class:`~repro.netsim.internet.Internet` built on first use.

    Collecting a plan never needs the full world in the coordinating
    process — each block is built where it is measured — but the merged
    :class:`~repro.scan.snapshot.SnapshotSeries` still wants an
    internet for the record-level paths (``records_on``,
    ``sample_records``).  This proxy defers (and memoises) the full
    plan build until one of those paths actually touches it, so count-
    level analyses (dynamicity, occupancy) stay memory-bounded.
    """

    def __init__(self, plan: "WorldPlan"):
        self._plan = plan
        self._built: Optional[Internet] = None

    @property
    def plan(self) -> "WorldPlan":
        return self._plan

    def materialized(self) -> bool:
        return self._built is not None

    def _materialize(self) -> Internet:
        if self._built is None:
            self._built = self._plan.build().internet
        return self._built

    def cache_token(self) -> str:
        # Answerable from the plan alone — keeps cache keying cheap.
        return f"plan:{self._plan.fingerprint()}"

    def __getattr__(self, name: str) -> Any:
        return getattr(self._materialize(), name)

    def __len__(self) -> int:
        return len(self._materialize())


def world_source(source: Any) -> Tuple[Optional["WorldPlan"], Any]:
    """``(plan, internet)`` for the world a measurement engine was handed.

    The one place that tells a plan from a built world.  A
    :class:`WorldPlan` (or a :class:`LazyPlanInternet` over one) comes
    back validated beside a lazy internet, so the coordinating process
    never builds it whole; a built :class:`~repro.netsim.internet.World`
    or a bare :class:`~repro.netsim.internet.Internet` comes back as
    ``(None, internet)``.
    """
    if isinstance(source, WorldPlan):
        source = LazyPlanInternet(source.validate())
    if isinstance(source, LazyPlanInternet):
        return source.plan, source
    if isinstance(source, World):
        return None, source.internet
    return None, source


#: Plan blocks memoised per worker process, keyed by (plan fingerprint,
#: block names).  Bounded: a worker holds a few blocks' networks, never
#: the whole plan.
_SHARD_WORLDS: Dict[Any, World] = {}

_SHARD_WORLD_LIMIT = 4


def shard_world(plan: WorldPlan, names: Sequence[str]) -> World:
    """Build (or reuse) the slice of ``plan`` holding exactly ``names``.

    For pool workers, which receive several day-chunks of one block;
    serial loops build each block once with :meth:`WorldPlan.build`.
    """
    key = (plan.fingerprint(), tuple(names))
    world = _SHARD_WORLDS.get(key)
    if world is None:
        while len(_SHARD_WORLDS) >= _SHARD_WORLD_LIMIT:
            _SHARD_WORLDS.pop(next(iter(_SHARD_WORLDS)))
        world = plan.build(names)
        _SHARD_WORLDS[key] = world
    return world


def _slash24(base: ipaddress.IPv4Address, offset_24s: int, prefixlen: int = 24) -> str:
    return str(ipaddress.ip_network((int(base) + offset_24s * 256, prefixlen)))


def synthetic_plan(
    seed: int = 0,
    *,
    slash16s: int = 4,
    people: int = 12,
    base: str = "100.0.0.0",
    supplemental_every: int = 2,
    zone_layout: str = "delegated",
) -> WorldPlan:
    """A multi-/16 world plan of ``slash16s`` networks, one per /16.

    The generator behind the shard-scaling benchmark and the CI shard
    smoke test.  Network kinds cycle academic → isp → background →
    enterprise so every /16 block exercises a different corner of the
    stack: academics get delegated per-/24 child zones and supplemental
    campaigns (every ``supplemental_every``-th academic), enterprises
    alternate RFC 2317 classless /25 offices with rDNS-disabled space,
    backgrounds mix static, dynamic and vanity /24s.  Everything is
    computed from the entry index — no RNG draws at plan time — so the
    plan is a pure function of its arguments and fingerprints stably.

    ``slash16s`` sets the address-space width directly: each /16 is 256
    /24-sized prefixes, so ``slash16s=400`` spans 102 400 prefixes.
    """
    if slash16s < 1:
        raise PlanError(f"slash16s must be >= 1, got {slash16s}")
    entries: List[Dict[str, Any]] = []
    first = ipaddress.IPv4Address(base)
    academics = 0
    enterprises = 0
    for index in range(slash16s):
        prefix = ipaddress.ip_network((int(first) + (index << 16), 16))
        net_base = prefix.network_address
        kind = ("academic", "isp", "background", "enterprise")[index % 4]
        if kind == "academic":
            entries.append(
                {
                    "kind": "academic",
                    "name": f"plan-academic-{academics:04d}",
                    "prefix": str(prefix),
                    "suffix": f"campus.plan{academics:04d}.edu",
                    "education_prefix": _slash24(net_base, 10),
                    "housing_prefix": _slash24(net_base, 20),
                    "servers_prefix": _slash24(net_base, 1, 26),
                    "staff": people // 2,
                    "students": people // 2,
                    "residents": people // 2,
                    "zone_layout": zone_layout,
                    "supplemental": supplemental_every > 0
                    and academics % supplemental_every == 0,
                }
            )
            academics += 1
        elif kind == "isp":
            entries.append(
                {
                    "kind": "isp",
                    "name": f"plan-isp-{index:04d}",
                    "prefix": str(prefix),
                    "suffix": f"dyn.plan{index:04d}-isp.net",
                    "access_prefix": _slash24(net_base, 10),
                    "subscribers": people,
                    "icmp_response_rate": 0.2,
                    "zone_layout": zone_layout,
                }
            )
        elif kind == "background":
            entries.append(
                {
                    "kind": "background",
                    "name": f"plan-bg-{index:04d}",
                    "prefix": str(prefix),
                    "suffix": f"as{index + 64000:d}.plan.example.net",
                    "static_24s": 2,
                    "dynamic_24s": 2,
                    "vanity": index % 3 == 0,
                    "vanity_hosting_24s": 1 if index % 6 == 0 else 0,
                    "zone_layout": zone_layout,
                }
            )
        else:
            rfc2317 = enterprises % 2 == 0
            entries.append(
                {
                    "kind": "enterprise",
                    "name": f"plan-corp-{enterprises:04d}",
                    "prefix": str(prefix),
                    "suffix": f"corp.plan{enterprises:04d}.com",
                    "office_prefix": _slash24(net_base, 10, 25),
                    "employees": people // 2,
                    "rdns_mode": "rfc2317" if rfc2317 else "disabled",
                    "zone_layout": zone_layout,
                }
            )
            enterprises += 1
    return WorldPlan(seed, entries).validate()
