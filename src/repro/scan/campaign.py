"""The supplemental measurement campaign (Sections 6.1-6.2).

Ties together the fine-grained network runtimes, the ZMap-style
sweeper, the rDNS engine and the reactive monitor against the nine
selected networks, and packages the result as a
:class:`SupplementalDataset` — the input to the grouping and timing
analyses (Tables 3-5, Figures 6-8 and 11).

The campaign is embarrassingly parallel across networks: each of the
nine has its own :class:`~repro.netsim.finegrained.NetworkRuntime`,
sweeper state, authoritative server and observation streams, with no
cross-network coupling.  :func:`run_network_campaign` therefore runs
*one* network on its own :class:`~repro.netsim.engine.SimulationEngine`;
the serial path loops it over the networks, the parallel path
(:mod:`repro.scan.campaign_parallel`) fans the same function out over
a process pool, and both merge the per-network streams with the same
deterministic timestamp merge — so parallel output is bit-identical to
serial.  The campaign measures a built world or a
:class:`~repro.netsim.worldplan.WorldPlan`, whose networks split into
contiguous blocks that each process builds for itself.  A completed
dataset can also be persisted in a
:class:`~repro.scan.cache.CampaignCache`, making warm runs skip the
six-week simulation entirely.

Rate limiting is per authoritative server: every network's rDNS engine
gets its own token bucket, matching the paper's "rate-limit requests
to authoritative name servers" (each Table 4 network runs its own).
"""

from __future__ import annotations

import datetime as dt
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dns.resolver import ResolutionStatus
from repro.netsim.engine import SimulationEngine
from repro.netsim.faults import FaultPlan
from repro.netsim.finegrained import build_runtimes
from repro.netsim.internet import World
from repro.netsim.network import NetworkType
from repro.netsim.simtime import DAY, HOUR, date_of, from_date
from repro.netsim.worldplan import PlanError, contiguous_blocks, world_source
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.scan.blockfile import encode_records
from repro.scan.icmp import IcmpScanner
from repro.scan.observations import IcmpObservation, RdnsObservation
from repro.scan.ratelimit import TokenBucket
from repro.scan.rdns import RdnsLookupEngine
from repro.scan.reactive import TABLE2_SCHEDULE, BackoffSchedule, ReactiveMonitor
from repro.scan.storage import _STATUS_INDEX, DATASET_FORMAT_VERSION, IcmpColumns, RdnsColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.cache import CampaignCache

#: The paper's nine selected networks, in Table 4 order.
SUPPLEMENTAL_NETWORKS = [
    "Academic-A",
    "Academic-B",
    "Academic-C",
    "Enterprise-A",
    "Enterprise-B",
    "Enterprise-C",
    "ISP-A",
    "ISP-B",
    "ISP-C",
]


@dataclass
class CampaignMetrics:
    """Lightweight counters for one :meth:`SupplementalCampaign.run` call.

    ``workers`` echoes the request; ``effective_workers`` is what
    actually ran after the never-slower fallback (serial when the host
    has no spare cores or too few networks).  ``simulate_seconds``
    covers simulation (or payload decoding on a cache hit);
    ``total_seconds`` the whole call including cache I/O.
    """

    workers: int = 1
    effective_workers: int = 1
    networks: int = 0
    icmp_observations: int = 0
    rdns_observations: int = 0
    sweeps_run: int = 0
    events_run: int = 0
    cache_hit: bool = False
    cache_key: Optional[str] = None
    cache_stored: bool = False
    #: Bytes of worker results that crossed the process boundary as
    #: ``.rbf`` blobs instead of pickled column objects; zero on
    #: serial (and cache-hit) runs.  Reported under
    #: ``timings.execution`` only — run-shape, not science.
    transport_bytes: int = 0
    simulate_seconds: float = 0.0
    total_seconds: float = 0.0
    per_network_seconds: Dict[str, float] = field(default_factory=dict)
    #: Name of the active fault plan (``None`` = clean run).
    fault_profile: Optional[str] = None
    #: Summed instrument counters (probes sent/lost, retries, rDNS
    #: attempts/timeouts, clock-skew clamps) across all networks.
    fault_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def observations(self) -> int:
        return self.icmp_observations + self.rdns_observations

    def describe(self) -> str:
        source = "cache" if self.cache_hit else f"{self.effective_workers} worker(s)"
        return (
            f"{self.networks} network(s) via {source} in "
            f"{self.total_seconds:.2f}s ({self.icmp_observations:,} ICMP + "
            f"{self.rdns_observations:,} rDNS observations, "
            f"{self.events_run:,} events)"
        )


@dataclass
class SupplementalDataset:
    """Everything the supplemental campaign measured.

    ``start``/``end`` echo the half-open ``[start, end)`` window the
    campaign ran over: ``end`` itself was *not* measured (same
    convention as :meth:`repro.scan.snapshot.SnapshotCollector.collect`).

    ``icmp``/``rdns`` are sequence-of-observation views backed by the
    columnar stores of :mod:`repro.scan.storage` when produced by a
    campaign run (plain lists are also accepted, e.g. when rebuilding
    from CSV): iterate or index them exactly like lists.
    """

    start: dt.date
    end: dt.date
    icmp: Sequence[IcmpObservation]
    rdns: Sequence[RdnsObservation]
    targets_by_network: Dict[str, List[str]]
    network_types: Dict[str, NetworkType]
    target_sizes: Dict[str, int] = field(default_factory=dict)

    # -- Table 3 ---------------------------------------------------------------

    def _icmp_columns(self) -> IcmpColumns:
        return self.icmp if isinstance(self.icmp, IcmpColumns) else _as_icmp_columns(self.icmp)

    def _rdns_columns(self) -> RdnsColumns:
        return self.rdns if isinstance(self.rdns, RdnsColumns) else _as_rdns_columns(self.rdns)

    def icmp_stats(self) -> Tuple[int, int]:
        """(total responses, unique addresses) for the ICMP instrument."""
        addresses = self._icmp_columns().columns()[0]
        return len(addresses), len(np.unique(addresses))

    def rdns_stats(self) -> Tuple[int, int, int]:
        """(total responses, unique addresses, unique PTRs) for rDNS."""
        addresses, _, status_ids, hostname_ids, _ = self._rdns_columns().columns()
        ok = status_ids == _STATUS_INDEX[ResolutionStatus.NOERROR]
        return len(addresses), len(np.unique(addresses)), len(np.unique(hostname_ids[ok]))

    # -- Table 4 ---------------------------------------------------------------

    def _responsive_counts(self) -> Dict[str, int]:
        """Unique responsive ICMP addresses per network."""
        icmp = self._icmp_columns()
        addresses, _, network_ids = icmp.columns()
        keys = np.unique((network_ids.astype(np.uint64) << 32) | addresses)
        counts = np.bincount((keys >> 32).astype(np.intp), minlength=len(icmp.networks))
        return dict(zip(icmp.networks, counts.tolist()))

    def table4_rows(self) -> List[Tuple[str, str, str, int, float]]:
        """(network, type, targeted space, addresses observed, percent)."""
        responsive = self._responsive_counts()
        rows = []
        for name in self.targets_by_network:
            observed = responsive.get(name, 0)
            size = self.target_sizes.get(name, 0)
            percent = 100.0 * observed / size if size else 0.0
            rows.append(
                (
                    name,
                    self.network_types[name].value,
                    ", ".join(self.targets_by_network[name]),
                    observed,
                    percent,
                )
            )
        return rows

    # -- Figure 6 ----------------------------------------------------------------

    def rdns_outcomes_by_day(self) -> Dict[dt.date, Counter]:
        """Per-day counts of each resolution status."""
        by_day: Dict[dt.date, Counter] = defaultdict(Counter)
        for observation in self.rdns:
            by_day[date_of(observation.at)][observation.status] += 1
        return dict(by_day)

    def error_rows(self) -> List[Tuple[dt.date, int, int, int, int]]:
        """(day, total, nxdomain, servfail, timeout) rows, day-ordered.

        NXDOMAIN is counted separately because in this measurement it
        is "a bit more nuanced" than an error: it is often the removal
        signal itself (Section 6.2).
        """
        rows = []
        for day, counts in sorted(self.rdns_outcomes_by_day().items()):
            rows.append(
                (
                    day,
                    sum(counts.values()),
                    counts.get(ResolutionStatus.NXDOMAIN, 0),
                    counts.get(ResolutionStatus.SERVFAIL, 0),
                    counts.get(ResolutionStatus.TIMEOUT, 0),
                )
            )
        return rows

    def error_class_rows(
        self,
    ) -> List[Tuple[dt.date, int, int, int, int, int, int]]:
        """(day, total, noerror, nxdomain, servfail, timeout, refused).

        The full Figure-6 error-class breakdown, one row per measured
        day.  Unlike :meth:`error_rows` (whose 5-tuple shape predates
        fault injection and is kept stable for existing consumers),
        this includes successful lookups and the REFUSED class, so
        the columns sum to the total.
        """
        rows = []
        for day, counts in sorted(self.rdns_outcomes_by_day().items()):
            rows.append(
                (
                    day,
                    sum(counts.values()),
                    counts.get(ResolutionStatus.NOERROR, 0),
                    counts.get(ResolutionStatus.NXDOMAIN, 0),
                    counts.get(ResolutionStatus.SERVFAIL, 0),
                    counts.get(ResolutionStatus.TIMEOUT, 0),
                    counts.get(ResolutionStatus.REFUSED, 0),
                )
            )
        return rows

    # -- cache serialisation -------------------------------------------------

    def encode_blockfile(self) -> bytes:
        """The observation streams as ``.rbf`` bytes: one ICMP/RDNS record pair."""
        return encode_records(observations=[(self._icmp_columns(), self._rdns_columns())])

    def to_payload(self) -> dict:
        """The cache JSON document's metadata; the streams are :meth:`encode_blockfile`."""
        return {
            "version": DATASET_FORMAT_VERSION,
            "start": self.start.isoformat(),
            "end": self.end.isoformat(),
            "targets_by_network": self.targets_by_network,
            "network_types": {
                name: net_type.value for name, net_type in self.network_types.items()
            },
            "target_sizes": self.target_sizes,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SupplementalDataset":
        """Rebuild a dataset from a :class:`~repro.scan.cache.CampaignCache` hit.

        ``payload`` is the :meth:`to_payload` document as the cache's
        ``load`` returns it, with the sidecar already open in
        ``blockfile_reader``.
        """
        reader = payload["blockfile_reader"]
        pairs = reader.observation_columns()
        if len(pairs) != 1:
            raise ValueError(
                f"{reader.path}: a campaign sidecar holds one ICMP/RDNS pair, "
                f"not {len(pairs)}"
            )
        [(icmp, rdns)] = pairs
        return cls(
            start=dt.date.fromisoformat(payload["start"]),
            end=dt.date.fromisoformat(payload["end"]),
            icmp=icmp,
            rdns=rdns,
            targets_by_network={
                name: list(prefixes)
                for name, prefixes in payload["targets_by_network"].items()
            },
            network_types={
                name: NetworkType(value)
                for name, value in payload["network_types"].items()
            },
            target_sizes={name: int(size) for name, size in payload["target_sizes"].items()},
        )


def _as_icmp_columns(observations: Iterable[IcmpObservation]) -> IcmpColumns:
    columns = IcmpColumns()
    columns.extend(observations)
    return columns


def _as_rdns_columns(observations: Iterable[RdnsObservation]) -> RdnsColumns:
    columns = RdnsColumns()
    columns.extend(observations)
    return columns


@dataclass
class NetworkCampaignResult:
    """One network's share of the campaign (picklable worker output).

    Carries the network's targets, type and targeted size too, so the
    merged dataset never needs the coordinator to hold the world.
    """

    network: str
    icmp: IcmpColumns
    rdns: RdnsColumns
    sweeps_run: int
    events_run: int
    seconds: float
    targets: List[str]
    net_type: NetworkType
    target_size: int
    #: Instrument counters (probe/lookup/retry/loss totals); empty on
    #: clean runs for backwards-compatible equality.
    counters: Dict[str, int] = field(default_factory=dict)
    #: This network's :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
    #: — deterministic, picklable, merged across networks in campaign
    #: order so serial and parallel runs publish identical totals.
    metrics: Dict = field(default_factory=dict)


def run_network_campaign(
    world: World,
    name: str,
    start: dt.date,
    end: dt.date,
    *,
    schedule: BackoffSchedule = TABLE2_SCHEDULE,
    sweep_interval: int = HOUR,
    rdns_rate: float = 50.0,
    blocklist: Iterable = (),
    fault_plan: Optional[FaultPlan] = None,
) -> NetworkCampaignResult:
    """Measure one network over the half-open ``[start, end)`` window.

    The unit of campaign parallelism: everything here — engine, runtime,
    sweeper, resolver, rate-limit bucket — is private to the network, so
    the result is a deterministic function of (world, name, window,
    parameters) regardless of which process runs it or in what order.
    A ``fault_plan`` keeps that property: every loss/outage draw is a
    stateless keyed hash, so faults are identical under any execution
    order or process split.
    """
    started = time.perf_counter()
    last_day = end - dt.timedelta(days=1)
    engine = SimulationEngine(start=from_date(start))
    network = world.supplemental[name]
    # Baseline for delta accounting: in a serial campaign successive
    # networks share one world (and its authoritative server), so the
    # absolute counters mix networks; the delta is this run's share and
    # matches what a fresh forked worker would count.
    server_baseline = network.server.metrics_snapshot()
    # The runtime writes PTRs into the network's own zones and the
    # lookups advance its server's failure draws; roll both back
    # afterwards so a re-run on this world measures what a fresh world
    # would (snapshot derivation reads neither).
    checkpoint = network.server.checkpoint()
    try:
        runtimes = build_runtimes([network], engine, fault_plan=fault_plan)
        runtimes[name].start(start, last_day)

        if fault_plan is not None:
            scanner = IcmpScanner(
                runtimes, blocklist=blocklist, retries=fault_plan.icmp_retry_budget
            )
            resolver = world.internet.resolver(
                retries=fault_plan.rdns_retry_budget,
                backoff_base=fault_plan.rdns_backoff_base,
                fault_plan=fault_plan,
            )
        else:
            scanner = IcmpScanner(runtimes, blocklist=blocklist)
            resolver = world.internet.resolver()
        rdns = RdnsLookupEngine(
            resolver,
            rate_limit=TokenBucket(rdns_rate, rdns_rate * 10),
        )
        end_ts = from_date(last_day) + DAY - 1
        monitor = ReactiveMonitor(
            engine,
            scanner,
            rdns,
            schedule=schedule,
            sweep_interval=sweep_interval,
        )
        # Columnar stores are drop-in append targets for the monitor.
        monitor.icmp_observations = IcmpColumns()
        monitor.rdns_observations = RdnsColumns()
        subnets = world.supplemental_targets(name)
        targets = [str(subnet.prefix) for subnet in subnets]
        monitor.start({name: targets}, end=end_ts)
        engine.run_until(end_ts)
    finally:
        network.server.restore(checkpoint)
    counters: Dict[str, int] = {}
    if fault_plan is not None:
        counters = {
            "probes_sent": scanner.probes_sent,
            "probes_suppressed": scanner.probes_suppressed,
            "echoes_lost": scanner.echoes_lost,
            "icmp_retries": scanner.retries_sent,
            "lookups": rdns.lookups_performed,
            "rdns_attempts": rdns.attempts_made,
            "rdns_timeouts": rdns.timeouts_seen,
            "clock_skew_events": (
                rdns.rate_limit.clock_skew_events if rdns.rate_limit else 0
            ),
        }
    registry = MetricsRegistry()
    scanner.export_metrics(registry)
    rdns.export_metrics(registry)
    monitor.export_metrics(registry)
    engine.export_metrics(registry)
    network.server.export_metrics(registry, snapshot=server_baseline)
    return NetworkCampaignResult(
        network=name,
        icmp=monitor.icmp_observations,
        rdns=monitor.rdns_observations,
        sweeps_run=monitor.sweeps_run,
        events_run=engine.events_run,
        seconds=time.perf_counter() - started,
        targets=targets,
        net_type=network.net_type,
        target_size=sum(subnet.prefix.num_addresses for subnet in subnets),
        counters=counters,
        metrics=registry.snapshot(),
    )


class SupplementalCampaign:
    """Runs the supplemental measurement against a built world or a plan.

    ``world`` is a built :class:`~repro.netsim.internet.World` or a
    :class:`~repro.netsim.worldplan.WorldPlan`.  Networks run in blocks
    (see :meth:`blocks`), one pool task each: a built world sends one
    network per task, shared with workers by fork; a plan sends
    ``shards`` contiguous blocks, and each process builds only its
    block's networks.  Results merge in campaign order, so the dataset
    is byte-identical for any shard count, worker count or cache
    temperature.  ``fault_plan=None`` (the default) is a clean run.
    """

    def __init__(
        self,
        world,
        *,
        networks: Optional[Iterable[str]] = None,
        shards: int = 1,
        schedule: BackoffSchedule = TABLE2_SCHEDULE,
        sweep_interval: int = HOUR,
        rdns_rate: float = 50.0,
        blocklist: Iterable = (),
        fault_plan: Optional[FaultPlan] = None,
        obs=None,
    ):
        if shards < 1:
            raise PlanError(f"shard count must be >= 1, got {shards}")
        self.plan, self.internet = world_source(world)
        #: The built world; ``None`` for a plan, which is never built
        #: whole in this process.
        self.world: Optional[World] = None if self.plan is not None else world
        self.shards = shards
        #: Optional :class:`repro.obs.Observability` handle; spans,
        #: deterministic counters and run-shape details are recorded
        #: there (no-op when ``None``).
        self.obs = obs
        # Default to every supplemental-flagged network (for the
        # standard world, that is the Table 4 nine, in order).
        if self.plan is not None:
            supplemental = self.plan.supplemental_names
        else:
            supplemental = list(world.supplemental)
        candidates = list(networks) if networks is not None else supplemental
        self.network_names = [name for name in candidates if name in supplemental]
        self.schedule = schedule
        self.sweep_interval = sweep_interval
        self.rdns_rate = rdns_rate
        self.blocklist = list(blocklist)
        self.fault_plan = fault_plan
        #: Counters from the most recent :meth:`run` call.
        self.last_metrics: Optional[CampaignMetrics] = None

    def blocks(self) -> List[List[str]]:
        """The campaign networks in pool-task blocks, in campaign order."""
        if self.plan is None:
            return [[name] for name in self.network_names]
        return contiguous_blocks(self.network_names, self.shards)

    def cache_key(self, cache: "CampaignCache", start: dt.date, end: dt.date) -> str:
        """The cache key one ``run(start, end)`` would use.

        The fault plan token is folded in only when a plan is active,
        so clean runs keep exactly the keys they had before fault
        injection existed (cached datasets stay valid).  A world plan
        keys on its fingerprint and policy token, never on the shard
        count.
        """
        return cache.key_for(
            world_token=self.internet.cache_token(),
            networks=self.network_names,
            start=start,
            end=end,
            schedule_steps=self.schedule.steps,
            schedule_tail=self.schedule.tail_interval,
            sweep_interval=self.sweep_interval,
            rdns_rate=self.rdns_rate,
            blocklist=[str(entry) for entry in self.blocklist],
            fault_token=(
                self.fault_plan.cache_token() if self.fault_plan is not None else None
            ),
            policy_token=self.plan.policy_token() if self.plan is not None else None,
        )

    def run(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: int = 1,
        cache: Optional["CampaignCache"] = None,
    ) -> SupplementalDataset:
        """Simulate and measure the half-open period ``[start, end)``.

        The last measured day is ``end - 1 day``; ``end`` itself is
        excluded, matching
        :meth:`repro.scan.snapshot.SnapshotCollector.collect` (the two
        entry points historically disagreed: collection was half-open
        while the campaign was inclusive, so "the same window" covered
        different days depending on the instrument).

        ``workers > 1`` fans networks out over a process pool;
        ``cache`` consults and fills an on-disk
        :class:`~repro.scan.cache.CampaignCache`.  Both are
        bit-identical to the serial, uncached run.  Timing and cache
        counters land in :attr:`last_metrics`.

        When the campaign carries an observability handle, the run is
        traced as a ``campaign.run`` span with one ``campaign.network``
        child per network, the merged per-network counters land in the
        metrics registry (replayed from the cached payload on a hit, so
        warm manifests match cold ones), and run-shape details
        (workers, cache traffic) are recorded under
        ``timings.execution``.
        """
        from repro.obs import resolve_obs

        obs = resolve_obs(self.obs)
        cache_baseline = cache.execution_snapshot() if cache is not None else None
        with obs.span("campaign.run") as span:
            dataset = self._run(start, end, workers=workers, cache=cache, obs=obs)
            metrics = self.last_metrics
            span.set("networks", metrics.networks)
            span.set("icmp_observations", metrics.icmp_observations)
            span.set("rdns_observations", metrics.rdns_observations)
            # One child span per network regardless of cache outcome:
            # the structure is deterministic, only the wall seconds
            # (zero on a replay) land in the timings section.
            for name in self.network_names:
                obs.tracer.add_span(
                    "campaign.network",
                    labels={"network": name},
                    seconds=metrics.per_network_seconds.get(name, 0.0),
                )
        obs.record_execution(
            "campaign",
            workers=metrics.workers,
            effective_workers=metrics.effective_workers,
            cache_hit=metrics.cache_hit,
            cache_stored=metrics.cache_stored,
            transport_bytes=metrics.transport_bytes,
        )
        if cache is not None:
            cache.export_metrics(obs, section="campaign", baseline=cache_baseline)
        return dataset

    def _run(
        self,
        start: dt.date,
        end: dt.date,
        *,
        workers: int,
        cache: Optional["CampaignCache"],
        obs,
    ) -> SupplementalDataset:
        if end <= start:
            raise ValueError("end must be after start (half-open [start, end) window)")
        if not self.network_names:
            raise PlanError("no supplemental networks to measure")
        started = time.perf_counter()
        metrics = CampaignMetrics(
            workers=max(1, workers), networks=len(self.network_names)
        )
        if self.fault_plan is not None:
            metrics.fault_profile = self.fault_plan.name
        self.last_metrics = metrics

        key: Optional[str] = None
        if cache is not None:
            key = self.cache_key(cache, start, end)
            metrics.cache_key = key
            payload = cache.load(key)
            if payload is not None:
                decode_started = time.perf_counter()
                dataset = SupplementalDataset.from_payload(payload)
                obs.metrics.merge_snapshot(payload.get("metrics") or {})
                metrics.cache_hit = True
                metrics.icmp_observations = len(dataset.icmp)
                metrics.rdns_observations = len(dataset.rdns)
                metrics.simulate_seconds = time.perf_counter() - decode_started
                metrics.total_seconds = time.perf_counter() - started
                return dataset

        simulate_started = time.perf_counter()
        results = self._run_networks(start, end, workers, metrics)
        dataset = _merge(start, end, results)
        # Per-network registries merge in fixed campaign order, so the
        # totals are identical whether networks ran serial or fanned
        # out (and, via the cached copy below, on later replays).
        merged_metrics = merge_snapshots(result.metrics for result in results)
        obs.metrics.merge_snapshot(merged_metrics)
        metrics.simulate_seconds = time.perf_counter() - simulate_started
        metrics.icmp_observations = len(dataset.icmp)
        metrics.rdns_observations = len(dataset.rdns)
        metrics.sweeps_run = sum(result.sweeps_run for result in results)
        metrics.events_run = sum(result.events_run for result in results)
        metrics.per_network_seconds = {
            result.network: result.seconds for result in results
        }
        for result in results:
            for counter, value in result.counters.items():
                metrics.fault_counters[counter] = (
                    metrics.fault_counters.get(counter, 0) + value
                )

        if cache is not None and key is not None:
            document = {**dataset.to_payload(), "metrics": merged_metrics}
            cache.store(key, document, dataset.encode_blockfile())
            metrics.cache_stored = True
        metrics.total_seconds = time.perf_counter() - started
        return dataset

    # -- execution -------------------------------------------------------------

    def _run_networks(
        self,
        start: dt.date,
        end: dt.date,
        workers: int,
        metrics: CampaignMetrics,
    ) -> List[NetworkCampaignResult]:
        from repro.scan.campaign_parallel import effective_campaign_workers, run_networks

        blocks = self.blocks()
        effective = effective_campaign_workers(workers, len(blocks))
        metrics.effective_workers = effective
        if effective > 1:
            return run_networks(self, start, end, workers=effective, metrics=metrics)
        results = []
        for names in blocks:
            world = self.world if self.plan is None else self.plan.build(names)
            results.extend(
                run_network_campaign(
                    world,
                    name,
                    start,
                    end,
                    schedule=self.schedule,
                    sweep_interval=self.sweep_interval,
                    rdns_rate=self.rdns_rate,
                    blocklist=self.blocklist,
                    fault_plan=self.fault_plan,
                )
                for name in names
            )
        return results


def _merge(
    start: dt.date,
    end: dt.date,
    results: Sequence[NetworkCampaignResult],
) -> SupplementalDataset:
    """Combine per-network streams into one dataset, deterministically."""
    return SupplementalDataset(
        start=start,
        end=end,
        icmp=IcmpColumns.merged([result.icmp for result in results]),
        rdns=RdnsColumns.merged([result.rdns for result in results]),
        targets_by_network={result.network: list(result.targets) for result in results},
        network_types={result.network: result.net_type for result in results},
        target_sizes={result.network: result.target_size for result in results},
    )
