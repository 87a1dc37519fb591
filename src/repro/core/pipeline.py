"""End-to-end study orchestration.

:class:`ReproductionStudy` wires the whole paper together: build (or
accept) a simulated world, collect snapshot series, run the dynamicity
heuristic, drill down to identified networks, run the supplemental
campaign, and derive groups and lingering times.  Each stage is lazy
and cached, so examples and the benchmark harness can share one study
object and pay for each simulation exactly once.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.classify import NetworkTypeClassifier
from repro.core.dynamicity import DynamicityAnalyzer, DynamicityReport, DynamicityThresholds
from repro.core.grouping import ActivityGroup, GroupBuilder, GroupFunnel
from repro.core.leaks import LeakIdentifier, LeakReport, LeakThresholds
from repro.core.names import GivenNameMatcher
from repro.core.prefixes import AnnouncedPrefixMap
from repro.core.timing import LingeringAnalysis, lingering_analysis
from repro.netsim.faults import FaultPlan
from repro.netsim.internet import World, WorldScale, build_world
from repro.netsim.network import NetworkType
from repro.netsim.worldplan import WorldPlan
from repro.obs import Observability, resolve_obs
from repro.scan.cache import CampaignCache, SnapshotCache
from repro.scan.campaign import CampaignMetrics, SupplementalCampaign, SupplementalDataset
from repro.scan.snapshot import CollectionMetrics, SnapshotCollector, SnapshotSeries


@dataclass
class StudyConfig:
    """Windows and thresholds for one full reproduction run.

    Every window is half-open ``[start, end)``: ``*_end`` dates are
    exclusive for both the snapshot collector and the supplemental
    campaign.  Defaults cover the paper's periods — dynamicity over
    2021-01-01..2021-03-31 and supplemental measurement
    2021-10-25..2021-12-05 (both inclusive of their last day, hence
    the exclusive ends of 04-01 and 12-06).  The ``min_unique_names``
    default is scaled to simulated-world size (the paper's value is 50
    at full-Internet scale).

    ``snapshot_workers`` fans daily collection over a process pool;
    ``snapshot_cache`` (a :class:`~repro.scan.cache.SnapshotCache`)
    reuses previously collected series across runs.  Likewise
    ``campaign_workers`` fans the supplemental campaign out one network
    per process, and ``campaign_cache`` (a
    :class:`~repro.scan.cache.CampaignCache`) replays a previously
    measured campaign dataset.  All four are bit-identical to the
    serial, uncached default.
    """

    seed: int = 0
    scale: Optional[WorldScale] = None
    #: Optional :class:`~repro.netsim.worldplan.WorldPlan`.  When set,
    #: the world builds from the plan (``scale`` is ignored) and the
    #: snapshot/campaign stages measure the plan in ``shards`` blocks
    #: without building it whole — output stays byte-identical to a
    #: run over the built plan world.
    plan: Optional[WorldPlan] = None
    shards: int = 1
    #: Ceiling on every process pool this study creates.  ``None``
    #: defers to the machine-wide :func:`repro.scan.parallel.worker_cap`
    #: (itself overridable via ``REPRO_MAX_WORKERS``).
    max_workers: Optional[int] = None
    dynamicity_start: dt.date = dt.date(2021, 1, 1)
    dynamicity_end: dt.date = dt.date(2021, 4, 1)
    dynamicity_thresholds: DynamicityThresholds = field(default_factory=DynamicityThresholds)
    leak_thresholds: LeakThresholds = field(
        default_factory=lambda: LeakThresholds(min_unique_names=6, min_ratio=0.1)
    )
    leak_sample_days: int = 7
    supplemental_start: dt.date = dt.date(2021, 10, 25)
    supplemental_end: dt.date = dt.date(2021, 12, 6)
    snapshot_workers: int = 1
    snapshot_cache: Optional[SnapshotCache] = None
    campaign_workers: int = 1
    campaign_cache: Optional[CampaignCache] = None
    #: Optional :class:`repro.netsim.faults.FaultPlan` applied to the
    #: supplemental campaign.  ``None`` (the default) leaves the
    #: decision to the ``REPRO_FAULT_PROFILE`` environment variable;
    #: outputs are unchanged unless a plan is actually active.
    fault_plan: Optional["FaultPlan"] = None
    #: Optional path for the serve layer's snapshot blockfile.  When
    #: set, :func:`repro.serve.app.build_app` writes the collected
    #: series there once at boot, maps it read-only, and
    #: ``POST /ingest/day`` appends a segment at EOF instead of
    #: rewriting — reads stay byte-identical to the in-memory mode.
    serve_blockfile: Optional[str] = None

    @classmethod
    def quick(cls, seed: int = 0) -> "StudyConfig":
        """A fast configuration for tests and smoke runs."""
        return cls(
            seed=seed,
            scale=WorldScale.small(),
            dynamicity_start=dt.date(2021, 1, 1),
            dynamicity_end=dt.date(2021, 1, 22),
            leak_thresholds=LeakThresholds(min_unique_names=3, min_ratio=0.05),
            leak_sample_days=7,
            supplemental_start=dt.date(2021, 11, 1),
            supplemental_end=dt.date(2021, 11, 4),
        )

    def capped_workers(self, requested: int) -> int:
        """``requested`` bounded by the study-level ``max_workers``."""
        if self.max_workers is None:
            return requested
        return max(1, min(requested, self.max_workers))


class ReproductionStudy:
    """Lazily materialises every stage of the reproduction."""

    def __init__(
        self,
        config: Optional[StudyConfig] = None,
        *,
        world: Optional[World] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config or StudyConfig()
        #: Observability handle shared with every stage (no-op default).
        self.obs = resolve_obs(obs)
        self._world = world
        self._daily_series: Optional[SnapshotSeries] = None
        self._dynamicity: Optional[DynamicityReport] = None
        self._leaks: Optional[LeakReport] = None
        self._supplemental: Optional[SupplementalDataset] = None
        self._groups: Optional[List[ActivityGroup]] = None
        self._group_builder = GroupBuilder()
        #: Counters from the daily-series collection (None until run).
        self.collection_metrics: Optional[CollectionMetrics] = None
        #: Counters from the supplemental campaign (None until run).
        self.campaign_metrics: Optional[CampaignMetrics] = None

    # -- stages --------------------------------------------------------------

    @property
    def world(self) -> World:
        if self._world is None:
            with self.obs.span("build_world") as span:
                if self.config.plan is not None:
                    self._world = self.config.plan.build()
                else:
                    self._world = build_world(seed=self.config.seed, scale=self.config.scale)
                span.set("networks", len(self._world.internet))
            self.obs.set_run_info(
                seed=self.config.seed,
                world_fingerprint=(
                    f"plan:{self.config.plan.fingerprint()}"
                    if self.config.plan is not None
                    else self._world.internet.cache_token()
                ),
            )
        return self._world

    def _world_source(self):
        """What the engines measure: the plan if there is one, else the world."""
        return self.config.plan if self.config.plan is not None else self.world

    def daily_series(self) -> SnapshotSeries:
        """Daily snapshots over the dynamicity window (OpenINTEL-style)."""
        if self._daily_series is None:
            with self.obs.span("daily_series"):
                collector = SnapshotCollector.openintel_style(
                    self._world_source(), shards=self.config.shards, obs=self.obs
                )
                self._daily_series = collector.collect(
                    self.config.dynamicity_start,
                    self.config.dynamicity_end,
                    workers=self.config.capped_workers(self.config.snapshot_workers),
                    cache=self.config.snapshot_cache,
                )
                self.collection_metrics = collector.last_metrics
        return self._daily_series

    def dynamicity(self) -> DynamicityReport:
        """Section 4: flag dynamic /24s."""
        if self._dynamicity is None:
            series = self.daily_series()
            with self.obs.span("dynamicity") as span:
                analyzer = DynamicityAnalyzer(self.config.dynamicity_thresholds)
                self._dynamicity = analyzer.analyze(series)
                span.set("dynamic_prefixes", len(self._dynamicity.dynamic_prefixes()))
        return self._dynamicity

    def announced_prefix_map(self) -> AnnouncedPrefixMap:
        return AnnouncedPrefixMap(
            (announcement.prefix, announcement.holder)
            for announcement in self.world.internet.announced_prefixes()
        )

    def leaks(self) -> LeakReport:
        """Section 5: identify identity-leaking networks.

        Records from the last ``leak_sample_days`` collected days feed
        the matcher (the paper uses daily OpenINTEL data).  The sample
        is one pass over the records the series stored at collection
        (:meth:`~repro.scan.snapshot.SnapshotSeries.sample_records`),
        deduplicated up front; nothing is re-simulated.  Sample
        counters land in the series' ``last_sample_metrics``.
        """
        if self._leaks is None:
            series = self.daily_series()
            dynamic = set(self.dynamicity().dynamic_prefixes())
            with self.obs.span("leaks") as span:
                identifier = LeakIdentifier(GivenNameMatcher(), self.config.leak_thresholds)
                sample_days = series.days[-self.config.leak_sample_days:]
                records = series.sample_records(sample_days, obs=self.obs)
                self._leaks = identifier.identify(records, dynamic)
                span.set("sample_days", len(sample_days))
                span.set("identified_networks", len(self._leaks.identified))
        return self._leaks

    def type_breakdown(self) -> Dict[NetworkType, float]:
        """Figure 4: type shares among identified networks."""
        classifier = NetworkTypeClassifier()
        return classifier.breakdown_percent(self.leaks().identified)

    def supplemental(self) -> SupplementalDataset:
        """Section 6.1: run the supplemental campaign."""
        if self._supplemental is None:
            with self.obs.span("supplemental"):
                workers = self.config.capped_workers(self.config.campaign_workers)
                fault_kwargs = (
                    {"fault_plan": self.config.fault_plan}
                    if self.config.fault_plan is not None
                    # No explicit plan: the campaign consults the
                    # REPRO_FAULT_PROFILE environment variable itself.
                    else {}
                )
                campaign = SupplementalCampaign(
                    self._world_source(),
                    shards=self.config.shards,
                    obs=self.obs,
                    **fault_kwargs,
                )
                self.obs.set_run_info(
                    fault_profile=(
                        campaign.fault_plan.name
                        if campaign.fault_plan is not None
                        else None
                    )
                )
                self._supplemental = campaign.run(
                    self.config.supplemental_start,
                    self.config.supplemental_end,
                    workers=workers,
                    cache=self.config.campaign_cache,
                )
                self.campaign_metrics = campaign.last_metrics
        return self._supplemental

    def groups(self) -> List[ActivityGroup]:
        if self._groups is None:
            dataset = self.supplemental()
            with self.obs.span("groups") as span:
                self._groups = self._group_builder.build(dataset)
                span.set("groups", len(self._groups))
        return self._groups

    def funnel(self) -> GroupFunnel:
        """Table 5."""
        return self._group_builder.funnel(self.groups())

    def usable_groups(self) -> List[ActivityGroup]:
        return self._group_builder.usable(self.groups())

    def lingering(self) -> LingeringAnalysis:
        """Figure 7."""
        groups = self.usable_groups()
        with self.obs.span("lingering") as span:
            analysis = lingering_analysis(groups)
            span.set("samples", len(analysis.minutes))
        return analysis
