"""Handlers and wiring for the leak-analysis query service.

The top tier of the handlers → services split: :class:`ServeApp`
wires the services once from a
:class:`~repro.core.pipeline.StudyConfig`, routes a decoded request to
one service call and maps
:class:`~repro.serve.services.ServiceError` onto HTTP statuses.
``dispatch`` is synchronous and transport-agnostic — the asyncio layer
(:mod:`repro.serve.http`), tests and the load benchmark all call the
same method, so instrumentation and behaviour cannot diverge between
a real socket and a direct call.

Endpoints:

* ``GET /prefix/{slash24}/dynamicity`` — one /24's verdict
  (``?history=1`` adds the per-day count history);
* ``GET /leaks`` — identified suffixes and per-suffix stats
  (``?suffix=`` drills into one);
* ``GET /names`` — given-name and device-term hit counts (``?top=N``);
* ``GET /occupancy`` — daily occupancy (``?prefix=`` one /24;
  ``?network=&source=`` hourly from the supplemental campaign);
* ``POST /ingest/day`` — fold one new snapshot day in incrementally;
* ``GET /healthz`` / ``GET /metrics`` — liveness and the obs manifest.

Every request path is instrumented: per-endpoint latency histograms
(``serve_request_seconds_<endpoint>``), a request counter labelled by
endpoint and status, and in-flight gauges (current + high-water).
"""

from __future__ import annotations

import datetime as dt
import json
import time
from typing import Dict, Optional, Tuple, Union

from repro.netsim.internet import World
from repro.netsim.worldplan import WorldPlan
from repro.obs import Observability, resolve_obs
from repro.scan.snapshot import SnapshotCollector, SnapshotSeries
from repro.serve.repositories import SnapshotRepository
from repro.serve.services import (
    DynamicityService,
    LeakService,
    OccupancyService,
    ServiceError,
)

#: Sub-second latency buckets (seconds) for the request histograms.
REQUEST_SECONDS_BOUNDS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class ServeApp:
    """Wires the services from ``config``, routes requests, owns the obs wiring.

    ``series`` is the collected dynamicity window and ``source`` the
    built world or :class:`~repro.netsim.worldplan.WorldPlan` the
    supplemental campaign measures (in ``config.shards`` blocks).
    """

    def __init__(
        self,
        series: SnapshotSeries,
        config,
        source: Union[World, WorldPlan],
        *,
        obs: Optional[Observability] = None,
    ):
        self.obs = resolve_obs(obs)
        self.snapshots = SnapshotRepository(
            series, blockfile_path=config.serve_blockfile
        )
        self.dynamicity = DynamicityService(
            self.snapshots, thresholds=config.dynamicity_thresholds, obs=self.obs
        )
        self.leaks = LeakService(
            self.snapshots,
            self.dynamicity,
            thresholds=config.leak_thresholds,
            sample_days=config.leak_sample_days,
            obs=self.obs,
        )
        self.occupancy = OccupancyService(
            self.snapshots,
            config.campaign(source, obs=self.obs),
            window=(config.supplemental_start, config.supplemental_end),
            cache=config.campaign_cache,
            obs=self.obs,
        )
        self._inflight = 0

    # -- dispatch -------------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        *,
        query: Optional[Dict[str, str]] = None,
        body: bytes = b"",
    ) -> Tuple[int, dict]:
        """One request → ``(status, payload)``.

        Never raises: domain errors carry their own status, anything
        unexpected maps to a 500 whose payload names the exception.
        """
        query = query or {}
        endpoint, handler = self._route(method, path)
        metrics = self.obs.metrics
        self._inflight += 1
        metrics.gauge("serve_inflight_requests").set(self._inflight)
        metrics.gauge("serve_inflight_high_water").set_max(self._inflight)
        started = time.perf_counter()
        try:
            if handler is None:
                status, payload = 404, {"error": f"no route for {method} {path}"}
            else:
                try:
                    status, payload = handler(query, body)
                except ServiceError as error:
                    status, payload = error.status, error.payload()
                except Exception as error:  # noqa: BLE001 - the 500 boundary
                    status, payload = 500, {
                        "error": f"{type(error).__name__}: {error}"
                    }
            return status, payload
        finally:
            elapsed = time.perf_counter() - started
            metrics.histogram(
                f"serve_request_seconds_{endpoint}", REQUEST_SECONDS_BOUNDS
            ).observe(elapsed)
            metrics.counter("serve_requests_total").labels(
                endpoint=endpoint, status=str(status)
            ).inc()
            self._inflight -= 1
            metrics.gauge("serve_inflight_requests").set(self._inflight)

    def _route(self, method: str, path: str):
        """``(endpoint_label, handler)``; handler ``None`` → 404.

        A matched path with the wrong method reports 405 through a
        small closure so the label still names the real endpoint.
        """
        parts = [part for part in path.split("/") if part]
        # /prefix/{slash24}/dynamicity — the prefix itself may carry a
        # literal '/24' (even '%2F' arrives decoded), so the middle may
        # span one or two segments: /prefix/192.0.2.0/24/dynamicity and
        # /prefix/192.0.2.0/dynamicity both resolve.
        if len(parts) in (3, 4) and parts[0] == "prefix" and parts[-1] == "dynamicity":
            slash24 = "/".join(parts[1:-1])
            return "prefix_dynamicity", self._expect(
                method, "GET", lambda query, body: self._prefix(slash24, query)
            )
        if parts == ["leaks"]:
            return "leaks", self._expect(method, "GET", self._leaks)
        if parts == ["names"]:
            return "names", self._expect(method, "GET", self._names)
        if parts == ["occupancy"]:
            return "occupancy", self._expect(method, "GET", self._occupancy)
        if parts == ["ingest", "day"]:
            return "ingest_day", self._expect(method, "POST", self._ingest_day)
        if parts == ["healthz"]:
            return "healthz", self._expect(method, "GET", self._healthz)
        if parts == ["metrics"]:
            return "metrics", self._expect(method, "GET", self._metrics)
        return "unknown", None

    @staticmethod
    def _expect(method: str, wanted: str, handler):
        if method == wanted:
            return handler
        return lambda query, body: (
            405,
            {"error": f"method {method} not allowed (use {wanted})"},
        )

    # -- handlers -------------------------------------------------------------

    def _prefix(self, slash24: str, query: Dict[str, str]) -> Tuple[int, dict]:
        include_history = query.get("history", "") in ("1", "true", "yes")
        payload = self.dynamicity.prefix_payload(
            slash24, include_history=include_history
        )
        return 200, payload

    def _leaks(self, query: Dict[str, str], body: bytes) -> Tuple[int, dict]:
        return 200, self.leaks.payload(suffix=query.get("suffix"))

    def _names(self, query: Dict[str, str], body: bytes) -> Tuple[int, dict]:
        top: Optional[int] = None
        if "top" in query:
            try:
                top = int(query["top"])
            except ValueError:
                raise ServiceError(400, f"top={query['top']!r} is not an integer")
        return 200, self.leaks.names_payload(top=top)

    def _occupancy(self, query: Dict[str, str], body: bytes) -> Tuple[int, dict]:
        if "network" in query:
            return 200, self.occupancy.hourly_payload(
                query["network"], source=query.get("source", "rdns")
            )
        return 200, self.occupancy.daily_payload(prefix=query.get("prefix"))

    def _ingest_day(self, query: Dict[str, str], body: bytes) -> Tuple[int, dict]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(400, f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict) or "day" not in payload:
            raise ServiceError(400, 'request body must be {"day": "YYYY-MM-DD", ...}')
        try:
            day = dt.date.fromisoformat(payload["day"])
        except (TypeError, ValueError):
            raise ServiceError(400, f"invalid day {payload['day']!r} (want YYYY-MM-DD)")
        counts = payload.get("counts")
        if counts is not None and not isinstance(counts, dict):
            raise ServiceError(400, "counts must map /24 prefixes to integers")
        return 200, self.dynamicity.ingest(day, counts)

    def _healthz(self, query: Dict[str, str], body: bytes) -> Tuple[int, dict]:
        series = self.snapshots.series
        next_day = self.snapshots.next_day
        return 200, {
            "status": "ok",
            "days": len(series),
            "last_day": series.days[-1].isoformat() if len(series) else None,
            "next_day": next_day.isoformat() if next_day else None,
            "prefixes": len(series.prefix_table()),
        }

    def _metrics(self, query: Dict[str, str], body: bytes) -> Tuple[int, dict]:
        return 200, self.obs.manifest().to_payload()


def build_app(config=None, *, obs: Optional[Observability] = None) -> ServeApp:
    """Boot a service instance: pick the source, collect the window, wire it.

    ``config`` is a :class:`~repro.core.pipeline.StudyConfig` (defaults
    to the full-scale one).  The source is ``config.plan`` when set,
    else the world built from ``config``.  The snapshot series over its
    dynamicity window is collected up front (honouring
    ``snapshot_workers`` and ``snapshot_cache``), after which every
    query is served from the columnar store and ingest extends it one
    day at a time.
    """
    from repro.core.pipeline import StudyConfig

    config = config or StudyConfig()
    obs = resolve_obs(obs)
    source = config.world_source()
    collector = SnapshotCollector.openintel_style(source, shards=config.shards, obs=obs)
    obs.set_run_info(seed=config.seed, world_fingerprint=collector.internet.cache_token())
    series = collector.collect(
        config.dynamicity_start,
        config.dynamicity_end,
        workers=config.capped_workers(config.snapshot_workers),
        cache=config.snapshot_cache,
    )
    return ServeApp(series, config, source, obs=obs)
