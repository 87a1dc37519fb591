"""Unified observability for the measurement plane.

Production measurement platforms (OpenINTEL, ZMap — the paper's two
substrates) live or die by per-stage metrics and run provenance.  This
package is the reproduction's equivalent: a dependency-free metrics
registry (:mod:`repro.obs.metrics`), span-based stage tracing
(:mod:`repro.obs.trace`) and a serialisable run manifest
(:mod:`repro.obs.manifest`), bundled behind one :class:`Observability`
handle that every layer of the pipeline accepts.

Two properties are load-bearing:

* **Determinism.**  Everything outside the manifest's explicitly
  marked ``timings`` section is a pure function of (world, window,
  parameters): simulation counts, resolver rcode breakdowns,
  per-stage span structure.  Serial, parallel and cache-replay runs
  therefore emit bit-identical manifests once ``timings`` is dropped
  (see :meth:`~repro.obs.manifest.RunManifest.deterministic_payload`).
  Wall-clock durations, worker counts and cache traffic — all of
  which legitimately vary run to run — live only under ``timings``.

* **Zero cost when off.**  The default handle (:data:`NULL_OBS`) is
  disabled: its registry hands out shared no-op metric singletons and
  its tracer yields a no-op span, so instrumented hot paths pay one
  attribute lookup and an empty call.  The throughput benchmarks
  guard this (``benchmarks/test_obs_overhead.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.manifest import RunManifest
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    merge_snapshots,
)
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NULL_OBS",
    "Observability",
    "RunManifest",
    "SpanRecord",
    "Tracer",
    "merge_snapshots",
    "resolve_obs",
]


class Observability:
    """One handle bundling a metrics registry, a tracer and run info.

    ``metrics`` holds deterministic counters/gauges/histograms;
    ``tracer`` records the span tree (structure deterministic, wall
    durations not); ``run_info`` carries provenance (seed, world
    fingerprint, fault profile); ``execution`` carries run-shape
    details that are *expected* to differ between equivalent runs
    (worker counts, cache hits/misses, transports) and is serialised
    inside the manifest's ``timings`` section only.
    """

    __slots__ = ("enabled", "metrics", "tracer", "run_info", "execution")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.metrics = MetricsRegistry() if enabled else NULL_REGISTRY
        self.tracer = Tracer() if enabled else NULL_TRACER
        self.run_info: dict = {}
        self.execution: dict = {}

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **labels):
        """Context manager tracing one pipeline stage."""
        return self.tracer.span(name, **labels)

    def set_run_info(self, **fields) -> None:
        """Record provenance fields (seed, world fingerprint, ...)."""
        if self.enabled:
            self.run_info.update(fields)

    def record_execution(self, section: str, accumulate: bool = False, **fields) -> None:
        """Record run-shape details under ``timings.execution``.

        With ``accumulate=True`` numeric fields add to any previously
        recorded value (so repeated collections sum their cache
        traffic); otherwise values overwrite.
        """
        if not self.enabled:
            return
        bucket = self.execution.setdefault(section, {})
        for key, value in fields.items():
            if (
                accumulate
                and not isinstance(value, bool)
                and isinstance(value, (int, float))
            ):
                bucket[key] = bucket.get(key, 0) + value
            else:
                bucket[key] = value

    # -- output --------------------------------------------------------------

    def manifest(self) -> RunManifest:
        """Snapshot everything recorded so far into a manifest."""
        return RunManifest(
            run_info=dict(self.run_info),
            metrics=self.metrics.snapshot(),
            spans=self.tracer.spans_payload(),
            timings={
                "spans": self.tracer.timings_payload(),
                "execution": {
                    section: dict(fields)
                    for section, fields in sorted(self.execution.items())
                },
            },
        )

    def write_manifest(self, path) -> "RunManifest":
        manifest = self.manifest()
        manifest.write(path)
        return manifest


#: The shared disabled handle: every instrumented component defaults to
#: this, making observability strictly opt-in and (near) zero cost.
NULL_OBS = Observability(enabled=False)


def resolve_obs(obs: Optional[Observability]) -> Observability:
    """``obs`` if given, else the shared no-op handle."""
    return obs if obs is not None else NULL_OBS

