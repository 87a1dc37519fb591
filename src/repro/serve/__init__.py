"""The leak-analysis query service (the ROADMAP's front door).

A long-running HTTP API over the analysis plane, in two tiers:

* handlers — :class:`~repro.serve.app.ServeApp` (wiring from a
  :class:`~repro.core.pipeline.StudyConfig`, routing, HTTP status
  mapping, per-request observability);
* services — :mod:`repro.serve.services` (dynamicity with incremental
  ingest, leak verdicts and name counts, occupancy), which read the
  :class:`~repro.scan.snapshot.SnapshotSeries` and the
  :class:`~repro.scan.campaign.SupplementalCampaign` directly.

:class:`~repro.serve.repositories.SnapshotRepository` holds the series
with its blockfile mirror and append paths.  ``repro serve`` (see
:mod:`repro.cli`) boots it; ``docs/API.md`` documents the endpoints
and the incremental-ingest contract.
"""

from repro.serve.app import ServeApp, build_app
from repro.serve.http import ServerThread, run_app
from repro.serve.repositories import SnapshotRepository, normalise_slash24
from repro.serve.services import (
    DynamicityService,
    LeakService,
    OccupancyService,
    ServiceError,
    dynamicity_summary,
)

__all__ = [
    "DynamicityService",
    "LeakService",
    "OccupancyService",
    "ServeApp",
    "ServerThread",
    "ServiceError",
    "SnapshotRepository",
    "build_app",
    "dynamicity_summary",
    "normalise_slash24",
    "run_app",
]
