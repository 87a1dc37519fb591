"""Process-pool fan-out for the supplemental campaign.

The campaign is embarrassingly parallel across networks: each of the
nine supplemental networks owns its runtime, sweeper, authoritative
server and RNG streams (all keyed by ``RngStreams.fresh`` labels), so
:func:`~repro.scan.campaign.run_network_campaign` is a deterministic
function of (world, network, window, parameters) no matter which
process runs it.  :func:`run_networks` ships one network per task to a
process pool and returns results in campaign order; the caller merges
the streams with the same deterministic timestamp merge the serial
path uses, so parallel output is bit-identical to serial (pinned by
``tests/scan/test_campaign_parallel_cache.py``).

The pool itself — fork or spawn, shared-memory result transport,
segment cleanup — is :func:`repro.scan.parallel.run_pool`.

:func:`effective_campaign_workers` implements the never-slower rule:
the pool is capped at the machine's core count and the number of
networks, and a single-core host (or single-network campaign) falls
back to the serial loop rather than paying pool overhead for nothing.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import replace
from typing import TYPE_CHECKING, List, Tuple

from repro.scan import transport
from repro.scan.parallel import run_pool, worker_cap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.campaign import NetworkCampaignResult, SupplementalCampaign


def effective_campaign_workers(requested: int, work_units: int) -> int:
    """Cap the requested pool size so parallelism never loses to serial.

    ``work_units`` is the number of tasks actually submitted to the
    pool — per-network campaigns for a plain supplemental run, per-shard
    batches for a sharded run.  Capping at the *network* count (the
    historical behaviour) starved shard-batched runs, where one
    submission carries many networks: a 2-batch run over 9 networks
    must size the pool by its 2 submissions, not its 9 networks.
    More workers than work units just idle; more workers than the
    machine-wide :func:`~repro.scan.parallel.worker_cap` just
    context-switch.  Anything that caps to one means "run serial".
    """
    if requested < 2 or work_units < 2:
        return 1
    capped = min(requested, worker_cap(), work_units)
    return capped if capped >= 2 else 1


def _run_one(state, task: Tuple[str, str, str]):
    """Run one network's campaign inside a worker process.

    ``state`` is ``(world, schedule, sweep_interval, rdns_rate,
    blocklist, fault_plan)``.  Returns the result shell without its
    observation columns plus the columns packed into one blob
    (:func:`~repro.scan.transport.pack_campaign_columns`).
    """
    from repro.scan.campaign import run_network_campaign

    world, schedule, sweep_interval, rdns_rate, blocklist, fault_plan = state
    name, start_iso, end_iso = task
    result = run_network_campaign(
        world,
        name,
        dt.date.fromisoformat(start_iso),
        dt.date.fromisoformat(end_iso),
        schedule=schedule,
        sweep_interval=sweep_interval,
        rdns_rate=rdns_rate,
        blocklist=blocklist,
        fault_plan=fault_plan,
    )
    return (
        replace(result, icmp=None, rdns=None),
        transport.pack_campaign_columns(result.icmp, result.rdns),
    )


def run_networks(
    campaign: "SupplementalCampaign",
    start: dt.date,
    end: dt.date,
    *,
    workers: int,
    metrics=None,
) -> List["NetworkCampaignResult"]:
    """Run every campaign network on a process pool, in campaign order.

    Raises ``ValueError`` if the platform lacks ``fork`` and the world
    cannot be pickled (worlds from
    :func:`repro.netsim.internet.build_world` always can).  ``metrics``
    (a :class:`~repro.scan.campaign.CampaignMetrics`) receives the
    result-transport byte total.
    """
    state = (
        campaign.world,
        campaign.schedule,
        campaign.sweep_interval,
        campaign.rdns_rate,
        list(campaign.blocklist),
        campaign.fault_plan,
    )
    tasks = [
        (name, start.isoformat(), end.isoformat()) for name in campaign.network_names
    ]
    shells = run_pool(
        _run_one, tasks, state, workers,
        section="campaign_pool",
        unpack=transport.unpack_campaign_columns,
        obs=campaign.obs,
        metrics=metrics,
    )
    return [replace(shell, icmp=icmp, rdns=rdns) for shell, (icmp, rdns) in shells]
