"""Process-pool fan-out for the supplemental campaign.

The campaign is embarrassingly parallel across networks: each of the
nine supplemental networks owns its runtime, sweeper, authoritative
server and RNG streams (all keyed by ``RngStreams.fresh`` labels), so
:func:`~repro.scan.campaign.run_network_campaign` is a deterministic
function of (world, network, window, parameters) no matter which
process runs it.  :func:`run_networks` ships one block of networks per
task to a process pool — one network of a built world, or one shard of
a plan's networks, which the worker builds for itself — and returns
results in campaign order; the caller merges the streams with the same
deterministic timestamp merge the serial path uses, so parallel output
is bit-identical to serial (pinned by
``tests/scan/test_campaign_parallel_cache.py``).

The pool itself — fork or spawn, shared-memory result transport,
segment cleanup — is :func:`repro.scan.parallel.run_pool`; results
cross it as ``.rbf`` records (:mod:`repro.scan.blockfile`).

:func:`effective_campaign_workers` implements the never-slower rule:
the pool is capped at the machine's core count and the number of
blocks, and a single-core host (or single-block campaign) falls back
to the serial loop rather than paying pool overhead for nothing.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import replace
from typing import TYPE_CHECKING, List, Tuple

from repro.scan.blockfile import BlockFileReader, encode_records
from repro.scan.parallel import run_pool, worker_cap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.campaign import NetworkCampaignResult, SupplementalCampaign
    from repro.scan.storage import IcmpColumns, RdnsColumns


def effective_campaign_workers(requested: int, work_units: int) -> int:
    """Cap the requested pool size so parallelism never loses to serial.

    ``work_units`` is the number of tasks actually submitted to the
    pool — one per network for a built world, one per shard for a plan.
    Capping at the *network* count starves shard-batched runs, where
    one submission carries many networks: a 2-block run over 9 networks
    must size the pool by its 2 submissions, not its 9 networks.
    More workers than work units just idle; more workers than the
    machine-wide :func:`~repro.scan.parallel.worker_cap` just
    context-switch.  Anything that caps to one means "run serial".
    """
    if requested < 2 or work_units < 2:
        return 1
    capped = min(requested, worker_cap(), work_units)
    return capped if capped >= 2 else 1


def _run_one(state, task: Tuple[Tuple[str, ...], int, int]):
    """Run one block of network campaigns inside a worker process.

    ``state`` is ``(plan, world, schedule, sweep_interval, rdns_rate,
    blocklist, fault_plan)``: a built world is inherited as is, while a
    plan's block is built here.  ``task`` is ``(names, start ordinal,
    end ordinal)``.  Returns the result shells without their
    observation columns plus the columns as one ``.rbf`` blob: an
    ICMP/RDNS record pair per network, in network order.
    """
    from repro.netsim.worldplan import shard_world
    from repro.scan.campaign import run_network_campaign

    plan, world, schedule, sweep_interval, rdns_rate, blocklist, fault_plan = state
    names, start_ordinal, end_ordinal = task
    if plan is not None:
        world = shard_world(plan, names)
    results = [
        run_network_campaign(
            world,
            name,
            dt.date.fromordinal(start_ordinal),
            dt.date.fromordinal(end_ordinal),
            schedule=schedule,
            sweep_interval=sweep_interval,
            rdns_rate=rdns_rate,
            blocklist=blocklist,
            fault_plan=fault_plan,
        )
        for name in names
    ]
    return (
        [replace(result, icmp=None, rdns=None) for result in results],
        encode_records(observations=[(result.icmp, result.rdns) for result in results]),
    )


def _decode_columns(view: memoryview) -> List[Tuple["IcmpColumns", "RdnsColumns"]]:
    """One :func:`_run_one` blob's (ICMP, rDNS) stores, copied out of ``view``."""
    return BlockFileReader.from_buffer(view).observation_columns()


def run_networks(
    campaign: "SupplementalCampaign",
    start: dt.date,
    end: dt.date,
    *,
    workers: int,
    metrics=None,
) -> List["NetworkCampaignResult"]:
    """Run the campaign's network blocks on a process pool, in campaign order.

    Raises ``ValueError`` if the platform lacks ``fork`` and the state
    cannot be pickled (built worlds and plans always can).  ``metrics``
    (a :class:`~repro.scan.campaign.CampaignMetrics`) receives the
    result-transport byte total.
    """
    state = (
        campaign.plan,
        campaign.world,
        campaign.schedule,
        campaign.sweep_interval,
        campaign.rdns_rate,
        list(campaign.blocklist),
        campaign.fault_plan,
    )
    tasks = [
        (tuple(names), start.toordinal(), end.toordinal()) for names in campaign.blocks()
    ]
    batches = run_pool(
        _run_one, tasks, state, workers,
        section="campaign_pool",
        unpack=_decode_columns,
        obs=campaign.obs,
        metrics=metrics,
    )
    return [
        replace(shell, icmp=icmp, rdns=rdns)
        for shells, columns in batches
        for shell, (icmp, rdns) in zip(shells, columns)
    ]
