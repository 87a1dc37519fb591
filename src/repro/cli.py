"""Command-line interface.

``rdns-privacy`` exposes the reproduction's main workflows:

* ``study``    — run the snapshot-based pipeline (Sections 4-5): the
  dynamicity heuristic, leak identification and the type breakdown;
* ``campaign`` — run the supplemental measurement (Section 6) and
  print Tables 3-5, optionally writing raw observations to CSV;
* ``track``    — follow a given name's devices (Section 7.1);
* ``heist``    — recommend the quietest hour (Section 7.3);
* ``audit``    — grade each network's rDNS exposure (Section 8);
* ``evaluate`` — the countermeasure evaluation matrix (Section 8):
  sweep IPAM policies × world plans × fault profiles, rank privacy
  exposure against operational utility, and optionally write the
  machine-readable ``eval_matrix.json``;
* ``snapshot`` — dump one day's PTR records, OpenINTEL-style;
* ``cache``    — inspect/verify the on-disk caches: report entry
  format versions and checksum blockfile sidecars;
* ``serve``    — the long-running leak-analysis query service
  (:mod:`repro.serve`): per-prefix dynamicity, leak verdicts, name
  counts and occupancy over HTTP, with ``POST /ingest/day`` folding
  new snapshot days in incrementally.

(``supplemental`` is an alias for ``campaign``, matching the paper's
name for the measurement.)

Every command takes ``--seed`` so results are reproducible.  The
global ``--metrics-out PATH`` writes a run manifest (deterministic
metrics + spans, wall-clock under ``timings``) after the command;
``--trace`` prints the span tree.

Some global flags fall back to an environment variable when absent:
``--fault-profile`` to ``REPRO_FAULT_PROFILE``, ``--max-workers`` to
``REPRO_MAX_WORKERS``, ``--metrics-out`` to ``REPRO_METRICS_OUT``, and
the roots of ``--snapshot-cache``/``--campaign-cache`` (and of the
``--clear-*`` flags and ``cache``) to ``REPRO_SNAPSHOT_CACHE``/
``REPRO_CAMPAIGN_CACHE``.  :func:`read_settings` is the only reader of
those variables in the package; everything below it takes explicit
values.
"""

from __future__ import annotations

import argparse
import datetime as dt
import ipaddress
import os
import pathlib
import sys
from typing import List, Mapping, NamedTuple, Optional, Tuple

from repro.core import DeviceTracker, HeistPlanner, audit_by_network
from repro.core.pipeline import ReproductionStudy, StudyConfig
from repro.eval import (
    MatrixSpec,
    default_worlds,
    render_ranked_report,
    run_matrix,
    write_matrix_json,
)
from repro.ipam.policy import POLICY_NAMES
from repro.netsim.faults import FAULT_PROFILES, plan_from_profile
from repro.netsim.worldplan import WorldPlan, synthetic_plan
from repro.netsim.network import NetworkType
from repro.netsim.personas import BRIAN_HOSTNAME_LABELS
from repro.obs import NULL_OBS, Observability
from repro.reporting import TextTable
from repro.scan import (
    CampaignCache,
    SnapshotCache,
    write_icmp_csv,
    write_rdns_csv,
)
from repro.scan.parallel import PoolError


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid date {text!r} (want YYYY-MM-DD)") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer (got {value})")
    return value


def _is_cadence_error(error: ValueError) -> bool:
    """Does this ValueError describe irregular snapshot spacing?

    Matches both `_infer_cadence`'s mixed-spacing complaint and the
    ingest-time cadence contract violations raised by
    ``SnapshotSeries`` / ``IncrementalDynamicityAnalyzer``.
    """
    text = str(error)
    return "mixed snapshot spacing" in text or "contradicts the declared cadence" in text


def _add_window(parser: argparse.ArgumentParser, *, end: dt.date) -> None:
    """A campaign command's half-open ``--start/--end`` window (``--end`` is not measured)."""
    parser.add_argument("--start", type=_parse_date, default=dt.date(2021, 11, 1))
    parser.add_argument("--end", type=_parse_date, default=end, help="exclusive end date")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdns-privacy",
        description="Reproduction toolkit for 'Saving Brian's Privacy' (IMC 2022).",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed (default 42)")
    parser.add_argument(
        "--quick", action="store_true", help="use the small test-scale world and short windows"
    )
    parser.add_argument(
        "--plan",
        "--spec",
        dest="plan",
        metavar="PATH",
        default=None,
        help=(
            "build the world from a WorldPlan JSON file (see the 'plan' "
            "command; --spec is the same option); collection and the "
            "campaign measure it in --shards blocks without building it whole"
        ),
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "partition a --plan world into N contiguous shards; workers build "
            "only their shard's networks and results merge byte-identically "
            "(default 1)"
        ),
    )
    parser.add_argument(
        "--max-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "machine-wide ceiling for every process pool (collection, "
            "campaign and evaluation cells); equivalent to setting "
            "REPRO_MAX_WORKERS"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help=(
            "process-pool workers for snapshot collection and the supplemental "
            "campaign (default 1 = serial; capped so it can never run slower)"
        ),
    )
    parser.add_argument(
        "--snapshot-cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "enable the on-disk snapshot cache; optional DIR overrides the "
            "default root (~/.cache/repro-rdns/snapshots, or $REPRO_SNAPSHOT_CACHE)"
        ),
    )
    parser.add_argument(
        "--clear-snapshot-cache",
        action="store_true",
        help="drop every cached snapshot series, then continue",
    )
    parser.add_argument(
        "--campaign-cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "enable the on-disk campaign cache; optional DIR overrides the "
            "default root (~/.cache/repro-rdns/campaigns, or $REPRO_CAMPAIGN_CACHE)"
        ),
    )
    parser.add_argument(
        "--clear-campaign-cache",
        action="store_true",
        help="drop every cached campaign dataset, then continue",
    )
    parser.add_argument(
        "--timings", action="store_true", help="print collection timing and cache counters"
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write a JSON run manifest (metrics, spans, run info; wall-clock "
            "only under its 'timings' section) after the command; the "
            "REPRO_METRICS_OUT environment variable is the fallback"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the per-stage span tree (wall seconds per stage) after the command",
    )
    parser.add_argument(
        "--fault-profile",
        choices=FAULT_PROFILES,
        default=None,
        help=(
            "inject deterministic measurement-plane faults (packet loss, DNS "
            "timeouts/SERVFAILs, outages) into the supplemental campaign; "
            "default none (the REPRO_FAULT_PROFILE environment variable is "
            "consulted when the flag is absent, and an explicit 'none' "
            "overrides it)"
        ),
    )
    # Not required at the argparse level: --clear-snapshot-cache or
    # --clear-campaign-cache may be the whole invocation.  main()
    # rejects a missing command otherwise.
    commands = parser.add_subparsers(dest="command", required=False)

    # Flag groups several commands share, declared once.
    leak_days = argparse.ArgumentParser(add_help=False)
    leak_days.add_argument(
        "--leak-sample-days",
        type=_positive_int,
        default=None,
        metavar="N",
        help="how many trailing collected days feed the given-name matcher (default 7)",
    )
    multi16 = argparse.ArgumentParser(add_help=False)
    multi16.add_argument(
        "--slash16s",
        type=_positive_int,
        default=4,
        help="how many /16 networks the synthetic world spans (each is 256 /24s; default 4)",
    )
    multi16.add_argument(
        "--people", type=_positive_int, default=12, help="population per network (default 12)"
    )

    commands.add_parser(
        "study", parents=[leak_days], help="dynamicity + leak identification (Sections 4-5)"
    )

    def _add_campaign_args(campaign) -> None:
        _add_window(campaign, end=dt.date(2021, 11, 8))
        campaign.add_argument(
            "--networks", nargs="*", default=None, help="subset of Table-4 networks"
        )
        campaign.add_argument("--icmp-csv", help="write raw ICMP observations here")
        campaign.add_argument("--rdns-csv", help="write raw rDNS observations here")
        campaign.add_argument("--save-dir", help="persist the whole dataset to this directory")
        campaign.add_argument(
            "--error-report",
            action="store_true",
            help=(
                "print the per-day rDNS error-class breakdown (Figure 6); "
                "printed automatically when a fault profile is active"
            ),
        )

    _add_campaign_args(
        commands.add_parser("campaign", help="supplemental measurement (Section 6)")
    )
    _add_campaign_args(
        commands.add_parser("supplemental", help="alias for 'campaign' (the paper's name)")
    )

    track = commands.add_parser("track", help="follow a given name's devices (Section 7.1)")
    track.add_argument("name", help="given name to follow, e.g. brian")
    track.add_argument("--network", default="Academic-A")
    _add_window(track, end=dt.date(2021, 11, 15))

    heist = commands.add_parser("heist", help="find the quietest hour (Section 7.3)")
    heist.add_argument("--network", default="Academic-A")
    _add_window(heist, end=dt.date(2021, 11, 8))
    heist.add_argument("--source", choices=("rdns", "icmp"), default="rdns")

    audit = commands.add_parser(
        "audit", help="score each network's rDNS exposure (Section 8 mitigation aid)"
    )
    _add_window(audit, end=dt.date(2021, 11, 4))
    audit.add_argument("--networks", nargs="*", default=None)

    snapshot = commands.add_parser("snapshot", help="dump one day's PTR records")
    snapshot.add_argument("--date", type=_parse_date, default=dt.date(2021, 3, 1))
    snapshot.add_argument("--network", default=None, help="restrict to one network")
    snapshot.add_argument("--limit", type=_positive_int, default=50)

    serve = commands.add_parser(
        "serve",
        parents=[leak_days],
        help="run the leak-analysis query service (HTTP, Ctrl-C to stop)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8400, help="bind port (default 8400)")
    serve.add_argument(
        "--blockfile",
        metavar="PATH",
        default=None,
        help=(
            "back the snapshot store with an mmap-ed blockfile at PATH: "
            "written once at boot, served zero-copy, and POST /ingest/day "
            "appends a segment instead of rewriting (default: in-memory)"
        ),
    )

    evaluate = commands.add_parser(
        "evaluate",
        parents=[leak_days, multi16],
        help=(
            "countermeasure evaluation matrix: sweep IPAM policies × worlds × "
            "fault profiles, rank privacy exposure vs operational utility "
            "(Section 8)"
        ),
    )
    evaluate.add_argument(
        "--policies",
        nargs="+",
        choices=POLICY_NAMES,
        default=list(POLICY_NAMES),
        metavar="POLICY",
        help=f"policy axis (default: all of {', '.join(POLICY_NAMES)})",
    )
    evaluate.add_argument(
        "--worlds",
        nargs="+",
        default=None,
        metavar="LABEL",
        help=(
            "world axis labels (default: the stock 'campus' and 'multi16' "
            "worlds; with --plan, the single world 'plan')"
        ),
    )
    evaluate.add_argument(
        "--fault-profiles",
        nargs="+",
        choices=FAULT_PROFILES,
        default=["none"],
        metavar="PROFILE",
        help="fault-profile axis (default: none only)",
    )
    evaluate.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the machine-readable eval_matrix.json here",
    )
    evaluate.add_argument(
        "--report-out",
        metavar="PATH",
        default=None,
        help="also write the ranked report (exactly as printed) to this file",
    )

    cache = commands.add_parser(
        "cache", help="inspect or verify on-disk cache entries"
    )
    cache.add_argument(
        "action",
        choices=("inspect", "verify"),
        help=(
            "inspect: list entries with their payload format versions; "
            "verify: checksum every blockfile sidecar (full body CRC + "
            "SHA-256) and exit non-zero on damage (entries in any other "
            "format are reported stale: the next run recomputes them)"
        ),
    )

    plan = commands.add_parser(
        "plan",
        parents=[multi16],
        help="generate a synthetic multi-/16 WorldPlan JSON for sharded runs",
    )
    plan.add_argument("--out", required=True, metavar="PATH", help="write the plan JSON here")
    plan.add_argument(
        "--zone-layout",
        choices=("flat", "delegated"),
        default="delegated",
        help="reverse-zone layout for every network (default delegated per-/24 children)",
    )
    plan.add_argument(
        "--supplemental-every",
        type=int,
        default=2,
        help="every Nth academic network joins the supplemental campaign (0 = none)",
    )

    return parser


class Settings(NamedTuple):
    """One invocation's settings, each flag over its ``REPRO_*`` variable over the default."""

    config: StudyConfig
    #: Where the run manifest goes (``--metrics-out``), if anywhere.
    manifest_path: Optional[str]
    #: The caches ``--clear-*`` and ``cache`` act on; ``config`` holds
    #: them as well when ``--snapshot-cache``/``--campaign-cache`` enable them.
    snapshot_cache: SnapshotCache
    campaign_cache: CampaignCache


def read_settings(args, environ: Optional[Mapping[str, str]] = None) -> Settings:
    """The invocation's settings from its flags and ``environ`` (default ``os.environ``).

    The only reader of ``REPRO_*`` variables in the package.  Each
    variable is the fallback of one flag; an explicit flag wins (so
    ``--fault-profile none`` overrides ``REPRO_FAULT_PROFILE``).  Bad
    values raise ``ValueError``.
    """
    if environ is None:
        environ = os.environ
    config = StudyConfig.quick(args.seed) if args.quick else StudyConfig(seed=args.seed)
    if args.plan is not None:
        config.plan = WorldPlan.load(args.plan).validate()
    config.shards = args.shards
    config.max_workers = args.max_workers
    if config.max_workers is None:
        text = environ.get("REPRO_MAX_WORKERS", "").strip()
        if text:
            try:
                config.max_workers = int(text)
            except ValueError as exc:
                raise ValueError(f"REPRO_MAX_WORKERS must be an integer, got {text!r}") from exc
            if config.max_workers < 1:
                raise ValueError(f"REPRO_MAX_WORKERS must be >= 1, got {config.max_workers}")
    config.snapshot_workers = args.workers
    config.campaign_workers = args.workers
    snapshot_cache = SnapshotCache(args.snapshot_cache or environ.get("REPRO_SNAPSHOT_CACHE") or None)
    campaign_cache = CampaignCache(args.campaign_cache or environ.get("REPRO_CAMPAIGN_CACHE") or None)
    if args.snapshot_cache is not None:
        config.snapshot_cache = snapshot_cache
    if args.campaign_cache is not None:
        config.campaign_cache = campaign_cache
    profile = args.fault_profile or environ.get("REPRO_FAULT_PROFILE", "").strip()
    config.fault_plan = plan_from_profile(profile, seed=args.seed) if profile else None
    if getattr(args, "leak_sample_days", None) is not None:
        config.leak_sample_days = args.leak_sample_days
    if getattr(args, "blockfile", None) is not None:
        config.serve_blockfile = args.blockfile
    manifest_path = args.metrics_out or environ.get("REPRO_METRICS_OUT") or None
    return Settings(config, manifest_path, snapshot_cache, campaign_cache)


def _run_campaign(args, config: StudyConfig, obs: Observability, networks):
    """``(campaign, dataset)`` for ``networks`` over ``--start..--end``.

    The one place the CLI measures the supplemental campaign: a plan is
    measured in ``config.shards`` blocks, never built whole here.
    """
    campaign = config.campaign(config.world_source(), networks=networks, obs=obs)
    obs.set_run_info(world_fingerprint=campaign.internet.cache_token())
    dataset = campaign.run(
        args.start,
        args.end,
        workers=config.capped_workers(config.campaign_workers),
        cache=config.campaign_cache,
    )
    return campaign, dataset


def _print_error_report(dataset, out) -> None:
    table = TextTable(
        ["Day", "Total", "NOERROR", "NXDOMAIN", "SERVFAIL", "TIMEOUT", "REFUSED"],
        aligns=["<", ">", ">", ">", ">", ">", ">"],
    )
    for day, total, noerror, nxdomain, servfail, timeout, refused in dataset.error_class_rows():
        table.add_row([day.isoformat(), total, noerror, nxdomain, servfail, timeout, refused])
    print("\nrDNS error classes by day (Figure 6):", file=out)
    print(table.render(), file=out)


def _print_cache_outcome(label: str, metrics, out) -> None:
    """The ``[timings] <label> cache hit|miss, stored|miss`` line, if keyed."""
    if metrics.cache_key is None:
        return
    outcome = "hit" if metrics.cache_hit else (
        "miss, stored" if metrics.cache_stored else "miss"
    )
    print(f"[timings] {label} cache {outcome} (key {metrics.cache_key[:12]}…)", file=out)


def _print_campaign_timings(campaign, out) -> None:
    metrics = campaign.last_metrics
    if metrics is None:
        return
    print(f"[timings] supplemental campaign: {metrics.describe()}", file=out)
    _print_cache_outcome("campaign", metrics, out)


def cmd_study(args, config, obs, out) -> int:
    study = ReproductionStudy(config, obs=obs)
    report = study.dynamicity()
    print(
        f"Dynamicity ({config.dynamicity_start} .. {config.dynamicity_end}): "
        f"{report.dynamic_count} of {report.total_observed} observed /24s are dynamic",
        file=out,
    )
    leaks = study.leaks()
    print(f"\nIdentified identity-leaking networks: {len(leaks.identified)}", file=out)
    table = TextTable(["Suffix", "Records", "Unique names", "Ratio"], aligns=["<", ">", ">", ">"])
    for suffix in leaks.identified:
        stats = leaks.stats_for(suffix)
        table.add_row([suffix, stats.records, stats.unique_name_count, round(stats.ratio, 2)])
    print(table.render(), file=out)
    breakdown = study.type_breakdown()
    print("\nType breakdown (Figure 4):", file=out)
    for net_type in NetworkType:
        print(f"  {net_type.value:<12s} {breakdown[net_type]:5.1f}%", file=out)
    if args.timings and study.collection_metrics is not None:
        metrics = study.collection_metrics
        print(f"\n[timings] snapshot collection: {metrics.describe()}", file=out)
        _print_cache_outcome("snapshot", metrics, out)
        sample = study.daily_series().last_sample_metrics
        if sample is not None:
            print(f"[timings] leak sample: {sample.describe()}", file=out)
    return 0


def cmd_campaign(args, config, obs, out) -> int:
    campaign, dataset = _run_campaign(args, config, obs, args.networks)
    fault_plan = config.fault_plan
    icmp_total, icmp_unique = dataset.icmp_stats()
    rdns_total, rdns_unique, rdns_ptrs = dataset.rdns_stats()
    print(
        f"Campaign {args.start}..{args.end}: {icmp_total:,} ICMP responses "
        f"({icmp_unique} addresses); {rdns_total:,} rDNS lookups "
        f"({rdns_unique} addresses, {rdns_ptrs} unique PTRs)",
        file=out,
    )
    table = TextTable(["Network", "Type", "Observed", "Percent"], aligns=["<", "<", ">", ">"])
    for name, net_type, _, observed, percent in dataset.table4_rows():
        table.add_row([name, net_type, observed, round(percent, 1)])
    print(table.render(), file=out)
    if fault_plan is not None or args.error_report:
        _print_error_report(dataset, out)
    if fault_plan is not None:
        metrics = campaign.last_metrics
        counters = metrics.fault_counters if metrics is not None else {}
        print(
            f"\nFault profile '{fault_plan.name}' active: "
            f"{counters.get('echoes_lost', 0):,} echoes lost "
            f"({counters.get('icmp_retries', 0):,} ICMP retries), "
            f"{counters.get('rdns_timeouts', 0):,} rDNS timeouts over "
            f"{counters.get('rdns_attempts', 0):,} attempts",
            file=out,
        )
    if args.icmp_csv:
        rows = write_icmp_csv(args.icmp_csv, dataset.icmp)
        print(f"wrote {rows:,} ICMP rows to {args.icmp_csv}", file=out)
    if args.rdns_csv:
        rows = write_rdns_csv(args.rdns_csv, dataset.rdns)
        print(f"wrote {rows:,} rDNS rows to {args.rdns_csv}", file=out)
    if args.save_dir:
        from repro.scan.persistence import save_dataset

        path = save_dataset(dataset, args.save_dir)
        print(f"saved dataset to {path}", file=out)
    if args.timings:
        _print_campaign_timings(campaign, out)
    return 0


def cmd_track(args, config, obs, out) -> int:
    _, dataset = _run_campaign(args, config, obs, [args.network])
    tracker = DeviceTracker(dataset.rdns)
    days = (args.end - args.start).days
    labels = BRIAN_HOSTNAME_LABELS if args.name.lower() == "brian" and args.network == "Academic-A" else None
    matrix = tracker.presence_matrix(
        args.name,
        args.start,
        days,
        network=args.network,
        labels=labels,
        mark_unknown=config.fault_plan is not None,
    )
    if not any(any(row) for row in matrix.values()):
        print(f"no devices matching {args.name!r} observed on {args.network}", file=out)
        return 1
    print(f"Devices containing {args.name!r} on {args.network}, {args.start}..{args.end}:", file=out)
    for label in sorted(matrix):
        cells = "".join(
            "#" if seen else ("?" if seen is None else ".") for seen in matrix[label]
        )
        print(f"  {label:24s} {cells}", file=out)
    if config.fault_plan is not None and any(None in row for row in matrix.values()):
        print("  ('?' = not seen on a day with failed lookups: coverage gap, not absence)", file=out)
    return 0


def cmd_heist(args, config, obs, out) -> int:
    _, dataset = _run_campaign(args, config, obs, [args.network])
    planner = HeistPlanner(dataset, args.network)
    plan = planner.plan(source=args.source, weekdays_only=True)
    print(f"Quietest weekday hour on {args.network}: {plan.hour_of_day:02d}:00 "
          f"(avg {plan.average_activity:.1f} active clients, by {args.source})", file=out)
    peak = max(plan.activity_by_hour.values()) or 1.0
    for hour in range(24):
        value = plan.activity_by_hour.get(hour, 0.0)
        bar = "#" * int(round(24 * value / peak))
        print(f"  {hour:02d}:00 {value:7.1f} {bar}", file=out)
    if config.fault_plan is not None:
        print(
            f"  (fault profile '{config.fault_plan.name}' active: each hourly average "
            f"rests on >= {plan.min_samples()} measured hours)",
            file=out,
        )
    return 0


def cmd_snapshot(args, config, obs, out) -> int:
    world = config.build_world()
    if args.network is not None:
        networks = [world.internet.network(args.network)]
    else:
        networks = world.internet.networks
    records = (
        record for network in networks for record in network.records_on(args.date, at_offset=12 * 3600)
    )
    shown = 0
    for address, hostname in records:
        print(f"{ipaddress.IPv4Address(address)}\t{hostname}", file=out)
        shown += 1
        if shown >= args.limit:
            print(f"... (truncated at {args.limit} records; raise --limit)", file=out)
            break
    if shown == 0:
        print("(no records)", file=out)
    return 0


def cmd_audit(args, config, obs, out) -> int:
    _, dataset = _run_campaign(args, config, obs, args.networks)
    reports = audit_by_network(dataset.rdns)
    table = TextTable(
        ["Network", "Grade", "Identity", "Dynamics", "Trackability", "Records"],
        aligns=["<", "^", ">", ">", ">", ">"],
    )
    for network, report in reports.items():
        table.add_row(
            [
                network,
                report.grade(),
                round(report.identity_score, 2),
                round(report.dynamics_score, 2),
                round(report.trackability_score, 2),
                report.records_observed,
            ]
        )
    print(table.render(), file=out)
    worst = max(reports.values(), key=lambda r: r.overall, default=None)
    if worst is not None and worst.named_hostnames:
        print("\nSample identity-carrying hostnames:", file=out)
        for hostname in worst.named_hostnames[:5]:
            print(f"  {hostname}", file=out)
    return 0


def _read_cache_entry(cache, key: str):
    """One entry's raw JSON document, or ``None`` if unreadable.

    Reads the file directly rather than via ``cache.load`` so a broken
    entry is *reported*, never silently repaired out from under the
    user mid-inspection.
    """
    import json

    try:
        with cache.path_for(key).open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _verify_cache_entry(cache, key: str, detail) -> Tuple[str, bool]:
    """One entry's ``repro cache verify`` line, and whether it failed.

    ``detail(reader, record_count)`` describes a healthy sidecar.
    """
    import hashlib

    from repro.scan.blockfile import BlockFileError, BlockFileReader
    from repro.scan.cache import is_current

    label = f"  {key[:12]}…"
    payload = _read_cache_entry(cache, key)
    if payload is None:
        return f"{label} ERROR: unreadable JSON document", True
    version = payload.get("version")
    if not is_current(payload):
        return f"{label} v{version} stale (the next run recomputes it)", False
    path = cache.root / payload.get("blockfile", f"{key}.rbf")
    try:
        blob = path.read_bytes()
    except OSError as error:
        return f"{label} ERROR: missing sidecar ({error})", True
    expected = payload.get("blockfile_sha256")
    if expected is not None and hashlib.sha256(blob).hexdigest() != expected:
        return f"{label} ERROR: sidecar SHA-256 mismatch", True
    try:
        with BlockFileReader.open(path) as reader:
            summary = detail(reader, reader.verify())
    except BlockFileError as error:
        return f"{label} ERROR: {error}", True
    return (
        f"{label} v{version} OK ({summary}, {len(blob):,} bytes, CRCs + SHA-256 good)",
        False,
    )


def cmd_cache(args, settings: Settings, out) -> int:
    # (label, cache, inspect column, its value, verify detail) per cache.
    sections = [
        (
            "snapshot",
            settings.snapshot_cache,
            "Days",
            lambda payload: len(payload.get("days", ())),
            lambda reader, records: f"{len(reader.days)} day(s)",
        ),
        (
            "campaign",
            settings.campaign_cache,
            "Networks",
            lambda payload: len(payload.get("targets_by_network", ())),
            lambda reader, records: f"{records} record(s)",
        ),
    ]

    if args.action == "inspect":
        for label, cache, column, value, _ in sections:
            keys = cache.entries()
            print(f"{label} cache {cache.root}: {len(keys)} entry(ies)", file=out)
            if not keys:
                continue
            table = TextTable(
                ["Key", "Version", column, "Blockfile", "Bytes"],
                aligns=["<", ">", ">", "<", ">"],
            )
            for key in keys:
                payload = _read_cache_entry(cache, key)
                if payload is None:
                    table.add_row([key[:12] + "…", "corrupt", "-", "-", "-"])
                    continue
                table.add_row(
                    [
                        key[:12] + "…",
                        payload.get("version", "-"),
                        value(payload),
                        payload.get("blockfile", "-"),
                        payload.get("blockfile_bytes", "-"),
                    ]
                )
            print(table.render(), file=out)
        return 0

    failures = 0
    for _, cache, _, _, detail in sections:
        keys = cache.entries()
        cache_failures = 0
        for key in keys:
            line, failed = _verify_cache_entry(cache, key, detail)
            print(line, file=out)
            cache_failures += failed
        print(
            f"verified {len(keys)} entry(ies) in {cache.root}: "
            f"{cache_failures} failure(s)",
            file=out,
        )
        failures += cache_failures
    return 1 if failures else 0


def cmd_plan(args, config, obs, out) -> int:
    plan = synthetic_plan(
        config.seed,
        slash16s=args.slash16s,
        people=args.people,
        zone_layout=args.zone_layout,
        supplemental_every=args.supplemental_every,
    )
    plan.save(args.out)
    print(
        f"wrote plan {plan.fingerprint()[:12]}… to {args.out}: "
        f"{len(plan.entries)} networks ({args.slash16s * 256:,} /24s of "
        f"address space), {len(plan.supplemental_names)} supplemental",
        file=out,
    )
    return 0


def cmd_serve(args, config, obs, out) -> int:
    from repro.serve import build_app, run_app

    print(
        f"collecting {config.dynamicity_start}..{config.dynamicity_end} "
        f"(seed {config.seed}) ...",
        file=out,
        flush=True,
    )
    app = build_app(config, obs=obs)
    series = app.snapshots.series
    print(
        f"serving {len(series)} day(s), {len(series.prefix_table())} /24 "
        f"prefix(es) on http://{args.host}:{args.port} (Ctrl-C to stop)",
        file=out,
        flush=True,
    )
    run_app(app, args.host, args.port)
    return 0


def cmd_evaluate(args, config, obs, out) -> int:
    if config.plan is not None:
        worlds = {"plan": config.plan}
    else:
        worlds = default_worlds(config.seed, slash16s=args.slash16s, people=args.people)
    if args.worlds is not None:
        unknown = [label for label in args.worlds if label not in worlds]
        if unknown:
            raise ValueError(
                f"unknown world label(s): {', '.join(unknown)} "
                f"(available: {', '.join(worlds)})"
            )
        worlds = {label: worlds[label] for label in args.worlds}
    spec = MatrixSpec(
        worlds=worlds,
        policies=tuple(args.policies),
        faults=tuple(args.fault_profiles),
        dynamicity_start=config.dynamicity_start,
        dynamicity_end=config.dynamicity_end,
        supplemental_start=config.supplemental_start,
        supplemental_end=config.supplemental_end,
        leak_sample_days=config.leak_sample_days,
        dynamicity_thresholds=config.dynamicity_thresholds,
    ).validate()

    result = run_matrix(
        spec,
        workers=config.capped_workers(config.campaign_workers),
        shards=config.shards,
        snapshot_cache=config.snapshot_cache,
        campaign_cache=config.campaign_cache,
        obs=obs,
    )

    cells = spec.cells()
    print(
        f"evaluated {len(cells)} cell(s): {len(worlds)} world(s) × "
        f"{len(spec.policies)} policy(ies) × {len(spec.faults)} fault "
        f"profile(s), {result.workers} worker(s)",
        file=out,
    )
    report = render_ranked_report(result)
    print(report, file=out)
    if args.timings:
        snapshot_hits = sum(1 for r in result.results if r.snapshot_cache_hit)
        campaign_hits = sum(1 for r in result.results if r.campaign_cache_hit)
        print(
            f"[timings] matrix: {result.total_seconds:.2f}s; cache hits "
            f"{snapshot_hits}/{len(result.results)} snapshot, "
            f"{campaign_hits}/{len(result.results)} campaign",
            file=out,
        )
    if args.report_out:
        target = pathlib.Path(args.report_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(report + "\n", encoding="utf-8")
        print(f"wrote ranked report to {target}", file=out)
    if args.out:
        target = write_matrix_json(args.out, result)
        print(f"wrote eval matrix payload to {target}", file=out)
    return 0


_COMMANDS = {
    "plan": cmd_plan,
    "evaluate": cmd_evaluate,
    "study": cmd_study,
    "serve": cmd_serve,
    "audit": cmd_audit,
    "campaign": cmd_campaign,
    "supplemental": cmd_campaign,
    "track": cmd_track,
    "heist": cmd_heist,
    "snapshot": cmd_snapshot,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    clearing = args.clear_snapshot_cache or args.clear_campaign_cache
    if args.command is None and not clearing:
        parser.error(
            "a command is required (or --clear-snapshot-cache/--clear-campaign-cache)"
        )
    try:
        settings = read_settings(args)
        config = settings.config
        obs = Observability() if settings.manifest_path or args.trace else NULL_OBS
        obs.set_run_info(
            seed=args.seed,
            # The alias maps to the same command (and the same manifest).
            command="campaign" if args.command == "supplemental" else args.command,
        )
        if args.clear_snapshot_cache:
            cache = settings.snapshot_cache
            removed = cache.clear()
            print(f"cleared {removed} cached snapshot series from {cache.root}", file=out)
        if args.clear_campaign_cache:
            cache = settings.campaign_cache
            removed = cache.clear()
            print(f"cleared {removed} cached campaign datasets from {cache.root}", file=out)
        if args.command is None:
            return 0
        if args.command == "cache":
            status = cmd_cache(args, settings, out)
        else:
            status = _COMMANDS[args.command](args, config, obs, out)
    except ValueError as error:
        # Bad user input (e.g. an empty half-open window or a malformed
        # --plan) — report it like an argument error instead of a traceback.
        if _is_cadence_error(error):
            print(f"error: irregular snapshot series — {error}", file=sys.stderr)
        else:
            print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2
    except PoolError as error:
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 1
    if args.trace:
        rendered = obs.tracer.render()
        if rendered:
            print("\n[trace]", file=out)
            print(rendered, file=out)
    if settings.manifest_path:
        obs.write_manifest(settings.manifest_path)
        print(f"wrote run manifest to {settings.manifest_path}", file=out)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
