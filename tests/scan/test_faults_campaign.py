"""Fault injection across the campaign: determinism and degradation.

The acceptance property of the fault subsystem: for any plan, the
campaign is a pure function of (world, window, plan) — serial,
process-pool and cache-replayed runs are bit-identical.
"""

import datetime as dt

import pytest

from repro.dns.resolver import StubResolver
from repro.cli import build_parser, read_settings
from repro.netsim.faults import FaultPlan, NetworkFaultProfile
from repro.netsim.internet import WorldScale, build_world
from repro.scan.cache import CampaignCache
from repro.scan.campaign import SupplementalCampaign

START = dt.date(2021, 11, 1)
END = dt.date(2021, 11, 3)
NETWORKS = ["Academic-A", "ISP-A"]


@pytest.fixture(scope="module")
def world():
    return build_world(seed=11, scale=WorldScale.small())


def fresh_world():
    """A new world per run: the legacy FailureModel on Academic-A's
    server draws sequentially, so running a campaign advances its RNG.
    Bit-identity comparisons need each run to start from the same state
    (the process pool gets this for free by forking fresh copies)."""
    return build_world(seed=11, scale=WorldScale.small())


def make_campaign(world, plan):
    return SupplementalCampaign(world, networks=NETWORKS, fault_plan=plan)


class TestBitIdenticalUnderFaults:
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.mild(seed=11),
            FaultPlan.harsh(seed=11),
            FaultPlan(
                name="custom",
                seed=11,
                default_profile=NetworkFaultProfile(
                    icmp_loss_rate=0.3, rdns_timeout_rate=0.1, flap_rate=0.02
                ),
                icmp_retry_budget=1,
                rdns_retry_budget=1,
            ),
        ],
        ids=["mild", "harsh", "custom"],
    )
    def test_serial_parallel_cached_identical(self, plan, tmp_path):
        serial = make_campaign(fresh_world(), plan).run(START, END)

        parallel = make_campaign(fresh_world(), plan)
        par_dataset = parallel.run(START, END, workers=4)
        assert par_dataset.icmp == serial.icmp
        assert par_dataset.rdns == serial.rdns

        cache = CampaignCache(tmp_path)
        warm = make_campaign(fresh_world(), plan)
        stored = warm.run(START, END, cache=cache)
        assert warm.last_metrics.cache_stored
        replay = make_campaign(fresh_world(), plan)
        replayed = replay.run(START, END, cache=cache)
        assert replay.last_metrics.cache_hit
        assert replayed.icmp == stored.icmp == serial.icmp
        assert replayed.rdns == stored.rdns == serial.rdns

    def test_fault_runs_differ_from_clean(self):
        clean = make_campaign(fresh_world(), None).run(START, END)
        faulty = make_campaign(fresh_world(), FaultPlan.harsh(seed=11)).run(START, END)
        assert not (clean.icmp == faulty.icmp and clean.rdns == faulty.rdns)


class TestErrorClasses:
    def test_harsh_profile_produces_every_error_class(self, world):
        dataset = make_campaign(world, FaultPlan.harsh(seed=11)).run(START, END)
        totals = {"servfail": 0, "timeout": 0, "refused": 0}
        for _, _, _, _, servfail, timeout, refused in dataset.error_class_rows():
            totals["servfail"] += servfail
            totals["timeout"] += timeout
            totals["refused"] += refused
        assert all(count > 0 for count in totals.values()), totals

    def test_error_rows_shape_is_preserved(self, world):
        dataset = make_campaign(world, FaultPlan.mild(seed=11)).run(START, END)
        for row in dataset.error_rows():
            assert len(row) == 5
            _, total, nxdomain, servfail, timeout = row
            assert total >= nxdomain + servfail + timeout

    def test_error_class_rows_sum_to_total(self, world):
        dataset = make_campaign(world, FaultPlan.mild(seed=11)).run(START, END)
        assert dataset.error_class_rows(), "campaign produced no rDNS observations"
        for _, total, noerror, nxdomain, servfail, timeout, refused in dataset.error_class_rows():
            assert total == noerror + nxdomain + servfail + timeout + refused

    def test_fault_counters_aggregated(self, world):
        campaign = make_campaign(world, FaultPlan.harsh(seed=11))
        campaign.run(START, END)
        metrics = campaign.last_metrics
        assert metrics.fault_profile == "harsh"
        assert metrics.fault_counters["echoes_lost"] > 0
        assert metrics.fault_counters["rdns_timeouts"] > 0
        assert metrics.fault_counters["rdns_attempts"] >= metrics.fault_counters["lookups"]


class TestCacheKeys:
    def test_clean_key_unchanged_by_fault_feature(self, world, tmp_path, monkeypatch):
        """A plan-less campaign must keep its pre-fault cache keys."""
        # Engines never read the environment: the default is clean.
        monkeypatch.setenv("REPRO_FAULT_PROFILE", "mild")
        cache = CampaignCache(tmp_path)
        explicit_none = make_campaign(world, None)
        default = SupplementalCampaign(world, networks=NETWORKS)
        assert default.fault_plan is None
        assert explicit_none.cache_key(cache, START, END) == default.cache_key(
            cache, START, END
        )

    def test_fault_plan_changes_key(self, world, tmp_path):
        cache = CampaignCache(tmp_path)
        clean_key = make_campaign(world, None).cache_key(cache, START, END)
        mild_key = make_campaign(world, FaultPlan.mild(seed=11)).cache_key(cache, START, END)
        harsh_key = make_campaign(world, FaultPlan.harsh(seed=11)).cache_key(cache, START, END)
        assert len({clean_key, mild_key, harsh_key}) == 3

    def test_env_variable_activates_plan(self, world):
        # The CLI reads the variable and seeds the plan with --seed,
        # the world seed, for cross-run reproducibility.
        args = build_parser().parse_args(["--seed", str(world.rngs.seed)])
        plan = read_settings(args, {"REPRO_FAULT_PROFILE": "mild"}).config.fault_plan
        assert plan is not None
        assert plan.name == "mild"
        assert plan.seed == world.rngs.seed
        assert make_campaign(world, plan).fault_plan is plan


class TestResolverBackoff:
    def test_backoff_schedule_deterministic_and_exponential(self):
        resolver = StubResolver(backoff_base=1.0, fault_plan=FaultPlan.mild(seed=3))
        delays = [resolver.backoff_delay("example", attempt) for attempt in (1, 2, 3)]
        again = [resolver.backoff_delay("example", attempt) for attempt in (1, 2, 3)]
        assert delays == again
        # Exponential envelope: base * 2**(n-1) scaled by [0.5, 1.5).
        for attempt, delay in enumerate(delays, start=1):
            assert 0.5 * 2 ** (attempt - 1) <= delay < 1.5 * 2 ** (attempt - 1)

    def test_zero_base_means_no_backoff(self):
        resolver = StubResolver()
        assert resolver.backoff_delay("example", 3) == 0.0

    def test_health_counters_track_recovery(self, world):
        plan = FaultPlan.harsh(seed=11)
        resolver = world.internet.resolver(
            retries=plan.rdns_retry_budget, fault_plan=plan
        )
        import ipaddress

        for i in range(200):
            resolver.resolve_ptr(ipaddress.ip_address(f"20.0.10.{i % 250 + 1}"), at=i * 60)
        health = resolver.server_health["ns1.campus.stateu.edu"]
        assert health.queries == 200
        assert health.answers > 0
        assert health.timeouts == resolver.timeouts_seen
        assert health.max_consecutive_timeouts >= health.consecutive_timeouts
