"""Tests for the deterministic fault-injection plans."""

import pytest

from repro.cli import build_parser, read_settings
from repro.netsim.faults import (
    FAULT_PROFILES,
    FaultPlan,
    NetworkFaultProfile,
    OutageWindow,
    keyed_uniform,
    plan_from_profile,
)
from repro.netsim.simtime import DAY, HOUR


class TestKeyedUniform:
    def test_deterministic(self):
        assert keyed_uniform(7, "a", 3) == keyed_uniform(7, "a", 3)

    def test_in_unit_interval(self):
        draws = [keyed_uniform(0, "net", i, j) for i in range(50) for j in range(4)]
        assert all(0.0 <= draw < 1.0 for draw in draws)

    def test_sensitive_to_every_part(self):
        base = keyed_uniform(0, "net", 1, 2)
        assert keyed_uniform(1, "net", 1, 2) != base
        assert keyed_uniform(0, "other", 1, 2) != base
        assert keyed_uniform(0, "net", 9, 2) != base
        assert keyed_uniform(0, "net", 1, 9) != base

    def test_roughly_uniform(self):
        draws = [keyed_uniform(3, "u", i) for i in range(2000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55


class TestProfilesAndValidation:
    def test_preset_names(self):
        assert FAULT_PROFILES == ("none", "mild", "harsh")
        assert plan_from_profile("none") is None
        assert plan_from_profile("mild").name == "mild"
        assert plan_from_profile("harsh").name == "harsh"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            plan_from_profile("catastrophic")

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NetworkFaultProfile(icmp_loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(icmp_retry_budget=-1)

    def test_quiet_plan(self):
        assert FaultPlan().quiet
        assert not FaultPlan.mild().quiet

    def test_outage_window_validation(self):
        with pytest.raises(ValueError):
            OutageWindow(start=10, end=5)
        window = OutageWindow(start=10, end=20)
        assert window.covers(10) and window.covers(19)
        assert not window.covers(20)


class TestDraws:
    def test_echo_loss_deterministic_and_order_independent(self):
        plan = FaultPlan.mild(seed=5)
        forward = [plan.echo_lost("net", a, 100, 0) for a in range(200)]
        backward = [plan.echo_lost("net", a, 100, 0) for a in reversed(range(200))]
        assert forward == list(reversed(backward))

    def test_echo_loss_rate_close_to_nominal(self):
        plan = FaultPlan.mild(seed=1)
        losses = sum(plan.echo_lost("net", a, 0, 0) for a in range(20000))
        assert losses == pytest.approx(20000 * 0.02, rel=0.25)

    def test_server_behavior_deterministic(self):
        plan = FaultPlan.harsh(seed=2)
        outcomes = [plan.server_behavior("net", f"q{i}", i * 60) for i in range(500)]
        assert outcomes == [plan.server_behavior("net", f"q{i}", i * 60) for i in range(500)]
        kinds = set(outcomes)
        assert "timeout" in kinds or "servfail" in kinds

    def test_explicit_outage_forces_failure(self):
        profile = NetworkFaultProfile(
            outages=(OutageWindow(start=0, end=HOUR, mode="servfail"),)
        )
        plan = FaultPlan(default_profile=profile)
        assert plan.server_behavior("net", "q", 100) == "servfail"
        assert plan.server_behavior("net", "q", HOUR + 1) is None

    def test_daily_outage_deterministic(self):
        plan = FaultPlan.harsh(seed=9)
        days = [plan.outage_for_day("net", day) for day in range(60)]
        assert days == [plan.outage_for_day("net", day) for day in range(60)]
        hit = [window for window in days if window is not None]
        assert hit, "harsh profile should schedule some outages in 60 days"
        for window in hit:
            assert 0 <= window.start < window.end <= 60 * DAY

    def test_per_network_override(self):
        noisy = NetworkFaultProfile(icmp_loss_rate=1.0)
        plan = FaultPlan().with_network("loud", noisy)
        assert plan.echo_lost("loud", 1, 0, 0)
        assert not plan.echo_lost("other", 1, 0, 0)

    def test_cache_token_stable_and_distinct(self):
        assert FaultPlan.mild(seed=4).cache_token() == FaultPlan.mild(seed=4).cache_token()
        assert FaultPlan.mild(seed=4).cache_token() != FaultPlan.mild(seed=5).cache_token()
        assert FaultPlan.mild().cache_token() != FaultPlan.harsh().cache_token()


def cli_fault_plan(flags, environ):
    """The fault plan the CLI reader makes of ``flags`` and ``environ``."""
    return read_settings(build_parser().parse_args(flags), environ).config.fault_plan


class TestResolveFaultPlan:
    """Only the CLI resolves a profile: the flag, then ``REPRO_FAULT_PROFILE``, then clean."""

    def test_explicit_profile_wins(self):
        env = {"REPRO_FAULT_PROFILE": "harsh"}
        assert cli_fault_plan(["--fault-profile", "none"], env) is None
        assert cli_fault_plan(["--fault-profile", "mild"], env).name == "mild"

    def test_env_fallback(self):
        assert cli_fault_plan([], {}) is None
        assert cli_fault_plan([], {"REPRO_FAULT_PROFILE": ""}) is None
        plan = cli_fault_plan(["--seed", "6"], {"REPRO_FAULT_PROFILE": "mild"})
        assert plan is not None and plan.name == "mild" and plan.seed == 6

    def test_bad_env_value_raises(self):
        with pytest.raises(ValueError):
            cli_fault_plan([], {"REPRO_FAULT_PROFILE": "nope"})
