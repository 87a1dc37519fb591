"""Tests for presence profiles."""

import datetime as dt
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.behavior import (
    AlwaysOnProfile,
    OfficeWorkerProfile,
    PresenceProfile,
    ProfileKind,
    ResidentProfile,
    ScriptedProfile,
    Session,
    StudentProfile,
    VisitorProfile,
)
from repro.netsim.simtime import DAY, HOUR

WEEKDAY = dt.date(2021, 11, 3)  # a Wednesday
SATURDAY = dt.date(2021, 11, 6)


def rng(seed=0):
    return random.Random(seed)


class TestSession:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Session(10, 10)
        with pytest.raises(ValueError):
            Session(-1, 10)
        with pytest.raises(ValueError):
            Session(0, DAY + 1)

    def test_duration_and_contains(self):
        session = Session(HOUR, 3 * HOUR)
        assert session.duration == 2 * HOUR
        assert session.contains(HOUR)
        assert not session.contains(3 * HOUR)


def attendance_rate(profile, day, n=300, factor=1.0):
    present = sum(
        1 for i in range(n) if profile.sessions_for_day(day, rng(i), factor)
    )
    return present / n


class TestOfficeWorkerProfile:
    def test_weekday_attendance_high(self):
        assert attendance_rate(OfficeWorkerProfile(), WEEKDAY) > 0.7

    def test_weekend_attendance_low(self):
        assert attendance_rate(OfficeWorkerProfile(), SATURDAY) < 0.15

    def test_factor_suppresses_attendance(self):
        locked_down = attendance_rate(OfficeWorkerProfile(), WEEKDAY, factor=0.25)
        assert locked_down < 0.35

    def test_sessions_are_daytime(self):
        for i in range(100):
            for session in OfficeWorkerProfile().sessions_for_day(WEEKDAY, rng(i)):
                assert session.start >= 5 * HOUR
                assert session.end <= 22 * HOUR

    def test_sessions_are_ordered_and_disjoint(self):
        for i in range(100):
            sessions = OfficeWorkerProfile().sessions_for_day(WEEKDAY, rng(i))
            for a, b in zip(sessions, sessions[1:]):
                assert a.end <= b.start


class TestStudentProfile:
    def test_produces_one_to_three_sessions(self):
        for i in range(100):
            sessions = StudentProfile().sessions_for_day(WEEKDAY, rng(i))
            assert 0 <= len(sessions) <= 3

    def test_weekend_presence_possible_but_rarer(self):
        weekday = attendance_rate(StudentProfile(), WEEKDAY)
        weekend = attendance_rate(StudentProfile(), SATURDAY)
        assert weekend < weekday


class TestResidentProfile:
    def test_present_most_days(self):
        assert attendance_rate(ResidentProfile(), WEEKDAY) > 0.8

    def test_evening_and_morning_shape(self):
        sessions = ResidentProfile().sessions_for_day(WEEKDAY, rng(3))
        if sessions and len(sessions) >= 2:
            assert sessions[0].start == 0  # night tail into the morning
            assert sessions[-1].end == DAY  # evening through midnight

    def test_factor_above_one_raises_attendance(self):
        base = attendance_rate(ResidentProfile(attendance=0.7), WEEKDAY, factor=1.0)
        boosted = attendance_rate(ResidentProfile(attendance=0.7), WEEKDAY, factor=1.15)
        assert boosted >= base


class TestAlwaysOnProfile:
    def test_always_full_day(self):
        sessions = AlwaysOnProfile().sessions_for_day(WEEKDAY, rng())
        assert sessions == [Session(0, DAY)]

    @given(st.integers(min_value=0, max_value=10_000))
    def test_any_seed_any_day(self, seed):
        assert bool(AlwaysOnProfile().sessions_for_day(WEEKDAY, rng(seed)))


class TestVisitorProfile:
    def test_rare_and_short(self):
        assert attendance_rate(VisitorProfile(), WEEKDAY) < 0.4
        for i in range(200):
            for session in VisitorProfile().sessions_for_day(WEEKDAY, rng(i)):
                assert session.duration <= 2 * HOUR

    def test_never_on_weekends(self):
        assert attendance_rate(VisitorProfile(), SATURDAY) == 0.0


class TestScriptedProfile:
    def test_script_takes_precedence(self):
        profile = ScriptedProfile(lambda day: [Session(0, HOUR)])
        assert profile.sessions_for_day(WEEKDAY, rng()) == [Session(0, HOUR)]

    def test_none_falls_through_to_default(self):
        profile = ScriptedProfile(lambda day: None, default=AlwaysOnProfile())
        assert profile.sessions_for_day(WEEKDAY, rng()) == [Session(0, DAY)]

    def test_none_without_default_is_absent(self):
        profile = ScriptedProfile(lambda day: None)
        assert profile.sessions_for_day(WEEKDAY, rng()) == []

    def test_empty_list_means_absent(self):
        profile = ScriptedProfile(lambda day: [], default=AlwaysOnProfile())
        assert not bool(profile.sessions_for_day(WEEKDAY, rng()))


class TestFactory:
    def test_of_returns_defaults(self):
        assert isinstance(PresenceProfile.of(ProfileKind.STUDENT), StudentProfile)
        assert isinstance(PresenceProfile.of(ProfileKind.ALWAYS_ON), AlwaysOnProfile)

    def test_of_rejects_scripted(self):
        with pytest.raises(ValueError):
            PresenceProfile.of(ProfileKind.SCRIPTED)

    def test_determinism_same_rng_same_sessions(self):
        profile = StudentProfile()
        assert profile.sessions_for_day(WEEKDAY, rng(5)) == profile.sessions_for_day(WEEKDAY, rng(5))


class TestHybridWorkerProfile:
    def test_only_office_days(self):
        from repro.netsim.behavior import HybridWorkerProfile

        profile = HybridWorkerProfile(office_days=(1, 2, 3))
        monday, tuesday = dt.date(2021, 11, 1), dt.date(2021, 11, 2)
        assert attendance_rate(profile, monday) == 0.0
        assert attendance_rate(profile, tuesday) > 0.7

    def test_validation(self):
        from repro.netsim.behavior import HybridWorkerProfile

        with pytest.raises(ValueError):
            HybridWorkerProfile(office_days=())
        with pytest.raises(ValueError):
            HybridWorkerProfile(office_days=(9,))


class TestNightShiftProfile:
    def test_sessions_straddle_midnight(self):
        from repro.netsim.behavior import NightShiftProfile

        profile = NightShiftProfile()
        sessions = profile.sessions_for_day(WEEKDAY, rng(4))
        if sessions:
            assert sessions[0].start == 0
            assert sessions[0].end <= 8 * HOUR
            assert sessions[-1].end == DAY
            assert sessions[-1].start >= 20 * HOUR

    def test_present_at_night_absent_at_noon(self):
        from repro.netsim.behavior import NightShiftProfile

        profile = NightShiftProfile(attendance=1.0)
        sessions = profile.sessions_for_day(WEEKDAY, rng(1))
        assert any(s.contains(2 * HOUR) for s in sessions)
        assert not any(s.contains(12 * HOUR) for s in sessions)

    def test_weekends_off(self):
        from repro.netsim.behavior import NightShiftProfile

        assert attendance_rate(NightShiftProfile(), SATURDAY) == 0.0
