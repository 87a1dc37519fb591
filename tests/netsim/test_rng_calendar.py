"""Tests for RNG streams and calendars."""

import datetime as dt

from repro.netsim.calendar import (
    CovidPhase,
    _easter,
    CovidTimeline,
    HolidayCalendar,
    carnaval_monday,
    cyber_monday,
    thanksgiving,
)
from repro.netsim.rng import RngStreams


class TestRngStreams:
    def test_same_key_same_stream_object(self):
        rngs = RngStreams(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_different_keys_independent(self):
        rngs = RngStreams(1)
        a = [rngs.stream("a").random() for _ in range(5)]
        b = [rngs.stream("b").random() for _ in range(5)]
        assert a != b

    def test_fresh_restarts_sequence(self):
        rngs = RngStreams(1)
        first = rngs.fresh("dev", 7).random()
        second = rngs.fresh("dev", 7).random()
        assert first == second

    def test_seed_changes_streams(self):
        assert RngStreams(1).fresh("x").random() != RngStreams(2).fresh("x").random()

    def test_reproducible_across_instances(self):
        assert RngStreams(9).fresh("k", 3).random() == RngStreams(9).fresh("k", 3).random()


class TestUsHolidays:
    def test_thanksgiving_2021_is_nov_25(self):
        # The paper: "In 2021, it fell on the 25th of November."
        assert thanksgiving(2021) == dt.date(2021, 11, 25)

    def test_thanksgiving_is_always_thursday(self):
        for year in range(2015, 2030):
            assert thanksgiving(year).weekday() == 3

    def test_black_friday_and_cyber_monday(self):
        assert cyber_monday(2021) == dt.date(2021, 11, 29)
        assert cyber_monday(2021).weekday() == 0

    def test_carnaval_2020_is_late_february(self):
        # The dip "towards the end of February 2020 that likely relates
        # to Carnaval celebrations" (Figure 10).
        monday = carnaval_monday(2020)
        assert monday == dt.date(2020, 2, 24)


class TestHolidayCalendar:
    def test_normal_weekday_full_occupancy(self):
        calendar = HolidayCalendar()
        assert calendar.occupancy_factor(dt.date(2021, 3, 3)) == 1.0

    def test_christmas_break_suppresses(self):
        calendar = HolidayCalendar()
        assert calendar.occupancy_factor(dt.date(2021, 12, 27)) < 0.5
        assert calendar.occupancy_factor(dt.date(2022, 1, 2)) < 0.5

    def test_fall_break_suppresses(self):
        calendar = HolidayCalendar()
        assert calendar.occupancy_factor(dt.date(2021, 10, 27)) < 1.0

    def test_thanksgiving_only_when_observed(self):
        us = HolidayCalendar(observes_thanksgiving=True)
        eu = HolidayCalendar(observes_thanksgiving=False)
        day = thanksgiving(2021)
        assert us.occupancy_factor(day) < 0.5
        assert eu.occupancy_factor(day) == 1.0

    def test_carnaval_only_when_observed(self):
        nl = HolidayCalendar(observes_carnaval=True, fall_break=False)
        day = carnaval_monday(2020)
        assert nl.occupancy_factor(day) < 1.0

    def test_extra_closures(self):
        calendar = HolidayCalendar(
            extra_closures=[(dt.date(2021, 6, 1), dt.date(2021, 6, 5), 0.1)]
        )
        assert calendar.occupancy_factor(dt.date(2021, 6, 3)) == 0.1
        assert calendar.occupancy_factor(dt.date(2021, 6, 6)) == 1.0


class TestCovidTimeline:
    def test_none_timeline_stays_normal(self):
        timeline = CovidTimeline.none()
        assert timeline.phase_on(dt.date(2020, 4, 1)) is CovidPhase.NORMAL
        assert timeline.onsite_factor(dt.date(2020, 4, 1)) == 1.0

    def test_phases_apply_from_start_date(self):
        timeline = CovidTimeline([(dt.date(2020, 3, 16), CovidPhase.LOCKDOWN)])
        assert timeline.phase_on(dt.date(2020, 3, 15)) is CovidPhase.NORMAL
        assert timeline.phase_on(dt.date(2020, 3, 16)) is CovidPhase.LOCKDOWN

    def test_university_timeline_recovers_by_fall_2021(self):
        timeline = CovidTimeline.typical_university()
        assert timeline.onsite_factor(dt.date(2020, 4, 1)) < 0.3
        assert timeline.onsite_factor(dt.date(2021, 10, 1)) == 1.0

    def test_housing_factor_rises_under_lockdown(self):
        # The Figure-10 crossover: education empties, housing fills.
        timeline = CovidTimeline.typical_university()
        day = dt.date(2020, 4, 1)
        assert timeline.housing_factor(day) > 1.0
        assert timeline.onsite_factor(day) < 1.0

    def test_enterprise_timeline_drops_in_march_2021(self):
        timeline = CovidTimeline.late_lockdown_enterprise()
        before = timeline.onsite_factor(dt.date(2021, 2, 15))
        during = timeline.onsite_factor(dt.date(2021, 3, 15))
        after = timeline.onsite_factor(dt.date(2021, 5, 20))
        assert during < before
        assert during < after  # partial recovery around May 2021

    def test_spans_sorted_regardless_of_input_order(self):
        timeline = CovidTimeline(
            [
                (dt.date(2021, 1, 1), CovidPhase.HIGH_RISK),
                (dt.date(2020, 1, 1), CovidPhase.LOW_RISK),
            ]
        )
        assert timeline.phase_on(dt.date(2020, 6, 1)) is CovidPhase.LOW_RISK
        assert timeline.phase_on(dt.date(2021, 6, 1)) is CovidPhase.HIGH_RISK


class TestCalendarEdgeYears:
    """Edge years where the date arithmetic is easiest to get wrong."""

    def test_easter_2038_hits_the_latest_possible_date(self):
        # 2038 sits at a lunar-cycle corner: the paschal full moon
        # lands as late as it can, pushing Easter to April 25 — the
        # latest date the Gregorian rules allow.
        assert _easter(2038) == dt.date(2038, 4, 25)

    def test_easter_earliest_possible_date(self):
        # The other extreme of the rule: March 22 (as in 1818).
        assert _easter(1818) == dt.date(1818, 3, 22)

    def test_easter_always_a_sunday_in_bounds(self):
        earliest = dt.date(2000, 3, 22)
        for year in range(2000, 2100):
            easter = _easter(year)
            assert easter.weekday() == 6, year
            assert dt.date(year, 3, 22) <= easter <= dt.date(year, 4, 25), year

    def test_thanksgiving_when_november_opens_on_thursday(self):
        # Nov 1, 2018 was a Thursday: it counts as the first Thursday,
        # so the fourth lands on the 22nd — the earliest possible.
        assert dt.date(2018, 11, 1).weekday() == 3
        assert thanksgiving(2018) == dt.date(2018, 11, 22)

    def test_thanksgiving_when_november_opens_on_friday(self):
        # Nov 1, 2019 was a Friday: the first Thursday slips to the
        # 7th, pushing Thanksgiving to the 28th — the latest possible.
        assert dt.date(2019, 11, 1).weekday() == 4
        assert thanksgiving(2019) == dt.date(2019, 11, 28)
        assert cyber_monday(2019) == dt.date(2019, 12, 2)

    def test_phase_on_before_first_span_is_normal(self):
        timeline = CovidTimeline.typical_university()
        day_before = dt.date(2020, 3, 15)
        assert timeline.phase_on(day_before) is CovidPhase.NORMAL
        assert timeline.onsite_factor(day_before) == 1.0
        assert timeline.housing_factor(day_before) == 1.0
        # Far before any span, even with an unsorted construction.
        timeline = CovidTimeline(
            [
                (dt.date(2021, 1, 1), CovidPhase.HIGH_RISK),
                (dt.date(2020, 3, 1), CovidPhase.LOCKDOWN),
            ]
        )
        assert timeline.phase_on(dt.date(2019, 12, 31)) is CovidPhase.NORMAL
