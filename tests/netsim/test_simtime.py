"""Tests for simulation time helpers."""

import datetime as dt

import pytest

from repro.netsim.simtime import (
    DAY,
    HOUR,
    MINUTE,
    SimClock,
    date_of,
    days_between,
    from_date,
    from_datetime,
    hour_of_day,
    is_weekend,
    to_datetime,
    weekday,
)
from tests.oracles import truncate


def ts(*moment):
    return from_datetime(dt.datetime(*moment))


class TestConversions:
    def test_epoch_is_zero(self):
        assert ts(2019, 1, 1) == 0

    def test_day_arithmetic(self):
        assert ts(2019, 1, 2) == DAY
        assert ts(2019, 1, 1, 1) == HOUR
        assert ts(2019, 1, 1, 0, 1) == MINUTE

    def test_roundtrip(self):
        moment = dt.datetime(2021, 11, 25, 14, 30)
        assert to_datetime(from_datetime(moment)) == moment

    def test_date_of(self):
        assert date_of(ts(2021, 11, 25, 23, 59)) == dt.date(2021, 11, 25)

    def test_from_date(self):
        assert from_date(dt.date(2019, 1, 2)) == DAY

    def test_start_of_day(self):
        assert from_date(date_of(ts(2021, 3, 5, 17, 12))) == ts(2021, 3, 5)


class TestTruncation:
    def test_five_minute_truncation(self):
        assert truncate(ts(2021, 11, 1, 10, 7), 5 * MINUTE) == ts(2021, 11, 1, 10, 5)

    def test_exact_boundary_unchanged(self):
        assert truncate(ts(2021, 11, 1, 10, 5), 5 * MINUTE) == ts(2021, 11, 1, 10, 5)

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            truncate(0, 0)


class TestCalendarHelpers:
    def test_weekday(self):
        assert weekday(ts(2021, 11, 25)) == 3  # Thanksgiving 2021: Thursday

    def test_weekend_detection(self):
        assert is_weekend(ts(2021, 11, 27))  # Saturday
        assert not is_weekend(ts(2021, 11, 26))  # Friday

    def test_hour_of_day(self):
        assert hour_of_day(ts(2021, 6, 1, 13, 59)) == 13

    def test_days_between(self):
        days = list(days_between(dt.date(2021, 1, 1), dt.date(2021, 1, 4)))
        assert days == [dt.date(2021, 1, 1), dt.date(2021, 1, 2), dt.date(2021, 1, 3)]


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance_to(100)
        assert clock.now == 100

    def test_no_time_travel(self):
        clock = SimClock(100)
        with pytest.raises(ValueError):
            clock.advance_to(99)

    def test_datetime_property(self):
        assert SimClock(ts(2020, 5, 1)).datetime == dt.datetime(2020, 5, 1)
