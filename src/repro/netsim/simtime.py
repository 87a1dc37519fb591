"""Simulation time.

Timestamps are integer seconds since the simulation epoch
(2019-01-01 00:00, local time of the studied networks).  The study
period of the paper — 2019-10-01 through 2021-12-31 — fits comfortably.
Integer seconds keep event ordering exact and make the five-minute
truncation used to merge measurement data (Section 6.1) trivial.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

MINUTE = 60
HOUR = 3600
DAY = 86400
WEEK = 7 * DAY

EPOCH = dt.datetime(2019, 1, 1)

#: Timestamps are plain ints; the alias documents intent in signatures.
Timestamp = int


def from_datetime(moment: dt.datetime) -> int:
    return int((moment - EPOCH).total_seconds())


def from_date(day: dt.date) -> int:
    """The timestamp of midnight on ``day``."""
    return from_datetime(dt.datetime.combine(day, dt.time()))


def to_datetime(timestamp: int) -> dt.datetime:
    return EPOCH + dt.timedelta(seconds=timestamp)


def date_of(timestamp: int) -> dt.date:
    return to_datetime(timestamp).date()


def weekday(timestamp: int) -> int:
    """ISO weekday index, Monday=0 .. Sunday=6.

    >>> weekday(from_date(dt.date(2021, 11, 25)))  # Thanksgiving 2021
    3
    """
    return date_of(timestamp).weekday()


def is_weekend(timestamp: int) -> bool:
    return weekday(timestamp) >= 5


def hour_of_day(timestamp: int) -> int:
    return (timestamp % DAY) // HOUR


def days_between(start: dt.date, end: dt.date):
    """All dates in [start, end)."""
    day = start
    while day < end:
        yield day
        day += dt.timedelta(days=1)


@dataclass
class SimClock:
    """A mutable clock owned by the simulation engine."""

    now: int = 0

    def advance_to(self, timestamp: int) -> None:
        if timestamp < self.now:
            raise ValueError(f"time cannot move backwards ({timestamp} < {self.now})")
        self.now = timestamp

    @property
    def datetime(self) -> dt.datetime:
        return to_datetime(self.now)
