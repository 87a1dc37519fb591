"""Calendars: holidays and COVID-19 phases.

The paper's case studies hinge on calendar structure: the Thanksgiving
weekend and Cyber Monday (Section 7.1, 2021-11-25), fall and Christmas
breaks, Carnaval (the February dip in Figure 10), and the COVID-19
lockdown phases that reshaped network occupancy (Figures 9 and 10,
with the March 2020 crossover).
"""

from __future__ import annotations

import datetime as dt
import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple


def thanksgiving(year: int) -> dt.date:
    """US Thanksgiving: the fourth Thursday of November.

    >>> thanksgiving(2021)
    datetime.date(2021, 11, 25)
    """
    november_first = dt.date(year, 11, 1)
    # weekday(): Monday=0 ... Thursday=3.
    first_thursday = november_first + dt.timedelta(days=(3 - november_first.weekday()) % 7)
    return first_thursday + dt.timedelta(days=21)


def cyber_monday(year: int) -> dt.date:
    """The Monday after Thanksgiving."""
    return thanksgiving(year) + dt.timedelta(days=4)


def carnaval_monday(year: int) -> dt.date:
    """Rosemonday (Carnaval), 48 days before Easter Sunday.

    The "local Catholic holiday" behind the late-February 2020 dip in
    the paper's Figure 10.
    """
    easter = _easter(year)
    return easter - dt.timedelta(days=48)


def _easter(year: int) -> dt.date:
    """Anonymous Gregorian algorithm for Easter Sunday."""
    a = year % 19
    b, c = divmod(year, 100)
    d, e = divmod(b, 4)
    f = (b + 8) // 25
    g = (b - f + 1) // 3
    h = (19 * a + b - d - g + 15) % 30
    i, k = divmod(c, 4)
    l = (32 + 2 * e + 2 * i - h - k) % 7
    m = (a + 11 * h + 22 * l) // 451
    month, day = divmod(h + l - 7 * m + 114, 31)
    return dt.date(year, month, day + 1)


class HolidayCalendar:
    """Institution-style holiday periods that suppress on-site presence.

    ``occupancy_factor(date)`` returns a multiplier in [0, 1] applied
    to the network's normal occupancy.  Defaults model a US/EU academic
    or office calendar: Christmas break, a fall break week,
    Thanksgiving weekend (US flavour) and Carnaval (NL flavour).
    """

    def __init__(
        self,
        *,
        observes_thanksgiving: bool = False,
        observes_carnaval: bool = False,
        fall_break: bool = True,
        christmas_break: bool = True,
        extra_closures: Sequence[Tuple[dt.date, dt.date, float]] = (),
    ):
        self.observes_thanksgiving = observes_thanksgiving
        self.observes_carnaval = observes_carnaval
        self.fall_break = fall_break
        self.christmas_break = christmas_break
        self.extra_closures = list(extra_closures)

    def __repr__(self) -> str:
        # Deterministic (no object ids): Internet.cache_token() folds
        # this into on-disk snapshot cache keys.
        closures = ",".join(
            f"{start.isoformat()}..{end.isoformat()}@{factor}"
            for start, end, factor in self.extra_closures
        )
        return (
            f"HolidayCalendar(thanksgiving={self.observes_thanksgiving}, "
            f"carnaval={self.observes_carnaval}, fall={self.fall_break}, "
            f"christmas={self.christmas_break}, extra=[{closures}])"
        )

    def occupancy_factor(self, day: dt.date) -> float:
        factor = 1.0
        if self.christmas_break and self._in_christmas_break(day):
            factor = min(factor, 0.35)
        if self.fall_break and self._in_fall_break(day):
            factor = min(factor, 0.55)
        if self.observes_thanksgiving and self._in_thanksgiving_weekend(day):
            factor = min(factor, 0.30)
        if self.observes_carnaval and self._in_carnaval_week(day):
            factor = min(factor, 0.60)
        for start, end, closure_factor in self.extra_closures:
            if start <= day <= end:
                factor = min(factor, closure_factor)
        return factor

    def _in_christmas_break(self, day: dt.date) -> bool:
        return (day.month == 12 and day.day >= 21) or (day.month == 1 and day.day <= 3)

    def _in_fall_break(self, day: dt.date) -> bool:
        # The last full week of October, as in the paper's Figure 10.
        return day.month == 10 and 24 <= day.day <= 31

    def _in_thanksgiving_weekend(self, day: dt.date) -> bool:
        start = thanksgiving(day.year)
        return start <= day <= start + dt.timedelta(days=3)

    def _in_carnaval_week(self, day: dt.date) -> bool:
        monday = carnaval_monday(day.year)
        return monday - dt.timedelta(days=2) <= day <= monday + dt.timedelta(days=2)


class CovidPhase(enum.Enum):
    """Campus-reported risk levels (the paper compares Academic-A's
    public COVID-19 news reports against rDNS entry counts)."""

    NORMAL = "normal"
    LOW_RISK = "low"
    MODERATE_RISK = "moderate"
    HIGH_RISK = "high"
    LOCKDOWN = "lockdown"


#: On-site presence multiplier per phase, for office/education space.
PHASE_ONSITE_FACTOR: Dict[CovidPhase, float] = {
    CovidPhase.NORMAL: 1.0,
    CovidPhase.LOW_RISK: 0.90,
    CovidPhase.MODERATE_RISK: 0.60,
    CovidPhase.HIGH_RISK: 0.40,
    CovidPhase.LOCKDOWN: 0.25,
}

#: Residential (on-campus housing) multiplier per phase: when education
#: buildings empty, students study from their campus residences, which
#: produces the March-2020 crossover of Figure 10.
PHASE_HOUSING_FACTOR: Dict[CovidPhase, float] = {
    CovidPhase.NORMAL: 1.0,
    CovidPhase.LOW_RISK: 1.0,
    CovidPhase.MODERATE_RISK: 1.05,
    CovidPhase.HIGH_RISK: 1.10,
    CovidPhase.LOCKDOWN: 1.15,
}


@dataclass(frozen=True)
class _PhaseSpan:
    start: dt.date
    phase: CovidPhase


class CovidTimeline:
    """A piecewise-constant phase timeline for one institution."""

    def __init__(self, spans: Sequence[Tuple[dt.date, CovidPhase]]):
        ordered = sorted(spans, key=lambda pair: pair[0])
        self._spans = [_PhaseSpan(start, phase) for start, phase in ordered]

    def __repr__(self) -> str:
        # Deterministic (no object ids): Internet.cache_token() folds
        # this into on-disk snapshot cache keys.
        spans = ",".join(
            f"{span.start.isoformat()}:{span.phase.name}" for span in self._spans
        )
        return f"CovidTimeline([{spans}])"

    def phase_on(self, day: dt.date) -> CovidPhase:
        current = CovidPhase.NORMAL
        for span in self._spans:
            if span.start <= day:
                current = span.phase
            else:
                break
        return current

    def onsite_factor(self, day: dt.date) -> float:
        return PHASE_ONSITE_FACTOR[self.phase_on(day)]

    def housing_factor(self, day: dt.date) -> float:
        return PHASE_HOUSING_FACTOR[self.phase_on(day)]

    @classmethod
    def none(cls) -> "CovidTimeline":
        """A timeline that stays NORMAL forever."""
        return cls([])

    @classmethod
    def typical_university(cls) -> "CovidTimeline":
        """Lockdown March 2020, cautious reopenings, normal by fall 2021.

        Mirrors the paper's Academic-B: "a marked reduction ... during
        the first period of COVID-19 lockdowns, after which the number
        goes back up to about 95% ... By September 2021, the level
        returns to that of before the pandemic."
        """
        return cls(
            [
                (dt.date(2020, 3, 16), CovidPhase.LOCKDOWN),
                (dt.date(2020, 7, 1), CovidPhase.HIGH_RISK),
                (dt.date(2020, 9, 1), CovidPhase.MODERATE_RISK),
                (dt.date(2020, 12, 15), CovidPhase.HIGH_RISK),
                (dt.date(2021, 2, 15), CovidPhase.MODERATE_RISK),
                (dt.date(2021, 6, 1), CovidPhase.LOW_RISK),
                (dt.date(2021, 9, 1), CovidPhase.NORMAL),
            ]
        )

    @classmethod
    def risk_reporting_campus(cls) -> "CovidTimeline":
        """A campus that oscillates with reported risk levels.

        Mirrors Academic-A: "for the times at which a moderate or high
        risk was reported ... sharp decreases in daily rDNS entries
        are visible", with rebounds after low-risk reports.
        """
        return cls(
            [
                (dt.date(2020, 3, 16), CovidPhase.LOCKDOWN),
                (dt.date(2020, 8, 15), CovidPhase.MODERATE_RISK),
                (dt.date(2020, 10, 1), CovidPhase.HIGH_RISK),
                (dt.date(2020, 11, 15), CovidPhase.MODERATE_RISK),
                (dt.date(2021, 1, 10), CovidPhase.HIGH_RISK),
                (dt.date(2021, 3, 1), CovidPhase.MODERATE_RISK),
                (dt.date(2021, 5, 1), CovidPhase.LOW_RISK),
                (dt.date(2021, 8, 20), CovidPhase.NORMAL),
            ]
        )

    @classmethod
    def late_lockdown_enterprise(cls) -> "CovidTimeline":
        """An enterprise hit by measures in March/April 2021.

        Mirrors Enterprise-B/C: "significant decreases in rDNS entries
        in March and April of 2021" with partial recovery around May.
        """
        return cls(
            [
                (dt.date(2020, 3, 16), CovidPhase.MODERATE_RISK),
                (dt.date(2020, 9, 1), CovidPhase.LOW_RISK),
                (dt.date(2021, 3, 1), CovidPhase.LOCKDOWN),
                (dt.date(2021, 5, 10), CovidPhase.HIGH_RISK),
                (dt.date(2021, 8, 1), CovidPhase.MODERATE_RISK),
            ]
        )
