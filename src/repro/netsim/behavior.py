"""Presence behaviour: when people (and their devices) are on a network.

Profiles generate per-day *sessions* — intervals during which a device
is connected.  They encode the structure the paper's analyses detect:
office workers produce weekday-daytime sessions (the diurnal cycle of
Figure 11), students mix short daytime sessions, campus residents are
present evenings and nights, and always-on hosts never leave.

All randomness flows through the ``rng`` argument so that the day-level
snapshot path and the event-driven path make identical decisions for
the same (entity, day).
"""

from __future__ import annotations

import abc
import datetime as dt
import enum
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.netsim.simtime import DAY, HOUR, MINUTE


@dataclass(frozen=True)
class Session:
    """One connected interval, as offsets in seconds within a day."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end <= DAY:
            raise ValueError(f"invalid session bounds [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def contains(self, offset: int) -> bool:
        return self.start <= offset < self.end


class ProfileKind(enum.Enum):
    OFFICE_WORKER = "office_worker"
    STUDENT = "student"
    RESIDENT = "resident"
    ALWAYS_ON = "always_on"
    VISITOR = "visitor"
    SCRIPTED = "scripted"


def _clamp(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


def _jittered(rng: random.Random, center: int, spread: int) -> int:
    return int(rng.gauss(center, spread))


class PresenceProfile(abc.ABC):
    """Generates the sessions of one entity for one day."""

    kind: ProfileKind

    @abc.abstractmethod
    def sessions_for_day(
        self, day: dt.date, rng: random.Random, factor: float = 1.0
    ) -> List[Session]:
        """The day's sessions; empty when absent.

        ``factor`` scales attendance (holiday/COVID suppression); a
        factor above 1 (campus housing under lockdown) raises it.
        """

    @staticmethod
    def of(kind: ProfileKind) -> "PresenceProfile":
        """The default profile instance for a kind."""
        profile = _DEFAULTS.get(kind)
        if profile is None:
            raise ValueError(f"no default profile for {kind}")
        return profile


class OfficeWorkerProfile(PresenceProfile):
    """Weekday office hours, roughly 08:30-17:30, rare weekend visits."""

    kind = ProfileKind.OFFICE_WORKER

    def __init__(self, *, weekday_attendance: float = 0.85, weekend_attendance: float = 0.04):
        self.weekday_attendance = weekday_attendance
        self.weekend_attendance = weekend_attendance

    def sessions_for_day(self, day, rng, factor=1.0):
        base = self.weekend_attendance if day.weekday() >= 5 else self.weekday_attendance
        if rng.random() >= base * factor:
            return []
        start = _clamp(_jittered(rng, int(8.5 * HOUR), 45 * MINUTE), 5 * HOUR, 12 * HOUR)
        end = _clamp(_jittered(rng, int(17.5 * HOUR), HOUR), start + HOUR, 22 * HOUR)
        if rng.random() < 0.25:
            # Off-site lunch splits the day into two sessions.
            lunch_start = _clamp(_jittered(rng, int(12.25 * HOUR), 20 * MINUTE), start + MINUTE, end - MINUTE)
            lunch_end = _clamp(lunch_start + _jittered(rng, 45 * MINUTE, 10 * MINUTE), lunch_start + MINUTE, end)
            if start < lunch_start and lunch_end < end:
                return [Session(start, lunch_start), Session(lunch_end, end)]
        return [Session(start, end)]


class StudentProfile(PresenceProfile):
    """One to three campus sessions between morning and late evening."""

    kind = ProfileKind.STUDENT

    def __init__(self, *, weekday_attendance: float = 0.78, weekend_attendance: float = 0.25):
        self.weekday_attendance = weekday_attendance
        self.weekend_attendance = weekend_attendance

    def sessions_for_day(self, day, rng, factor=1.0):
        base = self.weekend_attendance if day.weekday() >= 5 else self.weekday_attendance
        if rng.random() >= base * factor:
            return []
        count = rng.choice((1, 1, 2, 2, 3))
        sessions: List[Session] = []
        cursor = 8 * HOUR
        for _ in range(count):
            gap = int(rng.uniform(0, 2 * HOUR))
            start = cursor + gap
            duration = int(rng.uniform(30 * MINUTE, 4 * HOUR))
            end = min(start + duration, 23 * HOUR)
            if end - start >= 15 * MINUTE and start < 22 * HOUR:
                sessions.append(Session(start, end))
            cursor = end + 20 * MINUTE
            if cursor >= 21 * HOUR:
                break
        return sessions


class ResidentProfile(PresenceProfile):
    """Campus-housing or home-ISP resident: evenings, nights, mornings."""

    kind = ProfileKind.RESIDENT

    def __init__(
        self,
        *,
        attendance: float = 0.92,
        weekend_stay_home: float = 0.6,
        weekday_stay_home: float = 0.45,
    ):
        self.attendance = attendance
        self.weekend_stay_home = weekend_stay_home
        #: Residential space holds connected devices through the day:
        #: laptops, consoles and TVs left online while their owner is
        #: out.  This keeps housing PTR counts substantial at snapshot
        #: time even on weekdays (cf. Figure 10's housing baseline).
        self.weekday_stay_home = weekday_stay_home

    def sessions_for_day(self, day, rng, factor=1.0):
        if rng.random() >= min(self.attendance * factor, 1.0):
            return []
        # Staying connected through the day: devices left at home, and
        # under stay-at-home measures (factor above 1 signals lockdown
        # pressure on residential space) the owners themselves too —
        # the Figure-10 crossover.
        stay_home = self.weekend_stay_home if day.weekday() >= 5 else self.weekday_stay_home
        if factor > 1.0:
            stay_home = min(0.95, stay_home + (factor - 1.0) * 3.0)
        if rng.random() < stay_home:
            return [Session(0, DAY)]
        sessions = []
        # Morning tail of the night at home.
        morning_end = _clamp(_jittered(rng, int(8.25 * HOUR), 40 * MINUTE), 5 * HOUR, 11 * HOUR)
        sessions.append(Session(0, morning_end))
        # Back home in the evening until midnight.
        evening_start = _clamp(_jittered(rng, int(17.5 * HOUR), 80 * MINUTE), 12 * HOUR, 22 * HOUR)
        sessions.append(Session(evening_start, DAY))
        return sessions


class AlwaysOnProfile(PresenceProfile):
    """Infrastructure and media boxes (roku, printers): never leave."""

    kind = ProfileKind.ALWAYS_ON

    def sessions_for_day(self, day, rng, factor=1.0):
        return [Session(0, DAY)]


class VisitorProfile(PresenceProfile):
    """Occasional short visits (guest Wi-Fi, meeting rooms)."""

    kind = ProfileKind.VISITOR

    def __init__(self, *, attendance: float = 0.18):
        self.attendance = attendance

    def sessions_for_day(self, day, rng, factor=1.0):
        if day.weekday() >= 5:
            return []
        if rng.random() >= self.attendance * factor:
            return []
        start = int(rng.uniform(9 * HOUR, 16 * HOUR))
        duration = int(rng.uniform(20 * MINUTE, 2 * HOUR))
        return [Session(start, min(start + duration, 18 * HOUR))]


class HybridWorkerProfile(PresenceProfile):
    """Post-pandemic hybrid work: office on fixed weekdays only.

    ``office_days`` are ISO weekday indexes (Monday=0).  The default —
    Tuesday through Thursday — is the pattern that emerged as
    restrictions eased, and is what a post-2021 continuation of the
    paper's Figure 9 would observe: a three-day weekly plateau instead
    of five.
    """

    kind = ProfileKind.OFFICE_WORKER

    def __init__(
        self,
        *,
        office_days: tuple = (1, 2, 3),
        attendance: float = 0.9,
    ):
        if not office_days or any(not 0 <= d <= 6 for d in office_days):
            raise ValueError("office_days must be ISO weekday indexes (0-6)")
        self.office_days = frozenset(office_days)
        self.attendance = attendance
        self._office = OfficeWorkerProfile(weekday_attendance=attendance)

    def sessions_for_day(self, day, rng, factor=1.0):
        if day.weekday() not in self.office_days:
            return []
        return self._office.sessions_for_day(day, rng, factor)


class NightShiftProfile(PresenceProfile):
    """Workers present overnight: roughly 22:00 to 06:00.

    A night session spans midnight, so it materialises as an evening
    session today plus a morning tail tomorrow — each day shows the
    two fragments, mirroring how the snapshot path would observe it.
    """

    kind = ProfileKind.OFFICE_WORKER

    def __init__(self, *, attendance: float = 0.85):
        self.attendance = attendance

    def sessions_for_day(self, day, rng, factor=1.0):
        if day.weekday() >= 5:
            return []
        if rng.random() >= self.attendance * factor:
            return []
        start = _clamp(_jittered(rng, 22 * HOUR, 30 * MINUTE), 20 * HOUR, 23 * HOUR)
        end = _clamp(_jittered(rng, 6 * HOUR, 30 * MINUTE), 4 * HOUR, 8 * HOUR)
        return [Session(0, end), Session(start, DAY)]


ScriptFunction = Callable[[dt.date], Optional[List[Session]]]


class ScriptedProfile(PresenceProfile):
    """Explicit, deterministic schedules for case-study personas.

    ``script(day)`` returns the sessions for that day, or ``None`` to
    fall through to the ``default`` profile.  The Life-of-Brian case
    study uses this to pin behaviours like "brians-mbp: a couple of
    hours around noon, every day" and the Cyber-Monday Galaxy Note 9
    appearance.
    """

    kind = ProfileKind.SCRIPTED

    def __init__(self, script: ScriptFunction, default: Optional[PresenceProfile] = None):
        self.script = script
        self.default = default

    def sessions_for_day(self, day, rng, factor=1.0):
        scripted = self.script(day)
        if scripted is not None:
            return list(scripted)
        if self.default is not None:
            return self.default.sessions_for_day(day, rng, factor)
        return []


_DEFAULTS = {
    ProfileKind.OFFICE_WORKER: OfficeWorkerProfile(),
    ProfileKind.STUDENT: StudentProfile(),
    ProfileKind.RESIDENT: ResidentProfile(),
    ProfileKind.ALWAYS_ON: AlwaysOnProfile(),
    ProfileKind.VISITOR: VisitorProfile(),
}
