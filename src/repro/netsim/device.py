"""Devices and the names they leak.

A device's DHCP Host Name is where the privacy exposure starts: phone
and computer operating systems fill it with the device name, which by
default is formed "of the owner's name and make or model (e.g.,
Brian's iPhone)" (Section 5.2).  The model catalog covers the terms of
the paper's Figure 3 and the naming styles seen in the wild.
"""

from __future__ import annotations

import datetime as dt
import enum
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.netsim.behavior import PresenceProfile, ProfileKind, Session


class DeviceKind(enum.Enum):
    PHONE = "phone"
    TABLET = "tablet"
    LAPTOP = "laptop"
    DESKTOP = "desktop"
    STREAMER = "streamer"


@dataclass(frozen=True)
class DeviceModel:
    """One make/model with its default device-name rendering.

    ``possessive_pattern`` renders the OS-default device name given an
    owner's (capitalised) given name; ``standalone_name`` is the name
    when no owner personalisation happens.
    """

    key: str
    kind: DeviceKind
    possessive_pattern: str
    standalone_name: str
    #: Share of these devices whose DHCP client sends a Host Name at all.
    sends_host_name_rate: float = 0.9
    #: Share responding to ICMP echo when the network permits it.
    icmp_response_rate: float = 0.8

    def possessive_name(self, owner_name: str) -> str:
        return self.possessive_pattern.format(owner=owner_name.capitalize())


#: Catalogue keyed as in Figure 3; weights steer population sampling.
MODEL_CATALOG: List[Tuple[DeviceModel, float]] = [
    (DeviceModel("iphone", DeviceKind.PHONE, "{owner}'s iPhone", "iPhone"), 24.0),
    (DeviceModel("android", DeviceKind.PHONE, "{owner}s-Android", "android-device", icmp_response_rate=0.6), 12.0),
    (DeviceModel("galaxy-s10", DeviceKind.PHONE, "{owner}s-Galaxy-S10", "Galaxy-S10", icmp_response_rate=0.6), 6.0),
    (DeviceModel("galaxy-note9", DeviceKind.PHONE, "{owner}s-Galaxy-Note9", "Galaxy-Note9", icmp_response_rate=0.6), 3.0),
    (DeviceModel("phone", DeviceKind.PHONE, "{owner}s-Phone", "phone"), 6.0),
    (DeviceModel("ipad", DeviceKind.TABLET, "{owner}'s iPad", "iPad"), 8.0),
    (DeviceModel("air", DeviceKind.LAPTOP, "{owner}s-Air", "MacBook-Air"), 7.0),
    (DeviceModel("mbp", DeviceKind.LAPTOP, "{owner}s-MBP", "MacBook-Pro"), 8.0),
    (DeviceModel("macbook", DeviceKind.LAPTOP, "{owner}s-MacBook", "MacBook"), 4.0),
    (DeviceModel("dell", DeviceKind.LAPTOP, "{owner}s-Dell-Laptop", "DELL-LAPTOP"), 6.0),
    (DeviceModel("lenovo", DeviceKind.LAPTOP, "{owner}s-Lenovo", "LENOVO-PC"), 5.0),
    (DeviceModel("laptop", DeviceKind.LAPTOP, "{owner}s-Laptop", "LAPTOP"), 5.0),
    (DeviceModel("desktop", DeviceKind.DESKTOP, "{owner}s-Desktop", "DESKTOP-PC", icmp_response_rate=0.9), 4.0),
    (DeviceModel("chrome", DeviceKind.LAPTOP, "{owner}s-Chromebook", "chromebook"), 3.0),
    (DeviceModel("roku", DeviceKind.STREAMER, "Roku-{owner}", "Roku-Living-Room", sends_host_name_rate=0.95), 2.0),
]

_MODEL_BY_KEY = {model.key: model for model, _ in MODEL_CATALOG}


def model_by_key(key: str) -> DeviceModel:
    try:
        return _MODEL_BY_KEY[key]
    except KeyError as exc:
        raise KeyError(f"unknown device model {key!r}") from exc


_MODELS = [model for model, _ in MODEL_CATALOG]
#: Cumulative once: choices(weights=...) re-accumulates on every draw.
_MODEL_CUM_WEIGHTS = list(accumulate(weight for _, weight in MODEL_CATALOG))


def sample_model(rng: random.Random) -> DeviceModel:
    return rng.choices(_MODELS, cum_weights=_MODEL_CUM_WEIGHTS, k=1)[0]


class DeviceNaming(enum.Enum):
    """How the device name (hence the DHCP Host Name) is formed."""

    OWNER_POSSESSIVE = "owner_possessive"  # "Brian's iPhone"
    STANDALONE = "standalone"              # "Galaxy-S10"
    GENERIC = "generic"                    # "DESKTOP-4F2K9Q"
    NONE = "none"                          # no Host Name sent


@dataclass
class Device:
    """One client device."""

    device_id: str
    model: DeviceModel
    naming: DeviceNaming
    owner_name: Optional[str] = None
    owner_id: Optional[str] = None
    profile: PresenceProfile = field(default_factory=lambda: PresenceProfile.of(ProfileKind.OFFICE_WORKER))
    sends_release: bool = True
    icmp_responds: bool = True
    #: Probability of joining any given owner session (phones ~1.0,
    #: laptops lower: they stay in the bag some days).
    session_participation: float = 1.0
    generic_suffix: str = "0000"

    def host_name(self) -> Optional[str]:
        """The DHCP Host Name this device sends, or None."""
        if self.naming is DeviceNaming.NONE:
            return None
        if self.naming is DeviceNaming.OWNER_POSSESSIVE:
            if self.owner_name is None:
                return self.model.standalone_name
            return self.model.possessive_name(self.owner_name)
        if self.naming is DeviceNaming.STANDALONE:
            return self.model.standalone_name
        return f"DESKTOP-{self.generic_suffix.upper()}"

    def sessions_for_day(self, day: dt.date, rng_streams, factor: float = 1.0) -> List[Session]:
        """The device's sessions for one day, deterministically.

        Owner-level sessions are drawn from a stream keyed by the owner
        (so all of one person's devices share them); the device then
        participates in each with ``session_participation`` drawn from
        a device-keyed stream.
        """
        return DaySessions(day, rng_streams).sessions(self, factor)

    def is_present_on(self, day: dt.date, rng_streams, factor: float = 1.0) -> bool:
        return DaySessions(day, rng_streams).present(self, factor, None)

    def is_present_at(self, day: dt.date, offset: int, rng_streams, factor: float = 1.0) -> bool:
        """Presence at a specific second-of-day.

        This is what a point-in-time snapshot sweep (OpenINTEL queries
        each address once per day) actually observes.
        """
        return DaySessions(day, rng_streams).present(self, factor, offset)


class DaySessions:
    """One day's session draws, each owner's drawn once.

    Owner sessions are a pure function of (owner, day, factor,
    profile), so every device of one owner shares one draw.  The memo
    lives as long as this object: one network-day walk of the snapshot
    path, or one simulated day of the event-driven path.
    """

    def __init__(self, day: dt.date, rng_streams):
        self.day = day
        self.ordinal = day.toordinal()
        self.rng_streams = rng_streams
        self._owners: Dict[Tuple[str, float, int], List[Session]] = {}
        self._devices: Dict[Tuple[str, float], List[Session]] = {}

    def owner_sessions(self, device: Device, factor: float) -> List[Session]:
        """The sessions of ``device``'s owner, before participation."""
        owner_key = device.owner_id or device.device_id
        key = (owner_key, factor, id(device.profile))
        sessions = self._owners.get(key)
        if sessions is None:
            owner_rng = self.rng_streams.fresh("sessions", owner_key, self.ordinal)
            sessions = device.profile.sessions_for_day(self.day, owner_rng, factor)
            self._owners[key] = sessions
        return sessions

    def sessions(self, device: Device, factor: float) -> List[Session]:
        """The owner sessions ``device`` joins (memoised per device)."""
        key = (device.device_id, factor)
        sessions = self._devices.get(key)
        if sessions is None:
            sessions = self.owner_sessions(device, factor)
            if sessions and device.session_participation < 1.0:
                device_rng = self.rng_streams.fresh("participation", device.device_id, self.ordinal)
                sessions = [
                    s for s in sessions if device_rng.random() < device.session_participation
                ]
            self._devices[key] = sessions
        return sessions

    def present(self, device: Device, factor: float, offset: Optional[int]) -> bool:
        """Whether ``device`` joins a session covering ``offset``.

        ``offset=None`` asks for any session that day.  Equal to testing
        :meth:`sessions`, but the participation stream is seeded only
        when an owner session covers ``offset``, and its draws stop at
        the first joined session that does.
        """
        sessions = self.owner_sessions(device, factor)
        if offset is None:
            if not sessions:
                return False
        elif not any(s.start <= offset < s.end for s in sessions):
            return False
        participation = device.session_participation
        if participation >= 1.0:
            return True
        device_rng = self.rng_streams.fresh("participation", device.device_id, self.ordinal)
        for session in sessions:
            if device_rng.random() < participation and (
                offset is None or session.start <= offset < session.end
            ):
                return True
        return False
