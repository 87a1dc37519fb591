"""People: device owners with given names.

The generator draws given names from the SSA-style popularity
distribution (:mod:`repro.datasets.names`) so the simulated PTR space
reproduces the decreasing-count shape of the paper's Figure 2, and
mixes in non-top-50 names that the analysis must not match.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, Optional

from repro.datasets.names import OTHER_GIVEN_NAMES, name_popularity_weights
from repro.netsim.behavior import PresenceProfile, ProfileKind
from repro.netsim.device import (
    Device,
    DeviceKind,
    DeviceNaming,
    sample_model,
)


@dataclass
class Person:
    """A device owner."""

    person_id: str
    given_name: str
    profile: PresenceProfile
    devices: List[Device] = field(default_factory=list)


class PersonGenerator:
    """Builds people and their device fleets, deterministically."""

    def __init__(
        self,
        rng: random.Random,
        *,
        top50_share: float = 0.55,
        possessive_naming_rate: float = 0.55,
        no_host_name_rate: float = 0.08,
        release_rate: float = 0.8,
    ):
        if not 0 <= top50_share <= 1:
            raise ValueError("top50_share must be in [0, 1]")
        self.rng = rng
        self.top50_share = top50_share
        self.possessive_naming_rate = possessive_naming_rate
        self.no_host_name_rate = no_host_name_rate
        self.release_rate = release_rate
        weights = name_popularity_weights()
        self._top_names = list(weights)
        self._top_cum_weights = list(accumulate(weights[name] for name in self._top_names))

    def draw_name(self) -> str:
        if self.rng.random() < self.top50_share:
            return self.rng.choices(self._top_names, cum_weights=self._top_cum_weights, k=1)[0]
        return self.rng.choice(OTHER_GIVEN_NAMES)

    def draw_naming(self) -> DeviceNaming:
        roll = self.rng.random()
        if roll < self.no_host_name_rate:
            return DeviceNaming.NONE
        roll = self.rng.random()
        if roll < self.possessive_naming_rate:
            return DeviceNaming.OWNER_POSSESSIVE
        if roll < self.possessive_naming_rate + 0.3:
            return DeviceNaming.STANDALONE
        return DeviceNaming.GENERIC

    def make_person(
        self,
        person_id: str,
        *,
        profile_kind: ProfileKind = ProfileKind.OFFICE_WORKER,
        device_count: Optional[int] = None,
    ) -> Person:
        """One person with 1-3 devices (phone almost always present)."""
        profile = PresenceProfile.of(profile_kind)
        person = Person(person_id, self.draw_name(), profile)
        if device_count is None:
            # Weights 5:4:1, passed cumulative so choices() skips re-summing them.
            device_count = self.rng.choices((1, 2, 3), cum_weights=(5, 9, 10), k=1)[0]
        for index in range(device_count):
            person.devices.append(self._make_device(person, index))
        return person

    def _make_device(self, person: Person, index: int) -> Device:
        model = sample_model(self.rng)
        naming = self.draw_naming()
        if self.rng.random() >= model.sends_host_name_rate:
            naming = DeviceNaming.NONE
        participation = 1.0 if model.kind is DeviceKind.PHONE else self.rng.uniform(0.5, 0.9)
        return Device(
            device_id=f"{person.person_id}-d{index}",
            model=model,
            naming=naming,
            owner_name=person.given_name,
            owner_id=person.person_id,
            profile=person.profile,
            sends_release=self.rng.random() < self.release_rate,
            icmp_responds=self.rng.random() < model.icmp_response_rate,
            session_participation=participation,
            generic_suffix=f"{self.rng.randrange(16**6):06x}",
        )

    def make_population(
        self,
        count: int,
        *,
        id_prefix: str = "p",
        profile_kind: ProfileKind = ProfileKind.OFFICE_WORKER,
    ) -> List[Person]:
        return [
            self.make_person(f"{id_prefix}{index}", profile_kind=profile_kind)
            for index in range(count)
        ]
