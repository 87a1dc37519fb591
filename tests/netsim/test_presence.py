"""Device presence against the filter-then-test oracle.

:class:`~repro.netsim.device.DaySessions` decides presence without
building the list of joined sessions: it seeds a device's participation
stream only when an owner session covers the offset, and stops drawing
at the first joined session that does.  These properties pin that
shortcut to :func:`tests.oracles.reference_presence` for every profile
kind, at the offsets where it could go wrong: no offset, midnight, the
edges of each owner session and the last second of the day.
"""

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipam import CarryOverPolicy
from repro.netsim.behavior import PresenceProfile, ProfileKind, ScriptedProfile, Session
from repro.netsim.device import DaySessions, Device, DeviceNaming, model_by_key
from repro.netsim.network import Subnet, SubnetRole
from repro.netsim.rng import RngStreams
from repro.netsim.simtime import DAY, HOUR
from tests.oracles import reference_presence

START = dt.date(2021, 3, 1)
PARTICIPATION = (0.0, 0.37, 1.0)


def _script(day):
    """Three sessions on odd days, two of them back to back; the default
    profile on even days."""
    if day.toordinal() % 2:
        return [Session(0, 7 * HOUR), Session(7 * HOUR, 12 * HOUR), Session(20 * HOUR, DAY)]
    return None


def profile_for(kind):
    if kind is ProfileKind.SCRIPTED:
        return ScriptedProfile(_script, default=PresenceProfile.of(ProfileKind.STUDENT))
    return PresenceProfile.of(kind)


def owner_devices(kind, participations, owner="p0"):
    profile = profile_for(kind)
    return [
        Device(
            device_id=f"{owner}-d{index}",
            model=model_by_key("iphone"),
            naming=DeviceNaming.OWNER_POSSESSIVE,
            owner_name="emma",
            owner_id=owner,
            profile=profile,
            session_participation=participation,
        )
        for index, participation in enumerate(participations)
    ]


def edge_offsets(sessions):
    offsets = {None, 0, DAY - 1}
    for session in sessions:
        offsets.update((session.start, session.start - 1, session.end - 1, session.end))
    return sorted((o for o in offsets if o is None or 0 <= o < DAY), key=lambda o: -1 if o is None else o)


owners = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(list(ProfileKind)),
        "participations": st.lists(st.sampled_from(PARTICIPATION), min_size=1, max_size=4),
        "day_offset": st.integers(min_value=0, max_value=120),
        "factor": st.sampled_from((1.0, 0.4, 1.25)),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


@given(owners)
@settings(max_examples=150, deadline=None)
def test_presence_matches_oracle_at_every_edge(owner):
    devices = owner_devices(owner["kind"], owner["participations"])
    day = START + dt.timedelta(days=owner["day_offset"])
    rngs = RngStreams(owner["seed"])
    factor = owner["factor"]
    shared = DaySessions(day, rngs)
    offsets = edge_offsets(shared.owner_sessions(devices[0], factor))
    for device in devices:
        for offset in offsets:
            expected = reference_presence(device, day, offset, rngs, factor)
            if offset is None:
                assert device.is_present_on(day, rngs, factor) == expected
            else:
                assert device.is_present_at(day, offset, rngs, factor) == expected
            # The walk's memo, shared by the owner's devices, agrees too.
            assert shared.present(device, factor, offset) == expected


@given(owners, st.sampled_from((None, 0, 12 * HOUR, DAY - 1)))
@settings(max_examples=60, deadline=None)
def test_snapshot_walk_publishes_exactly_the_present_devices(owner, offset):
    devices = owner_devices(owner["kind"], owner["participations"])
    devices += owner_devices(owner["kind"], owner["participations"], owner="p1")
    subnet = Subnet(
        "10.0.0.0/24",
        SubnetRole.DYNAMIC_CLIENTS,
        devices=devices,
        policy=CarryOverPolicy("campus.example.edu"),
    )
    day = START + dt.timedelta(days=owner["day_offset"])
    rngs = RngStreams(owner["seed"])
    factor = owner["factor"]
    published = {address for address, _ in subnet.records_on(day, rngs, factor, at_offset=offset)}
    expected = {
        int(subnet.device_address(index))
        for index, device in enumerate(devices)
        if reference_presence(device, day, offset, rngs, factor)
    }
    assert published == expected
