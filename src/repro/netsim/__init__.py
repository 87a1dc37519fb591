"""Discrete-event simulation of networks, people and devices.

This package is the substitute for the live Internet the paper
measures: populations of people with named devices join and leave
networks on realistic schedules (diurnal cycles, weekends, holidays,
COVID-19 phases), driving DHCP leases that an IPAM bridge mirrors into
reverse DNS.  Everything is seeded and deterministic.
"""

from repro.netsim.engine import SimulationEngine
from repro.netsim.simtime import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    SimClock,
    from_datetime,
    to_datetime,
)
from repro.netsim.rng import RngStreams
from repro.netsim.calendar import (
    CovidPhase,
    CovidTimeline,
    HolidayCalendar,
    cyber_monday,
    thanksgiving,
)
from repro.netsim.device import Device, DeviceModel, DeviceNaming, MODEL_CATALOG
from repro.netsim.person import Person, PersonGenerator
from repro.netsim.behavior import PresenceProfile, ProfileKind, Session
from repro.netsim.network import (
    IcmpPolicy,
    Network,
    NetworkType,
    Subnet,
    SubnetRole,
)
from repro.netsim.internet import Internet
from repro.netsim.faults import (
    FAULT_PROFILES,
    FaultPlan,
    NetworkFaultProfile,
    OutageWindow,
    plan_from_profile,
)
from repro.netsim.worldplan import (
    LazyPlanInternet,
    PlanError,
    WorldPlan,
    synthetic_plan,
)

__all__ = [
    "CovidPhase",
    "CovidTimeline",
    "DAY",
    "Device",
    "DeviceModel",
    "DeviceNaming",
    "FAULT_PROFILES",
    "FaultPlan",
    "HOUR",
    "HolidayCalendar",
    "IcmpPolicy",
    "Internet",
    "LazyPlanInternet",
    "MINUTE",
    "MODEL_CATALOG",
    "Network",
    "NetworkFaultProfile",
    "NetworkType",
    "OutageWindow",
    "Person",
    "PlanError",
    "PersonGenerator",
    "PresenceProfile",
    "ProfileKind",
    "RngStreams",
    "Session",
    "SimClock",
    "SimulationEngine",
    "Subnet",
    "SubnetRole",
    "WEEK",
    "WorldPlan",
    "cyber_monday",
    "from_datetime",
    "plan_from_profile",
    "synthetic_plan",
    "thanksgiving",
    "to_datetime",
]
