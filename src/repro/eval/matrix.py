"""The countermeasure evaluation matrix: policy × world × faults.

The paper's mitigation discussion (Section 8) asks what an outside
observer can still learn once a network changes its DNS-update
practice.  A :class:`MatrixSpec` turns that question into a sweep:
every combination of an IPAM policy (:data:`repro.ipam.policy.POLICY_NAMES`),
a world plan (:mod:`repro.netsim.worldplan`) and a fault profile
(:data:`repro.netsim.faults.FAULT_PROFILES`) is one *cell*, and each
cell runs the full collection + supplemental-campaign pipeline before
being scored on privacy exposure versus operational utility
(:mod:`repro.eval.scoring`).

Cell identity is load-bearing: the cell's plan is the base world plan
with ``update_policy`` stamped on every eligible entry
(:meth:`~repro.netsim.worldplan.WorldPlan.with_update_policy`), so two
cells that differ in policy differ in plan fingerprint — and therefore
in every snapshot/campaign cache key.  The fault profile is folded
into both cache keys as well (the campaign via the fault plan's own
token, the snapshot side via the collector's ``fault_token`` salt), so
**no two matrix cells can ever share a cache entry**.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dynamicity import DynamicityThresholds
from repro.ipam.policy import POLICY_NAMES
from repro.netsim.faults import FAULT_PROFILES, FaultPlan, plan_from_profile
from repro.netsim.worldplan import PlanError, WorldPlan, synthetic_plan


@dataclass(frozen=True)
class MatrixCell:
    """One (world, policy, faults) combination, in sweep order."""

    index: int
    world: str
    policy: str
    faults: str

    @property
    def cell_id(self) -> str:
        return f"{self.world}/{self.policy}/{self.faults}"


@dataclass
class MatrixSpec:
    """The full sweep definition: axes, windows and scoring knobs.

    ``worlds`` maps a short label to a *base* plan (no ``update_policy``
    entries); :meth:`plan_for` stamps the cell's policy onto a copy.
    Axis order is deterministic — worlds in insertion order, policies
    and fault profiles as given — and :meth:`cells` enumerates
    world-major, then policy, then faults, which is also the order the
    runner reports results in.
    """

    worlds: Dict[str, WorldPlan]
    policies: Sequence[str] = POLICY_NAMES
    faults: Sequence[str] = ("none",)
    dynamicity_start: dt.date = dt.date(2021, 1, 1)
    dynamicity_end: dt.date = dt.date(2021, 1, 22)
    supplemental_start: dt.date = dt.date(2021, 11, 1)
    supplemental_end: dt.date = dt.date(2021, 11, 4)
    #: How many trailing collected days feed the given-name matcher.
    leak_sample_days: int = 7
    dynamicity_thresholds: DynamicityThresholds = field(
        default_factory=DynamicityThresholds
    )
    #: A device label is "trackable" once seen on this many distinct days.
    track_min_days: int = 2
    #: Normalisers for the exposure composite (how many leaked names /
    #: dynamic prefixes / trackable devices count as fully exposed).
    identity_norm: int = 6
    dynamics_norm: int = 4

    def validate(self) -> "MatrixSpec":
        if not self.worlds:
            raise PlanError("matrix needs at least one world plan")
        if not self.policies:
            raise PlanError("matrix needs at least one policy")
        if not self.faults:
            raise PlanError("matrix needs at least one fault profile")
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise PlanError(
                    f"unknown policy {policy!r} (want one of {POLICY_NAMES})"
                )
        for profile in self.faults:
            if profile not in FAULT_PROFILES:
                raise PlanError(
                    f"unknown fault profile {profile!r}"
                    f" (want one of {FAULT_PROFILES})"
                )
        for label, plan in self.worlds.items():
            plan.validate()
            if not plan.supplemental_names:
                raise PlanError(
                    f"world {label!r} has no supplemental networks — the "
                    "matrix cannot run its measurement campaign"
                )
        return self

    def cells(self) -> List[MatrixCell]:
        """Every cell, world-major then policy then faults."""
        cells: List[MatrixCell] = []
        for world in self.worlds:
            for policy in self.policies:
                for profile in self.faults:
                    cells.append(
                        MatrixCell(len(cells), world, policy, profile)
                    )
        return cells

    def plan_for(self, cell: MatrixCell) -> WorldPlan:
        """The cell's plan: the base world with the cell's policy stamped."""
        return self.worlds[cell.world].with_update_policy(cell.policy)

    def fault_plan_for(self, cell: MatrixCell) -> Optional[FaultPlan]:
        """The cell's fault plan (``None`` for the clean profile): the matrix axis decides."""
        if cell.faults == "none":
            return None
        base = self.worlds[cell.world]
        return plan_from_profile(cell.faults, seed=base.seed)

    def axes_payload(self) -> Dict[str, object]:
        return {
            "worlds": {
                label: plan.fingerprint() for label, plan in self.worlds.items()
            },
            "policies": list(self.policies),
            "faults": list(self.faults),
        }


# -- stock worlds -----------------------------------------------------------


def campus_plan(seed: int = 7, *, people: int = 60) -> WorldPlan:
    """A single-campus world whose only records are policy-driven.

    One academic /16 with a dynamic-clients education /24 and nothing
    else — no server or infrastructure subnets — so every published
    record traces back to the DNS-update policy under evaluation.
    Under ``no-update`` the zone is genuinely empty, which is what
    keeps the four ablation verdicts crisp (static-template and
    no-update must show *zero* observable dynamics).
    """
    entries = [
        {
            "kind": "academic",
            "name": "campus",
            "prefix": "10.0.0.0/16",
            "suffix": "campus.ablation.edu",
            "education_prefix": "10.0.10.0/24",
            "staff": people // 2,
            "students": people - people // 2,
            "residents": 0,
            "supplemental": True,
        }
    ]
    return WorldPlan(seed, entries).validate()


def ablation_plan(seed: int = 99) -> WorldPlan:
    """The ported ablation-benchmark world (one 60-person campus)."""
    return campus_plan(seed, people=60)


def default_worlds(seed: int = 0, *, slash16s: int = 4, people: int = 12) -> Dict[str, WorldPlan]:
    """The stock world axis: a bespoke campus + a synthetic multi-/16.

    ``campus`` isolates the policy signal (every record is
    policy-driven); ``multi16`` exercises the sweep at plan scale —
    mixed network kinds, delegated child zones, RFC 2317 subnets and
    background space whose dynamics are *not* policy-coupled.
    """
    return {
        "campus": campus_plan(seed + 7),
        "multi16": synthetic_plan(seed, slash16s=slash16s, people=people),
    }


def quick_spec(
    seed: int = 0,
    *,
    worlds: Optional[Dict[str, WorldPlan]] = None,
    policies: Sequence[str] = POLICY_NAMES,
    faults: Sequence[str] = ("none", "mild"),
) -> MatrixSpec:
    """A small matrix over short windows (tests, CI smoke)."""
    return MatrixSpec(
        worlds=worlds if worlds is not None else default_worlds(seed),
        policies=tuple(policies),
        faults=tuple(faults),
    ).validate()


def spec_with_windows(
    spec: MatrixSpec,
    *,
    dynamicity: Optional[Tuple[dt.date, dt.date]] = None,
    supplemental: Optional[Tuple[dt.date, dt.date]] = None,
) -> MatrixSpec:
    """A copy of ``spec`` with different measurement windows."""
    changes = {}
    if dynamicity is not None:
        changes["dynamicity_start"], changes["dynamicity_end"] = dynamicity
    if supplemental is not None:
        changes["supplemental_start"], changes["supplemental_end"] = supplemental
    return replace(spec, **changes)
