"""Load-dependent energy models and the battery / charging ledger.

Drone flight energy is linear in carried mass times leg distance, scaled by
the per-drone coefficient ``alpha_d`` (units per kg*km), so the result is
directly commensurable with the battery capacity ``B_d``.

Robot walking energy integrates a gait power model (watts) over leg travel
time (hours) and converts watt-hours into the same battery units through
``FleetSpec.robot_energy_scale``.  The default scale of 1000/11.1 units per
Wh treats one unit as one mAh of a 11.1 V pack; with the default parameters
an unloaded robot walking its full ``D_max_r`` range drains almost exactly
one battery, which keeps the range and energy constraints on the same axis.

Both formulas live in one kernel, :func:`leg_energy`, which reads only leg
distances and parcel weights.  The per-sortie functions check the vehicle
kind and look the legs up on the instance before they call it; the finder
calls it directly with the leg distances it already holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from .core import (
    DRONE,
    ROBOT,
    FleetSpec,
    Instance,
    InvalidEventError,
    KindMismatchError,
    Sortie,
)

KMH_TO_MS = 1.0 / 3.6

CAUSE_SORTIE = "sortie"
CAUSE_CHARGE = "charge"


@dataclass(frozen=True)
class ChargingEvent:
    """Energy transferred to a carried vehicle while its truck drives one leg.

    ``node`` is where the leg starts; ``duration`` is the leg travel time in
    hours and bounds the transferable amount via the kind's charging rate.
    """

    vehicle_kind: str
    vehicle_id: int
    truck_id: int
    node: int
    duration: float
    amount: float


@dataclass(frozen=True)
class LedgerEntry:
    time: float
    delta: float
    cause: str


@dataclass(frozen=True)
class BatteryLedger:
    """Chronological battery deltas for one vehicle, starting from full."""

    vehicle_kind: str
    vehicle_id: int
    capacity: float
    entries: Tuple[LedgerEntry, ...] = ()

    @property
    def level(self) -> float:
        return self.capacity + sum(e.delta for e in self.entries)

    def levels(self) -> list:
        """Running level after each entry."""
        out = []
        level = self.capacity
        for e in self.entries:
            level += e.delta
            out.append(level)
        return out

    def consume(self, time: float, amount: float) -> "BatteryLedger":
        """Record a sortie draw.  Feasibility (level >= 0) is the caller's check."""
        if amount < 0:
            raise InvalidEventError(f"negative consumption {amount}")
        entry = LedgerEntry(time=time, delta=-amount, cause=CAUSE_SORTIE)
        return replace(self, entries=self.entries + (entry,))


def new_ledger(vehicle_kind: str, vehicle_id: int, fleet: FleetSpec) -> BatteryLedger:
    return BatteryLedger(vehicle_kind, vehicle_id, fleet.battery(vehicle_kind))


def apply_charging(
    ledger: BatteryLedger, event: ChargingEvent, time: float = None
) -> Tuple[BatteryLedger, float]:
    """Append a charge entry clamped at capacity; returns (ledger, applied).

    The applied amount is ``min(event.amount, headroom)`` so the running
    level can never exceed capacity; callers that need to know how much was
    lost to the clamp compare against ``event.amount``.  ``time`` is the
    truck's departure from the leg's start node; it defaults to the time of
    the last ledger entry so successive applies stay chronological.
    """
    if event.duration < 0:
        raise InvalidEventError(f"negative charging duration {event.duration}")
    if event.amount < 0:
        raise InvalidEventError(f"negative charging amount {event.amount}")
    if event.duration == 0 and event.amount > 0:
        raise InvalidEventError("zero-duration event cannot transfer energy")
    applied = min(event.amount, max(0.0, ledger.capacity - ledger.level))
    if applied == 0.0:
        return ledger, 0.0
    if time is None:
        time = ledger.entries[-1].time if ledger.entries else 0.0
    entry = LedgerEntry(time=time, delta=applied, cause=CAUSE_CHARGE)
    return replace(ledger, entries=ledger.entries + (entry,)), applied


def charge_amount(duration: float, kind: str, fleet: FleetSpec) -> float:
    """Transferable energy for a carried leg: rate * duration."""
    if duration < 0:
        raise InvalidEventError(f"negative charging duration {duration}")
    return fleet.charge_rate(kind) * duration


def _leg_weights(weights):
    """Carried parcel mass at the start of each leg (last leg carries 0).

    Clamped at 0: after zero-weight parcels the running sum can be -1e-17.
    """
    carried = []
    remaining = sum(weights)
    carried.append(remaining)
    for w in weights[:-1]:
        remaining -= w
        carried.append(remaining if remaining > 0.0 else 0.0)
    carried.append(0.0)
    return carried


def robot_power(payload: float, fleet: FleetSpec) -> float:
    """Total walking power in watts for a given payload in kg.

    Mechanical power is k1 * (self weight + payload) * g * v scaled by the
    gait factor (1 + g / (2 * l_leg * v^2)) with v in m/s; electrical losses
    add a k2 fraction on top.
    """
    if payload < 0:
        raise InvalidEventError(f"negative payload {payload}")
    if fleet.s_r == 0:
        raise ZeroDivisionError("robot speed of zero makes the gait factor singular")
    v = fleet.s_r * KMH_TO_MS
    gait = 1.0 + fleet.g / (2.0 * fleet.l_leg * v * v)
    p_mech = fleet.k1 * (fleet.W_r + payload) * fleet.g * v * gait
    return (1.0 + fleet.k2) * p_mech


def leg_energy(kind: str, leg_dists, weights, fleet: FleetSpec) -> float:
    """Sortie energy from its leg distances: the one drone and robot formula.

    ``leg_dists`` are the launch -> customers -> recovery distances in the
    kind's metric; ``weights`` are the parcel masses in visiting order, one
    fewer than the legs.  Drone: alpha_d * sum of (self weight + carried
    mass) * leg km.  Robot: walking power at each leg's carried mass times
    leg hours, in battery units.  It looks nothing up and checks only the
    kind, so a caller that already holds the legs pays only the arithmetic.
    """
    carried = _leg_weights(weights)
    if kind == DRONE:
        total = 0.0
        for d, mass in zip(leg_dists, carried):
            total += (fleet.W_d + mass) * d
        return fleet.alpha_d * total
    if kind == ROBOT:
        wh = 0.0
        for d, mass in zip(leg_dists, carried):
            hours = d / fleet.s_r
            wh += robot_power(mass, fleet) * hours
        return wh * fleet.robot_energy_scale
    raise KindMismatchError(f"unknown vehicle kind {kind!r}")


def _checked_sortie_energy(sortie: Sortie, inst: Instance, fleet: FleetSpec) -> float:
    """:func:`leg_energy` over the sortie's legs, node ids checked by ``inst``."""
    kind = sortie.vehicle_kind
    weights = [inst.node(c).weight for c in sortie.sequence]
    dists = [inst.distance(kind, i, j) for i, j in sortie.legs()]
    return leg_energy(kind, dists, weights, fleet)


def drone_sortie_energy(sortie: Sortie, inst: Instance, fleet: FleetSpec) -> float:
    """Flight energy: alpha_d * sum of (self weight + carried mass) * leg km."""
    if sortie.vehicle_kind != DRONE:
        raise KindMismatchError(f"expected a drone sortie, got {sortie.vehicle_kind}")
    return _checked_sortie_energy(sortie, inst, fleet)


def robot_sortie_energy(sortie: Sortie, inst: Instance, fleet: FleetSpec) -> float:
    """Walking energy: power at each leg's payload times leg hours, in units."""
    if sortie.vehicle_kind != ROBOT:
        raise KindMismatchError(f"expected a robot sortie, got {sortie.vehicle_kind}")
    return _checked_sortie_energy(sortie, inst, fleet)


def sortie_energy(sortie: Sortie, inst: Instance, fleet: FleetSpec) -> float:
    """Energy of a plan sortie in its vehicle's formula, node ids checked."""
    if sortie.vehicle_kind == DRONE:
        return drone_sortie_energy(sortie, inst, fleet)
    return robot_sortie_energy(sortie, inst, fleet)
