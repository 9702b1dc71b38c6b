"""Load-dependent energy models and the battery / charging ledger.

Drone flight energy is linear in carried mass times leg distance, scaled by
the per-drone coefficient ``alpha_d`` (units per kg*km), so the result is
directly commensurable with the battery capacity ``B_d``.

Robot walking energy integrates a gait power model (watts) over leg travel
time (hours) and converts watt-hours into the same battery units through
``FleetSpec.robot_energy_scale``.  The default scale of 1000/11.1 units per
Wh treats one unit as one mAh of a 11.1 V pack; with the default parameters
an unloaded robot walking its full ``D_max_r`` range drains almost exactly
one battery (15.04 km against 15 km), so for robots the range and energy
constraints sit on the same axis.  Drones do not: an empty default drone
covers B_d / (alpha_d * W_d) = 6.1 km on a full battery against a 20 km
``D_max_d``, so its battery, not its range cap, decides which sorties fly.

Both formulas live in one kernel, :func:`leg_energy`, which reads only leg
distances and parcel weights; the finder and the model's candidate list
(which exact search flies) call it with the leg distances they hold,
:func:`sortie_energy` with a plan sortie's.
Every leg of either formula costs at least the unloaded energy of its
length, so :func:`battery_range` turns a battery level into the farthest
distance any sortie of a kind can cover on it.

A battery starts full, drains at each launch and refills on the truck legs
it rides, clamped at capacity by :func:`charge_walk`, the one battery walk.
:func:`charge_legs` turns a vehicle's carried legs into the charging
events of that walk; the finder's :class:`vrpdr.schedule.Carriage` and
exact search both call it.  :func:`build_ledgers` gives a plan one ledger
per fleet vehicle from its declared draws and charging events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Tuple

from .core import (
    DRONE,
    FIT_TOL,
    ROBOT,
    FleetSpec,
    Instance,
    InvalidEventError,
    KindMismatchError,
    Plan,
    Sortie,
)

KMH_TO_MS = 1.0 / 3.6

CAUSE_SORTIE = "sortie"
CAUSE_CHARGE = "charge"
CHARGE_FLOOR = 1e-12  # a clamped amount at or below this is rounding, not charge


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

    def levels(self) -> list:
        """Running level after each entry."""
        return list(accumulate((e.delta for e in self.entries), initial=self.capacity))[1:]


def charge_walk(level: float, capacity: float, offers) -> Tuple[list, float]:
    """Charge consecutive carried legs; returns ([(leg, amount)], final level).

    Leg ``k`` adds ``min(offers[k], capacity - level)`` to the running level
    and is listed when that is above :data:`CHARGE_FLOOR` (a clamp can land
    one ulp short of capacity; the next leg's one-ulp top-up is dropped).
    """
    charged = []
    for k, offer in enumerate(offers):
        amount = min(offer, capacity - level)
        if amount > CHARGE_FLOOR:
            charged.append((k, amount))
            level += amount
    return charged, level


def charge_amount(duration: float, kind: str, fleet: FleetSpec) -> float:
    """Transferable energy for a carried leg: rate * duration."""
    if duration < 0:
        raise InvalidEventError(f"negative charging duration {duration}")
    return fleet.charge_rate(kind) * duration


def charge_legs(kind: str, vehicle_id: int, truck: int, level: float, fleet: FleetSpec, legs):
    """Charge one vehicle across a list of consecutive ``(start node, hours)``
    legs of ``truck``.

    Each leg offers :func:`charge_amount`; the leg out of the depot offers
    nothing.  Returns ``((ChargingEvent, ...), final level)``: one event per
    leg that the :func:`charge_walk` clamp from ``level`` lets charge.
    """
    offers = [charge_amount(hours, kind, fleet) if node else 0.0 for node, hours in legs]
    charged, level = charge_walk(level, fleet.battery(kind), offers)
    return tuple(ChargingEvent(kind, vehicle_id, truck, *legs[k], a) for k, a in charged), level


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


def battery_range(kind: str, level: float, fleet: FleetSpec) -> float:
    """The farthest distance any sortie of ``kind`` can cover on ``level`` units.

    Energy is ``a * sum((W + carried_i) * d_i)`` with every term >= 0, so a
    sortie costs at least ``per_km * distance``, where ``per_km`` is the
    :func:`leg_energy` of one unloaded km.  A sortie longer than the result
    draws more than ``level + FIT_TOL``; the relative ``FIT_TOL`` covers the
    rounding of the float sums.  ``inf`` when ``per_km`` is 0 (``W_d = 0``
    or ``k1 = 0``).
    """
    per_km = leg_energy(kind, (1.0,), (), fleet)
    if per_km == 0.0:
        return math.inf
    return (level + FIT_TOL) * (1.0 + FIT_TOL) / per_km


def sortie_energy(sortie: Sortie, inst: Instance, fleet: FleetSpec) -> float:
    """:func:`leg_energy` over a plan sortie's legs, node ids checked by ``inst``."""
    kind = sortie.vehicle_kind
    weights = [inst.node(c).weight for c in sortie.sequence]
    dists = [inst.distance(kind, i, j) for i, j in sortie.legs()]
    return leg_energy(kind, dists, weights, fleet)


def build_ledgers(plan: Plan, inst: Instance, fleet: FleetSpec) -> tuple:
    """One chronological ledger per fleet vehicle: drones, then robots, by id.

    A sortie draws at launch; a charge lands when the truck leaves the leg's
    start node (hour 0 at the depot); at equal times the draw comes first.
    An idle vehicle gets an empty ledger; vehicles outside the fleet are the
    caller's check.
    """
    rows = {(kind, v): [] for kind in (DRONE, ROBOT) for v in range(fleet.count(kind))}
    for s in plan.sorties:
        draw = LedgerEntry(s.launch_time, -sortie_energy(s, inst, fleet), CAUSE_SORTIE)
        rows[s.vehicle_kind, s.vehicle_id].append((0, draw))
    for e in plan.charging_events:
        when = plan.truck_arrivals[e.truck_id].get(e.node, 0.0) if e.node != 0 else 0.0
        rows[e.vehicle_kind, e.vehicle_id].append((1, LedgerEntry(when, e.amount, CAUSE_CHARGE)))
    ledgers = []
    for (kind, vid), timed in rows.items():
        timed.sort(key=lambda row: (row[1].time, row[0]))
        ledgers.append(BatteryLedger(kind, vid, fleet.battery(kind), tuple(e for _, e in timed)))
    return tuple(ledgers)
