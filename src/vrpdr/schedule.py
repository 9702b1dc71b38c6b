"""The plan objective, the truck timeline, the per-vehicle walk and the plan
assembler that every solver shares.

:func:`score` is the one objective: weighted operating cost plus makespan,
the maximum summed travel time over trucks, drones and robots.
:func:`arrival_times` is the one truck timeline, in which trucks wait for
the sorties they recover.  The finder, exact search, model substitution
and validator all read these two.  A :class:`Carriage` is one drone or
robot as the trucks carry it, and :func:`walk` takes each vehicle through
its sorties in launch order, naming why a sortie cannot fly; the finder
assigns sorties through the carriages and replays them with the walk.
:func:`timed_plan` is the one plan assembler: the finder and exact search
both end with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from . import energy as energy_mod
from .core import (
    DRONE,
    FIT_TOL,
    ROBOT,
    TIME_TOL,
    FleetSpec,
    Instance,
    ObjectiveBreakdown,
    Plan,
    sortie_distance,
    sortie_travel_time,
)

# why walk() keeps a sortie on the ground
NOT_ABOARD = "not aboard"          # the launch truck does not carry it at the launch stop
NOT_BACK = "not back yet"          # carried there, but its last recovery is after the launch
LATE = "late"                      # the recovery truck has left, or never comes
SAME_STOP = "same-stop cyclic"     # launched and recovered at one customer
BATTERY_SHORT = "battery short"    # draws more than the charged battery holds


def score(route_rows, sortie_rows, fleet: FleetSpec) -> ObjectiveBreakdown:
    """Objective from ``(km, leaves_depot)`` per truck route and
    ``(kind, vehicle_id, km)`` per sortie, in plan order.

    A truck that leaves the depot pays its fixed cost.  Waiting is not
    counted: the makespan is travel time only.
    """
    variable_cost = 0.0
    fixed_cost = 0.0
    truck_times = []
    for km, leaves_depot in route_rows:
        variable_cost += fleet.C_t * km
        truck_times.append(km / fleet.s_t)
        if leaves_depot:
            fixed_cost += fleet.f_t
    vehicle_time: Dict[Tuple[str, int], float] = {}
    for kind, vehicle_id, km in sortie_rows:
        variable_cost += fleet.unit_cost(kind) * km
        fixed_cost += fleet.fixed_cost(kind)
        key = (kind, vehicle_id)
        vehicle_time[key] = vehicle_time.get(key, 0.0) + km / fleet.speed(kind)
    makespan = max(truck_times + list(vehicle_time.values()) + [0.0])
    weighted = fleet.alpha * (variable_cost + fixed_cost) + (1.0 - fleet.alpha) * makespan
    return ObjectiveBreakdown(
        variable_cost=variable_cost,
        fixed_cost=fixed_cost,
        makespan=makespan,
        weighted_objective=weighted,
    )


def objective_value(plan: Plan, inst: Instance, fleet: FleetSpec) -> ObjectiveBreakdown:
    """Score a plan: weighted cost plus makespan, mirroring the model objective."""
    route_rows = [(sum(inst.truck_legs(route)), len(route) > 2) for route in plan.truck_routes]
    sortie_rows = [(s.vehicle_kind, s.vehicle_id, sortie_distance(s, inst)) for s in plan.sorties]
    return score(route_rows, sortie_rows, fleet)


def arrival_times(routes, inst: Instance, fleet: FleetSpec, sorties=()) -> list:
    """``arrivals[t][p]``: the hour truck ``t`` reaches ``routes[t][p]``.

    Position 0 is the depot departure at hour 0.  A truck holds at a stop,
    the depot included, until every sortie it recovers there is back; a
    launch is read from these same arrivals.  Cross-truck recoveries couple
    the trucks, so they are replayed in turn until nothing moves, for at
    most ``max(2, len(sorties) + 2)`` rounds; a launch not yet replayed, or
    off its truck's route, starts at the sortie's declared ``launch_time``.
    """
    legs = [[km / fleet.s_t for km in inst.truck_legs(route)] for route in routes]
    arrivals = [[0.0] + [None] * (len(route) - 1) for route in routes]
    # (recovery truck, position) -> (launch truck, position, flight hours, declared launch)
    recovered: Dict[tuple, list] = {}
    position = [{node: p for p, node in enumerate(route)} for route in routes]
    for s in sorties:
        q = position[s.recovery_truck].get(s.recovery_node)  # the depot maps to the return
        if q is None:
            continue
        p = 0 if s.launch_node == 0 else position[s.launch_truck].get(s.launch_node)
        row = (s.launch_truck, p, sortie_travel_time(s, inst, fleet), s.launch_time)
        recovered.setdefault((s.recovery_truck, q), []).append(row)
    for _ in range(max(2, len(sorties) + 2)):
        changed = False
        for t, row in enumerate(arrivals):
            clock = 0.0
            for p, leg in enumerate(legs[t], start=1):
                clock += leg
                for launch_truck, launch_pos, flight, declared in recovered.get((t, p), ()):
                    launch = None if launch_pos is None else arrivals[launch_truck][launch_pos]
                    clock = max(clock, (declared if launch is None else launch) + flight)
                if row[p] != clock:
                    row[p] = clock
                    changed = True
        if not (changed and sorties):
            break
    return arrivals


@dataclass
class Carriage:
    """One drone or robot as the trucks carry it: ``truck`` (None once a
    depot return retired it) carries it from stop ``pos`` on, ready at hour
    ``ready``; the legs before stop ``charged_upto`` have charged its
    ``level``, giving ``events``, and ``trips`` counts its sorties."""

    kind: str
    vehicle_id: int
    truck: Optional[int]
    level: float
    pos: int = 0
    ready: float = 0.0
    charged_upto: int = 0
    trips: int = 0
    events: list = field(default_factory=list)

    def aboard(self, truck: int, pos: int, hour: float) -> bool:
        """Can it launch from stop ``pos`` of ``truck`` at ``hour``?"""
        return self.truck == truck and self.pos <= pos and self.ready <= hour + TIME_TOL

    def charge(self, routes, arrivals, fleet: FleetSpec, upto: float, charging: bool) -> None:
        """Charge on the carried legs from the watermark to stop ``upto``, at
        most the route's end (in one call or in two, the same level and
        events); without ``charging`` only the watermark moves.  With no leg
        left or a full battery, too, only the watermark moves: each leg's
        clamped amount, ``min(offer, capacity - level)``, is then at most 0
        and never above ``CHARGE_FLOOR``, so :func:`vrpdr.energy.charge_legs`
        would give no event and the same level."""
        t = self.truck
        if t is None:
            return
        route, times = routes[t], arrivals[t]
        end = min(upto, len(route) - 1)
        start, stop = max(self.charged_upto, self.pos), end if charging else 0
        if stop <= start or self.level >= fleet.battery(self.kind):
            self.charged_upto = max(self.charged_upto, end)
            return
        legs = [(route[p], times[p + 1] - times[p]) for p in range(start, stop)]
        events, self.level = energy_mod.charge_legs(
            self.kind, self.vehicle_id, t, self.level, fleet, legs
        )
        self.events += events
        self.charged_upto = max(self.charged_upto, end)

    def dock(self, arrivals, energy: float, truck: int, pos: int) -> None:
        """Fly a sortie that draws ``energy`` and lands at stop ``pos`` of
        ``truck``: the vehicle rides on from there, or retires at the depot
        return."""
        self.level -= energy
        self.trips += 1
        self.truck = None if pos == len(arrivals[truck]) - 1 else truck
        self.pos = self.charged_upto = pos
        self.ready = arrivals[truck][pos]


def carriages(fleet: FleetSpec) -> list:
    """Every drone, then every robot, by id: full, riding the truck it is
    numbered onto from the depot."""
    trucks = max(1, fleet.num_trucks)
    return [
        Carriage(kind, v, v % trucks, fleet.battery(kind))
        for kind in (DRONE, ROBOT)
        for v in range(fleet.count(kind))
    ]


def walk(routes, arrivals, sorties, inst: Instance, fleet: FleetSpec, charging, finish):
    """Take every drone and robot through its ``sorties`` in launch order.

    A sortie launches at its stop's hour in ``arrivals``; a depot launch is
    read at position 0, the departure, as in :func:`arrival_times`.
    Returns ``(steps, carried)``: one ``(index into sorties, launch hour,
    reason)`` per sortie in launch order, and the
    :func:`carriages` after the walk.  ``reason`` is None when the sortie
    flies, else the first of :data:`NOT_ABOARD`, :data:`NOT_BACK`,
    :data:`LATE`, :data:`SAME_STOP` and :data:`BATTERY_SHORT` that holds; a
    failed sortie leaves its vehicle as it was.  With ``finish`` and
    ``charging``, every vehicle still carried charges to its route's end.
    """
    position = [{node: p for p, node in enumerate(route)} for route in routes]
    carried = carriages(fleet)
    index = {(c.kind, c.vehicle_id): k for k, c in enumerate(carried)}

    def launch_pos(s):
        return 0 if s.launch_node == 0 else position[s.launch_truck].get(s.launch_node)

    def launch_hour(s):
        p = launch_pos(s)
        return 0.0 if p is None else arrivals[s.launch_truck][p]

    steps = []
    for i in sorted(range(len(sorties)), key=lambda i: (launch_hour(sorties[i]), i)):
        s, hour = sorties[i], launch_hour(sorties[i])
        k = index[s.vehicle_kind, s.vehicle_id]
        lp = launch_pos(s)
        rp = position[s.recovery_truck].get(s.recovery_node)  # the depot maps to the return
        if lp is None or not carried[k].aboard(s.launch_truck, lp, math.inf):
            reason = NOT_ABOARD
        elif not carried[k].aboard(s.launch_truck, lp, hour):
            reason = NOT_BACK
        elif rp is None or (
            hour + sortie_travel_time(s, inst, fleet) > arrivals[s.recovery_truck][rp] + TIME_TOL
        ):
            reason = LATE
        elif s.launch_node == s.recovery_node != 0:
            reason = SAME_STOP
        else:
            trial = replace(carried[k], events=list(carried[k].events))
            trial.charge(routes, arrivals, fleet, lp, charging)
            energy = energy_mod.sortie_energy(s, inst, fleet)
            if energy > trial.level + FIT_TOL:
                reason = BATTERY_SHORT
            else:
                trial.dock(arrivals, energy, s.recovery_truck, rp)
                carried[k], reason = trial, None
        steps.append((i, hour, reason))
    if finish and charging:
        for c in carried:
            c.charge(routes, arrivals, fleet, math.inf, True)
    return steps, carried


def timed_plan(routes, arrivals, sorties, events, inst: Instance, fleet: FleetSpec) -> Plan:
    """The finished plan: ``routes`` with their ``arrivals`` rows as one
    ``{node: hour}`` map per truck (the depot departure left out, so the
    depot maps to the return), the timed ``sorties`` and charging
    ``events``, one battery ledger per fleet vehicle and the objective."""
    plan = Plan(
        truck_routes=routes,
        sorties=sorties,
        truck_arrivals=[dict(zip(route[1:], times[1:])) for route, times in zip(routes, arrivals)],
        charging_events=events,
    )
    return replace(
        plan,
        ledgers=energy_mod.build_ledgers(plan, inst, fleet),
        objective_breakdown=objective_value(plan, inst, fleet),
    )
