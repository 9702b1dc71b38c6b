"""The plan objective, the truck timeline and the plan assembler that every
solver shares.

:func:`score` is the one objective: weighted operating cost plus makespan,
the maximum summed travel time over trucks, drones and robots.
:func:`arrival_times` is the one truck timeline, in which trucks wait for
the sorties they recover.  The finder, exact search, model substitution
and validator all read these two.  :func:`timed_plan` is the one plan
assembler: the finder and exact search both end with it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from .core import FleetSpec, Instance, ObjectiveBreakdown, Plan, sortie_distance, sortie_travel_time
from .energy import build_ledgers


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
        ledgers=build_ledgers(plan, inst, fleet),
        objective_breakdown=objective_value(plan, inst, fleet),
    )
