"""Plan feasibility checking against every constraint family.

Violations carry the same family names that :mod:`vrpdr.milp` uses for its
constraint groups, so a failed check always points at the corresponding
model block.  Timing checks use a 1e-6 hour tolerance and energy checks a
1e-6 unit tolerance.  Battery levels are the running walk of the ledgers
:func:`vrpdr.energy.build_ledgers` derives from the plan, one per fleet
vehicle.  The report's two makespans come from
:mod:`vrpdr.schedule`: the model makespan is the objective's travel-time
maximum, and the simulated makespan replays the routes with trucks waiting
for their sorties.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List

from . import milp as milp_mod
from .core import (
    VEHICLE_KINDS,
    FleetSpec,
    Instance,
    ModelOptions,
    Plan,
    PlanStructureError,
    TIME_TOL,
    sortie_distance,
    sortie_travel_time,
)
from .energy import build_ledgers
from .schedule import arrival_times, objective_value

ENERGY_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    constraint_family: str
    detail: str
    involved: tuple = ()


@dataclass
class ValidationReport:
    feasible: bool
    violations: List[Violation]
    model_makespan: float
    simulated_makespan: float
    battery_ledgers: tuple

    def to_json(self) -> str:
        doc = {
            "feasible": self.feasible,
            "violations": [asdict(v) for v in self.violations],
            "model_makespan": self.model_makespan,
            "simulated_makespan": self.simulated_makespan,
            "battery_ledgers": [asdict(l) for l in self.battery_ledgers],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _quantity(value: float, what: str) -> None:
    """A time or charge must be a finite number >= 0; NaN fails every comparison."""
    if not (math.isfinite(value) and value >= 0):
        raise PlanStructureError(f"{what} is {value}; need a finite number >= 0")


def _structural_check(plan: Plan, inst: Instance, fleet: FleetSpec) -> None:
    if len(plan.truck_routes) != fleet.num_trucks:
        raise PlanStructureError(
            f"plan has {len(plan.truck_routes)} routes for {fleet.num_trucks} trucks"
        )
    if len(plan.truck_arrivals) != len(plan.truck_routes):
        raise PlanStructureError("plan needs one arrival map per truck route")
    n = len(inst.nodes)
    for route in plan.truck_routes:
        if len(route) < 2:
            raise PlanStructureError(f"route {route} is too short to start and end at the depot")
        for v in route:
            if not 0 <= v < n:
                raise PlanStructureError(f"route references unknown node {v}")
    for t, arrivals in enumerate(plan.truck_arrivals):
        for v, at in arrivals.items():
            if not 0 <= v < n:
                raise PlanStructureError(f"arrival map references unknown node {v}")
            _quantity(at, f"truck {t} arrival time at node {v}")
        for v in plan.truck_routes[t]:
            if v not in arrivals:
                raise PlanStructureError(f"truck {t} has no arrival time for node {v}")
    for s in plan.sorties:
        for v in (s.launch_node, s.recovery_node, *s.sequence):
            if not 0 <= v < n:
                raise PlanStructureError(f"sortie references unknown node {v}")
        if not 0 <= s.launch_truck < fleet.num_trucks or not 0 <= s.recovery_truck < fleet.num_trucks:
            raise PlanStructureError(f"sortie {s} references an unknown truck")
        if not 0 <= s.vehicle_id < fleet.count(s.vehicle_kind):
            raise PlanStructureError(
                f"sortie uses {s.vehicle_kind} {s.vehicle_id} but the fleet has "
                f"{fleet.count(s.vehicle_kind)}"
            )
        _quantity(s.launch_time, f"launch time of sortie {s.sequence}")
    for e in plan.charging_events:
        if e.vehicle_kind not in VEHICLE_KINDS:
            raise PlanStructureError(f"charging event has unknown vehicle kind {e.vehicle_kind!r}")
        if not 0 <= e.node < n:
            raise PlanStructureError(f"charging event references unknown node {e.node}")
        if not 0 <= e.truck_id < fleet.num_trucks:
            raise PlanStructureError(f"charging event references unknown truck {e.truck_id}")
        if not 0 <= e.vehicle_id < fleet.count(e.vehicle_kind):
            raise PlanStructureError(f"charging event references unknown {e.vehicle_kind}")
        _quantity(e.duration, f"charging duration at node {e.node}")
        _quantity(e.amount, f"charging amount at node {e.node}")
    # stored values are recomputed below, so a reader of the file would see
    # them unchecked; a sortie draw is negative, so a delta need only be finite
    if plan.objective_breakdown is not None:
        for name, value in asdict(plan.objective_breakdown).items():
            _quantity(value, f"objective {name}")
    for ledger in plan.ledgers:
        who = f"{ledger.vehicle_kind} {ledger.vehicle_id}"
        _quantity(ledger.capacity, f"ledger capacity of {who}")
        for entry in ledger.entries:
            _quantity(entry.time, f"ledger entry time of {who}")
            if not math.isfinite(entry.delta):
                raise PlanStructureError(
                    f"ledger entry delta of {who} is {entry.delta}; need a finite number"
                )


def validate(
    plan: Plan,
    inst: Instance,
    fleet: FleetSpec,
    options: ModelOptions = ModelOptions(),
) -> ValidationReport:
    """Check a plan against every family; returns one record per violation.

    A malformed plan (an unknown id, or a time or charge that is NaN,
    infinite or negative) raises :class:`PlanStructureError` instead.
    """
    _structural_check(plan, inst, fleet)
    violations: List[Violation] = []
    add = violations.append

    routes = plan.truck_routes
    arrivals = plan.truck_arrivals

    # visit exactly once
    counts: Dict[int, int] = {c.id: 0 for c in inst.customers}
    for route in routes:
        for v in route[1:-1]:
            if v != 0:
                counts[v] += 1
    for s in plan.sorties:
        for v in s.sequence:
            counts[v] += 1
    for c, k in counts.items():
        if k != 1:
            add(Violation(milp_mod.VISIT_ONCE, f"customer {c} served {k} times", (c,)))

    # depot start / end, single tour per truck
    for t, route in enumerate(routes):
        if route[0] != 0 or route[-1] != 0:
            add(Violation(milp_mod.DEPOT, f"truck {t} route does not start and end at depot", (t,)))
        if 0 in route[1:-1]:
            add(Violation(milp_mod.DEPOT, f"truck {t} revisits the depot mid-route", (t,)))
        if len(route) == 2:
            add(Violation(milp_mod.DEPOT, f"truck {t} never leaves the depot", (t,)))

    # (a, b, km) per truck leg: the arc, sequencing and charging checks read it
    legs = [list(zip(route[:-1], route[1:], inst.truck_legs(route))) for route in routes]

    # truck-unreachable arcs: an end the truck cannot reach, whatever the leg's length
    reachable = [nd.truck_reachable for nd in inst.nodes]
    for t, route_legs in enumerate(legs):
        for a, b, _ in route_legs:
            if a != b and not (reachable[a] and reachable[b]):
                add(
                    Violation(
                        milp_mod.UNREACHABLE,
                        f"truck {t} drives a truck-unreachable arc {a}->{b}",
                        (t, a, b),
                    )
                )

    # arrival sequencing along each route
    for t, route_legs in enumerate(legs):
        prev_time = 0.0
        for a, b, km in route_legs:
            travel = km / fleet.s_t
            arr_b = arrivals[t][b]
            if arr_b + TIME_TOL < prev_time + travel:
                add(
                    Violation(
                        milp_mod.ARRIVAL_SEQ,
                        f"truck {t} arrives at {b} at {arr_b:.6f}h, "
                        f"before {prev_time + travel:.6f}h is reachable",
                        (t, a, b),
                    )
                )
            prev_time = arr_b

    def truck_visits(t: int, v: int) -> bool:
        return v in routes[t]

    # docking presence and per-node sortie cardinality
    slot_counts: Dict[tuple, int] = {}
    for idx, s in enumerate(plan.sorties):
        if not truck_visits(s.launch_truck, s.launch_node):
            add(
                Violation(
                    milp_mod.DOCKING,
                    f"sortie {idx} launches at {s.launch_node}, not on truck "
                    f"{s.launch_truck}'s route",
                    (idx, s.launch_node),
                )
            )
        if not truck_visits(s.recovery_truck, s.recovery_node):
            add(
                Violation(
                    milp_mod.DOCKING,
                    f"sortie {idx} recovers at {s.recovery_node}, not on truck "
                    f"{s.recovery_truck}'s route",
                    (idx, s.recovery_node),
                )
            )
        launch_slot = ("launch", s.vehicle_kind, s.launch_node, s.launch_truck, s.recovery_truck)
        recover_slot = ("recover", s.vehicle_kind, s.recovery_node, s.launch_truck, s.recovery_truck)
        for slot in (launch_slot, recover_slot):
            slot_counts[slot] = slot_counts.get(slot, 0) + 1
    for slot, k in sorted(slot_counts.items(), key=str):
        if k > 1:
            add(
                Violation(
                    milp_mod.DOCKING,
                    f"{k} {slot[1]} sorties share the {slot[0]} slot at node {slot[2]} "
                    f"for truck pair ({slot[3]},{slot[4]})",
                    (slot[2],),
                )
            )
    if not options.flexible_docking:
        for idx, s in enumerate(plan.sorties):
            if s.launch_truck != s.recovery_truck:
                add(
                    Violation(
                        milp_mod.DOCKING,
                        f"sortie {idx} docks across trucks with flexible docking disabled",
                        (idx,),
                    )
                )

    # acyclic precedence
    for idx, s in enumerate(plan.sorties):
        if s.cyclic and s.launch_node != 0:
            add(
                Violation(
                    milp_mod.PRECEDENCE,
                    f"sortie {idx} is cyclic at customer node {s.launch_node}",
                    (idx, s.launch_node),
                )
            )
        elif not s.cyclic and s.launch_node != 0 and s.recovery_node != 0:
            t_launch = arrivals[s.launch_truck].get(s.launch_node)
            t_recover = arrivals[s.recovery_truck].get(s.recovery_node)
            if t_launch is not None and t_recover is not None and t_recover + TIME_TOL < t_launch:
                add(
                    Violation(
                        milp_mod.PRECEDENCE,
                        f"sortie {idx} recovery precedes its launch in the visit order",
                        (idx,),
                    )
                )

    # payload, range, visit cap
    m_eff = options.effective_m(fleet)
    for idx, s in enumerate(plan.sorties):
        payload = sum(inst.node(c).weight for c in s.sequence)
        cap = fleet.payload_cap(s.vehicle_kind)
        if payload > cap + ENERGY_TOL:
            add(
                Violation(
                    milp_mod.PAYLOAD,
                    f"sortie {idx} carries {payload:.3f} kg over the {cap} kg cap",
                    (idx,),
                )
            )
        dist = sortie_distance(s, inst)
        rng = fleet.range_cap(s.vehicle_kind)
        if dist > rng + ENERGY_TOL:
            add(
                Violation(
                    milp_mod.RANGE,
                    f"sortie {idx} travels {dist:.3f} km over the {rng} km range",
                    (idx,),
                )
            )
        if len(s.sequence) > m_eff:
            add(
                Violation(
                    milp_mod.PAYLOAD,
                    f"sortie {idx} serves {len(s.sequence)} customers over the cap of {m_eff}",
                    (idx,),
                )
            )

    if options.single_trip:
        per_vehicle: Dict[tuple, int] = {}
        for s in plan.sorties:
            key = (s.vehicle_kind, s.vehicle_id)
            per_vehicle[key] = per_vehicle.get(key, 0) + 1
        for key, k in sorted(per_vehicle.items()):
            if k > 1:
                add(
                    Violation(
                        milp_mod.SINGLE_TRIP,
                        f"{key[0]} {key[1]} performs {k} sorties in single-trip mode",
                        key[1:],
                    )
                )

    # launch / return synchronization
    for idx, s in enumerate(plan.sorties):
        launch_floor = 0.0 if s.launch_node == 0 else arrivals[s.launch_truck].get(s.launch_node)
        if launch_floor is not None and s.launch_time + TIME_TOL < launch_floor:
            add(
                Violation(
                    milp_mod.LAUNCH_SYNC,
                    f"sortie {idx} launches at {s.launch_time:.6f}h before its truck "
                    f"arrives at {launch_floor:.6f}h",
                    (idx,),
                )
            )
        back = s.launch_time + sortie_travel_time(s, inst, fleet)
        deadline = arrivals[s.recovery_truck].get(s.recovery_node)
        if deadline is not None and back > deadline + TIME_TOL:
            add(
                Violation(
                    milp_mod.RETURN_SYNC,
                    f"sortie {idx} returns at {back:.6f}h after its recovery truck "
                    f"arrives at {deadline:.6f}h",
                    (idx,),
                )
            )

    # charging events: placement, duration, rate
    out_leg_time: Dict[tuple, float] = {}
    for t, route_legs in enumerate(legs):
        for a, _, km in route_legs:
            out_leg_time[t, a] = km / fleet.s_t
    for idx, e in enumerate(plan.charging_events):
        if not options.charging:
            add(
                Violation(
                    milp_mod.CHARGE_PRESENCE,
                    f"charging event {idx} present with charging disabled",
                    (idx,),
                )
            )
            continue
        if e.node == 0:
            add(
                Violation(
                    milp_mod.NO_DEPOT_CHARGE,
                    f"charging event {idx} charges on the depot departure leg",
                    (idx,),
                )
            )
            continue
        if not truck_visits(e.truck_id, e.node):
            add(
                Violation(
                    milp_mod.CHARGE_PRESENCE,
                    f"charging event {idx} at node {e.node} without truck {e.truck_id}",
                    (idx, e.node),
                )
            )
            continue
        leg = out_leg_time.get((e.truck_id, e.node))
        if leg is None or e.duration > leg + TIME_TOL:
            add(
                Violation(
                    milp_mod.CHARGE_TIME,
                    f"charging event {idx} lasts {e.duration:.6f}h, longer than the "
                    f"truck leg out of node {e.node}",
                    (idx, e.node),
                )
            )
        if e.amount > fleet.charge_rate(e.vehicle_kind) * e.duration + ENERGY_TOL:
            add(
                Violation(
                    milp_mod.CHARGE_RATE,
                    f"charging event {idx} transfers {e.amount:.3f} units over "
                    f"rate*duration",
                    (idx,),
                )
            )

    # battery ledgers: consumption at launch instants, charge at departures
    ledgers = build_ledgers(plan, inst, fleet)
    for ledger in ledgers:
        for entry, level in zip(ledger.entries, ledger.levels()):
            if entry.delta < 0 and level < -ENERGY_TOL:
                add(
                    Violation(
                        milp_mod.BATTERY_BALANCE,
                        f"{ledger.vehicle_kind} {ledger.vehicle_id} battery falls to "
                        f"{level:.3f} units at {entry.time:.6f}h",
                        (ledger.vehicle_id,),
                    )
                )
            if entry.delta > 0 and level > ledger.capacity + ENERGY_TOL:
                add(
                    Violation(
                        milp_mod.OVERCHARGE,
                        f"{ledger.vehicle_kind} {ledger.vehicle_id} battery rises to "
                        f"{level:.3f} units at {entry.time:.6f}h",
                        (ledger.vehicle_id,),
                    )
                )

    feasible = not violations
    return ValidationReport(
        feasible=feasible,
        violations=violations,
        model_makespan=objective_value(plan, inst, fleet).makespan,
        simulated_makespan=simulated_makespan(plan, inst, fleet),
        battery_ledgers=ledgers,
    )


def simulated_makespan(plan: Plan, inst: Instance, fleet: FleetSpec) -> float:
    """Replay with waiting: the last truck return to the depot.

    Trucks hold at each recovery stop, the depot included, until their
    sorties are back (:func:`vrpdr.schedule.arrival_times`).  Launch times
    re-derive from the replayed arrivals, so the result is a what-if
    schedule rather than a check of the plan's declared times.
    """
    arrivals = arrival_times(plan.truck_routes, inst, fleet, plan.sorties)
    return max([0.0] + [row[-1] for row in arrivals])
