"""Plan feasibility checking against every constraint family.

Violations carry the same family names that :mod:`vrpdr.milp` uses for its
constraint groups, so a failed check always points at the corresponding
model block.  Timing checks use a 1e-6 hour tolerance and energy checks a
1e-6 unit tolerance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from . import energy as energy_mod
from . import milp as milp_mod
from .core import (
    FleetSpec,
    Instance,
    ModelOptions,
    Plan,
    PlanStructureError,
    TIME_TOL,
    Sortie,
    sortie_distance,
    sortie_travel_time,
)

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


def model_makespan(plan: Plan, inst: Instance, fleet: FleetSpec) -> float:
    """Maximum summed travel time over trucks, drones and robots."""
    times = [0.0]
    for route in plan.truck_routes:
        dist = sum(inst.truck_distance(a, b) for a, b in zip(route[:-1], route[1:]))
        times.append(dist / fleet.s_t)
    per_vehicle: Dict[Tuple[str, int], float] = {}
    for s in plan.sorties:
        key = (s.vehicle_kind, s.vehicle_id)
        per_vehicle[key] = per_vehicle.get(key, 0.0) + sortie_travel_time(s, inst, fleet)
    times.extend(per_vehicle.values())
    return max(times)


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
        for v in arrivals:
            if not 0 <= v < n:
                raise PlanStructureError(f"arrival map references unknown node {v}")
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
    for e in plan.charging_events:
        if not 0 <= e.node < n:
            raise PlanStructureError(f"charging event references unknown node {e.node}")
        if not 0 <= e.truck_id < fleet.num_trucks:
            raise PlanStructureError(f"charging event references unknown truck {e.truck_id}")
        if not 0 <= e.vehicle_id < fleet.count(e.vehicle_kind):
            raise PlanStructureError(f"charging event references unknown {e.vehicle_kind}")


def validate(
    plan: Plan,
    inst: Instance,
    fleet: FleetSpec,
    options: ModelOptions = ModelOptions(),
) -> ValidationReport:
    """Check a plan against every family; returns one record per violation."""
    _structural_check(plan, inst, fleet)
    violations: List[Violation] = []
    add = violations.append

    routes = plan.truck_routes
    arrivals = plan.truck_arrivals
    big_m = fleet.big_M

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

    # truck-unreachable arcs
    for t, route in enumerate(routes):
        for a, b in zip(route[:-1], route[1:]):
            if inst.truck_distance(a, b) >= big_m:
                add(
                    Violation(
                        milp_mod.UNREACHABLE,
                        f"truck {t} drives masked arc {a}->{b}",
                        (t, a, b),
                    )
                )

    # arrival sequencing along each route
    for t, route in enumerate(routes):
        prev_time = 0.0
        for a, b in zip(route[:-1], route[1:]):
            travel = inst.truck_distance(a, b) / fleet.s_t
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
    for t, route in enumerate(routes):
        for a, b in zip(route[:-1], route[1:]):
            out_leg_time[t, a] = inst.truck_distance(a, b) / fleet.s_t
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
        level = ledger.capacity
        for entry in ledger.entries:
            level += entry.delta
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
    mk = model_makespan(plan, inst, fleet)
    sim = simulated_makespan(plan, inst, fleet)
    return ValidationReport(
        feasible=feasible,
        violations=violations,
        model_makespan=mk,
        simulated_makespan=sim,
        battery_ledgers=ledgers,
    )


def build_ledgers(plan: Plan, inst: Instance, fleet: FleetSpec) -> tuple:
    """Chronological battery ledgers induced by a plan's sorties and charges."""
    vehicles = sorted(
        {(s.vehicle_kind, s.vehicle_id) for s in plan.sorties}
        | {(e.vehicle_kind, e.vehicle_id) for e in plan.charging_events}
    )
    ledgers = []
    for kind, vid in vehicles:
        events = []
        for s in plan.sorties:
            if (s.vehicle_kind, s.vehicle_id) == (kind, vid):
                draw = energy_mod.sortie_energy(s, inst, fleet)
                events.append((s.launch_time, 0, -draw))
        for e in plan.charging_events:
            if (e.vehicle_kind, e.vehicle_id) == (kind, vid):
                when = plan.truck_arrivals[e.truck_id].get(e.node, 0.0) if e.node != 0 else 0.0
                events.append((when, 1, e.amount))
        entries = tuple(
            energy_mod.LedgerEntry(
                time=when,
                delta=delta,
                cause=energy_mod.CAUSE_SORTIE if delta <= 0 else energy_mod.CAUSE_CHARGE,
            )
            for when, _, delta in sorted(events, key=lambda ev: (ev[0], ev[1]))
        )
        ledgers.append(
            energy_mod.BatteryLedger(
                vehicle_kind=kind,
                vehicle_id=vid,
                capacity=fleet.battery(kind),
                entries=entries,
            )
        )
    return tuple(ledgers)


def simulated_makespan(plan: Plan, inst: Instance, fleet: FleetSpec) -> float:
    """Replay with waiting: trucks hold at recovery nodes for their sorties.

    Returns the time the last vehicle is back at the depot.  Launch times
    re-derive from the simulated truck arrivals, so the result is a what-if
    schedule rather than a check of the plan's declared times.
    """
    sim: List[Dict[int, float]] = [dict() for _ in plan.truck_routes]

    def launch_sim_time(s: Sortie) -> float:
        if s.launch_node == 0:
            return 0.0
        return sim[s.launch_truck].get(s.launch_node, s.launch_time)

    # iterate to a fixpoint; cross-truck recoveries couple the timelines
    for _ in range(max(2, len(plan.sorties) + 2)):
        changed = False
        for t, route in enumerate(plan.truck_routes):
            clock = 0.0
            for a, b in zip(route[:-1], route[1:]):
                clock += inst.truck_distance(a, b) / fleet.s_t
                if b != 0:
                    # hold for sorties this truck must recover here; sorties
                    # recovered at the depot return on their own
                    for s in plan.sorties:
                        if s.recovery_truck == t and s.recovery_node == b:
                            back = launch_sim_time(s) + sortie_travel_time(s, inst, fleet)
                            clock = max(clock, back)
                if sim[t].get(b) != clock:
                    sim[t][b] = clock
                    changed = True
        if not changed:
            break

    out = [0.0]
    for t, route in enumerate(plan.truck_routes):
        out.append(sim[t].get(0, 0.0) if len(route) > 1 else 0.0)
    for s in plan.sorties:
        if s.recovery_node == 0:
            out.append(launch_sim_time(s) + sortie_travel_time(s, inst, fleet))
    return max(out)
