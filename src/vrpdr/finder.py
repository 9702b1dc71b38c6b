"""Three-phase construction heuristic with en-route charging.

Phase 1 builds truck routes by nearest-neighbor growth, sized so each truck
takes at most max(3, |C| // (2T)) customers and the rest stay open for the
auxiliary fleet.  Phase 2 walks the truck timeline chronologically and
greedily assigns drone/robot sorties that satisfy payload, range, energy
and synchronization checks, recharging carried vehicles from the truck as
it drives.  Phase 3 inserts whatever remains into the truck routes at the
cheapest Manhattan detour, then re-times the accepted sorties against the
rebuilt timeline.  One incremental cheapest-insertion kernel over the truck
distance table serves phase 3 and the truck-detour prices of phase 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Set

from . import energy as energy_mod
from .core import (
    DRONE,
    ROBOT,
    TIME_TOL,
    ConfigurationError,
    FleetSpec,
    InfeasibleError,
    Instance,
    ModelOptions,
    Plan,
    Sortie,
    enumerate_sequences,
    euclidean_distance,
    manhattan_distance,
    sortie_travel_time,
)
from .milp import objective_value

NEARBY_POOL = 10          # unserved candidates considered per launch point
RECOVERY_SCAN = 10        # truck stops scanned ahead for a recovery point


@dataclass(frozen=True)
class Timeline:
    """Per-truck (node, arrival hour) stops; the first entry is the depot at 0."""

    stops: tuple

    def arrival(self, truck: int, pos: int) -> float:
        return self.stops[truck][pos][1]

    def node(self, truck: int, pos: int) -> int:
        return self.stops[truck][pos][0]


@dataclass
class VehicleState:
    vehicle_kind: str
    vehicle_id: int
    available_from: float = 0.0
    aboard_truck: Optional[int] = None
    aboard_pos: int = 0       # boarding position on the carrying truck
    charged_upto: int = 0     # charging accrued for legs before this position
    at_node: Optional[int] = None
    ledger: energy_mod.BatteryLedger = None
    served: Set[int] = field(default_factory=set)
    events: List[energy_mod.ChargingEvent] = field(default_factory=list)
    sortie_count: int = 0
    retired: bool = False


def construct_truck_routes(inst: Instance, fleet: FleetSpec) -> list:
    """Nearest-neighbor routes, max(3, |C| // (2T)) customers per truck.

    Only truck-reachable customers are eligible; the rest wait for the
    sortie and insertion phases.
    """
    customers = [c.id for c in inst.customers if inst.node(c.id).truck_reachable]
    if fleet.num_trucks < 1:
        if customers or inst.num_customers:
            raise ConfigurationError("cannot route customers with zero trucks")
        return []
    per_truck = max(3, inst.num_customers // (2 * fleet.num_trucks))
    available = set(customers)
    points = [nd.point for nd in inst.nodes]
    routes = []
    for _t in range(fleet.num_trucks):
        route = [0]
        while len(route) - 1 < per_truck and available:
            here = points[route[-1]]
            nearest = min(
                available, key=lambda c: (euclidean_distance(here, points[c]), c)
            )
            route.append(nearest)
            available.remove(nearest)
        route.append(0)
        routes.append(route)
    return routes


def build_timeline(routes, inst: Instance, fleet: FleetSpec) -> Timeline:
    """Arrival recurrence: next = current + manhattan / truck speed."""
    stops = []
    for route in routes:
        t = 0.0
        row = [(route[0], 0.0)]
        for a, b in zip(route[:-1], route[1:]):
            t += inst.truck_distance(a, b) / fleet.s_t
            row.append((b, t))
        if len(route) == 2 and route[0] == route[1] == 0:
            row = [(0, 0.0)]
        stops.append(tuple(row))
    return Timeline(stops=tuple(stops))


def initial_states(fleet: FleetSpec) -> list:
    """All vehicles fully charged, riding the truck they are numbered onto."""
    states = []
    trucks = max(1, fleet.num_trucks)
    for d in range(fleet.num_drones):
        states.append(
            VehicleState(DRONE, d, aboard_truck=d % trucks, ledger=energy_mod.new_ledger(DRONE, d, fleet))
        )
    for r in range(fleet.num_robots):
        states.append(
            VehicleState(ROBOT, r, aboard_truck=r % trucks, ledger=energy_mod.new_ledger(ROBOT, r, fleet))
        )
    return states


def _advance_charging(
    state: VehicleState, timeline: Timeline, fleet: FleetSpec, upto_pos: int, charging: bool
) -> None:
    """Accrue clamped charge for carried legs between the watermark and upto_pos."""
    t = state.aboard_truck
    if t is None:
        return
    stops = timeline.stops[t]
    pos = max(state.charged_upto, state.aboard_pos)
    while pos < min(upto_pos, len(stops) - 1):
        node, depart = stops[pos]
        duration = stops[pos + 1][1] - depart
        if charging and node != 0 and duration > 0:
            amount = energy_mod.charge_amount(duration, state.vehicle_kind, fleet)
            event = energy_mod.ChargingEvent(
                vehicle_kind=state.vehicle_kind,
                vehicle_id=state.vehicle_id,
                truck_id=t,
                node=node,
                duration=duration,
                amount=amount,
            )
            state.ledger, applied = energy_mod.apply_charging(state.ledger, event, time=depart)
            if applied > 0:
                state.events.append(replace(event, amount=applied))
        pos += 1
    state.charged_upto = max(state.charged_upto, min(upto_pos, len(stops) - 1))


def apply_enroute_charging(states, timeline: Timeline, fleet: FleetSpec) -> list:
    """Charge every carried vehicle across its remaining truck legs."""
    for state in states:
        if state.aboard_truck is not None:
            _advance_charging(
                state, timeline, fleet, len(timeline.stops[state.aboard_truck]) - 1, True
            )
    return states


def _recovery_options(timeline: Timeline, truck: int, pos: int, launch_time: float, flexible: bool):
    """Candidate (truck, position) recovery points after a launch point."""
    stops = timeline.stops[truck]
    options = []
    for q in range(pos + 1, min(pos + 1 + RECOVERY_SCAN, len(stops))):
        options.append((truck, q))
    last = len(stops) - 1
    if last > pos and (truck, last) not in options:
        options.append((truck, last))  # depot return is always in reach
    if flexible:
        others = []
        for t2, stops2 in enumerate(timeline.stops):
            if t2 == truck:
                continue
            for q in range(1, len(stops2)):
                if stops2[q][1] > launch_time + TIME_TOL:
                    others.append((stops2[q][1], t2, q))
        for _, t2, q in sorted(others)[:RECOVERY_SCAN]:
            options.append((t2, q))
    return options


def _detour_price(delta_km: float, fleet: FleetSpec) -> float:
    """Objective value of one extra truck detour kilometre."""
    return fleet.alpha * fleet.C_t * delta_km + (1.0 - fleet.alpha) * delta_km / fleet.s_t


def _best_insertion(route, t, c, dist) -> tuple:
    """Lowest (delta, truck, pos, customer) key for customer c on route t.

    delta = d(a,c) + d(c,b) - d(a,b) for the edge (a, b) at ``pos``; the
    first of equal deltas wins, which is the lowest position.
    """
    row = dist[c]
    best_delta, best_pos = math.inf, -1
    for pos in range(len(route) - 1):
        a, b = route[pos], route[pos + 1]
        delta = row[a] + row[b] - dist[a][b]
        if delta < best_delta:
            best_delta, best_pos = delta, pos
    return (best_delta, t, best_pos, c)


def _cheapest_insertion(routes, customers, dist):
    """Insert every customer at its cheapest edge, cheapest first.

    ``dist`` is the truck distance table (lists of lists).  Each step takes
    the lowest (delta, truck, pos, customer) key over all customers and
    edges.  Every customer keeps its best key per route; after an insert at
    (t, p) only the two new edges are scored, keys on t past p shift by
    one, and a customer whose best edge was the one split rescans route t.
    Returns (new routes, summed delta).
    """
    routes = [list(r) for r in routes]
    cache = {c: [_best_insertion(r, t, c, dist) for t, r in enumerate(routes)] for c in customers}
    total = 0.0
    while cache:
        delta, t, p, c = min(min(keys) for keys in cache.values())
        del cache[c]
        route = routes[t]
        route.insert(p + 1, c)
        total += delta
        a, b = route[p], route[p + 2]
        split_ac, split_cb = dist[a][c], dist[c][b]
        for u, keys in cache.items():
            d_u, _, p_u, _ = keys[t]
            if p_u == p:
                keys[t] = _best_insertion(route, t, u, dist)
                continue
            row = dist[u]
            keys[t] = min(
                (d_u, t, p_u + 1 if p_u > p else p_u, u),
                (row[a] + row[c] - split_ac, t, p, u),
                (row[c] + row[b] - split_cb, t, p + 1, u),
            )
    return routes, total


def _insertion_alternative(routes, unserved, inst: Instance, fleet: FleetSpec, truck_km) -> dict:
    """Weighted cost of serving each open customer by truck detour instead.

    Cheapest insertion delta against the phase-1 routes in ``truck_km``
    (the truck distance table), priced at truck unit cost plus the
    travel-time share of the objective.  Customers the truck cannot reach
    price at the distance mask, so a sortie always wins for them.
    """
    out = {}
    for c in unserved:
        best = math.inf
        if inst.node(c).truck_reachable:
            for t, route in enumerate(routes):
                best = min(best, _best_insertion(route, t, c, truck_km)[0])
        else:
            best = fleet.big_M
        out[c] = _detour_price(best, fleet)
    return out


def _joint_insertion_price(seq, routes, inst: Instance, fleet: FleetSpec, truck_km) -> float:
    """Detour cost of inserting a whole sequence into copies of the routes.

    Clustered customers share one detour, so summing solo deltas overstates
    the truck alternative; this replays cheapest insertion jointly.
    """
    if any(not inst.node(c).truck_reachable for c in seq):
        return _detour_price(fleet.big_M, fleet)
    return _detour_price(_cheapest_insertion(routes, seq, truck_km)[1], fleet)


def assign_sorties(
    routes,
    timeline: Timeline,
    unserved: Set[int],
    states,
    inst: Instance,
    fleet: FleetSpec,
    options: ModelOptions = ModelOptions(),
    existing_sorties=(),
):
    """Greedy synchronized sortie assignment along the truck timeline.

    Launch points are visited in chronological order; at each one every
    vehicle kind gets at most one sortie, chosen as the lowest
    energy-per-customer candidate among the nearby unserved pool that
    passes payload, range, battery and timing checks and beats the cost of
    leaving its customers to the truck insertion phase.

    ``existing_sorties`` reserve their launch/recovery slots so a second
    assignment pass cannot double-book a node.
    """
    unserved = set(unserved)
    sorties: List[Sortie] = []
    used_launch: Set[tuple] = set()
    used_recovery: Set[tuple] = set()
    for s in existing_sorties:
        used_launch.add((s.vehicle_kind, s.launch_node))
        used_recovery.add((s.vehicle_kind, s.recovery_node))
    m_eff = options.effective_m(fleet)
    max_trips = 1 if options.single_trip else math.inf
    truck_km = inst.matrix("truck").tolist()
    alternative = _insertion_alternative(routes, unserved, inst, fleet, truck_km)

    events = []
    for t, stops in enumerate(timeline.stops):
        for pos in range(0, len(stops) - 1):
            events.append((stops[pos][1], t, pos))
    events.sort()

    joint_cache = {}

    for launch_time, t, pos in events:
        launch_node = timeline.node(t, pos)
        for kind in (DRONE, ROBOT):
            if fleet.count(kind) == 0 or not unserved:
                continue
            if (kind, launch_node) in used_launch:
                continue
            crew = sorted(
                (
                    s
                    for s in states
                    if s.vehicle_kind == kind
                    and not s.retired
                    and s.aboard_truck == t
                    and s.aboard_pos <= pos
                    and s.available_from <= launch_time + TIME_TOL
                    and s.sortie_count < max_trips
                ),
                key=lambda s: s.vehicle_id,
            )
            if not crew:
                continue
            speed = fleet.speed(kind)
            metric = euclidean_distance if kind == DRONE else manhattan_distance
            here = inst.node(launch_node).point
            pool = sorted(
                (c for c in unserved if metric(here, inst.node(c).point) <= fleet.range_cap(kind)),
                key=lambda c: (metric(here, inst.node(c).point), c),
            )[:NEARBY_POOL]
            if not pool:
                continue
            # recovery geometry depends on the vehicle only through its
            # battery, so enumerate every statically feasible option once
            # per launch point and scan per vehicle below
            seq_options = []
            for seq in enumerate_sequences(pool, m_eff):
                payload = sum(inst.node(c).weight for c in seq)
                if payload > fleet.payload_cap(kind) + 1e-9:
                    continue
                path = (launch_node,) + seq
                fixed_dist = sum(
                    metric(inst.node(a).point, inst.node(b).point)
                    for a, b in zip(path[:-1], path[1:])
                )
                if fixed_dist > fleet.range_cap(kind) + 1e-9:
                    continue
                alt_price = sum(alternative[c] for c in seq)
                options_for_seq = []
                for t2, q in _recovery_options(
                    timeline, t, pos, launch_time, options.flexible_docking
                ):
                    rec_node = timeline.node(t2, q)
                    if rec_node in seq:
                        continue
                    if rec_node == launch_node and rec_node != 0:
                        continue
                    if (kind, rec_node) in used_recovery:
                        continue
                    dist = fixed_dist + metric(
                        inst.node(seq[-1]).point, inst.node(rec_node).point
                    )
                    if dist > fleet.range_cap(kind) + 1e-9:
                        continue
                    if launch_time + dist / speed > timeline.arrival(t2, q) + TIME_TOL:
                        continue
                    sortie_price = fleet.alpha * (
                        fleet.unit_cost(kind) * dist + fleet.fixed_cost(kind)
                    )
                    if sortie_price > alt_price:
                        continue  # letting the truck detour is cheaper
                    probe = Sortie(kind, 0, launch_node, rec_node, seq, t, t2, launch_time)
                    e = energy_mod.sortie_energy(probe, inst, fleet)
                    options_for_seq.append((rec_node, e, t2, q, sortie_price))
                if options_for_seq:
                    seq_options.append((seq, options_for_seq))
            if not seq_options:
                continue
            for vehicle in crew:
                _advance_charging(vehicle, timeline, fleet, pos, options.charging)
                level = vehicle.ledger.level
                cands = []
                for seq, opts in seq_options:
                    for rec_node, e, t2, q, price in opts:
                        if e > level + 1e-9:
                            continue
                        score = (e / len(seq), len(seq), seq, t2, q)
                        cands.append((score, seq, rec_node, e, t2, q, price))
                        break  # first affordable recovery for this sequence
                cands.sort(key=lambda c: c[0])
                best = None
                for confirm, (score, seq, rec_node, e, t2, q, price) in enumerate(cands):
                    if confirm >= 12:
                        break
                    if len(seq) > 1:
                        # re-verify multi-customer picks against the joint
                        # detour: clustered customers can share one insertion
                        if seq not in joint_cache:
                            joint_cache[seq] = _joint_insertion_price(
                                seq, routes, inst, fleet, truck_km
                            )
                        if price > joint_cache[seq]:
                            continue
                    best = (seq, rec_node, e, t2, q)
                    break
                if best is None:
                    continue
                seq, rec_node, e, t2, q = best
                sortie = Sortie(
                    kind, vehicle.vehicle_id, launch_node, rec_node, seq, t, t2, launch_time
                )
                sorties.append(sortie)
                unserved -= set(seq)
                used_launch.add((kind, launch_node))
                used_recovery.add((kind, rec_node))
                vehicle.ledger = vehicle.ledger.consume(launch_time, e)
                vehicle.served |= set(seq)
                vehicle.sortie_count += 1
                if rec_node == 0 and q == len(timeline.stops[t2]) - 1:
                    vehicle.retired = True
                    vehicle.aboard_truck = None
                    vehicle.at_node = 0
                else:
                    vehicle.aboard_truck = t2
                    vehicle.aboard_pos = q
                    vehicle.charged_upto = q
                vehicle.available_from = timeline.arrival(t2, q)
                break  # one sortie per launch point and kind
    return sorties, states, unserved


def insert_unserved(routes, unserved, inst: Instance) -> list:
    """Cheapest-insertion of leftovers: minimize d(i,c)+d(c,j)-d(i,j).

    Manhattan truck distances, ties broken by (truck, position, customer);
    iterates until the set is empty.  Runs the incremental kernel
    :func:`_cheapest_insertion`, which re-scores only the edges each insert
    creates and picks exactly what a full rescan would.  Callers keep
    truck-unreachable customers out.
    """
    return _cheapest_insertion(routes, unserved, inst.matrix("truck").tolist())[0]


def _replay_sorties(routes, timeline, sorties, inst, fleet, options, finalize=True):
    """Re-time accepted sorties on a rebuilt timeline; drop what no longer fits.

    Returns (kept sorties with fresh launch times, charging events, ledgers,
    dropped customer ids, vehicle states).  With ``finalize`` the vehicles
    also charge across their remaining carried legs; a rescue assignment
    pass passes ``finalize=False`` so it can keep extending the schedule.
    """
    pos_index = []
    for stops in timeline.stops:
        pos_index.append({node: p for p, (node, _) in enumerate(stops)})
    states = {
        (s.vehicle_kind, s.vehicle_id): s for s in initial_states(fleet)
    }
    order = sorted(
        range(len(sorties)),
        key=lambda i: (
            timeline.stops[sorties[i].launch_truck][
                pos_index[sorties[i].launch_truck].get(sorties[i].launch_node, 0)
            ][1]
            if sorties[i].launch_node != 0
            else 0.0,
            i,
        ),
    )
    kept: List[Sortie] = []
    dropped: List[int] = []
    for i in order:
        s = sorties[i]
        state = states[(s.vehicle_kind, s.vehicle_id)]
        lp = pos_index[s.launch_truck].get(s.launch_node)
        rp = pos_index[s.recovery_truck].get(s.recovery_node)
        ok = lp is not None and rp is not None and not state.retired
        if ok:
            launch_time = 0.0 if s.launch_node == 0 else timeline.arrival(s.launch_truck, lp)
            deadline = timeline.arrival(s.recovery_truck, rp)
            ok = (
                state.aboard_truck == s.launch_truck
                and state.aboard_pos <= lp
                and state.available_from <= launch_time + TIME_TOL
            )
        if ok:
            flight = sortie_travel_time(s, inst, fleet)
            ok = launch_time + flight <= deadline + TIME_TOL and (
                s.launch_node != s.recovery_node or s.launch_node == 0
            )
        if ok:
            _advance_charging(state, timeline, fleet, lp, options.charging)
            e = energy_mod.sortie_energy(s, inst, fleet)
            ok = e <= state.ledger.level + 1e-9
        if not ok:
            dropped.extend(s.sequence)
            continue
        state.ledger = state.ledger.consume(launch_time, e)
        state.sortie_count += 1
        if s.recovery_node == 0 and rp == len(timeline.stops[s.recovery_truck]) - 1:
            state.retired = True
            state.aboard_truck = None
        else:
            state.aboard_truck = s.recovery_truck
            state.aboard_pos = rp
            state.charged_upto = rp
        state.available_from = deadline
        kept.append(replace(s, launch_time=launch_time))
    state_list = sorted(states.values(), key=lambda s: (s.vehicle_kind, s.vehicle_id))
    if finalize and options.charging:
        apply_enroute_charging(state_list, timeline, fleet)
    events = []
    ledgers = []
    for state in state_list:
        events.extend(state.events)
        ledgers.append(state.ledger)
    return kept, tuple(events), tuple(ledgers), dropped, state_list


def solve_finder(
    inst: Instance,
    fleet: FleetSpec = None,
    options: ModelOptions = ModelOptions(),
) -> Plan:
    """Run the three construction phases and return the scored plan.

    The construction is deterministic.  The plan is not validated here;
    :func:`vrpdr.validator.validate` checks it.
    """
    fleet = fleet or inst.fleet
    if fleet.num_trucks < 1 and inst.num_customers:
        raise ConfigurationError("cannot plan deliveries with zero trucks")
    routes = construct_truck_routes(inst, fleet)
    timeline = build_timeline(routes, inst, fleet)
    states = initial_states(fleet)
    routed = {n for r in routes for n in r if n != 0}
    unserved = {c.id for c in inst.customers} - routed

    sorties, states, unserved = assign_sorties(
        routes, timeline, unserved, states, inst, fleet, options
    )

    blocked = {c for c in unserved if not inst.node(c).truck_reachable}
    routes = insert_unserved(routes, unserved - blocked, inst)
    for _round in range(2 * inst.num_customers + 2):
        timeline = build_timeline(routes, inst, fleet)
        kept, events, ledgers, dropped, replay_states = _replay_sorties(
            routes, timeline, sorties, inst, fleet, options, finalize=not blocked
        )
        blocked |= {c for c in dropped if not inst.node(c).truck_reachable}
        droppable = [c for c in dropped if inst.node(c).truck_reachable]
        if droppable:
            sorties = kept
            routes = insert_unserved(routes, droppable, inst)
            continue
        if not blocked:
            sorties = kept
            break
        # rescue pass: the fully built routes expose launch and recovery
        # anchors the half-built phase-1 timeline did not have
        rescued, _, still = assign_sorties(
            routes,
            timeline,
            blocked,
            replay_states,
            inst,
            fleet,
            options,
            existing_sorties=kept,
        )
        if not rescued:
            raise InfeasibleError(
                "truck-unreachable customers could not be served by any sortie",
                offending_ids=sorted(still),
            )
        sorties = kept + rescued
        blocked = set(still)
    else:  # pragma: no cover - every round shrinks the open work
        raise ConfigurationError("sortie re-timing did not stabilize")

    arrivals = []
    for stops in timeline.stops:
        arrivals.append({node: at for node, at in stops[1:]} if len(stops) > 1 else {0: 0.0})
    plan = Plan(
        truck_routes=tuple(tuple(r) for r in routes),
        sorties=tuple(sorties),
        truck_arrivals=tuple(arrivals),
        charging_events=events,
        ledgers=ledgers,
    )
    breakdown = objective_value(plan, inst, fleet)
    return Plan(
        truck_routes=plan.truck_routes,
        sorties=plan.sorties,
        truck_arrivals=plan.truck_arrivals,
        charging_events=plan.charging_events,
        ledgers=plan.ledgers,
        objective_breakdown=breakdown,
    )
