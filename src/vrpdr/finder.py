"""Three-phase construction heuristic with en-route charging.

Phase 1 builds truck routes by nearest-neighbor growth, sized so each truck
takes at most max(3, |C| // (2T)) customers and the rest stay open for the
auxiliary fleet, and each leaves one for every later truck; each step takes
one complex-magnitude row over the reachable customers, a routed one masked
at infinity, and builds the exact key only on a near tie.  Phase 2 walks
the truck timeline chronologically and greedily assigns drone/robot
sorties that satisfy payload, range, energy and synchronization checks to
the crew aboard each launch point.  Each vehicle is a
:class:`vrpdr.schedule.Carriage`: it charges from its truck as it drives
and docks where its sortie lands.  Candidates come from
:meth:`vrpdr.core.DistanceRows.sortie_heads`, the cap-pruned sortie walk
that also builds the model's candidate list, which exact search flies,
over the nearby pool; energy comes from the leg distances the walk already
holds.  Unlike that list, FINDER also hands the walk a per-customer ``reach`` built from the
open recovery points, so a prefix that can no longer get back to any of
them within range and deadline is dropped.  By the triangle inequality
every sequence that could is still walked.  The walk's range is also cut
to :func:`vrpdr.energy.battery_range` of the fullest crew battery, the
farthest any sortie can fly on it empty (6.1 km for a full default drone
against its 20 km cap), so the crew charges up to the launch point before
the walk.  A sortie beyond that bound draws more than every crew battery
holds, and the exact range, timing, price and battery checks after the
walk are unchanged, so neither prune changes a plan.  Phase 3 inserts
whatever remains into the truck routes at the cheapest Manhattan detour,
then replays the accepted sorties on the rebuilt timeline with
:func:`vrpdr.schedule.walk`; those that no longer fly are dropped rather
than waited for, and a rescue pass assigns truck-unreachable customers
from the finished routes.  One cheapest-insertion kernel serves phase 3
and every truck-detour price of phase 2: per truck it keeps a table of the
open customers' deltas on every edge, from the open customers' own truck
rows (:meth:`vrpdr.core.Instance.truck_rows`) and the route legs, so no
n × n table is built, and after an insert it renews only the joined
truck's table.  Both array kernels choose by exact scalar keys, ties
included, so a plan does not depend on how NumPy rounds.  Every
phase reads the truck timeline as the per-position rows of the sortie-free
:func:`vrpdr.schedule.arrival_times`, next to the routes.  The plan is
assembled and scored by :func:`vrpdr.schedule.timed_plan`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List, Set

import numpy as np

from . import energy as energy_mod
from .core import (
    DRONE,
    FIT_TOL,
    METRICS,
    ROBOT,
    TIME_TOL,
    ConfigurationError,
    DistanceRows,
    FleetSpec,
    InfeasibleError,
    Instance,
    ModelOptions,
    Plan,
    Sortie,
    euclidean_distance,
)
from .schedule import arrival_times, carriages, timed_plan, walk

NEARBY_POOL = 10          # unserved candidates considered per launch point
RECOVERY_SCAN = 10        # truck stops scanned ahead for a recovery point
NEAR_TIE = 1e-12          # relative window over the straight-line row minimum


def _straight_row(z, here: complex):
    """Straight-line km from ``here`` to each point of the complex array ``z``.

    One subtraction and one magnitude per point.  Each entry is within 2 ulp
    (3e-16 relative) of :func:`vrpdr.core.euclidean_distance`, at any scale,
    and a zero difference gives exactly 0.
    """
    return np.abs(z - here)


def construct_truck_routes(inst: Instance, fleet: FleetSpec) -> list:
    """Nearest-neighbor routes, max(3, |C| // (2T)) customers per truck.

    Only truck-reachable customers are eligible; the rest wait for the
    sortie and insertion phases.  Each truck leaves one for every later
    truck, so with at least T of them no truck stays at the depot.  The
    nearest is the lowest (straight-line distance, id) key, the distance
    from :func:`vrpdr.core.euclidean_distance`.
    """
    customers = [c for c in inst.customers if c.truck_reachable]
    if fleet.num_trucks < 1:
        if customers or inst.num_customers:
            raise ConfigurationError("cannot route customers with zero trucks")
        return []
    per_truck = max(3, inst.num_customers // (2 * fleet.num_trucks))
    points = [nd.point for nd in inst.nodes]
    ids = [c.id for c in customers]
    z = np.array([complex(c.x, c.y) for c in customers], dtype=complex)
    left = len(ids)
    routes = []
    for t in range(fleet.num_trucks):
        quota = min(per_truck, left - (fleet.num_trucks - 1 - t))
        route = [0]
        for _ in range(quota):
            here = points[route[-1]]
            # the row is within 2 ulp of the exact key's distance, so the
            # true nearest is in the window and a window of one is it
            row = _straight_row(z, complex(*here))
            i = int(row.argmin())
            near = (row <= row[i] * (1.0 + NEAR_TIE)).nonzero()[0]
            if len(near) > 1:
                # a routed customer ties in only when the row minimum overflows to inf
                near = near[np.isfinite(z[near])].tolist()
                i = min(near, key=lambda i: (euclidean_distance(here, points[ids[i]]), ids[i]))
            route.append(ids[i])
            z[i] = math.inf  # masked in place: its row entry is inf from now on
        left -= len(route) - 1
        route.append(0)
        routes.append(route)
    return routes


def _recovery_options(arrivals, truck: int, pos: int, launch_time: float, flexible: bool):
    """Candidate (truck, position) recovery points after a launch point."""
    last = len(arrivals[truck]) - 1
    options = [(truck, q) for q in range(pos + 1, min(pos + 1 + RECOVERY_SCAN, last + 1))]
    if last > pos and (truck, last) not in options:
        options.append((truck, last))  # depot return is always in reach
    if flexible:
        others = []
        for t2, times in enumerate(arrivals):
            if t2 == truck:
                continue
            for q in range(1, len(times)):
                if times[q] > launch_time + TIME_TOL:
                    others.append((times[q], t2, q))
        for _, t2, q in sorted(others)[:RECOVERY_SCAN]:
            options.append((t2, q))
    return options


def _recovery_reach(rows, pool, open_recovery, launch_time, speed, range_limit) -> dict:
    """The ``reach`` of :meth:`vrpdr.core.DistanceRows.sortie_heads` per pool customer.

    A recovery ``(t2, q, node, deadline)`` leaves a sortie the distance
    ``budget = min(range_limit, (deadline - launch_time) * speed)``, so c can
    still get home while its walk distance is at most ``budget - d(c, node)``
    for some open recovery, plus ``FIT_TOL`` for rounding.  Both metrics are
    bitwise symmetric, so ``d(c, node)`` is read from the recovery node's row:
    a truck stop, whose row the walk builds as a launch row anyway, instead
    of a row per pool customer.
    """
    budgets = [
        (min(range_limit, (deadline - launch_time) * speed), rows[node])
        for _, _, node, deadline in open_recovery
    ]
    return {c: max(budget - row[c] for budget, row in budgets) + FIT_TOL for c in pool}


def _detour_price(delta_km: float, fleet: FleetSpec) -> float:
    """Objective value of one extra truck detour kilometre."""
    return fleet.alpha * fleet.C_t * delta_km + (1.0 - fleet.alpha) * delta_km / fleet.s_t


def _delta_tables(routes, us, inst: Instance) -> tuple:
    """``(du, tables, best, at)``: the insertion deltas of the open customers ``us``.

    ``du`` is :meth:`Instance.truck_rows` of ``us``.  ``tables[t]`` is a
    C-ordered open × edges array holding (d(u,a) + d(u,b)) - d(a,b) for each
    edge (a, b) of route t, the edge km from :meth:`Instance.truck_legs`.
    ``best`` and ``at``, trucks × open, hold each row's lowest delta and its
    first position, which is the lowest one.
    """
    du = inst.truck_rows(us)
    tables = []
    best = np.empty((len(routes), len(us)))
    at = np.empty((len(routes), len(us)), dtype=np.intp)
    for t, route in enumerate(routes):
        to = du[:, route]
        tables.append((to[:, :-1] + to[:, 1:]) - inst.truck_legs(route))
        at[t] = tables[t].argmin(axis=1)
        best[t] = tables[t].min(axis=1)
    return du, tables, best, at


def _cheapest_insertion(routes, customers, inst: Instance):
    """Insert every customer at its cheapest edge, cheapest first.

    Each step takes the lowest (delta, truck, pos, customer) key over the
    :func:`_delta_tables` of all trucks: one ``argmin`` names it, and only
    when the lowest delta is not unique is the key built over the tied
    entries.  The customer's row is swap-removed from each table, after
    its own truck row has given the km to both ends of the split edge
    (Manhattan is bitwise symmetric).  The truck it joins gets a new
    table, one column wider: the columns past the split edge move right
    by one, the two new edges are scored and one ``argmin`` renews that
    truck's ``best`` and ``at``.  Returns (new routes, summed delta).
    """
    routes = [list(r) for r in routes]
    us = np.array(sorted(customers), dtype=np.intp)
    du, tables, best, at = _delta_tables(routes, us, inst)
    rows = np.arange(len(us))
    total = 0.0
    for last in range(len(us) - 1, -1, -1):
        t, j = divmod(int(best.argmin()), last + 1)
        delta = best[t, j]
        if np.count_nonzero(best == delta) > 1:
            ts, js = np.nonzero(best == delta)
            t, _, _, j = min(zip(ts.tolist(), at[ts, js].tolist(), us[js].tolist(), js.tolist()))
        p, c = int(at[t, j]), int(us[j])
        route = routes[t]
        a, b = route[p], route[p + 1]
        d_ac, d_cb = du[j, a], du[j, b]
        # the key names the customer, so row order is free: swap-remove j
        us[j], du[j], best[:, j], at[:, j] = us[last], du[last], best[:, last], at[:, last]
        us, du, best, at = us[:last], du[:last], best[:, :last], at[:, :last]
        for k, table in enumerate(tables):
            table[j] = table[last]
            tables[k] = table[:last]
        route.insert(p + 1, c)
        total += float(delta)
        # a fresh C-ordered table, so argmin reads it without a copy
        table = np.empty((last, len(route) - 1))
        table[:, :p] = tables[t][:, :p]
        table[:, p + 2 :] = tables[t][:, p + 1 :]
        table[:, p] = (du[:, a] + du[:, c]) - d_ac
        table[:, p + 1] = (du[:, c] + du[:, b]) - d_cb
        tables[t] = table
        at[t] = table.argmin(axis=1)
        best[t] = table[rows[:last], at[t]]
    return routes, total


def _joint_insertion_price(seq, routes, inst: Instance, fleet: FleetSpec) -> float:
    """Detour cost of inserting a whole sequence into copies of the routes.

    Clustered customers share one detour, so summing solo deltas overstates
    the truck alternative; this replays cheapest insertion jointly on the
    truck rows of ``seq``.  A sequence with a customer the truck cannot
    reach prices at infinity, so a sortie always wins.
    """
    if any(not inst.node(c).truck_reachable for c in seq):
        return math.inf
    return _detour_price(_cheapest_insertion(routes, seq, inst)[1], fleet)


def assign_sorties(
    routes,
    arrivals,
    unserved: Set[int],
    carried,
    inst: Instance,
    fleet: FleetSpec,
    options: ModelOptions = ModelOptions(),
    existing_sorties=(),
):
    """Greedy synchronized sortie assignment along the truck timeline.

    ``arrivals`` holds the hour of each position of ``routes``, as
    :func:`vrpdr.schedule.arrival_times` returns it, and ``carried`` the
    fleet's :func:`vrpdr.schedule.carriages` in fleet order.  Launch points
    are visited in chronological order; at each one every vehicle kind gets
    at most one sortie, flown by the first vehicle of its crew (those
    :meth:`~vrpdr.schedule.Carriage.aboard` there with trips left) that can
    afford one.  It is the lowest energy-per-customer candidate among the
    nearby unserved pool that passes payload, range, battery and timing
    checks and beats the cost of leaving its customers to the truck
    insertion phase, each customer priced by its cheapest solo detour, read
    for all open customers from one build of :func:`_delta_tables` (a
    truck-unreachable one at infinity).  Returns ``(sorties, carried, unserved)``.

    Candidates come from :meth:`vrpdr.core.DistanceRows.sortie_heads`, the
    cap-pruned depth-first walk, over distance rows built once per call.
    The crew first charges up to the launch point (charging in two chunks
    gives the same floats and events as in one), and the walk's range is
    the lower of the range cap and :func:`vrpdr.energy.battery_range` of
    the fullest crew battery: every sortie costs at least its unloaded
    energy per km times its length, so one beyond that bound fails the
    battery check for every vehicle.  The same bound trims the nearby pool
    (a suffix of it sorted by distance) and the per-recovery range check.
    Recovery points are listed once per launch point; with none open there
    is no walk, and otherwise :func:`_recovery_reach` bounds it, so a prefix
    that can reach no open recovery within the walk's range and before its
    deadline is dropped.  Every later leg adds at least the direct distance
    home, so neither prune loses a sequence the checks below would accept
    and no plan changes.  The energy of each candidate is priced by
    :func:`vrpdr.energy.leg_energy` from the legs the walk already holds.
    Without drones and robots, or without open customers, nothing is priced.

    ``existing_sorties`` reserve their launch/recovery slots so a second
    assignment pass cannot double-book a node.
    """
    unserved = set(unserved)
    kinds = [kind for kind in (DRONE, ROBOT) if fleet.count(kind)]
    if not kinds or not unserved:
        return [], carried, unserved
    sorties: List[Sortie] = []
    used_launch: Set[tuple] = set()
    used_recovery: Set[tuple] = set()
    for s in existing_sorties:
        used_launch.add((s.vehicle_kind, s.launch_node))
        used_recovery.add((s.vehicle_kind, s.recovery_node))
    m_eff = options.effective_m(fleet)
    max_trips = 1 if options.single_trip else math.inf
    # each open customer's solo detour price: the kernel's first build, one pass
    open_ids = [c for c in sorted(unserved) if inst.node(c).truck_reachable]
    solo = _delta_tables(routes, open_ids, inst)[2].min(axis=0)
    alternative = dict.fromkeys(unserved, math.inf)
    alternative.update(zip(open_ids, _detour_price(solo, fleet).tolist()))
    points = [nd.point for nd in inst.nodes]
    weight = [nd.weight for nd in inst.nodes]
    distance_rows = {kind: DistanceRows(METRICS[kind], points) for kind in kinds}

    events = sorted(
        (times[pos], t, pos) for t, times in enumerate(arrivals) for pos in range(len(times) - 1)
    )

    joint_cache = {}

    for launch_time, t, pos in events:
        launch_node = routes[t][pos]
        recovery = None  # (t2, q, node, deadline) per recovery point, built on demand
        for kind in kinds:
            if not unserved or (kind, launch_node) in used_launch:
                continue
            aboard = (c for c in carried if c.kind == kind and c.aboard(t, pos, launch_time))
            crew = [c for c in aboard if c.trips < max_trips]
            if not crew:
                continue
            rows = distance_rows[kind]
            range_cap, speed = fleet.range_cap(kind), fleet.speed(kind)
            unit_cost, fixed_cost = fleet.unit_cost(kind), fleet.fixed_cost(kind)
            for vehicle in crew:
                vehicle.charge(routes, arrivals, fleet, pos, options.charging)
            # no sortie flies farther than the fullest crew battery carries it empty
            walk_cap = min(
                range_cap, energy_mod.battery_range(kind, max(v.level for v in crew), fleet)
            )
            walk_limit = walk_cap + FIT_TOL
            here = rows[launch_node]
            nearby = sorted((here[c], c) for c in unserved if here[c] <= walk_cap)
            if not nearby:
                continue
            pool = sorted(c for _, c in nearby[:NEARBY_POOL])
            if recovery is None:
                recovery = [
                    (t2, q, routes[t2][q], arrivals[t2][q] + TIME_TOL)
                    for t2, q in _recovery_options(
                        arrivals, t, pos, launch_time, options.flexible_docking
                    )
                ]
            open_recovery = [
                r
                for r in recovery
                if (kind, r[2]) not in used_recovery and (r[2] != launch_node or r[2] == 0)
            ]
            if not open_recovery:
                continue
            reach = _recovery_reach(rows, pool, open_recovery, launch_time, speed, walk_limit)
            # recovery geometry depends on the vehicle only through its
            # battery, so price every statically feasible option once per
            # launch point and scan per vehicle below
            seq_options = []
            payload_limit = fleet.payload_cap(kind) + FIT_TOL
            for seq, legs, fixed_dist in rows.sortie_heads(
                launch_node, pool, m_eff, weight, payload_limit, walk_limit, reach
            ):
                last_row = rows[seq[-1]]
                alt_price = None  # summed once a recovery passes range and timing
                options_for_seq = []
                for t2, q, rec_node, deadline in open_recovery:
                    if rec_node in seq:
                        continue
                    last_leg = last_row[rec_node]
                    dist = fixed_dist + last_leg
                    if dist > walk_limit:
                        continue
                    if launch_time + dist / speed > deadline:
                        continue
                    if alt_price is None:
                        alt_price = sum(alternative[c] for c in seq)
                        parcels = [weight[c] for c in seq]
                    sortie_price = fleet.alpha * (unit_cost * dist + fixed_cost)
                    if sortie_price > alt_price:
                        continue  # letting the truck detour is cheaper
                    e = energy_mod.leg_energy(kind, legs + (last_leg,), parcels, fleet)
                    options_for_seq.append((rec_node, e, t2, q, sortie_price))
                if options_for_seq:
                    seq_options.append((seq, options_for_seq))
            if not seq_options:
                continue
            for vehicle in crew:
                level = vehicle.level
                cands = []
                for seq, opts in seq_options:
                    for rec_node, e, t2, q, price in opts:
                        if e > level + FIT_TOL:
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
                            joint_cache[seq] = _joint_insertion_price(seq, routes, inst, fleet)
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
                vehicle.dock(arrivals, e, t2, q)
                break  # one sortie per launch point and kind
    return sorties, carried, unserved


def insert_unserved(routes, unserved, inst: Instance) -> list:
    """Cheapest-insertion of leftovers: minimize d(i,c)+d(c,j)-d(i,j).

    Manhattan truck distances, ties broken by (truck, position, customer);
    iterates until the set is empty.  Runs :func:`_cheapest_insertion`,
    whose per-truck delta tables pick exactly what a full rescan would.
    Callers keep truck-unreachable customers out.
    """
    return _cheapest_insertion(routes, unserved, inst)[0]


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
    reachable = sum(c.truck_reachable for c in inst.customers)
    if reachable < fleet.num_trucks:
        raise InfeasibleError(
            f"{fleet.num_trucks} trucks must each visit a customer but only "
            f"{reachable} are truck-reachable",
            offending_ids=[c.id for c in inst.customers if not c.truck_reachable],
        )
    routes = construct_truck_routes(inst, fleet)
    arrivals = arrival_times(routes, inst, fleet)
    routed = {n for r in routes for n in r if n != 0}
    unserved = {c.id for c in inst.customers} - routed

    sorties, _, unserved = assign_sorties(
        routes, arrivals, unserved, carriages(fleet), inst, fleet, options
    )

    blocked = {c for c in unserved if not inst.node(c).truck_reachable}
    routes = insert_unserved(routes, unserved - blocked, inst)
    for _round in range(2 * inst.num_customers + 2):
        arrivals = arrival_times(routes, inst, fleet)
        steps, carried = walk(
            routes, arrivals, sorties, inst, fleet, options.charging, finish=not blocked
        )
        kept = [replace(sorties[i], launch_time=hour) for i, hour, why in steps if why is None]
        dropped = [c for i, _, why in steps if why is not None for c in sorties[i].sequence]
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
        # anchors the half-built phase-1 routes did not have
        rescued, _, still = assign_sorties(
            routes, arrivals, blocked, carried, inst, fleet, options, existing_sorties=kept
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

    events = tuple(e for c in carried for e in c.events)
    return timed_plan(routes, arrivals, sorties, events, inst, fleet)
