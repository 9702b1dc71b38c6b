import math
import random
from dataclasses import replace

import numpy as np
import pytest

from vrpdr import bench, finder, schedule, validator
from vrpdr.core import (
    ConfigurationError,
    FleetSpec,
    InfeasibleError,
    Instance,
    ModelOptions,
    Node,
    plan_to_json,
)
from conftest import make_instance


def test_route_sizing_formula(fleet):
    # 30 customers, 2 trucks: max(3, 30 // 4) = 7 per truck
    two = FleetSpec(num_trucks=2)
    inst = bench.generate_instance(30, seed=1, fleet=two)
    routes = finder.construct_truck_routes(inst, two)
    assert len(routes) == 2
    assert all(len(r) - 2 <= 7 for r in routes)
    assert max(len(r) - 2 for r in routes) == 7

    # 4 customers, 2 trucks: cap is 3, first truck takes 3, second takes 1
    inst4 = bench.generate_instance(4, seed=2, fleet=two)
    routes4 = finder.construct_truck_routes(inst4, two)
    assert [len(r) - 2 for r in routes4] == [3, 1]

    # no customers: degenerate [0, 0] routes
    inst0 = bench.generate_instance(0, seed=3, fleet=two)
    routes0 = finder.construct_truck_routes(inst0, two)
    assert routes0 == [[0, 0], [0, 0]]


def _reference_nearest_neighbour(inst, fleet):
    """Scalar nearest-neighbour routes: the lowest (math.hypot distance, id)
    key over the free truck-reachable customers, sized as the finder sizes
    them."""
    free = {c.id for c in inst.customers if c.truck_reachable}
    per_truck = max(3, inst.num_customers // (2 * fleet.num_trucks))
    routes = []
    for t in range(fleet.num_trucks):
        quota = min(per_truck, len(free) - (fleet.num_trucks - 1 - t))
        route = [0]
        while len(route) - 1 < quota:
            hx, hy = inst.node(route[-1]).point
            nearest = min(
                free, key=lambda c: (math.hypot(hx - inst.node(c).x, hy - inst.node(c).y), c)
            )
            route.append(nearest)
            free.remove(nearest)
        routes.append(route + [0])
    return routes


def _hypot_disagreement(seed):
    """A point whose straight-line row entry from the origin is not its
    math.hypot, by search."""
    rng = random.Random(seed)
    while True:
        x, y = rng.uniform(0, 15), rng.uniform(0, 15)
        if float(finder._straight_row(np.array([complex(x, y)]), 0j)[0]) != math.hypot(x, y):
            return x, y


def test_construction_matches_scalar_nearest_neighbour():
    """The array construction picks exactly what the scalar key picks."""
    rng = random.Random(17)
    for seed in range(60):
        fleet = FleetSpec(num_trucks=1 + seed % 3)
        n = rng.randint(fleet.num_trucks + 3, 40)
        inst = bench.generate_instance(n, seed=seed, fleet=fleet, unreachable_frac=0.2)
        assert finder.construct_truck_routes(inst, fleet) == _reference_nearest_neighbour(
            inst, fleet
        )

    # mirror images across the y axis: every step from an on-axis stop is an
    # exact tie that the lower id must win
    for seed in range(20):
        half = [(rng.uniform(0.5, 7), rng.uniform(-7, 7)) for _ in range(6)]
        axis = [(0.0, rng.uniform(-7, 7)) for _ in range(4)]
        pts = [(0.0, 0.0)]
        for x, y in half:
            pts += [(x, y), (-x, y)] if rng.random() < 0.5 else [(-x, y), (x, y)]
        pts += axis
        for trucks in (1, 2, 3):
            fleet = FleetSpec(num_trucks=trucks)
            inst = make_instance(pts, fleet=fleet)
            assert finder.construct_truck_routes(inst, fleet) == _reference_nearest_neighbour(
                inst, fleet
            )

    # the kernel's row and math.hypot order these two candidates
    # differently: the scalar key ties them (lower id wins) where the row
    # does not, or the other way round
    for seed in range(5):
        x, y = _hypot_disagreement(seed)
        exact = math.hypot(x, y)
        on_axis = (exact, 0.0)  # math.hypot and the row both give exact here
        for pts in ([(0, 0), (x, y), on_axis], [(0, 0), on_axis, (x, y)]):
            inst = make_instance(pts, fleet=FleetSpec(num_drones=0, num_robots=0))
            row = finder._straight_row(np.array([complex(*p) for p in pts[1:]]), 0j)
            scalar_first = _reference_nearest_neighbour(inst, inst.fleet)[0][1]
            if 1 + int(np.argmin(row)) != scalar_first:
                break
        else:
            pytest.fail("no layout where the row and math.hypot pick differently")
        assert finder.construct_truck_routes(inst, inst.fleet)[0][1] == scalar_first

    # stacked points: a customer on the depot's point, two or three
    # customers on one point, truck-unreachable customers among them
    for seed in range(30):
        spots = [(0.0, 0.0)] + [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        pts = [(0.0, 0.0)] + [rng.choice(spots) for _ in range(rng.randint(4, 10))]
        reachable = [rng.random() < 0.75 for _ in pts[1:]]
        for trucks in (1, 2, 3):
            if sum(reachable) < trucks:
                continue
            fleet = FleetSpec(num_trucks=trucks)
            inst = make_instance(pts, fleet=fleet, reachable=reachable)
            assert finder.construct_truck_routes(inst, fleet) == _reference_nearest_neighbour(
                inst, fleet
            ), (seed, trucks)

    # on both sides of the float limit every step across the depot
    # overflows to inf, where the routed customers' masks lie too
    big = 1.5e308
    pts = [(0.0, 0.0), (big, 0.0), (-big, 1.0), (big, 1.0), (-big, 0.0), (-big, 2.0)]
    for trucks in (1, 2):
        fleet = FleetSpec(num_trucks=trucks)
        inst = make_instance(pts, fleet=fleet)
        with np.errstate(over="ignore"):
            routes = finder.construct_truck_routes(inst, fleet)
        assert routes == _reference_nearest_neighbour(inst, fleet)


def test_straight_row_is_within_the_near_tie_window():
    """The exactness of the nearest-neighbour window rests on this: each
    entry of the kernel's row is within 1e-15 of math.hypot, relative, far
    inside ``NEAR_TIE``, at every scale, and a zero difference gives 0."""
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e-300, 1e-160, 1e160, 1e300):
        d = rng.uniform(-1, 1, (2, 5000)) * scale
        row = finder._straight_row(d[0] + 1j * d[1], 0j).tolist()
        exact = [math.hypot(x, y) for x, y in zip(d[0].tolist(), d[1].tolist())]
        worst = max(abs(r - e) / e for r, e in zip(row, exact))
        assert worst <= 1e-15 < finder.NEAR_TIE, (scale, worst)
    here = complex(2.5, -7.0)
    assert finder._straight_row(np.array([here, here]), here).tolist() == [0.0, 0.0]
    assert finder._straight_row(np.zeros(3, dtype=complex), 0j).tolist() == [0.0, 0.0, 0.0]


def test_every_truck_leaves_the_depot():
    """A truck leaves a reachable customer for each later truck, and too few
    reachable customers for the fleet is infeasible, as in the model."""
    for trucks, sizes in ((3, (4, 5, 6)), (2, (2, 3))):
        fleet = FleetSpec(num_trucks=trucks)
        for size in sizes:
            for seed in range(20):
                inst = bench.generate_instance(size, seed, fleet)
                plan = finder.solve_finder(inst, fleet)
                assert validator.validate(plan, inst, fleet).feasible, (trucks, size, seed)
    three = FleetSpec(num_trucks=3)
    inst = make_instance(
        [(0, 0), (1, 0), (2, 0), (3, 0)], fleet=three, reachable=[True, False, True]
    )
    with pytest.raises(InfeasibleError) as err:
        finder.solve_finder(inst, three)
    assert err.value.offending_ids == (2,)


def test_route_construction_nearest_neighbor():
    fleet = FleetSpec(num_trucks=1)
    inst = make_instance([(0, 0), (1, 0), (2, 0), (5, 5)], weights=[1, 1, 1], fleet=fleet)
    routes = finder.construct_truck_routes(inst, fleet)
    assert routes[0] == [0, 1, 2, 3, 0]


def test_zero_trucks_with_customers():
    fleet = FleetSpec(num_trucks=0, num_drones=0, num_robots=0)
    inst = make_instance([(0, 0), (1, 1)], weights=[1.0], fleet=fleet)
    with pytest.raises(ConfigurationError):
        finder.construct_truck_routes(inst, fleet)


def test_build_timeline_example(fleet):
    # route [0, a, 0] with 9 km Manhattan legs at 45 km/h
    inst = make_instance([(0, 0), (4, 5)], weights=[1.0], fleet=fleet)
    arrivals = schedule.arrival_times([[0, 1, 0]], inst, fleet)
    assert arrivals == [[0.0, pytest.approx(0.2), pytest.approx(0.4)]]


def test_timeline_satisfies_arrival_recurrence(fleet):
    inst = bench.generate_instance(8, seed=5, fleet=fleet)
    routes = finder.construct_truck_routes(inst, fleet)
    arrivals = schedule.arrival_times(routes, inst, fleet)
    for route, times in zip(routes, arrivals):
        for a, b, ta, tb in zip(route[:-1], route[1:], times[:-1], times[1:]):
            assert tb == pytest.approx(ta + inst.truck_distance(a, b) / fleet.s_t)


def test_assign_sorties_range_infeasible(fleet):
    # lone unserved customer 30 km away from everything
    inst = make_instance(
        [(0, 0), (1, 0), (2, 0), (3, 0), (30, 30)],
        weights=[1, 1, 1, 1],
        fleet=fleet,
    )
    routes = [[0, 1, 2, 3, 0]]
    arrivals = schedule.arrival_times(routes, inst, fleet)
    sorties, _, unserved = finder.assign_sorties(
        routes, arrivals, {4}, schedule.carriages(fleet), inst, fleet
    )
    assert sorties == []
    assert unserved == {4}


def test_assign_sorties_rejects_timing_misfit(fleet):
    # drone sortie distance 16 km (runs at 75 km/h) between stops 2 km apart
    # on the truck (gap 2/45 h < 16/75 h), so synchronization fails
    slow = FleetSpec(B_d=1e9)  # battery out of the way: timing must reject
    inst = make_instance(
        [(0.0, 0.0), (3.0, 0.0), (5.0, 0.0), (4.0, 8.0)],
        weights=[1.0, 1.0, 2.0],
        fleet=slow,
    )
    routes = [[0, 1, 2, 0]]
    arrivals = schedule.arrival_times(routes, inst, slow)
    no_flex = ModelOptions(flexible_docking=False)
    sorties, _, unserved = finder.assign_sorties(
        routes, arrivals, {3}, schedule.carriages(slow), inst, slow, no_flex
    )
    assert 3 in unserved
    assert all(3 not in s.sequence for s in sorties)


def test_flexible_docking_cross_truck_recovery():
    """A slow robot misses every stop of its own truck but truck 2 passes by."""
    fleet = FleetSpec(num_trucks=2, num_drones=0, num_robots=1)
    pts = [(0.0, 0.0)]
    pts += [(2.0, 0.0), (3.0, 0.0), (4.0, 0.0), (5.0, 0.0)]   # truck 1, quick loop
    pts += [(-8.0, 0.0), (4.0, 4.0), (6.0, 4.0)]              # truck 2, swings by late
    pts += [(4.0, 3.0)]                                        # robot-only customer
    weights = [1.0] * (len(pts) - 1)
    reachable = [True] * 7 + [False]
    inst = make_instance(pts, weights=weights, reachable=reachable, fleet=fleet)
    routes = [[0, 1, 2, 3, 4, 0], [0, 5, 6, 7, 0]]
    arrivals = schedule.arrival_times(routes, inst, fleet)
    sorties, _, unserved = finder.assign_sorties(
        routes, arrivals, {8}, schedule.carriages(fleet), inst, fleet, ModelOptions()
    )
    assert not unserved
    assert len(sorties) == 1
    s = sorties[0]
    assert s.sequence == (8,)
    assert s.launch_truck != s.recovery_truck

    # with docking fixed to the launch truck the customer stays unserved
    sorties_fixed, _, unserved_fixed = finder.assign_sorties(
        routes,
        arrivals,
        {8},
        schedule.carriages(fleet),
        inst,
        fleet,
        ModelOptions(flexible_docking=False),
    )
    assert unserved_fixed == {8}


def test_flexible_docking_on_seeded_two_truck_instance():
    """A 30-customer, two-truck run produces a sortie that hops trucks."""
    fleet = FleetSpec(num_trucks=2)
    inst = bench.generate_instance(30, seed=0, fleet=fleet)
    plan = finder.solve_finder(inst, fleet)
    assert any(s.launch_truck != s.recovery_truck for s in plan.sorties)
    assert validator.validate(plan, inst, fleet).feasible


def test_carriage_charge_examples(fleet):
    inst = make_instance([(0, 0), (11.25, 11.25), (22.5, 11.25)], weights=[1, 1], fleet=fleet)
    routes = [[0, 1, 2, 0]]
    arrivals = schedule.arrival_times(routes, inst, fleet)
    # leg 1 -> 2 is 11.25 km manhattan = 0.25 h; drain the drone first
    drone = schedule.carriages(fleet)[0]
    drone.level -= 4000.0
    drone.pos = 1
    drone.charge(routes, arrivals, fleet, len(routes[0]) - 1, True)
    # 0.25 h at 5000/h = 1250 from leg 1->2 plus the return leg 2->0
    assert drone.level > 10000.0
    legs = [(e.node, round(e.duration, 4)) for e in drone.events]
    assert (1, 0.25) in legs
    assert all(e.node != 0 for e in drone.events)

    # a vehicle that never launched stays at capacity with no events
    _, fresh = schedule.walk(routes, arrivals, [], inst, fleet, charging=True, finish=True)
    assert all(c.level == fleet.battery(c.kind) for c in fresh)
    assert all(not c.events for c in fresh)


def test_insert_unserved_examples(fleet):
    # segment (0,0) -> (4,0), customer at (2,2): delta = 4 + 4 - 4 = 4
    inst = make_instance([(0, 0), (4, 0), (2, 2), (2, 0)], weights=[1, 1, 1], fleet=fleet)
    routes = [[0, 1, 0]]
    out = finder.insert_unserved(routes, {2}, inst)
    assert out == [[0, 1, 2, 0]] or out == [[0, 2, 1, 0]]
    # collinear customer inserts at zero delta on the covering segment
    out2 = finder.insert_unserved([[0, 1, 0]], {3}, inst)
    assert out2 == [[0, 3, 1, 0]]

    # deterministic tie-break: two equal positions pick the lower index
    sym = make_instance([(0, 0), (2, 0), (-2, 0), (0, 2)], weights=[1, 1, 1], fleet=fleet)
    out3 = finder.insert_unserved([[0, 1, 0], [0, 2, 0]], {3}, sym)
    assert out3[0] == [0, 3, 1, 0] or out3[0] == [0, 1, 3, 0]
    assert out3[1] == [0, 2, 0]


def test_insertion_delta_value(fleet):
    inst = make_instance([(0, 0), (4, 0), (2, 2)], weights=[1, 1], fleet=fleet)
    price = finder._joint_insertion_price((2,), [[0, 1, 0]], inst, fleet)
    # cheapest manhattan detour for (2,2) onto 0->1 or 1->0 is 4 km
    expected = fleet.alpha * fleet.C_t * 4 + (1 - fleet.alpha) * 4 / fleet.s_t
    assert price == pytest.approx(expected)


def _full_rescan_insertion(routes, customers, inst):
    """Reference cheapest insertion: rescan every (customer, edge) per step.

    Returns (routes, summed delta), the contract of the incremental kernel.
    """
    from vrpdr.core import manhattan_distance

    routes = [list(r) for r in routes]
    remaining = sorted(customers)
    total = 0.0
    while remaining:
        best = None
        for c in remaining:
            pc = inst.node(c).point
            for t, route in enumerate(routes):
                for pos in range(len(route) - 1):
                    a = inst.node(route[pos]).point
                    b = inst.node(route[pos + 1]).point
                    delta = (
                        manhattan_distance(a, pc)
                        + manhattan_distance(pc, b)
                        - manhattan_distance(a, b)
                    )
                    key = (delta, t, pos, c)
                    if best is None or key < best:
                        best = key
        delta, t, pos, c = best
        routes[t].insert(pos + 1, c)
        remaining.remove(c)
        total += delta
    return routes, total


def test_single_insertion_matches_brute_force(fleet):
    """Each placement is the true argmin of the detour over all positions,
    and the incremental kernel picks exactly what a full rescan picks."""
    import random

    from vrpdr.core import manhattan_distance

    rng = random.Random(31)
    for _ in range(25):
        pts = [(rng.uniform(0, 15), rng.uniform(0, 15)) for _ in range(6)]
        inst = make_instance(pts, weights=[1.0] * 5, fleet=fleet)
        route = [0, 1, 2, 3, 0]

        def delta(pos, c):
            a = inst.node(route[pos]).point
            b = inst.node(route[pos + 1]).point
            pc = inst.node(c).point
            return (
                manhattan_distance(a, pc)
                + manhattan_distance(pc, b)
                - manhattan_distance(a, b)
            )

        out = finder.insert_unserved([route], {5}, inst)[0]
        chosen_pos = out.index(5) - 1
        best_delta = min(delta(pos, 5) for pos in range(len(route) - 1))
        assert delta(chosen_pos, 5) == pytest.approx(best_delta, abs=1e-12)

    # integer grid points make equal deltas common, so the tie-break is
    # exercised; prices must agree bit for bit, not approximately.  The
    # second draw puts 11-30 leftovers onto routes of 0-2 customers, empty
    # [0, 0] trucks included, so each truck's delta table grows by many
    # columns before its last customer goes in.
    for cases, fewest, most, routed in ((200, 2, 10, 6), (40, 11, 30, 2)):
        for _ in range(cases):
            trucks = rng.randint(1, 3)
            leftovers = rng.randint(fewest, most)
            n = rng.randint(0, routed) + leftovers
            pts = [(float(rng.randint(0, 6)), float(rng.randint(0, 6))) for _ in range(n + 1)]
            inst = make_instance(pts, fleet=FleetSpec(num_trucks=trucks))
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            routes = [[0] for _ in range(trucks)]
            for c in ids[leftovers:]:
                routes[rng.randrange(trucks)].append(c)
            routes = [r + [0] for r in routes]
            open_ids = ids[:leftovers]
            ref_routes, ref_total = _full_rescan_insertion(routes, open_ids, inst)

            assert finder.insert_unserved(routes, set(open_ids), inst) == ref_routes
            seq = tuple(open_ids)
            assert finder._joint_insertion_price(seq, routes, inst, fleet) == (
                finder._detour_price(ref_total, fleet)
            )
            # the solo deltas assign_sorties prices: the tables' first build
            us = np.array(sorted(open_ids), dtype=np.intp)
            solo_deltas = finder._delta_tables(routes, us, inst)[2].min(axis=0).tolist()
            for c, solo_delta in zip(us.tolist(), solo_deltas):
                solo = _full_rescan_insertion(routes, [c], inst)[1]
                assert solo_delta == solo
                assert finder._joint_insertion_price((c,), routes, inst, fleet) == (
                    finder._detour_price(solo, fleet)
                )


def test_truck_only_equals_construct_plus_insert(fleet):
    truck_only = FleetSpec(num_drones=0, num_robots=0)
    inst = bench.generate_instance(12, seed=9, fleet=truck_only)
    plan = finder.solve_finder(inst, truck_only)
    assert plan.sorties == ()
    routes = finder.construct_truck_routes(inst, truck_only)
    routed = {n for r in routes for n in r if n != 0}
    leftovers = {c.id for c in inst.customers} - routed
    expected = finder.insert_unserved(routes, leftovers, inst)
    assert [list(r) for r in plan.truck_routes] == expected


def test_solver_feasible_across_seeds_and_modes(fleet):
    for seed in range(5):
        for mode in ("to", "td", "tr", "ef"):
            run_fleet = bench.mode_fleet(fleet, mode)
            inst = bench.generate_instance(15, seed=seed + 40, fleet=run_fleet)
            plan = finder.solve_finder(inst, run_fleet)
            report = validator.validate(plan, inst, run_fleet)
            assert report.feasible, (seed, mode, [v.detail for v in report.violations][:3])


def test_unreachable_needs_auxiliary_fleet():
    truck_only = FleetSpec(num_drones=0, num_robots=0)
    inst = make_instance(
        [(0, 0), (1, 0), (2, 1)], weights=[1, 1], reachable=[True, False], fleet=truck_only
    )
    with pytest.raises(InfeasibleError) as err:
        finder.solve_finder(inst, truck_only)
    assert 2 in err.value.offending_ids


def test_unreachable_served_by_sortie(fleet):
    inst = make_instance(
        [(0, 0), (1, 0), (1.5, 0.5)], weights=[1, 2], reachable=[True, False], fleet=fleet
    )
    plan = finder.solve_finder(inst, fleet)
    assert any(2 in s.sequence for s in plan.sorties)
    assert validator.validate(plan, inst, fleet).feasible


def test_unreachable_customers_price_at_infinity():
    """A truck-unreachable customer's truck alternative is infinite, read
    from its flag: at any ``alpha`` the price is infinite, not NaN, though
    the customer's Manhattan km are finite."""
    for alpha in (0.0, 0.5, 1.0):
        edge = replace(FleetSpec(), alpha=alpha)
        inst = make_instance([(0, 0), (4, 0), (2, 2)], reachable=[True, False], fleet=edge)
        price = finder._joint_insertion_price((2,), [[0, 1, 0]], inst, edge)
        assert price == math.inf


def test_rescue_pass_uses_anchors_created_by_insertion(fleet):
    """An unreachable customer served only from a node inserted in phase 3.

    Phase 1 routes the four customers near the depot, leaving the far
    cluster to insertion; the unreachable customer sits next to that
    cluster, out of reach of every phase-1 anchor.
    """
    pts = [(0.0, 0.0)]
    pts += [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0)]       # phase-1 picks
    pts += [(10.0, 0.0), (11.0, 0.0), (10.0, 1.0)]                # insertion cluster
    pts += [(10.5, 0.5)]                                           # unreachable
    reachable = [True] * 7 + [False]
    inst = make_instance(pts, weights=[1.0] * 8, reachable=reachable, fleet=fleet)
    routes = finder.construct_truck_routes(inst, fleet)
    assert 8 not in {n for r in routes for n in r}
    assert all(n in (0, 1, 2, 3, 4) for r in routes for n in r)
    plan = finder.solve_finder(inst, fleet)
    rescue = [s for s in plan.sorties if 8 in s.sequence]
    assert rescue and rescue[0].launch_node in (5, 6, 7)
    assert validator.validate(plan, inst, fleet).feasible


def test_finder_matches_exact_feasibility_on_tiny_unreachable_instances(fleet):
    """The greedy never misses feasibility the exhaustive oracle finds."""
    from vrpdr import exact

    for seed in range(15):
        inst = bench.generate_instance(6, seed=seed, fleet=fleet, unreachable_frac=0.34)
        try:
            finder.solve_finder(inst, fleet)
            finder_ok = True
        except InfeasibleError:
            finder_ok = False
        try:
            exact.solve_exact(inst, fleet)
            exact_ok = True
        except InfeasibleError:
            exact_ok = False
        assert finder_ok == exact_ok, (seed, finder_ok, exact_ok)


def test_determinism_byte_identical(fleet):
    inst = bench.generate_instance(40, seed=77, fleet=fleet)
    a = plan_to_json(finder.solve_finder(inst, fleet))
    b = plan_to_json(finder.solve_finder(inst, fleet))
    assert a == b


def test_pruned_sequences_match_filtered_enumeration():
    """The depth-first walk the finder prices its candidates from keeps exactly
    the sequences, and the distances, that full enumeration followed by the
    payload and range filters keeps."""
    from vrpdr.core import DRONE, METRICS, ROBOT, DistanceRows, enumerate_sequences

    rng = random.Random(23)
    for trial in range(200):
        kind = (DRONE, ROBOT)[trial % 2]
        metric = METRICS[kind]
        m = rng.choice([1, 2, 3])
        n = rng.randint(1, 9)
        pts = [(rng.uniform(0, 12), rng.uniform(0, 12)) for _ in range(n + 1)]
        weights = [rng.choice([0.0, rng.uniform(0.5, 10.0)]) for _ in range(n)]
        inst = make_instance(pts, weights=weights)
        start = rng.randrange(n + 1)
        pool = rng.sample([c for c in range(1, n + 1) if c != start], rng.randint(0, min(6, n - 1)))
        payload_cap, range_cap = rng.uniform(0, 25), rng.uniform(0, 30)

        expected = set()
        for seq in enumerate_sequences(pool, m):
            if sum(inst.node(c).weight for c in seq) > payload_cap + 1e-9:
                continue
            path = (start,) + seq
            fixed_dist = sum(
                metric(inst.node(a).point, inst.node(b).point)
                for a, b in zip(path[:-1], path[1:])
            )
            if fixed_dist > range_cap + 1e-9:
                continue
            expected.add((seq, fixed_dist))

        rows = DistanceRows(metric, [nd.point for nd in inst.nodes])
        walked = list(
            rows.sortie_heads(
                start, sorted(pool), m, [nd.weight for nd in inst.nodes],
                payload_cap + 1e-9, range_cap + 1e-9,
            )
        )
        assert {(seq, dist) for seq, _, dist in walked} == expected
        assert len(walked) == len(expected)
        for seq, legs, _ in walked:
            path = (start,) + seq
            assert legs == tuple(inst.distance(kind, a, b) for a, b in zip(path[:-1], path[1:]))


def test_assign_sorties_without_open_recovery_walks_nothing(monkeypatch):
    """With every recovery node booked, no launch point starts the sortie walk."""
    from vrpdr.core import DistanceRows, Sortie

    fleet = FleetSpec(num_trucks=2)  # flexible docking lists both trucks' stops
    inst = bench.generate_instance(20, seed=1, fleet=fleet)
    routes = finder.construct_truck_routes(inst, fleet)
    arrivals = schedule.arrival_times(routes, inst, fleet)
    unserved = {c.id for c in inst.customers} - {n for r in routes for n in r}
    walk = DistanceRows.sortie_heads
    walks = []

    def counted(rows, start, *args):
        walks.append(start)
        return walk(rows, start, *args)

    # premise: unbooked, the same call walks from some launch point
    monkeypatch.setattr(DistanceRows, "sortie_heads", counted)
    finder.assign_sorties(routes, arrivals, unserved, schedule.carriages(fleet), inst, fleet)
    assert walks

    # launched off the routes, so they book recovery nodes and no launch point
    off_route, parcel = min(unserved), max(unserved)
    booked = [
        Sortie(kind, 0, off_route, node, (parcel,), 0, 0)
        for kind in ("drone", "robot")
        for node in {n for r in routes for n in r}
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("sortie walk started with no open recovery")

    monkeypatch.setattr(DistanceRows, "sortie_heads", refuse)
    sorties, _, left = finder.assign_sorties(
        routes, arrivals, unserved, schedule.carriages(fleet), inst, fleet,
        existing_sorties=booked,
    )
    assert sorties == []
    assert left == unserved


def test_charging_in_two_calls_equals_one():
    """Advancing a carried vehicle's charging to a stop in one call, or to an
    earlier stop first and then to it, gives the same level bits and the
    same events, so the crew may charge before the sortie walk."""
    rng = random.Random(5)
    charged = topped_up = 0
    for seed in range(40):
        fleet = FleetSpec(num_trucks=1 + seed % 2, num_drones=2, num_robots=2)
        inst = bench.generate_instance(rng.randint(8, 40), seed=seed, fleet=fleet)
        routes = finder.construct_truck_routes(inst, fleet)
        arrivals = schedule.arrival_times(routes, inst, fleet)
        for charging in (True, False):
            one, two = schedule.carriages(fleet), schedule.carriages(fleet)
            for a, b in zip(one, two):
                route = routes[a.truck]
                a.pos = b.pos = rng.randrange(len(route) - 1)
                drain = rng.uniform(0.0, fleet.battery(a.kind))
                a.level -= drain
                b.level -= drain
                pos = rng.randint(a.pos, len(route) - 1)
                a.charge(routes, arrivals, fleet, pos, charging)
                split = rng.randint(0, pos)
                b.charge(routes, arrivals, fleet, split, charging)
                b.charge(routes, arrivals, fleet, pos, charging)
                assert a.level.hex() == b.level.hex()
                assert a.events == b.events
                assert a.charged_upto == b.charged_upto
                if not charging:
                    assert not a.events
                charged += bool(a.events)
                topped_up += bool(a.events) and a.level >= fleet.battery(a.kind) - 1e-6
    # premise: some vehicles charged, and some hit the capacity clamp
    assert charged and topped_up


def test_walk_names_each_reason_and_keeps_the_vehicle():
    """Each failing sortie walked after one that flies is named, and leaves
    the carriage as the first sortie left it."""
    from vrpdr.core import Sortie

    fleet = FleetSpec(num_robots=0)
    pts = [(0, 0), (1, 0), (2, 0), (3, 0), (10, 0)]  # truck stops 1-4
    pts += [(1, 0.5), (3, 0), (2, 4)]                  # customers 5, 6 (on stop 3), 7
    inst = make_instance(pts, fleet=fleet)
    routes = [[0, 1, 2, 3, 4, 0]]
    arrivals = schedule.arrival_times(routes, inst, fleet)
    # from the depot to stop 2: drone 0 then rides the truck from hour 2/45
    first = Sortie("drone", 0, 0, 2, (5,), 0, 0)
    cases = [
        (schedule.NOT_ABOARD, Sortie("drone", 0, 1, 3, (6,), 0, 0)),  # stop 1 is behind it
        (schedule.NOT_ABOARD, Sortie("drone", 0, 0, 3, (6,), 0, 0)),  # the depot, position 0
        (schedule.LATE, Sortie("drone", 0, 2, 3, (7,), 0, 0)),  # 8.1 km against a 1 km leg
        (schedule.SAME_STOP, Sortie("drone", 0, 3, 3, (6,), 0, 0)),  # no flight time
        (schedule.BATTERY_SHORT, Sortie("drone", 0, 3, 0, (7,), 0, 0)),  # 20,300 units
    ]
    steps, (before,) = schedule.walk(routes, arrivals, [first], inst, fleet, True, False)
    assert steps == [(0, 0.0, None)]
    assert (before.truck, before.pos, before.ready) == (0, 2, arrivals[0][2])
    assert before.level < fleet.B_d

    def state(c):
        return (c.level.hex(), c.truck, c.pos, c.ready, c.charged_upto, c.trips, c.events)

    for reason, sortie in cases:
        steps, (after,) = schedule.walk(
            routes, arrivals, [first, sortie], inst, fleet, True, False
        )
        assert [(i, why) for i, _, why in steps] == [(0, None), (1, reason)], reason
        assert state(after) == state(before), reason
    # hand-built rows that reach stop 3 before stop 2: carried there, not back yet
    early = [arrivals[0][:3] + [arrivals[0][1]] + arrivals[0][4:]]
    late_stop = Sortie("drone", 0, 3, 4, (7,), 0, 0)
    steps, (after,) = schedule.walk(routes, early, [first, late_stop], inst, fleet, True, False)
    assert [(i, why) for i, _, why in steps] == [(0, None), (1, schedule.NOT_BACK)]
    assert state(after) == state(before)
    # premise: the short sortie's vehicle charges on leg 2 -> 3 before the battery check
    trial = replace(before, events=list(before.events))
    trial.charge(routes, arrivals, fleet, 3, True)
    assert [e.node for e in trial.events] == [2] and trial.level > before.level


def test_assign_sorties_with_empty_batteries_walks_nothing(monkeypatch):
    """No charge, no battery range: no launch point starts the sortie walk."""
    from vrpdr.core import DistanceRows

    fleet = FleetSpec(num_trucks=2, num_drones=2, num_robots=2)
    inst = bench.generate_instance(30, seed=1, fleet=fleet)
    routes = finder.construct_truck_routes(inst, fleet)
    arrivals = schedule.arrival_times(routes, inst, fleet)
    unserved = {c.id for c in inst.customers} - {n for r in routes for n in r}
    options = ModelOptions(charging=False)

    # premise: with full batteries the same call walks and flies sorties
    sorties, _, _ = finder.assign_sorties(
        routes, arrivals, unserved, schedule.carriages(fleet), inst, fleet, options
    )
    assert sorties

    def refuse(*args, **kwargs):
        raise AssertionError("sortie walk started with no battery to fly it")

    monkeypatch.setattr(DistanceRows, "sortie_heads", refuse)
    carried = schedule.carriages(fleet)
    for c in carried:
        c.level = 0.0
    sorties, _, left = finder.assign_sorties(
        routes, arrivals, unserved, carried, inst, fleet, options
    )
    assert sorties == []
    assert left == unserved


def test_assign_sorties_without_auxiliary_fleet_prices_nothing():
    """No drone or robot, or no open customer: return before any table is built."""
    truck_only = FleetSpec(num_drones=0, num_robots=0)
    inst = make_instance([(0, 0), (1, 0), (2, 1)], fleet=truck_only)
    carried = schedule.carriages(truck_only)
    # None stands in for the routes and their arrivals: neither may be read
    assert finder.assign_sorties(None, None, {2}, carried, inst, truck_only) == ([], carried, {2})
    full = FleetSpec()
    full_carried = schedule.carriages(full)
    assert finder.assign_sorties(None, None, set(), full_carried, inst, full) == (
        [], full_carried, set()
    )


# sha256 of plan_to_json(solve_finder(...)), recorded before the insertion
# kernel (first six rows), before the pruned sortie walk (the next nine),
# before the battery-bounded walk (the next six) and before the insertion
# kernel read truck rows instead of the n x n table (the last two); a change
# meant only to speed the finder up keeps every plan
GOLDEN_PLANS = [
    ("to", 150, 1, {}, "5465bf8629ba743c1e16f542a927ce127e523f7913fcd3251d415f2579e5068d"),
    ("to", 150, 2, {}, "e9f4bb5f6d5c593a3a650b02e791a0cf51b4ce246c7a4fda4620ffb67eab1121"),
    ("to", 300, 1, {}, "746f77d02e0c931550083a48a0542cc736426fc77ed1e5f9ae7ecb94bbd2c026"),
    ("to3", 150, 1, {}, "d9aef61b3a8137626e0b780bf70b78b611d80ee5f98b1ccc519a244ebfb1335a"),
    ("ef", 20, 1, {}, "74016c3ddf5fee6e65bdcbd2bab135ff4cd2541aa257f4f4eb74eb63ceadf8dc"),
    ("ef", 20, 2, {}, "8d2cbe94c3ff8d32f4b37c1d94201d3c3d2974145d189da19dd6b7bd9fd91497"),
    ("ef", 20, 3, {}, "3bce3aa1c32e54a7222753cdb6ce7eb04cb5c6b0f7f6708b81921e29c1eed0af"),
    ("docking", 30, 0, {}, "73186953b31bea7019274c699476eddea218ac84d8b23cab5db0a3a0e5083d66"),
    ("ef", 60, 4242, {}, "97389971257576487f5f942321d3ea7481211198365b481b8e20bc24395f2d2e"),
    ("ef", 150, 1, {}, "f255fc335a08d11e2e9c8cca4fa5872a683c446c655caa7857b4af0c77f11395"),
    ("ef3", 100, 1, {}, "d186dbdf5d3d143585595cdf91a4b2b517971cae3b45277a0c552c34ada21837"),
    ("docking", 60, 1, {}, "fdc11093385abef733a5ffe7b79a44ffb7fb3ca531e360f6f2c8dd70401a16f4"),
    (
        "ef", 40, 5, {"single_visit": True},
        "110f1621c8a07b780c43a65f896dd1bba1532498481bab4b4dd207f3a3b45ec8",
    ),
    (
        "ef", 40, 6, {"charging": False},
        "e47ba6cbe05492f7bb3512c64479e5ebac7bea0f01e98d5a93e58e3beb202c83",
    ),
    (
        "ef", 40, 7, {"single_trip": True},
        "39be1fc9fd44712fb7c10a78888084a3c65cad96e0b70b589ed766f7fed06406",
    ),
    ("ef", 300, 1, {}, "56731b09c897d8f30941be4de1856eb30be18e471881455b768e22758b087ecf"),
    ("low", 60, 2, {}, "6d2ed198147230621e922d172a3a5605ed57b2fe6b6b5c85ecc769c64f6af592"),
    ("low", 60, 3, {}, "c6bf4480a0f1c552799acfde80e8ad568961a01d583f27fe81d2b3613fed9cb0"),
    ("free", 30, 1, {}, "15270427edc28be92b385b4ef592bf2c565d1a69cccc208d649cd24dd7c2a79f"),
    ("big", 40, 2, {}, "8d92472c77d46d24eaacedebc3d12b376a215835aa7f17ca006fa66d4cbfca40"),
    ("bigger", 40, 2, {}, "8f61cfd1e83cf70937df9e74d2b7a9a7f101adba4a4090ac187b73bbc06e198c"),
    ("to", 600, 0, {}, "0a4c6145bba3fe7f1616c1d7ad8f326f5c03eab1cbba0fb0e36e47a18ebeb6c5"),
    ("to", 600, 1, {}, "5944849a87ceaa7eede73ca1008de0185c9eb6b3bb85aa0012ff33a4ca4343ed"),
]


GOLDEN_FLEETS = {
    "to": FleetSpec(num_drones=0, num_robots=0),
    "to3": FleetSpec(num_trucks=3, num_drones=0, num_robots=0),
    "ef": FleetSpec(),
    "ef3": FleetSpec(num_trucks=3, num_drones=2, num_robots=2),  # crews, docking on 3 trucks
    "docking": FleetSpec(num_trucks=2),  # flexible docking, cross-truck sorties
    # full-battery range (km) drone / robot: 5.2 / 13.2, under both range caps
    "low": FleetSpec(num_trucks=3, num_drones=2, num_robots=2, B_d=12000, B_r=7000),
    # no unloaded energy rate, so no battery range bound
    "free": FleetSpec(num_trucks=2, num_drones=2, num_robots=2, W_d=0.0, k1=0.0),
    # 17.4 / 56.4: the robot range cap binds before its battery
    "big": FleetSpec(B_d=40000, B_r=30000, C_rate_d=500),
    # 21.7 / 56.4: both range caps bind before the battery
    "bigger": FleetSpec(B_d=50000, B_r=30000, C_rate_d=500),
}


def _golden_id(case):
    fleet_name, size, seed, options, digest = case
    flags = [f"{name}={value}" for name, value in sorted(options.items())]
    return "-".join([fleet_name, str(size), str(seed), *flags, digest])


@pytest.mark.parametrize(
    "fleet_name, size, seed, options, digest",
    GOLDEN_PLANS,
    ids=[_golden_id(case) for case in GOLDEN_PLANS],
)
def test_golden_plan_hashes(fleet_name, size, seed, options, digest):
    import hashlib

    fleet = GOLDEN_FLEETS[fleet_name]
    inst = bench.generate_instance(size, seed=seed, fleet=fleet)
    text = plan_to_json(finder.solve_finder(inst, fleet, ModelOptions(**options)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of plan_to_json(solve_finder(...)) with all toggles on, on plans
# whose replay drops a late sortie or whose rescue pass serves
# truck-unreachable customers; recorded before the replay became
# schedule.walk
GOLDEN_REPLAY_PLANS = [
    # fleet, size, seed, unreachable_frac, digest; the first two drop a late sortie
    ("docking", 20, 35, 0.0, "642e81a07234cfb51cc1ea79eebce070eb6c126e719e0ab96d2e92a47d57be6b"),
    ("ef3", 60, 18, 0.0, "6efe4889210054b699080eac6dbe2b0d08f2adb764b67023b7545e2dfda3ed1b"),
    # one rescued sortie, 21 charging events
    ("ef", 20, 1, 0.1, "24ef9ec5a4d6d272ad178e48d6fab8e58a4c9bc34159f3289db611afcbb1b38f"),
    # a late sortie dropped, two rescued, 4 sorties and 52 charging events
    ("ef3", 60, 30, 0.1, "b0f37f0b7ce14b9e947ac086d8f10668972ae6a732c742bef2cd74b29cd69318"),
]


@pytest.mark.parametrize(
    "fleet_name, size, seed, unreachable_frac, digest",
    GOLDEN_REPLAY_PLANS,
    ids=["-".join(map(str, case)) for case in GOLDEN_REPLAY_PLANS],
)
def test_golden_replay_plan_hashes(fleet_name, size, seed, unreachable_frac, digest):
    import hashlib

    fleet = GOLDEN_FLEETS[fleet_name]
    inst = bench.generate_instance(size, seed, fleet, unreachable_frac=unreachable_frac)
    text = plan_to_json(finder.solve_finder(inst, fleet))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_full_plan_json_round_trip(fleet):
    from vrpdr.core import plan_from_json

    inst = bench.generate_instance(30, seed=8, fleet=fleet)
    plan = finder.solve_finder(inst, fleet)
    assert plan.sorties  # ensure the round trip covers sorties and charging
    text = plan_to_json(plan)
    back = plan_from_json(text)
    assert plan_to_json(back) == text
    assert validator.validate(back, inst, fleet).feasible


def test_insertion_never_grows_unserved(fleet):
    inst = bench.generate_instance(25, seed=13, fleet=fleet)
    routes = finder.construct_truck_routes(inst, fleet)
    routed = {n for r in routes for n in r if n != 0}
    leftovers = {c.id for c in inst.customers} - routed
    out = finder.insert_unserved(routes, leftovers, inst)
    covered = {n for r in out for n in r if n != 0}
    assert covered == {c.id for c in inst.customers}


def test_s5_objective_band(fleet):
    objs = []
    gaps = []
    from vrpdr import exact

    for seed in range(25):
        inst = bench.generate_instance(5, seed=seed, fleet=fleet)
        heur = finder.solve_finder(inst, fleet).objective_breakdown.weighted_objective
        best = exact.solve_exact(inst, fleet).objective_breakdown.weighted_objective
        objs.append(heur)
        gaps.append(bench.gap(best, heur))
    mean_obj = sum(objs) / len(objs)
    mean_gap = sum(gaps) / len(gaps)
    assert 79.0 <= mean_obj <= 125.0
    assert 0.0 <= mean_gap <= 30.0


def test_robot_fleet_with_zero_weight_parcels():
    """A robot-only fleet solves when zero-weight parcels end a sequence.

    On this instance, the 18th drawn, subtracting parcels from their sum
    leaves a carried mass of -2.8e-17, which the robot power formula
    rejects unless it is clamped at 0.
    """
    rng = random.Random(0)
    for _ in range(18):
        nodes = [Node(0, 2.0, 2.0)]
        for i in range(1, 11):
            x, y = rng.uniform(0, 4), rng.uniform(0, 4)
            nodes.append(Node(i, x, y, rng.choice([0.0, 0.0, rng.uniform(0.1, 3)])))
    fleet = FleetSpec(num_drones=0, num_robots=1)
    inst = Instance(nodes, fleet)
    plan = finder.solve_finder(inst, fleet)
    assert plan.sorties
    assert validator.validate(plan, inst, fleet).feasible
