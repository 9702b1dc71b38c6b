import pytest

from vrpdr import bench, finder, validator
from vrpdr.core import (
    ConfigurationError,
    FleetSpec,
    InfeasibleError,
    ModelOptions,
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
    timeline = finder.build_timeline([[0, 1, 0]], inst, fleet)
    assert timeline.stops[0] == ((0, 0.0), (1, pytest.approx(0.2)), (0, pytest.approx(0.4)))
    degenerate = finder.build_timeline([[0, 0]], inst, fleet)
    assert degenerate.stops[0] == ((0, 0.0),)


def test_timeline_satisfies_arrival_recurrence(fleet):
    inst = bench.generate_instance(8, seed=5, fleet=fleet)
    routes = finder.construct_truck_routes(inst, fleet)
    timeline = finder.build_timeline(routes, inst, fleet)
    for t, stops in enumerate(timeline.stops):
        for (a, ta), (b, tb) in zip(stops[:-1], stops[1:]):
            assert tb == pytest.approx(ta + inst.truck_distance(a, b) / fleet.s_t)


def test_assign_sorties_range_infeasible(fleet):
    # lone unserved customer 30 km away from everything
    inst = make_instance(
        [(0, 0), (1, 0), (2, 0), (3, 0), (30, 30)],
        weights=[1, 1, 1, 1],
        fleet=fleet,
    )
    routes = [[0, 1, 2, 3, 0]]
    timeline = finder.build_timeline(routes, inst, fleet)
    sorties, _, unserved = finder.assign_sorties(
        routes, timeline, {4}, finder.initial_states(fleet), inst, fleet
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
    timeline = finder.build_timeline(routes, inst, slow)
    no_flex = ModelOptions(flexible_docking=False)
    sorties, _, unserved = finder.assign_sorties(
        routes, timeline, {3}, finder.initial_states(slow), inst, slow, no_flex
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
    timeline = finder.build_timeline(routes, inst, fleet)
    states = finder.initial_states(fleet)
    sorties, _, unserved = finder.assign_sorties(
        routes, timeline, {8}, states, inst, fleet, ModelOptions()
    )
    assert not unserved
    assert len(sorties) == 1
    s = sorties[0]
    assert s.sequence == (8,)
    assert s.launch_truck != s.recovery_truck

    # with docking fixed to the launch truck the customer stays unserved
    sorties_fixed, _, unserved_fixed = finder.assign_sorties(
        routes,
        timeline,
        {8},
        finder.initial_states(fleet),
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


def test_apply_enroute_charging_examples(fleet):
    inst = make_instance([(0, 0), (11.25, 11.25), (22.5, 11.25)], weights=[1, 1], fleet=fleet)
    routes = [[0, 1, 2, 0]]
    timeline = finder.build_timeline(routes, inst, fleet)
    # leg 1 -> 2 is 11.25 km manhattan = 0.25 h; drain the drone first
    states = finder.initial_states(fleet)
    drone = states[0]
    drone.ledger = drone.ledger.consume(0.0, 4000.0)
    drone.aboard_pos = 1
    finder.apply_enroute_charging([drone], timeline, fleet)
    # 0.25 h at 5000/h = 1250 from leg 1->2 plus the return leg 2->0
    assert drone.ledger.level > 10000.0
    legs = [(e.node, round(e.duration, 4)) for e in drone.events]
    assert (1, 0.25) in legs
    assert all(e.node != 0 for e in drone.events)

    # a vehicle that never launched stays at capacity with no events
    fresh = finder.initial_states(fleet)
    finder.apply_enroute_charging(fresh, timeline, fleet)
    assert all(s.ledger.level == s.ledger.capacity for s in fresh)
    assert all(not s.events for s in fresh)


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
    table = inst.matrix("truck").tolist()
    deltas = finder._insertion_alternative([[0, 1, 0]], {2}, inst, fleet, table)
    # cheapest manhattan detour for (2,2) onto 0->1 or 1->0 is 4 km
    expected = fleet.alpha * fleet.C_t * 4 + (1 - fleet.alpha) * 4 / fleet.s_t
    assert deltas[2] == pytest.approx(expected)


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
    # exercised; prices must agree bit for bit, not approximately
    for _ in range(200):
        trucks = rng.randint(1, 3)
        leftovers = rng.randint(2, 10)
        n = rng.randint(0, 6) + leftovers
        pts = [(float(rng.randint(0, 6)), float(rng.randint(0, 6))) for _ in range(n + 1)]
        inst = make_instance(pts, fleet=FleetSpec(num_trucks=trucks))
        ids = list(range(1, n + 1))
        rng.shuffle(ids)
        routes = [[0] for _ in range(trucks)]
        for c in ids[leftovers:]:
            routes[rng.randrange(trucks)].append(c)
        routes = [r + [0] for r in routes]
        open_ids = ids[:leftovers]
        table = inst.matrix("truck").tolist()
        ref_routes, ref_total = _full_rescan_insertion(routes, open_ids, inst)

        assert finder.insert_unserved(routes, set(open_ids), inst) == ref_routes
        seq = tuple(open_ids)
        assert finder._joint_insertion_price(seq, routes, inst, fleet, table) == (
            finder._detour_price(ref_total, fleet)
        )
        alternative = finder._insertion_alternative(routes, open_ids, inst, fleet, table)
        for c in open_ids:
            solo = _full_rescan_insertion(routes, [c], inst)[1]
            assert alternative[c] == finder._detour_price(solo, fleet)


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


# sha256 of plan_to_json(solve_finder(...)), recorded with the full-rescan
# insertion; a change meant only to speed the finder up keeps every plan
GOLDEN_PLANS = [
    ("to", 150, 1, "5465bf8629ba743c1e16f542a927ce127e523f7913fcd3251d415f2579e5068d"),
    ("to", 150, 2, "e9f4bb5f6d5c593a3a650b02e791a0cf51b4ce246c7a4fda4620ffb67eab1121"),
    ("ef", 20, 1, "74016c3ddf5fee6e65bdcbd2bab135ff4cd2541aa257f4f4eb74eb63ceadf8dc"),
    ("ef", 20, 2, "8d2cbe94c3ff8d32f4b37c1d94201d3c3d2974145d189da19dd6b7bd9fd91497"),
    ("ef", 20, 3, "3bce3aa1c32e54a7222753cdb6ce7eb04cb5c6b0f7f6708b81921e29c1eed0af"),
    ("docking", 30, 0, "73186953b31bea7019274c699476eddea218ac84d8b23cab5db0a3a0e5083d66"),
]


@pytest.mark.parametrize("fleet_name, size, seed, digest", GOLDEN_PLANS)
def test_golden_plan_hashes(fleet_name, size, seed, digest):
    import hashlib

    fleet = {
        "to": FleetSpec(num_drones=0, num_robots=0),
        "ef": FleetSpec(),
        "docking": FleetSpec(num_trucks=2),  # flexible docking, cross-truck sorties
    }[fleet_name]
    inst = bench.generate_instance(size, seed=seed, fleet=fleet)
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
