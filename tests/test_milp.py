import collections
import dataclasses
import hashlib
import itertools
import math
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrpdr import bench, energy, exact, lp_io, milp, schedule
from vrpdr.core import (
    DRONE,
    FIT_TOL,
    ROBOT,
    FleetSpec,
    Instance,
    ModelOptions,
    ModelSizeError,
    Node,
    Plan,
    Sortie,
    VrpdrError,
    enumerate_sequences,
    sortie_distance,
)
from conftest import energy_rate, make_instance

DATA = os.path.join(os.path.dirname(__file__), "data")


def one_customer_instance():
    fleet = FleetSpec(num_drones=0, num_robots=0)
    return Instance([Node(0, 0.0, 0.0), Node(1, 3.0, 0.0, 2.0)], fleet)


def test_one_customer_model_has_two_forced_arcs():
    inst = one_customer_instance()
    model = milp.build_model(inst, inst.fleet)
    binaries = [v.name for v in model.variables if v.kind == milp.BINARY]
    assert binaries == ["x_t0_0_1", "x_t0_1_0"]
    # substituting the only tour satisfies the whole model
    plan = Plan(
        truck_routes=((0, 1, 0),),
        truck_arrivals=({1: 3 / 45, 0: 6 / 45},),
    )
    values = milp.plan_assignment(model, plan, inst, inst.fleet)
    assert values["x_t0_0_1"] == 1.0 and values["x_t0_1_0"] == 1.0
    assert milp.check_assignment(model, values) == []


def test_sortie_variable_count_matches_enumeration_oracle():
    # 2 customers, m=1, 1 drone, no robot
    fleet = FleetSpec(num_robots=0, m=1)
    inst = make_instance([(0, 0), (1, 0), (0, 1)], fleet=fleet)
    model = milp.build_model(inst, fleet)
    y_vars = [v for v in model.variables if v.name.startswith("y_")]
    # oracle: sequences of length 1 over {1, 2}; anchors are the other two
    # nodes; launch == recovery only at the depot
    from vrpdr.core import enumerate_sequences

    count = 0
    for seq in enumerate_sequences({1, 2}, 1):
        anchors = [v for v in (0, 1, 2) if v not in seq]
        count += sum(1 for i in anchors for k in anchors if i != k or i == 0)
    assert count == 6
    assert len(y_vars) == count * fleet.num_trucks**2


def test_golden_lp_export():
    inst = one_customer_instance()
    text = milp.export_lp(milp.build_model(inst, inst.fleet))
    with open(os.path.join(DATA, "one_customer_truck_only.lp")) as fh:
        assert text == fh.read()


def test_export_deterministic(fleet):
    inst = bench.generate_instance(4, seed=3, fleet=fleet)
    a = milp.export_lp(milp.build_model(inst, fleet))
    b = milp.export_lp(milp.build_model(inst, fleet))
    assert a == b


def test_lp_round_trip_term_counts(fleet):
    inst = bench.generate_instance(3, seed=5, fleet=fleet)
    model = milp.build_model(inst, fleet)
    text = milp.export_lp(model)
    parsed = lp_io.parse_lp(text)
    assert len(parsed.constraints) == len(model.constraints)
    assert len(parsed.objective) == len(model.objective_terms)
    for (name, terms, sense, rhs), c in zip(parsed.constraints, model.constraints):
        assert len(terms) == len(c.terms)
        assert sense == c.sense
        assert rhs == pytest.approx(c.rhs)
    assert len(parsed.binaries) == sum(1 for v in model.variables if v.kind == milp.BINARY)
    names = set(parsed.variable_names())
    assert names == {v.name for v in model.variables}


def test_charging_toggle_removes_exactly_the_charging_block(fleet):
    inst = bench.generate_instance(3, seed=1, fleet=fleet)
    with_charging = milp.build_model(inst, fleet, ModelOptions(charging=True))
    without = milp.build_model(inst, fleet, ModelOptions(charging=False))
    assert set(milp.CHARGING_FAMILIES) <= with_charging.families()
    assert without.families() == with_charging.families() - set(milp.CHARGING_FAMILIES)
    gone = {v.name for v in with_charging.variables} - {v.name for v in without.variables}
    assert gone and all(n.startswith(("C_", "Ct_")) for n in gone)
    kept_constraints = {c.name for c in without.constraints}
    full_constraints = {c.name for c in with_charging.constraints}
    removed = full_constraints - kept_constraints
    removed_families = {c.family for c in with_charging.constraints if c.name in removed}
    assert removed_families == set(milp.CHARGING_FAMILIES)


def _perm(n, k):
    return math.factorial(n) // math.factorial(n - k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_constraint_counts_match_closed_forms(n, fleet):
    """Per-family counts follow from the kept (kind, candidate) pairs.

    With every cap lifted no candidate is dropped, and the pair counts meet
    the closed forms over ordered sequences and anchor pairs.
    """
    inst = bench.generate_instance(n, seed=n, fleet=fleet)
    uncapped = dataclasses.replace(
        fleet, rho_d=1e6, rho_r=1e6, D_max_d=1e6, D_max_r=1e6, B_d=1e12, B_r=1e12
    )
    V = n + 1
    m = fleet.m
    kinds = 2  # one drone and one robot
    # candidate sorties: ordered sequences times anchor pairs
    S = sum(_perm(n, L) * ((V - L) ** 2 - (V - L) + 1) for L in range(1, min(m, n) + 1))
    S0 = sum(_perm(n, L) * (V - L) for L in range(1, min(m, n) + 1))
    # flow columns per commodity k: the depot's n arcs and the (n - 1)^2
    # arcs between customers that leave no customer k
    F = n * (n + (n - 1) ** 2)
    for caps in (fleet, uncapped):
        model = milp.build_model(inst, caps)
        pairs = [(kind, c) for c in model.info["candidates"] for kind in c.dist]
        P = len(pairs)
        P0 = sum(1 for _, c in pairs if c.i == 0)
        flying = {kind for kind, _ in pairs}
        from_depot = {kind for kind, c in pairs if c.i == 0}
        if caps is uncapped:
            assert (P, P0) == (S * kinds, S0 * kinds)
        else:
            assert P < S * kinds
        counts = collections.Counter(c.family for c in model.constraints)
        assert counts[milp.MAKESPAN] == 1 + len(flying)
        assert counts[milp.VISIT_ONCE] == n
        assert counts[milp.DEPOT] == 2
        assert counts[milp.FLOW] == V
        # per commodity a depot row and a row per customer, and a capacity
        # row per flow column
        assert counts[milp.SUBTOUR_FLOW] == n * (n + 1) + F
        assert counts[milp.DEPOT_BATTERY] == len(from_depot)
        assert counts[milp.NO_DEPOT_CHARGE] == kinds
        assert counts[milp.CHARGE_PRESENCE] == kinds * n
        assert counts[milp.BATTERY_BALANCE] == len(flying)
        assert counts[milp.OVERCHARGE] == len(flying)
        assert counts[milp.CHARGE_TIME] == V
        assert counts[milp.CHARGE_RATE] == kinds * V
        assert counts[milp.ARRIVAL_SEQ] == V * (V - 1)
        assert counts[milp.LAUNCH_SYNC] == P - P0
        assert counts[milp.RETURN_SYNC] == P
        # docking: one launch and one recovery row per kind per anchor node
        # of a candidate that kind can fly
        anchors = sum(
            len({c.i for k, c in pairs if k == kind}) + len({c.k for k, c in pairs if k == kind})
            for kind in flying
        )
        assert counts[milp.DOCKING] == anchors
        # columns: arcs, Gamma, A, a selection and a launch time per kept
        # pair, the charge (per kind) and charge-time columns per node, and
        # the flow columns
        assert len(model.variables) == V * (V - 1) + 1 + V + 2 * P + (kinds + 1) * V + F
        # the candidate list keeps the caps, so they have no rows
        assert not counts.keys() & {milp.PAYLOAD, milp.RANGE, milp.PRECEDENCE}


def test_feasible_plans_substitute_into_the_model(fleet):
    cases = [(bench.generate_instance(4, seed=seed, fleet=fleet), fleet) for seed in (0, 4, 9)]
    # robot only, with a battery below the draw of its two sorties: the exact
    # plan charges the robot between them, so the battery rows bind
    robot_fleet = FleetSpec(num_drones=0, B_r=7000.0, C_rate_r=40000.0)
    points = [(0, 0), (4, 0), (8, 0), (12, 0), (2, 4), (10, 4)]
    cases.append((make_instance(points, fleet=robot_fleet), robot_fleet))
    for inst, fleet in cases:
        model = milp.build_model(inst, fleet)
        plan = exact.solve_exact(inst, fleet)
        if fleet is robot_fleet:
            assert any(e.vehicle_kind == ROBOT for e in plan.charging_events)
        values = milp.plan_assignment(model, plan, inst, fleet)
        assert milp.check_assignment(model, values) == []
        assert milp.evaluate_objective(model, values) == pytest.approx(
            plan.objective_breakdown.weighted_objective, abs=1e-9
        )


def _relaxed(text):
    """The exported LP with every binary relaxed to [0, 1]."""
    head, binaries = text.split("Binaries\n")
    names = binaries.replace("End\n", "").split()
    bounds = "".join(f" 0 <= {name} <= 1\n" for name in names)
    return head.replace("Bounds\n", "Bounds\n" + bounds) + "End\n"


def test_relaxation_meets_every_subtour_cut():
    """The LP relaxation sends each served customer's in-degree into any set
    holding it: the cut form of every subtour-elimination row.

    With Miller-Tucker-Zemlin order rows in place of the flow rows, this
    relaxation kept a fractional subtour, with x_1_3 = x_3_1 = 0.8 fed only
    0.2 from outside {1, 3}, and a root bound of 43.5 against an optimum of
    68.1.
    """
    fleet = FleetSpec()
    inst = bench.generate_instance(5, seed=23, fleet=fleet)
    root, values = lp_io.solve_lp_text(_relaxed(milp.export_lp(milp.build_model(inst, fleet))))
    assert root > 56.0
    C = [c.id for c in inst.customers]
    V = [0] + C

    def arc(i, j):
        return values[f"x_t0_{i}_{j}"]

    for size in range(1, len(C) + 1):
        for group in itertools.combinations(C, size):
            inflow = sum(arc(i, j) for i in V if i not in group for j in group)
            for k in group:
                assert inflow >= sum(arc(i, k) for i in V if i != k) - 1e-7, (group, k)


def test_truck_unreachable_customer_has_no_commodity():
    fleet = FleetSpec()
    inst = make_instance(
        [(0, 0), (2, 0), (2, 2), (0, 2)], fleet=fleet, reachable=[True, False, True]
    )
    model = milp.build_model(inst, fleet)
    flow = model.info["flow"]
    assert flow and all(2 not in key for key in flow)
    plan = exact.solve_exact(inst, fleet)
    assert milp.check_assignment(model, milp.plan_assignment(model, plan, inst, fleet)) == []


def test_two_truck_lp_lower_bounds_finder():
    """HiGHS on the 2-truck model never scores above the heuristic plan."""
    from vrpdr import finder, lp_io

    fleet = FleetSpec(num_trucks=2, num_drones=2)
    options = ModelOptions(single_visit=True)
    inst = bench.generate_instance(6, seed=4, fleet=fleet)
    plan = finder.solve_finder(inst, fleet, options)
    model = milp.build_model(inst, fleet, options)
    obj_lp, _ = lp_io.solve_lp_text(milp.export_lp(model), time_limit=300)
    assert obj_lp <= plan.objective_breakdown.weighted_objective + 1e-6


def test_objective_value_examples(fleet):
    # 10 km Manhattan tour, no sorties: 0.5*(2.9*10+30) + 0.5*(10/45)
    inst = make_instance([(0, 0), (2.5, 2.5)], weights=[1.0], fleet=fleet)
    plan = Plan(truck_routes=((0, 1, 0),), truck_arrivals=({1: 5 / 45, 0: 10 / 45},))
    b = schedule.objective_value(plan, inst, fleet)
    assert b.variable_cost == pytest.approx(29.0)
    assert b.fixed_cost == pytest.approx(30.0)
    assert b.makespan == pytest.approx(10 / 45)
    assert b.weighted_objective == pytest.approx(0.5 * (2.9 * 10 + 30) + 0.5 * (10 / 45))
    assert b.weighted_objective == pytest.approx(29.6111, abs=1e-3)

    pure_cost = schedule.objective_value(plan, inst, FleetSpec(alpha=1.0))
    assert pure_cost.weighted_objective == pytest.approx(59.0)
    pure_time = schedule.objective_value(plan, inst, FleetSpec(alpha=0.0))
    assert pure_time.weighted_objective == pytest.approx(10 / 45)


def test_model_size_budget(fleet):
    inst = bench.generate_instance(6, seed=0, fleet=fleet)
    with pytest.raises(ModelSizeError):
        milp.build_model(inst, fleet, ModelOptions(max_sorties=10))


@pytest.mark.parametrize(
    "fleet, options",
    [
        (FleetSpec(), ModelOptions()),
        (FleetSpec(num_trucks=2), ModelOptions(flexible_docking=False)),
    ],
    ids=["one_truck", "two_trucks_fixed_docking"],
)
def test_model_size_budget_counts_created_selections(fleet, options):
    inst = bench.generate_instance(4, seed=24, fleet=fleet)
    sel = milp.build_model(inst, fleet, options).info["sel"]
    assert sel
    budget = dataclasses.replace(options, max_sorties=len(sel))
    assert milp.build_model(inst, fleet, budget).info["sel"] == sel
    with pytest.raises(ModelSizeError):
        milp.build_model(inst, fleet, dataclasses.replace(budget, max_sorties=len(sel) - 1))


def test_model_size_budget_fails_before_the_full_enumeration(monkeypatch):
    fleet = FleetSpec()
    inst = bench.generate_instance(20, seed=1, fleet=fleet)
    calls = collections.Counter()
    leg_energy = energy.leg_energy

    def counted(*args):
        calls["leg_energy"] += 1
        return leg_energy(*args)

    monkeypatch.setattr(energy, "leg_energy", counted)
    milp.enumerate_sortie_candidates(inst, fleet, ModelOptions())
    full = calls.pop("leg_energy")
    with pytest.raises(ModelSizeError, match="exceed the budget of 100; shrink the instance"):
        milp.build_model(inst, fleet, ModelOptions(max_sorties=100))
    assert 0 < calls["leg_energy"] < full


def test_candidates_keep_exactly_the_sorties_that_fit():
    """A (kind, launch, sequence, recovery) is kept iff it meets all three caps.

    Recomputed from plan sorties with ``sortie_distance`` and
    ``sortie_energy``, not with the kernels the enumeration uses.
    """
    kept_total = collections.Counter()
    dropped_total = collections.Counter()
    lone_breaks = set()  # caps that were the only one a dropped sortie broke
    for n, seed, fleet, options in (
        (4, 0, FleetSpec(), ModelOptions()),
        (4, 24, FleetSpec(), ModelOptions()),
        (5, 4, FleetSpec(B_d=1e6, B_r=1e6), ModelOptions()),
        (5, 4, FleetSpec(), ModelOptions()),
        (5, 14, FleetSpec(B_d=30000.0, rho_r=3.0), ModelOptions()),
        (5, 4, FleetSpec(B_d=1e6, B_r=1e6), ModelOptions(single_visit=True)),
        (5, 4, FleetSpec(m=2), ModelOptions()),
    ):
        inst = bench.generate_instance(n, seed=seed, fleet=fleet)
        kept = {
            (kind, c.i, c.sequence, c.k)
            for c in milp.enumerate_sortie_candidates(inst, fleet, options)
            for kind in c.dist
        }
        node_ids = [nd.id for nd in inst.nodes]
        fitting = set()
        for seq in enumerate_sequences([c.id for c in inst.customers], options.effective_m(fleet)):
            anchors = [v for v in node_ids if v not in seq]
            payload = sum(inst.node(c).weight for c in seq)
            for kind in (DRONE, ROBOT):
                for i in anchors:
                    for k in anchors:
                        if i == k and i != 0:
                            continue
                        sortie = Sortie(kind, 0, i, k, seq, 0, 0)
                        broken = [
                            cap
                            for cap, used, limit in (
                                ("payload", payload, fleet.payload_cap(kind)),
                                ("range", sortie_distance(sortie, inst), fleet.range_cap(kind)),
                                ("battery", energy.sortie_energy(sortie, inst, fleet),
                                 fleet.battery(kind)),
                            )
                            if used > limit + FIT_TOL
                        ]
                        fits = not broken
                        assert fits == ((kind, i, seq, k) in kept), (n, seed, kind, i, seq, k)
                        (kept_total if fits else dropped_total)[kind] += 1
                        if fits:
                            fitting.add((kind, i, seq, k))
                        if len(broken) == 1:
                            lone_breaks.add(broken[0])
        # nothing longer than the effective m, or otherwise unchecked, is kept
        assert kept == fitting, (n, seed, options)
    # both kinds have sorties on each side of the filter, and each cap alone
    # drops some
    assert min(kept_total[DRONE], kept_total[ROBOT]) > 0
    assert min(dropped_total[DRONE], dropped_total[ROBOT]) > 0
    assert lone_breaks == {"payload", "range", "battery"}


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    drones=st.integers(0, 2),
    robots=st.integers(0, 2),
    battery_d=st.one_of(st.floats(100.0, 20000.0), st.floats(1e5, 1e9)),
    battery_r=st.one_of(st.floats(100.0, 12000.0), st.floats(1e5, 1e9)),
    W_d=energy_rate(40.0),
    k1=energy_rate(0.5),
    m=st.integers(1, 3),
    single_visit=st.booleans(),
    tight=st.booleans(),
    light=st.booleans(),
    size=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_battery_bounded_candidates_equal_the_unbounded_list(
    drones, robots, battery_d, battery_r, W_d, k1, m, single_visit, tight, light, size, seed
):
    """With ``battery_range`` lifted to inf the candidate walk reaches out to
    the range cap again; the list must be the same, floats included.  Zero
    rates (``W_d = 0``, ``k1 = 0``) have no battery bound at all.  A ``tight``
    fleet's battery is the draw of the sortie that flies farthest per unit
    of energy; with ``light`` parcels, which weigh nothing, that sortie draws
    exactly its unloaded energy per km, so it sits on the bound."""
    fleet = FleetSpec(
        num_drones=drones, num_robots=robots, B_d=battery_d, B_r=battery_r, W_d=W_d, k1=k1, m=m
    )
    options = ModelOptions(single_visit=single_visit)
    inst = bench.generate_instance(size, seed, fleet)
    if light:
        inst = Instance([dataclasses.replace(nd, weight=0.0) for nd in inst.nodes], fleet)
    if tight:
        full = dataclasses.replace(fleet, B_d=1e12, B_r=1e12)
        draws = {}
        for c in milp.enumerate_sortie_candidates(inst, full, options):
            for kind, e in c.energy.items():
                if e > 0 and c.dist[kind] / e > draws.get(kind, (0.0, 0.0))[0]:
                    draws[kind] = (c.dist[kind] / e, e)
        fleet = dataclasses.replace(
            fleet,
            B_d=draws.get(DRONE, (0.0, battery_d))[1],
            B_r=draws.get(ROBOT, (0.0, battery_r))[1],
        )
    bounded = milp.enumerate_sortie_candidates(inst, fleet, options)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy, "battery_range", lambda kind, level, fleet: math.inf)
        unbounded = milp.enumerate_sortie_candidates(inst, fleet, options)
    assert bounded == unbounded


def test_exported_lp_optimum_matches_exact(fleet):
    from vrpdr import lp_io

    inst = bench.generate_instance(5, seed=1, fleet=fleet)
    obj_lp, _ = lp_io.solve_lp_text(milp.export_lp(milp.build_model(inst, fleet)), time_limit=120)
    plan = exact.solve_exact(inst, fleet)
    assert obj_lp == pytest.approx(plan.objective_breakdown.weighted_objective, abs=1e-6)


def test_highs_answer_is_read_at_its_integer_point(fleet):
    """HiGHS answers this model with a binary at 1 - 3.4e-7, inside its
    integrality tolerance, and its objective there is 2e-6 below the exact
    optimum; read at the integer point it is the exact optimum."""
    inst = bench.generate_instance(5, seed=565, fleet=fleet)
    model = milp.build_model(inst, fleet)
    obj_lp, values = lp_io.solve_lp_text(milp.export_lp(model), time_limit=120)
    assert all(values[v.name] in (0.0, 1.0) for v in model.variables if v.kind == milp.BINARY)
    plan = exact.solve_exact(inst, fleet)
    assert obj_lp == pytest.approx(plan.objective_breakdown.weighted_objective, abs=1e-9)


@pytest.mark.parametrize(
    "options",
    [
        ModelOptions(single_visit=True),
        ModelOptions(single_trip=True),
        ModelOptions(flexible_docking=False),
    ],
    ids=["single_visit", "single_trip", "fixed_docking"],
)
def test_lp_matches_exact_under_option_variants(options, fleet):
    from vrpdr import lp_io

    for size, seed in ((4, 102), (5, 104)):
        inst = bench.generate_instance(size, seed=seed, fleet=fleet)
        text = milp.export_lp(milp.build_model(inst, fleet, options))
        obj_lp, _ = lp_io.solve_lp_text(text, time_limit=120)
        plan = exact.solve_exact(inst, fleet, options)
        assert obj_lp == pytest.approx(
            plan.objective_breakdown.weighted_objective, abs=1e-6
        ), (size, seed)


@pytest.mark.parametrize("seed", [4, 14, 23])
def test_lp_matches_exact_without_charging(seed, fleet):
    """Without charging each vehicle's sorties draw at most one battery; a
    model with no battery row flew robot 0 on 6,491 + 7,999 of 8,000 units
    at seed 4 and undercut exact search at all three seeds."""
    options = ModelOptions(charging=False)
    inst = bench.generate_instance(5, seed=seed, fleet=fleet)
    obj_lp, _ = lp_io.solve_lp_text(
        milp.export_lp(milp.build_model(inst, fleet, options)), time_limit=120
    )
    plan = exact.solve_exact(inst, fleet, options)
    assert obj_lp == pytest.approx(plan.objective_breakdown.weighted_objective, abs=1e-6)


def test_two_truck_finder_plan_substitutes():
    """Truck-pair indexed families accept a real cross-docking plan."""
    from vrpdr import finder

    fleet = FleetSpec(num_trucks=2, num_drones=2)
    options = ModelOptions(single_visit=True)  # keeps the sortie space small
    inst = bench.generate_instance(10, seed=4, fleet=fleet)
    plan = finder.solve_finder(inst, fleet, options)
    assert any(s.launch_truck != s.recovery_truck for s in plan.sorties)
    model = milp.build_model(inst, fleet, options)
    values = milp.plan_assignment(model, plan, inst, fleet)
    assert milp.check_assignment(model, values) == []
    assert milp.evaluate_objective(model, values) == pytest.approx(
        plan.objective_breakdown.weighted_objective, abs=1e-9
    )


# sha256 of export_lp text for realistic models; any change to a name, number
# or line order shows here.  Each case also carries its HiGHS optimum.  The
# first four were recorded on the model that still held a column for every
# candidate of every kind, so dropping the columns no vehicle can fly must
# not move them.  The next three cover the single-trip row, fixed docking
# and two vehicles of a kind, recorded before the rows read their columns
# from per-vehicle, per-pair and per-node groups.  n = 6 with one truck and
# n = 5 with two trucks and flexible docking were recorded before the
# subtour-flow rows were added.  The last two, two trucks with fixed docking,
# check the cross-truck rows.  Every optimum was recorded on the model that
# still held the MTZ, precedence and per-column cap rows, which could never
# bind; the hashes were recorded after those rows were deleted.  The
# charging-off hash was recorded after its model gained the battery rows.
GOLDEN_LP_CASES = [
    pytest.param(
        5, 1, FleetSpec(), ModelOptions(),
        "0db5fe81014f3af428d0921fad6b4488cb80610b04d1c0f786b453027e011416",
        82.3988645761878,
        id="n5_all_on",
    ),
    pytest.param(
        5, 2, FleetSpec(), ModelOptions(charging=False),
        "7b756af51caf1ae5d39af2cfe7d22a1763526b031830105bb74e3d49d3178415",
        71.41450072571689,
        id="n5_no_charging",
    ),
    pytest.param(
        5, 3, FleetSpec(), ModelOptions(single_visit=True),
        "d52bb75ff0e810f31e243b25df159f3ad58884336d36fa55116314a21306fe94",
        66.90372127268479,
        id="n5_single_visit",
    ),
    pytest.param(
        3, 4, FleetSpec(num_trucks=2), ModelOptions(),
        "ecb9594381d2d385e134e273914a6dd963a094efeeef271089e4ae2ffc023cb9",
        75.13698996712651,
        id="n3_two_trucks_flexible",
    ),
    pytest.param(
        5, 5, FleetSpec(), ModelOptions(single_trip=True),
        "bd840e4cddc870c9b03a5a55ba1ea0f96ddce5cc1f7b648a061ad2fd6ed2f41c",
        86.01783362954109,
        id="n5_single_trip",
    ),
    pytest.param(
        4, 6, FleetSpec(num_trucks=2, num_drones=2, num_robots=2),
        ModelOptions(flexible_docking=False),
        "db7574861cf9a8bdf82c8fd47d2e33f693a0f6d9e9d08e641a366ecdf131dc62",
        75.42247560106148,
        id="n4_two_of_each_fixed_docking",
    ),
    pytest.param(
        3, 7, FleetSpec(num_trucks=2, num_drones=2, num_robots=2), ModelOptions(),
        "d5ac79302f8dfd73042493731a4b3ea8146ba784bf5b2f39d2b7eae57d08066e",
        96.32513744204857,
        id="n3_two_of_each_all_on",
    ),
    pytest.param(
        6, 1, FleetSpec(), ModelOptions(),
        "9e538fd01291178cc9aff8831f0dde566651549a0005c6b099e0ab01dfe17c72",
        82.38820704003133,
        id="n6_all_on",
    ),
    pytest.param(
        5, 2, FleetSpec(num_trucks=2), ModelOptions(),
        "c04b66ea9eb0862f90016b1e60639e4eacd43f03739c4b6f8b5b2515ecae1027",
        95.92106830437342,
        id="n5_two_trucks_flexible",
    ),
    pytest.param(
        5, 0, FleetSpec(num_trucks=2), ModelOptions(flexible_docking=False),
        "a713adb193129384203aa619a51b9790cdf03cd428ade540c8b509c81a845e4b",
        112.9780976830463,
        id="n5_two_trucks_fixed_docking_s0",
    ),
    pytest.param(
        5, 1, FleetSpec(num_trucks=2), ModelOptions(flexible_docking=False),
        "5361920fb7166ee848a864ebe689d2fd8dd91f998df2ba62f44e109297da95e2",
        109.1385533020006,
        id="n5_two_trucks_fixed_docking_s1",
    ),
]


def _golden_text(n, seed, fleet, options):
    inst = bench.generate_instance(n, seed, fleet)
    return milp.export_lp(milp.build_model(inst, fleet, options))


@pytest.mark.parametrize("n, seed, fleet, options, digest, optimum", GOLDEN_LP_CASES)
def test_golden_lp_export_hashes(n, seed, fleet, options, digest, optimum):
    text = _golden_text(n, seed, fleet, options)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, seed, fleet, options, digest, optimum", GOLDEN_LP_CASES)
def test_golden_lp_optimum_pinned(n, seed, fleet, options, digest, optimum):
    obj, _ = lp_io.solve_lp_text(_golden_text(n, seed, fleet, options), time_limit=120)
    assert abs(obj - optimum) <= 1e-9


# --- reference LP reader ------------------------------------------------------
# A verbatim copy of the regex reader that lp_io.parse_lp replaced; the new
# reader must return an equal ParsedLp wherever this one succeeds.

_REF_TERM = re.compile(r"([+-])\s+(\S+)\s+(\S+)")


def _ref_parse_terms(body: str, where: str) -> list:
    terms = []
    pos = 0
    body = body.strip()
    if body == "0":
        return terms
    while pos < len(body):
        m = _REF_TERM.match(body, pos)
        if not m:
            raise lp_io.LpParseError(f"cannot parse terms in {where}: {body[pos:pos+40]!r}")
        sign, num, name = m.groups()
        coef = float(num)
        terms.append((coef if sign == "+" else -coef, name))
        pos = m.end()
        while pos < len(body) and body[pos] == " ":
            pos += 1
    return terms


def _ref_parse_lp(text: str) -> lp_io.ParsedLp:
    parsed = lp_io.ParsedLp()
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "maximize"):
            if low == "maximize":
                raise lp_io.LpParseError("only minimization models are supported")
            section = "objective"
            continue
        if low == "subject to":
            section = "constraints"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low in ("binaries", "binary"):
            section = "binaries"
            continue
        if low == "end":
            section = None
            continue
        if section == "objective":
            if ":" in line:
                line = line.split(":", 1)[1]
            parsed.objective.extend(_ref_parse_terms(line, "objective"))
        elif section == "constraints":
            if ":" not in line:
                raise lp_io.LpParseError(f"constraint line without a name: {line!r}")
            name, rest = line.split(":", 1)
            m = re.search(r"(<=|>=|=)\s*([^\s<>=]+)\s*$", rest)
            if not m:
                raise lp_io.LpParseError(f"constraint without sense/rhs: {line!r}")
            sense, rhs = m.group(1), float(m.group(2))
            terms = _ref_parse_terms(rest[: m.start()], f"constraint {name.strip()}")
            parsed.constraints.append((name.strip(), terms, sense, rhs))
        elif section == "bounds":
            m = re.match(r"(\S+)\s*<=\s*(\S+)\s*<=\s*(\S+)$", line)
            if not m:
                raise lp_io.LpParseError(f"unsupported bounds line: {line!r}")
            lo, name, hi = m.groups()
            lo_v = float("-inf") if lo.lstrip("+-") == "inf" else float(lo)
            hi_v = float("inf") if hi.lstrip("+-") == "inf" else float(hi)
            parsed.bounds[name] = (lo_v, hi_v)
        elif section == "binaries":
            parsed.binaries.extend(line.split())
        else:
            raise lp_io.LpParseError(f"content outside any section: {line!r}")
    return parsed


@pytest.mark.parametrize("n, seed, fleet, options, digest, optimum", GOLDEN_LP_CASES)
def test_parse_lp_matches_reference_on_golden_models(n, seed, fleet, options, digest, optimum):
    text = _golden_text(n, seed, fleet, options)
    assert lp_io.parse_lp(text) == _ref_parse_lp(text)


LP_SNIPPETS = {
    "negative_coefficients": (
        "Minimize\n obj: - 2.5 x + 1e-3 y - 0 z\nSubject To\n"
        " c1: - 1 x - 3.25 y >= -7\n c2: + 4 x - 0.5 z <= 1e+5\n c3: - 1 y = -0\nEnd\n"
    ),
    "infinite_bounds": (
        "Minimize\n obj: + 1 x + 1 y\nSubject To\n c: + 1 x + 1 y >= 1\n"
        "Bounds\n -inf <= x <= +inf\n 0 <= y <= inf\n +inf <= w <= -inf\n -3.5 <= v <= 2\nEnd\n"
    ),
    "zero_objective": "Minimize\n obj: 0\nSubject To\n c: + 1 x >= 0\nEnd\n",
    "empty_binaries": (
        "\\ comment\nMinimize\n obj: + 1 x\nSubject To\n c: + 1 x >= 1\n"
        "Bounds\n 0 <= x <= 10\nBinaries\nEnd\n"
    ),
    "layout_variants": (
        "MINIMIZE\n + 1 x\n - 2 y\nsubject to\n c_1: + 1 x  + 1 y<=3\n"
        " c_2:+ 1 x >=   0.5  \n c_3: 0 = 0\nbinary\n x y\n z\nend\n"
    ),
}


@pytest.mark.parametrize("text", LP_SNIPPETS.values(), ids=LP_SNIPPETS.keys())
def test_parse_lp_matches_reference_on_snippets(text):
    assert lp_io.parse_lp(text) == _ref_parse_lp(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("Maximize\n obj: + 1 x\nEnd\n", "only minimization"),
        ("Minimize\n obj: + 1 x\nSubject To\n + 1 x >= 1\nEnd\n", "without a name"),
        ("Minimize\n obj: + 1 x\nSubject To\n c1: + 1 x\nEnd\n", "without sense/rhs"),
        ("Minimize\n obj: + 1 x\nSubject To\n c1: + 1 x 1 >= 1\nEnd\n", "cannot parse terms"),
        ("Minimize\n obj: + 1 x +\nEnd\n", "cannot parse terms in objective"),
        ("Minimize\n obj: + 1 x\nBounds\n x >= 0\nEnd\n", "unsupported bounds line"),
        ("+ 1 x\nMinimize\n obj: + 1 x\nEnd\n", "content outside any section"),
        ("Minimize\n obj: + 1 x\nEnd\n c1: + 1 x >= 1\n", "content outside any section"),
        ("Minimize\n obj: + 1 x\nSubject To\n c1: + abc x >= 1\nEnd\n", "constraint c1"),
        ("Minimize\n obj: - 1e x\nEnd\n", "objective"),
    ],
    ids=[
        "maximize",
        "unnamed_constraint",
        "no_sense_or_rhs",
        "malformed_term",
        "dangling_sign",
        "unsupported_bounds",
        "before_any_section",
        "after_end",
        "non_numeric_coefficient",
        "non_numeric_objective_coefficient",
    ],
)
def test_parse_lp_errors(text, message):
    with pytest.raises(lp_io.LpParseError, match=message):
        lp_io.parse_lp(text)


def test_add_constraint_rejects_unknown_sense():
    model = milp.MilpModel()
    model.add_var("x", milp.BINARY)
    for sense in ("<", "==", "=>", ""):
        with pytest.raises(VrpdrError, match="row_a"):
            model.add_constraint("row_a", "family", [(1.0, "x")], sense, 1.0)
    assert model.constraints == []
    with pytest.raises(VrpdrError, match="undeclared variable y"):
        model.add_constraint("row_b", "family", [(1.0, "x"), (2.0, "y")], "<=", 1.0)
    model.add_constraint("row_c", "family", [(1, "x"), (0.0, "x")], ">=", 0)
    assert model.constraints == [milp.Constraint("row_c", "family", ((1.0, "x"),), ">=", 0.0)]


def test_parse_lp_matches_reference_on_mutated_text():
    """Random token edits: both readers agree, or both reject the text.

    Where the old reader raised a bare ValueError (a bad number), the new
    one raises LpParseError.  Tabs are left out: the new reader splits on
    any whitespace, the old one only on spaces between terms.
    """
    fleet = FleetSpec()
    bases = list(LP_SNIPPETS.values())
    bases.append(milp.export_lp(milp.build_model(bench.generate_instance(1, 3, fleet), fleet)))
    pieces = ["+", "-", "1", "-1", "x", "<=", ">=", "=", "<=5", "=3", "x<=", ":", "0",
              "inf", "-inf", "+inf", "abc", "  ", "1e5", "End", "Bounds", "c9:", "nan"]
    rng = random.Random(0)
    for _ in range(2000):
        lines = rng.choice(bases).split("\n")
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            tokens = lines[i].split(" ")
            j = min(rng.randrange(len(tokens) + 1), len(tokens) - 1)
            op = rng.random()
            if op < 0.4:
                tokens.insert(j, rng.choice(pieces))
            elif op < 0.7:
                del tokens[j]
            else:
                tokens[j] = rng.choice(pieces)
            lines[i] = " ".join(tokens)
        text = "\n".join(lines)
        try:
            expected = repr(_ref_parse_lp(text))
        except ValueError:  # the old reader's bare error for a bad number
            expected = "error"
        except lp_io.LpParseError:
            expected = "error"
        try:
            got = repr(lp_io.parse_lp(text))
        except lp_io.LpParseError:
            got = "error"
        assert got == expected, text  # repr, because nan != nan


def test_export_lp_keeps_the_sign_of_zero():
    # 0.0 == -0.0, yet the writer prints "0" and "-0" as the old writer did
    model = milp.MilpModel()
    model.add_var("x", milp.CONTINUOUS, -0.0, 0.0)
    model.add_var("y", milp.CONTINUOUS, 0.0, -0.0)
    model.add_constraint("row_a", "family", [(1.0, "x")], "<=", 0.0)
    model.add_constraint("row_b", "family", [(1.0, "y")], ">=", -0.0)
    lines = milp.export_lp(model).splitlines()
    assert " row_a: + 1 x <= 0" in lines
    assert " row_b: + 1 y >= -0" in lines
    assert " -0 <= x <= 0" in lines
    assert " 0 <= y <= -0" in lines


def test_export_lp_rejects_a_name_that_is_not_lp_safe():
    """Names are written as they are, so one an LP reader could misread raises."""
    for bad in ("x-1", "2x", "e1", "_x", "row a", ""):
        for as_row in (False, True):
            model = milp.MilpModel()
            var = "x" if as_row else bad
            model.add_var(var, milp.CONTINUOUS)
            model.add_constraint(bad if as_row else "row", "family", [(1.0, var)], "<=", 1.0)
            with pytest.raises(VrpdrError, match=re.escape(repr(bad))):
                milp.export_lp(model)
