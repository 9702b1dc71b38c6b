"""Properties of FINDER over random fleets and instances.

Every plan FINDER returns is physically possible and round-trips: random
instances with 1-3 trucks, 0-3 drones and robots, small batteries and up
to 30 % truck-unreachable customers, under each of the 16 toggle
combinations.  ``InfeasibleError`` is the only other outcome allowed.

Re-walking a plan's sorties with :func:`vrpdr.schedule.walk` flies every
one at its planned launch time and gives back the plan's charging events.
Bounding the sortie walk by the crew's battery range changes no plan.  A
valid plan satisfies every row of the model, and no truck arrives after
the model's horizon; a pinned list of 2-3 truck plans with sorties, most of
them docking across trucks, shows both where random draws rarely reach.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrpdr import bench, energy, exact, finder, milp, schedule, validator
from vrpdr.core import (
    DRONE,
    ROBOT,
    FleetSpec,
    InfeasibleError,
    ModelOptions,
    plan_from_json,
    plan_to_json,
)

TOGGLES = list(itertools.product((False, True), repeat=4))


@pytest.mark.parametrize(
    "charging, flexible_docking, single_visit, single_trip",
    TOGGLES,
    ids=["".join("01"[flag] for flag in toggles) for toggles in TOGGLES],
)
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    trucks=st.integers(1, 3),
    drones=st.integers(0, 3),
    robots=st.integers(0, 3),
    battery_d=st.floats(3000.0, 14000.0),
    battery_r=st.floats(3000.0, 14000.0),
    unreachable_frac=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    size=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_finder_plan_is_valid(
    charging,
    flexible_docking,
    single_visit,
    single_trip,
    trucks,
    drones,
    robots,
    battery_d,
    battery_r,
    unreachable_frac,
    size,
    seed,
):
    fleet = FleetSpec(
        num_trucks=trucks, num_drones=drones, num_robots=robots, B_d=battery_d, B_r=battery_r
    )
    options = ModelOptions(
        charging=charging,
        flexible_docking=flexible_docking,
        single_visit=single_visit,
        single_trip=single_trip,
    )
    inst = bench.generate_instance(size, seed, fleet, unreachable_frac=unreachable_frac)
    try:
        plan = finder.solve_finder(inst, fleet, options)
    except InfeasibleError:
        return
    report = validator.validate(plan, inst, fleet, options)
    assert report.feasible, [v.detail for v in report.violations]
    assert math.isfinite(plan.objective_breakdown.weighted_objective)
    text = plan_to_json(plan)
    assert plan_to_json(plan_from_json(text)) == text
    vehicles = [(DRONE, d) for d in range(drones)] + [(ROBOT, r) for r in range(robots)]
    assert [(l.vehicle_kind, l.vehicle_id) for l in plan.ledgers] == vehicles
    # the plan is its own last walk: walked again it flies as planned
    arrivals = schedule.arrival_times(plan.truck_routes, inst, fleet)
    steps, carried = schedule.walk(
        plan.truck_routes, arrivals, plan.sorties, inst, fleet, charging, finish=True
    )
    assert steps == [
        (i, s.launch_time, None) for i, s in enumerate(plan.sorties)
    ]
    assert tuple(e for c in carried for e in c.events) == tuple(plan.charging_events)


def _finder_outcome(inst, fleet, options):
    try:
        return plan_to_json(finder.solve_finder(inst, fleet, options))
    except InfeasibleError as exc:
        return f"InfeasibleError: {exc} {exc.offending_ids}"


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    toggles=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    trucks=st.integers(1, 3),
    drones=st.integers(0, 3),
    robots=st.integers(0, 3),
    battery_d=st.floats(1000.0, 50000.0),
    battery_r=st.floats(1000.0, 30000.0),
    unreachable_frac=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_battery_bounded_walk_keeps_every_plan(
    toggles, trucks, drones, robots, battery_d, battery_r, unreachable_frac, size, seed
):
    """With ``battery_range`` lifted to inf the walk reaches out to the range
    cap again; the plan, or the ``InfeasibleError``, must be the same."""
    fleet = FleetSpec(
        num_trucks=trucks, num_drones=drones, num_robots=robots, B_d=battery_d, B_r=battery_r
    )
    options = ModelOptions(*toggles)
    inst = bench.generate_instance(size, seed, fleet, unreachable_frac=unreachable_frac)
    bounded = _finder_outcome(inst, fleet, options)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy, "battery_range", lambda kind, level, fleet: math.inf)
        unbounded = _finder_outcome(inst, fleet, options)
    assert bounded == unbounded


@pytest.mark.parametrize(
    "charging, flexible_docking, single_visit, single_trip",
    TOGGLES,
    ids=["".join("01"[flag] for flag in toggles) for toggles in TOGGLES],
)
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    trucks=st.integers(1, 3),
    drones=st.integers(0, 2),
    robots=st.integers(0, 2),
    battery_d=st.floats(3000.0, 14000.0),
    battery_r=st.floats(3000.0, 8000.0),
    unreachable_frac=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    size=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_valid_finder_plan_satisfies_the_model(
    charging,
    flexible_docking,
    single_visit,
    single_trip,
    trucks,
    drones,
    robots,
    battery_d,
    battery_r,
    unreachable_frac,
    size,
    seed,
):
    """The model cuts no plan the validator accepts: substituted into the
    model, a valid FINDER plan meets every row and scores its objective."""
    fleet = FleetSpec(
        num_trucks=trucks, num_drones=drones, num_robots=robots, B_d=battery_d, B_r=battery_r
    )
    options = ModelOptions(
        charging=charging,
        flexible_docking=flexible_docking,
        single_visit=single_visit,
        single_trip=single_trip,
    )
    inst = bench.generate_instance(size, seed, fleet, unreachable_frac=unreachable_frac)
    try:
        plan = finder.solve_finder(inst, fleet, options)
    except InfeasibleError:
        return
    if not validator.validate(plan, inst, fleet, options).feasible:
        return
    model = milp.build_model(inst, fleet, options)
    values = milp.plan_assignment(model, plan, inst, fleet)
    assert milp.check_assignment(model, values) == []
    assert milp.evaluate_objective(model, values) == pytest.approx(
        plan.objective_breakdown.weighted_objective, abs=1e-6
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    toggles=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    trucks=st.integers(1, 3),
    drones=st.integers(0, 2),
    robots=st.integers(0, 2),
    battery_d=st.floats(3000.0, 14000.0),
    battery_r=st.floats(3000.0, 8000.0),
    unreachable_frac=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    size=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_arrival_is_within_the_model_horizon(
    toggles, trucks, drones, robots, battery_d, battery_r, unreachable_frac, size, seed
):
    """Every arrival of a valid FINDER plan, and of the exact plan at n <= 6
    (one truck, at most one drone and one robot), is at most the horizon H
    the model's timing rows take."""
    fleet = FleetSpec(
        num_trucks=trucks, num_drones=drones, num_robots=robots, B_d=battery_d, B_r=battery_r
    )
    options = ModelOptions(*toggles)
    inst = bench.generate_instance(size, seed, fleet, unreachable_frac=unreachable_frac)
    plans = []
    try:
        plan = finder.solve_finder(inst, fleet, options)
        if validator.validate(plan, inst, fleet, options).feasible:
            plans.append(plan)
    except InfeasibleError:
        pass
    if trucks == 1 and max(drones, robots) <= 1 and size <= 6:
        try:
            plans.append(exact.solve_exact(inst, fleet, options))
        except InfeasibleError:
            pass
    if not plans:
        return
    horizon = milp.build_model(inst, fleet, options).info["horizon"]
    for plan in plans:
        latest = max(at for arrivals in plan.truck_arrivals for at in arrivals.values())
        assert latest <= horizon + 1e-9, (latest, horizon)


# (trucks, n, seed) of every FINDER plan with a sortie at n in {12, 15},
# 2-3 trucks and the default drone and robot, over seeds 0-39; 20 of the
# 27 dock on another truck than they launch from
MULTI_TRUCK_SORTIE_PLANS = [
    (2, 12, 0), (2, 12, 2), (2, 12, 4), (2, 12, 6), (2, 12, 20), (2, 12, 24), (2, 12, 26),
    (2, 12, 36), (2, 15, 0), (2, 15, 2), (2, 15, 6), (2, 15, 16), (2, 15, 20), (2, 15, 23),
    (2, 15, 24), (2, 15, 29), (2, 15, 35), (2, 15, 36), (2, 15, 39), (3, 12, 0), (3, 12, 33),
    (3, 15, 0), (3, 15, 18), (3, 15, 24), (3, 15, 29), (3, 15, 31), (3, 15, 35),
]


@pytest.mark.parametrize("trucks, size, seed", MULTI_TRUCK_SORTIE_PLANS)
def test_multi_truck_sortie_plans_satisfy_the_model(trucks, size, seed):
    """A multi-truck plan with a sortie is valid, meets every row of the
    model and has no arrival after the model's horizon."""
    fleet = FleetSpec(num_trucks=trucks)
    inst = bench.generate_instance(size, seed, fleet)
    plan = finder.solve_finder(inst, fleet)
    assert plan.sorties
    assert validator.validate(plan, inst, fleet).feasible
    model = milp.build_model(inst, fleet)
    assert milp.check_assignment(model, milp.plan_assignment(model, plan, inst, fleet)) == []
    latest = max(at for arrivals in plan.truck_arrivals for at in arrivals.values())
    assert latest <= model.info["horizon"] + 1e-9, (latest, model.info["horizon"])
