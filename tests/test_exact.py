import pytest

from vrpdr import bench, exact, finder, validator
from vrpdr.core import (
    BudgetExceededError,
    ConfigurationError,
    FleetSpec,
    InfeasibleError,
    ModelOptions,
)
from conftest import make_instance


def test_single_customer_unique_tour(fleet):
    truck_only = FleetSpec(num_drones=0, num_robots=0)
    inst = make_instance([(0, 0), (1, 0)], weights=[1.0], fleet=truck_only)
    plan = exact.solve_exact(inst, truck_only)
    assert plan.truck_routes == ((0, 1, 0),)
    assert plan.sorties == ()
    # objective: 0.5 * (2.9 * 2 + 30) + 0.5 * (2 / 45)
    assert plan.objective_breakdown.weighted_objective == pytest.approx(
        0.5 * (2.9 * 2 + 30) + 0.5 * (2 / 45)
    )


def test_unreachable_customer_forces_a_sortie(fleet):
    inst = make_instance(
        [(0, 0), (1, 0), (1.5, 0.5)],
        weights=[1.0, 2.0],
        reachable=[True, False],
        fleet=fleet,
    )
    plan = exact.solve_exact(inst, fleet)
    sortie_served = {c for s in plan.sorties for c in s.sequence}
    assert 2 in sortie_served
    report = validator.validate(plan, inst, fleet)
    assert report.feasible

    truck_only = FleetSpec(num_drones=0, num_robots=0)
    with pytest.raises(InfeasibleError) as err:
        exact.solve_exact(inst, truck_only)
    assert err.value.offending_ids == (2,)


def test_exact_dominates_finder(fleet):
    for seed in range(8):
        inst = bench.generate_instance(5, seed=seed, fleet=fleet)
        best = exact.solve_exact(inst, fleet)
        heur = finder.solve_finder(inst, fleet)
        assert (
            best.objective_breakdown.weighted_objective
            <= heur.objective_breakdown.weighted_objective + 1e-9
        )


def test_relabeling_invariance(fleet):
    inst = bench.generate_instance(4, seed=17, fleet=fleet)
    obj_a = exact.solve_exact(inst, fleet).objective_breakdown.weighted_objective
    # rotate customer labels: 1->2->3->4->1
    order = [2, 3, 4, 1]
    points = [inst.depot.point] + [None] * 4
    weights = [None] * 4
    for old, new in zip((1, 2, 3, 4), order):
        points[new] = inst.node(old).point
        weights[new - 1] = inst.node(old).weight
    permuted = make_instance(points, weights=weights, fleet=fleet)
    obj_b = exact.solve_exact(permuted, fleet).objective_breakdown.weighted_objective
    assert obj_a == pytest.approx(obj_b, abs=1e-9)


def test_budget_and_configuration_errors(fleet):
    inst = bench.generate_instance(9, seed=0, fleet=fleet)
    with pytest.raises(BudgetExceededError):
        exact.solve_exact(inst, fleet, budget=exact.SearchBudget(max_customers=8))
    small = bench.generate_instance(5, seed=0, fleet=fleet)
    with pytest.raises(BudgetExceededError):
        exact.solve_exact(small, fleet, budget=exact.SearchBudget(max_candidates=10))
    two_trucks = FleetSpec(num_trucks=2)
    with pytest.raises(ConfigurationError):
        exact.solve_exact(small, two_trucks)


def test_exact_respects_single_trip_and_visit_options(fleet):
    inst = bench.generate_instance(5, seed=4, fleet=fleet)
    base = exact.solve_exact(inst, fleet)
    sv = exact.solve_exact(inst, fleet, ModelOptions(single_visit=True))
    st = exact.solve_exact(inst, fleet, ModelOptions(single_trip=True))
    assert all(len(s.sequence) == 1 for s in sv.sorties)
    per_vehicle = {}
    for s in st.sorties:
        key = (s.vehicle_kind, s.vehicle_id)
        per_vehicle[key] = per_vehicle.get(key, 0) + 1
    assert all(v <= 1 for v in per_vehicle.values())
    # restricting options can never improve the optimum
    assert base.objective_breakdown.weighted_objective <= (
        sv.objective_breakdown.weighted_objective + 1e-9
    )
    assert base.objective_breakdown.weighted_objective <= (
        st.objective_breakdown.weighted_objective + 1e-9
    )


# sha256 of plan_to_json(solve_exact(...)) under each toggle; the cases hold
# sorties, trucks that wait at a recovery stop and en-route charging, so a
# change to how plans are scored or timed that alters any plan shows here.
# Plans carry one ledger per fleet vehicle, an empty one for an idle drone
# in the first four cases
EXACT_GOLDEN_PLANS = [
    ("full", 4, 1, 0.0, {}, "d0b545e365065e9903441439da830ebe2cbed779e75ae0e3f1ce6eceeb398361"),
    ("full", 5, 2, 0.0, {}, "bb085ef10e6df2f826d897523e2ab033580ad4dbf4fd7c86fdaf870a2b095ab1"),
    (
        "low_battery", 5, 4, 0.4, {},
        "d926d9f7e1de0d20d4b5fad223d5c35aa956f19cffbabe6cf558a6e61afb7f91",
    ),
    (
        "full", 5, 5, 0.0, {"charging": False},
        "b89b1a20c6bc9dac61f06d7b1ea4c72e175e245fcc558d0e8bab9816c7bf2da3",
    ),
    (
        "full", 5, 4, 0.4, {"charging": False},
        "b1c9308a4cfe5dae74c97af001aca0a7cd12a2fd6577edd62a660e3012fb4489",
    ),
    (
        "full", 5, 15, 0.4, {"single_trip": True},
        "7a3f3c060a5e8492828f3750d4607b441e9c32f8af41b4be5ff651daa0b17a2f",
    ),
    (
        "full", 5, 17, 0.4, {"single_visit": True},
        "02a57ba1482e428ebab9c978818ec294da4e82e6a0126c2b40becc36b237aa79",
    ),
]


@pytest.mark.parametrize(
    "fleet_name, size, seed, unreachable_frac, options, digest", EXACT_GOLDEN_PLANS
)
def test_exact_golden_plan_hashes(fleet_name, size, seed, unreachable_frac, options, digest):
    import hashlib

    from vrpdr.core import plan_to_json

    fleet = {"full": FleetSpec(), "low_battery": FleetSpec(B_d=8000.0)}[fleet_name]
    inst = bench.generate_instance(size, seed=seed, fleet=fleet, unreachable_frac=unreachable_frac)
    plan = exact.solve_exact(inst, fleet, ModelOptions(**options))
    assert hashlib.sha256(plan_to_json(plan).encode()).hexdigest() == digest
