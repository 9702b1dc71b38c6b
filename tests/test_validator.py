import dataclasses
import math

import pytest

from vrpdr import bench, exact, finder, milp, validator
from vrpdr.core import (
    DRONE,
    FIT_TOL,
    FleetSpec,
    Plan,
    PlanStructureError,
    Sortie,
    manhattan_distance,
    sortie_distance,
)
from vrpdr.energy import ChargingEvent, build_ledgers
from vrpdr.schedule import objective_value, score
from conftest import make_instance


def feasible_sortie_plan(fleet):
    """Truck 0->1->2->0 with a drone sortie 1 -> 3 -> 2 that fits the gap.

    Drone legs are sqrt(1 + 0.09) km each, so the sortie consumes
    128 * (20 + 18) * 1.0440 = 5078 units, well inside the battery.
    """
    inst = make_instance(
        [(0.0, 0.0), (3.0, 0.0), (5.0, 0.0), (4.0, 0.3)],
        weights=[1.0, 1.0, 2.0],
        fleet=fleet,
    )
    t1 = 3 / fleet.s_t
    t2 = t1 + 2 / fleet.s_t
    t_end = t2 + 5 / fleet.s_t
    sortie = Sortie("drone", 0, 1, 2, (3,), 0, 0, launch_time=t1)
    plan = Plan(
        truck_routes=((0, 1, 2, 0),),
        sorties=(sortie,),
        truck_arrivals=({1: t1, 2: t2, 0: t_end},),
    )
    return inst, plan


def test_feasible_plan_validates(fleet):
    inst, plan = feasible_sortie_plan(fleet)
    report = validator.validate(plan, inst, fleet)
    assert report.feasible, [v.detail for v in report.violations]
    assert report.violations == []
    assert report.model_makespan > 0
    assert report.simulated_makespan >= report.model_makespan - 1e-9


def test_exact_output_validates(fleet):
    inst = bench.generate_instance(4, seed=11, fleet=fleet)
    plan = exact.solve_exact(inst, fleet)
    report = validator.validate(plan, inst, fleet)
    assert report.feasible
    assert report.violations == []


def test_duplicated_customer_yields_one_visit_violation(fleet):
    inst, plan = feasible_sortie_plan(fleet)
    # customer 3 rides the sortie and is also inserted into the route
    bad = Plan(
        truck_routes=((0, 1, 3, 2, 0),),
        sorties=plan.sorties,
        truck_arrivals=(
            {1: plan.truck_arrivals[0][1], 3: 0.1, 2: 0.3, 0: 0.6},
        ),
    )
    report = validator.validate(bad, inst, fleet)
    assert not report.feasible
    visit = [v for v in report.violations if v.constraint_family == milp.VISIT_ONCE]
    assert len(visit) == 1
    assert visit[0].involved == (3,)


def test_early_launch_flags_the_sync_family(fleet):
    inst, plan = feasible_sortie_plan(fleet)
    s = plan.sorties[0]
    bad_sortie = dataclasses.replace(s, launch_time=s.launch_time - 0.01)
    bad = Plan(
        truck_routes=plan.truck_routes,
        sorties=(bad_sortie,),
        truck_arrivals=plan.truck_arrivals,
    )
    report = validator.validate(bad, inst, fleet)
    families = {v.constraint_family for v in report.violations}
    assert milp.LAUNCH_SYNC in families


def test_late_return_flags_the_return_family(fleet):
    inst, plan = feasible_sortie_plan(fleet)
    s = plan.sorties[0]
    late = dataclasses.replace(s, launch_time=s.launch_time + 0.2)
    bad = Plan(plan.truck_routes, (late,), plan.truck_arrivals)
    report = validator.validate(bad, inst, fleet)
    families = {v.constraint_family for v in report.violations}
    assert milp.RETURN_SYNC in families


def test_payload_range_and_battery_families(fleet):
    heavy_fleet = dataclasses.replace(fleet, rho_d=1.0)
    inst, plan = feasible_sortie_plan(fleet)
    report = validator.validate(plan, inst, heavy_fleet)
    assert milp.PAYLOAD in {v.constraint_family for v in report.violations}

    short_fleet = dataclasses.replace(fleet, D_max_d=1.0)
    report = validator.validate(plan, inst, short_fleet)
    assert milp.RANGE in {v.constraint_family for v in report.violations}

    tiny_battery = dataclasses.replace(fleet, B_d=100.0)
    report = validator.validate(plan, inst, tiny_battery)
    assert milp.BATTERY_BALANCE in {v.constraint_family for v in report.violations}


def test_docking_and_unreachable_families(fleet):
    inst, plan = feasible_sortie_plan(fleet)
    off_route = dataclasses.replace(plan.sorties[0], launch_node=3, sequence=(1,))
    # customer 1 still on route; now sortie launches at 3 which no truck visits
    bad = Plan(((0, 1, 2, 0),), (off_route,), plan.truck_arrivals)
    report = validator.validate(bad, inst, fleet)
    assert milp.DOCKING in {v.constraint_family for v in report.violations}

    masked = make_instance(
        [(0.0, 0.0), (3.0, 0.0), (5.0, 0.0), (4.0, 0.3)],
        weights=[1.0, 1.0, 2.0],
        reachable=[True, False, True],
        fleet=fleet,
    )
    report = validator.validate(plan, masked, fleet)
    assert milp.UNREACHABLE in {v.constraint_family for v in report.violations}


def test_unreachable_arcs_come_from_the_flags(fleet):
    """An arc is reported when an end is truck-unreachable, with its
    ``(t, a, b)`` ids, though its km are finite; each leg scores at its
    plain Manhattan km, so the objective stays finite."""
    inst, plan = feasible_sortie_plan(fleet)
    masked = make_instance(
        [(0.0, 0.0), (3.0, 0.0), (5.0, 0.0), (4.0, 0.3)],
        weights=[1.0, 1.0, 2.0],
        reachable=[True, False, True],
        fleet=fleet,
    )
    report = validator.validate(plan, masked, fleet)
    unreachable = [v for v in report.violations if v.constraint_family == milp.UNREACHABLE]
    assert [v.involved for v in unreachable] == [(0, 1, 2), (0, 2, 0)]
    assert unreachable[0].detail == "truck 0 drives a truck-unreachable arc 1->2"
    route = plan.truck_routes[0]
    km = sum(
        manhattan_distance(masked.node(a).point, masked.node(b).point)
        for a, b in zip(route[:-1], route[1:])
    )
    assert km == 10.0
    sortie = plan.sorties[0]
    expected = score([(km, True)], [(DRONE, 0, sortie_distance(sortie, masked))], fleet)
    got = objective_value(plan, masked, fleet)
    assert math.isfinite(got.weighted_objective)
    assert got == expected
    assert report.model_makespan == expected.makespan


def test_charging_event_families(fleet):
    inst, plan = feasible_sortie_plan(fleet)
    t1 = plan.truck_arrivals[0][1]

    def with_event(event):
        return Plan(plan.truck_routes, plan.sorties, plan.truck_arrivals, (event,))

    depot_event = ChargingEvent("drone", 0, 0, 0, 0.05, 100.0)
    report = validator.validate(with_event(depot_event), inst, fleet)
    assert milp.NO_DEPOT_CHARGE in {v.constraint_family for v in report.violations}

    over_rate = ChargingEvent("drone", 0, 0, 1, 0.1, fleet.C_rate_d * 0.1 + 1.0)
    report = validator.validate(with_event(over_rate), inst, fleet)
    assert milp.CHARGE_RATE in {v.constraint_family for v in report.violations}

    too_long = ChargingEvent("drone", 0, 0, 1, 5.0, 1.0)
    report = validator.validate(with_event(too_long), inst, fleet)
    assert milp.CHARGE_TIME in {v.constraint_family for v in report.violations}

    # a legitimate event after the sortie drained the battery is fine
    ok = ChargingEvent("drone", 0, 0, 2, 0.1, 450.0)
    report = validator.validate(with_event(ok), inst, fleet)
    assert report.feasible, [v.detail for v in report.violations]

    # charging a full battery past capacity trips the overcharge family
    sortie_free = Plan(plan.truck_routes, (), plan.truck_arrivals, (ok,))
    report = validator.validate(sortie_free, inst, fleet)
    assert milp.OVERCHARGE in {v.constraint_family for v in report.violations}


def test_all_violation_families_exist_in_the_model(fleet):
    """Cross-module naming contract: a family the validator reports is a
    model row group, or a rule that the model's columns or other rows keep.

    Three customers on a unit square, one of them off the truck network, so
    that every sortie shape fits both vehicle kinds and every family has rows.
    Payload, range and a cyclic sortie at a customer have no rows: a column
    exists only for a candidate that meets both caps and is not cyclic at a
    customer, so such a row could never bind.  An arc with a truck-unreachable
    end has no column, and launch times project out of the return rows.  The
    depot has no charge column, and one rate row per charge column holds the
    charging rule, so presence and charging-time rows would add nothing.  The
    validator still reports all eight, because a plan file can declare any
    route, sortie, launch time and charging event.
    """
    inst = make_instance(
        [(0, 0), (1, 0), (1, 1), (0, 1)], fleet=fleet, reachable=[True, True, False]
    )
    model = milp.build_model(inst, fleet)
    model_families = model.families()
    rows = {
        milp.VISIT_ONCE,
        milp.DEPOT,
        milp.ARRIVAL_SEQ,
        milp.DOCKING,
        milp.RETURN_SYNC,
        milp.CHARGE_RATE,
        milp.BATTERY_BALANCE,
        milp.OVERCHARGE,
    }
    assert rows <= model_families
    validator_only = {milp.PAYLOAD, milp.RANGE, milp.PRECEDENCE, milp.UNREACHABLE, milp.LAUNCH_SYNC,
                      milp.NO_DEPOT_CHARGE, milp.CHARGE_PRESENCE, milp.CHARGE_TIME}
    assert not validator_only & model_families
    candidates = model.info["candidates"]
    assert {kind for c in candidates for kind in c.dist} == {"drone", "robot"}
    for c in candidates:
        assert c.i != c.k or c.i == 0
        payload = sum(inst.node(j).weight for j in c.sequence)
        for kind, dist in c.dist.items():
            assert payload <= fleet.payload_cap(kind) + FIT_TOL
            assert dist <= fleet.range_cap(kind) + FIT_TOL

    # the validator names the cyclic sortie the list leaves out
    inst, plan = feasible_sortie_plan(fleet)
    cyclic = dataclasses.replace(plan.sorties[0], recovery_node=1)
    report = validator.validate(dataclasses.replace(plan, sorties=(cyclic,)), inst, fleet)
    assert milp.PRECEDENCE in {v.constraint_family for v in report.violations}


def test_structural_errors_raise(fleet):
    inst, plan = feasible_sortie_plan(fleet)
    with pytest.raises(PlanStructureError):
        validator.validate(Plan(((0, 99, 0),), (), ({99: 0.1, 0: 0.2},)), inst, fleet)
    dangling = Plan(plan.truck_routes, plan.sorties, ({},))
    with pytest.raises(PlanStructureError):
        validator.validate(dangling, inst, fleet)
    boat = dataclasses.replace(plan, charging_events=(ChargingEvent("boat", 0, 0, 1, 0.1, 10.0),))
    with pytest.raises(PlanStructureError):
        validator.validate(boat, inst, fleet)
    # impossible numbers: every comparison with NaN is false, so only the
    # structural check can catch them
    nan, inf = float("nan"), float("inf")
    (sortie,) = plan.sorties
    bad_numbers = [
        dataclasses.replace(plan, sorties=(dataclasses.replace(sortie, launch_time=t),))
        for t in (nan, -0.5, inf)
    ]
    for node in (1, 0):
        for t in (nan, -1.0):
            arrivals = {**plan.truck_arrivals[0], node: t}
            bad_numbers.append(dataclasses.replace(plan, truck_arrivals=(arrivals,)))
    for duration, amount in ((nan, 10.0), (-0.1, 10.0), (0.1, nan), (0.1, -50.0), (0.1, inf)):
        event = ChargingEvent("drone", 0, 0, 1, duration, amount)
        bad_numbers.append(dataclasses.replace(plan, charging_events=(event,)))
    # stored objective and ledgers: a sortie draw is negative, so a delta
    # is only checked for finiteness
    scored = dataclasses.replace(
        plan,
        ledgers=build_ledgers(plan, inst, fleet),
        objective_breakdown=objective_value(plan, inst, fleet),
    )
    assert validator.validate(scored, inst, fleet).feasible
    breakdown = scored.objective_breakdown
    for name in ("variable_cost", "fixed_cost", "makespan", "weighted_objective"):
        for value in (nan, inf, -3.0):
            bad = dataclasses.replace(breakdown, **{name: value})
            bad_numbers.append(dataclasses.replace(scored, objective_breakdown=bad))
    ledger = next(l for l in scored.ledgers if l.entries)
    others = tuple(l for l in scored.ledgers if l is not ledger)
    entry = ledger.entries[0]
    bad_ledgers = [dataclasses.replace(ledger, capacity=c) for c in (nan, inf, -1.0)]
    bad_entries = [dataclasses.replace(entry, time=t) for t in (nan, inf, -0.5)]
    bad_entries += [dataclasses.replace(entry, delta=d) for d in (nan, inf, -inf)]
    bad_ledgers += [dataclasses.replace(ledger, entries=(e,)) for e in bad_entries]
    for bad in bad_ledgers:
        bad_numbers.append(dataclasses.replace(scored, ledgers=(bad,) + others))
    for bad in bad_numbers:
        with pytest.raises(PlanStructureError):
            validator.validate(bad, inst, fleet)


def test_validate_is_pure_and_deterministic(fleet):
    inst, plan = feasible_sortie_plan(fleet)
    a = validator.validate(plan, inst, fleet).to_json()
    b = validator.validate(plan, inst, fleet).to_json()
    assert a == b


def test_translation_invariance(fleet):
    inst = bench.generate_instance(6, seed=21, fleet=fleet)
    plan = finder.solve_finder(inst, fleet)
    base = validator.validate(plan, inst, fleet).feasible
    shifted = make_instance(
        [(n.x + 7.5, n.y - 2.0) for n in inst.nodes],
        weights=[c.weight for c in inst.customers],
        reachable=[c.truck_reachable for c in inst.customers],
        fleet=fleet,
    )
    assert validator.validate(plan, shifted, fleet).feasible == base


def test_simulated_makespan_cases(fleet):
    # truck-only: simulated equals model
    inst = make_instance([(0, 0), (3, 0), (6, 0)], weights=[1.0, 1.0], fleet=fleet)
    t1, t2, t3 = 3 / 45, 6 / 45, 12 / 45
    plan = Plan(((0, 1, 2, 0),), (), ({1: t1, 2: t2, 0: t3},))
    report = validator.validate(plan, inst, fleet)
    assert report.simulated_makespan == pytest.approx(report.model_makespan)

    # slow robot recovered at the next stop forces a wait of known size
    inst2 = make_instance(
        [(0.0, 0.0), (3.0, 0.0), (4.0, 0.0), (3.0, 1.125)],
        weights=[1.0, 1.0, 2.0],
        fleet=fleet,
    )
    launch = 3 / 45.0
    # robot path 1 -> 3 -> 2: manhattan legs 1.125 and (1 + 1.125) = 3.25 km
    flight = 3.25 / 25.0
    arrive_2 = launch + 1 / 45.0
    depot_padded = launch + flight + 4 / 45.0
    sortie = Sortie("robot", 0, 1, 2, (3,), 0, 0, launch_time=launch)
    plan2 = Plan(
        ((0, 1, 2, 0),),
        (sortie,),
        ({1: launch, 2: launch + flight, 0: depot_padded},),
    )
    report2 = validator.validate(plan2, inst2, fleet)
    assert report2.feasible, [v.detail for v in report2.violations]
    wait = (launch + flight) - arrive_2
    assert wait > 0
    # truck time is the makespan maximum here, so the wait adds one for one
    assert report2.simulated_makespan == pytest.approx(report2.model_makespan + wait, abs=1e-9)


def test_simulated_makespan_dominates_model(fleet):
    for seed in range(6):
        inst = bench.generate_instance(12, seed=seed, fleet=fleet)
        plan = finder.solve_finder(inst, fleet)
        report = validator.validate(plan, inst, fleet)
        assert report.feasible
        assert report.simulated_makespan >= report.model_makespan - 1e-9


@pytest.mark.parametrize(
    "trucks, per_kind, size, seed, model_mk, simulated_mk",
    [
        (2, 3, 16, 0, 1.6798329528121065, 1.6798329528121065),
        (2, 3, 40, 5, 1.427685554109729, 1.4276855541097293),
        (3, 1, 40, 6, 1.2200204790180142, 1.2200204790180145),
        (3, 3, 40, 5, 1.1410731413718394, 1.1410731413718396),
    ],
)
def test_multi_truck_makespans_pinned(trucks, per_kind, size, seed, model_mk, simulated_mk):
    """Exact makespans of flexible-docking plans whose sorties cross trucks."""
    fleet = FleetSpec(num_trucks=trucks, num_drones=per_kind, num_robots=per_kind)
    inst = bench.generate_instance(size, seed=seed, fleet=fleet)
    plan = finder.solve_finder(inst, fleet)
    assert any(s.launch_truck != s.recovery_truck for s in plan.sorties)
    report = validator.validate(plan, inst, fleet)
    assert report.feasible
    assert report.model_makespan == model_mk
    assert report.simulated_makespan == simulated_mk
