import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vrpdr.core import DRONE, ROBOT, FleetSpec, KindMismatchError, Sortie
from vrpdr.energy import (
    CAUSE_CHARGE,
    CAUSE_SORTIE,
    BatteryLedger,
    ChargingEvent,
    InvalidEventError,
    LedgerEntry,
    battery_range,
    charge_amount,
    charge_legs,
    charge_walk,
    leg_energy,
    robot_power,
    sortie_energy,
)
from conftest import energy_rate, make_instance


def test_drone_energy_single_customer():
    # legs of 1 km each, parcel of 2 kg: 128 * ((18+2)*1 + 18*1) = 4864
    inst = make_instance([(0, 0), (1, 0)], weights=[2.0])
    inst = make_instance([(0, 0), (1, 0), (1, 1)], weights=[2.0, 0.5])
    s = Sortie("drone", 0, 0, 2, (1,), 0, 0)
    assert sortie_energy(s, inst, inst.fleet) == pytest.approx(4864.0, abs=1e-9)


def test_drone_energy_two_customers():
    # legs 1,1,1 km; weights 2 and 3: 128 * (23 + 21 + 18) = 7936
    inst = make_instance([(0, 0), (1, 0), (2, 0), (3, 0)], weights=[2.0, 3.0, 0.5])
    s = Sortie("drone", 0, 0, 3, (1, 2), 0, 0)
    assert sortie_energy(s, inst, inst.fleet) == pytest.approx(7936.0, abs=1e-9)


def test_drone_energy_zero_legs():
    inst = make_instance([(5, 5), (5, 5)], weights=[4.0])
    s = Sortie("drone", 0, 0, 0, (1,), 0, 0)
    assert sortie_energy(s, inst, inst.fleet) == 0.0


def test_drone_energy_kind_mismatch():
    inst = make_instance([(0, 0), (1, 0)])
    with pytest.raises(KindMismatchError):
        leg_energy("truck", [1.0, 1.0], [1.0], inst.fleet)


def _reference_leg_weights(sequence, inst):
    weights = [inst.node(c).weight for c in sequence]
    carried = []
    remaining = sum(weights)
    carried.append(remaining)
    for w in weights[:-1]:
        remaining -= w
        carried.append(remaining)
    carried.append(0.0)
    return carried


def _reference_drone_energy(sortie, inst, fleet):
    """The per-sortie drone formula as it stood before the leg kernel."""
    carried = _reference_leg_weights(sortie.sequence, inst)
    total = 0.0
    for (i, j), mass in zip(sortie.legs(), carried):
        total += (fleet.W_d + mass) * inst.distance(DRONE, i, j)
    return fleet.alpha_d * total


def _reference_robot_energy(sortie, inst, fleet):
    """The per-sortie robot formula as it stood before the leg kernel."""
    carried = _reference_leg_weights(sortie.sequence, inst)
    wh = 0.0
    for (i, j), mass in zip(sortie.legs(), carried):
        hours = inst.distance(ROBOT, i, j) / fleet.s_r
        wh += robot_power(mass, fleet) * hours
    return wh * fleet.robot_energy_scale


def test_leg_energy_matches_per_sortie_reference():
    """The kernel fed with instance distances is bit-identical to the old formulas.

    Where the old robot formula raised on a tiny negative carried mass
    (a zero-weight last parcel), the kernel clamps the mass at 0 and must
    match an independent evaluation instead.
    """
    rng = random.Random(17)
    reference = {DRONE: _reference_drone_energy, ROBOT: _reference_robot_energy}
    clamped = []
    for trial in range(300):
        kind = (DRONE, ROBOT)[trial % 2]
        n = rng.randint(1, 6)
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n + 1)]
        weights = [rng.choice([0.0, 1.0, rng.uniform(0.5, 10.0)]) for _ in range(n)]
        fleet = FleetSpec(W_d=rng.uniform(5, 20), k1=rng.uniform(0.05, 0.2))
        inst = make_instance(pts, weights=weights, fleet=fleet)
        seq = tuple(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        rest = [v for v in range(n + 1) if v not in seq]
        s = Sortie(kind, 0, rng.choice(rest), rng.choice(rest), seq, 0, 0)
        legs = [inst.distance(kind, i, j) for i, j in s.legs()]
        parcels = [inst.node(c).weight for c in seq]
        expected = _outcome(reference[kind], s, inst, fleet)
        if isinstance(expected, tuple):
            clamped.append(trial)
            direct = _direct_robot_energy(fleet, parcels, legs)
            assert math.isfinite(direct)
            assert leg_energy(kind, legs, parcels, fleet) == pytest.approx(direct, rel=1e-12)
            assert sortie_energy(s, inst, fleet) == pytest.approx(direct, rel=1e-12)
            continue
        assert _outcome(leg_energy, kind, legs, parcels, fleet) == expected
        assert _outcome(sortie_energy, s, inst, fleet) == expected
    assert clamped == [161]


def _outcome(fn, *args):
    """The value, or the error type and message: a zero-weight last parcel
    can leave a carried mass of about -1e-15, which robot_power rejects."""
    try:
        return fn(*args)
    except InvalidEventError as err:
        return (type(err), str(err))


def _direct_robot_energy(fleet, weights, legs):
    """Independent evaluation: leg q carries the parcels not yet delivered."""
    wh = 0.0
    for q, leg in enumerate(legs):
        wh += robot_power(sum(weights[q:]), fleet) * leg / fleet.s_r
    return wh * fleet.robot_energy_scale


def _direct_drone_energy(alpha_d, w_self, weights, legs):
    """Independent evaluation over abstract legs (one more leg than weights)."""
    total = 0.0
    remaining = sum(weights)
    for q, leg in enumerate(legs):
        total += (w_self + remaining) * leg
        if q < len(weights):
            remaining -= weights[q]
    return alpha_d * total


def test_drone_energy_matches_direct_evaluation():
    rng = random.Random(7)
    fleet = FleetSpec()
    for _ in range(50):
        n = rng.randint(1, 4)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n + 2)]
        weights = [rng.uniform(0.5, 10) for _ in range(n)] + [0.5]
        inst = make_instance([pts[0]] + pts[1:], weights=weights[: len(pts) - 1])
        seq = tuple(range(1, n + 1))
        s = Sortie("drone", 0, 0, len(pts) - 1, seq, 0, 0)
        legs = [
            math.dist(inst.node(i).point, inst.node(j).point) for i, j in s.legs()
        ]
        expected = _direct_drone_energy(
            fleet.alpha_d, fleet.W_d, [inst.node(c).weight for c in seq], legs
        )
        assert sortie_energy(s, inst, fleet) == pytest.approx(expected, rel=1e-12)


def test_drone_energy_monotone_in_weight_and_distance():
    rng = random.Random(3)
    for _ in range(30):
        w = rng.uniform(0.5, 9.0)
        inst_a = make_instance([(0, 0), (1, 0), (2, 0)], weights=[w, 0.5])
        inst_b = make_instance([(0, 0), (1, 0), (2, 0)], weights=[w + 0.5, 0.5])
        s = Sortie("drone", 0, 0, 2, (1,), 0, 0)
        ea = sortie_energy(s, inst_a, inst_a.fleet)
        eb = sortie_energy(s, inst_b, inst_b.fleet)
        assert eb > ea
        stretch = make_instance([(0, 0), (1.5, 0), (2, 0)], weights=[w, 0.5])
        assert sortie_energy(s, stretch, stretch.fleet) > ea


def test_heavier_first_never_worse_with_fixed_legs():
    """With leg lengths held fixed, serving heavier parcels first minimizes energy."""
    rng = random.Random(11)
    fleet = FleetSpec()
    for _ in range(40):
        n = rng.randint(2, 4)
        weights = [rng.uniform(0.5, 10.0) for _ in range(n)]
        legs = [rng.uniform(0.1, 5.0) for _ in range(n + 1)]
        best = _direct_drone_energy(fleet.alpha_d, fleet.W_d, sorted(weights, reverse=True), legs)
        for perm in itertools.permutations(weights):
            assert best <= _direct_drone_energy(fleet.alpha_d, fleet.W_d, list(perm), legs) + 1e-9


def test_reordering_changes_energy_on_asymmetric_geometry():
    inst = make_instance([(0, 0), (1, 0), (5, 0), (6, 0)], weights=[9.0, 1.0, 0.5])
    a = Sortie("drone", 0, 0, 3, (1, 2), 0, 0)
    b = Sortie("drone", 0, 0, 3, (2, 1), 0, 0)
    ea = sortie_energy(a, inst, inst.fleet)
    eb = sortie_energy(b, inst, inst.fleet)
    assert ea != pytest.approx(eb)


def test_robot_power_default_parameters():
    fleet = FleetSpec()
    # oracle recomputed here by direct formula evaluation
    v = fleet.s_r / 3.6
    gait = 1 + fleet.g / (2 * fleet.l_leg * v * v)
    expected = (1 + fleet.k2) * fleet.k1 * fleet.W_r * fleet.g * v * gait
    p = robot_power(0.0, fleet)
    assert p == pytest.approx(expected, rel=1e-12)
    assert abs(p - 147.6) <= 0.5


def test_robot_power_linearity_and_k2_scaling():
    fleet = FleetSpec()
    assert robot_power(5.0, fleet) / robot_power(0.0, fleet) == pytest.approx((15 + 5) / 15)
    doubled = FleetSpec(k2=0.4)
    assert robot_power(0.0, doubled) / robot_power(0.0, fleet) == pytest.approx(1.4 / 1.2)


def test_robot_power_zero_speed():
    fleet = FleetSpec(num_robots=0, s_r=0)
    with pytest.raises(ZeroDivisionError):
        robot_power(0.0, fleet)


def test_robot_sortie_energy_zero_legs():
    inst = make_instance([(2, 2), (2, 2)], weights=[5.0])
    s = Sortie("robot", 0, 0, 0, (1,), 0, 0)
    assert sortie_energy(s, inst, inst.fleet) == 0.0


def test_robot_sortie_energy_two_term_expansion():
    # single customer, symmetric 1 km Manhattan legs
    inst = make_instance([(0, 0), (1, 0)], weights=[5.0])
    s = Sortie("robot", 0, 0, 0, (1,), 0, 0)
    fleet = inst.fleet
    t = 1.0 / fleet.s_r
    expected = (robot_power(5.0, fleet) * t + robot_power(0.0, fleet) * t) * fleet.robot_energy_scale
    assert sortie_energy(s, inst, fleet) == pytest.approx(expected, rel=1e-12)


def test_robot_energy_increases_with_weight():
    rng = random.Random(5)
    for _ in range(20):
        w = rng.uniform(0.5, 15.0)
        small = make_instance([(0, 0), (2, 1), (3, 3)], weights=[w, 0.5])
        big = make_instance([(0, 0), (2, 1), (3, 3)], weights=[w + 1.0, 0.5])
        s = Sortie("robot", 0, 0, 2, (1,), 0, 0)
        assert sortie_energy(s, big, big.fleet) > sortie_energy(s, small, small.fleet)


def test_charge_legs_examples(fleet):
    drained = BatteryLedger("drone", 0, fleet.B_d, (LedgerEntry(0.5, -11000.0, CAUSE_SORTIE),))
    level = drained.levels()[-1]
    assert level == pytest.approx(3000.0)
    events, level = charge_legs("drone", 0, 0, level, fleet, [(3, 1.0)])
    assert events == (ChargingEvent("drone", 0, 0, 3, duration=1.0, amount=5000.0),)
    assert level == pytest.approx(8000.0)

    events, level = charge_legs("drone", 0, 0, fleet.B_d, fleet, [(3, 1.0)])
    assert events == ()
    assert level == pytest.approx(fleet.B_d)

    events, level = charge_legs("drone", 0, 0, 3000.0, fleet, [(3, 0.0)])
    assert events == () and level == 3000.0
    assert charge_amount(0.0, "drone", fleet) == 0.0
    # the leg out of the depot never charges
    assert charge_legs("drone", 0, 0, 3000.0, fleet, [(0, 1.0)]) == ((), 3000.0)


def test_charge_legs_errors(fleet):
    with pytest.raises(InvalidEventError):
        charge_legs("robot", 0, 0, 100.0, fleet, [(1, -0.5)])


def test_ledger_random_schedules_stay_in_range(fleet):
    """1000 random consumption/charge interleavings keep levels in [0, capacity]."""
    rng = random.Random(42)
    for trial in range(1000):
        kind = "drone" if trial % 2 == 0 else "robot"
        cap = fleet.battery(kind)
        level, entries = cap, []
        t = 0.0
        for _ in range(rng.randint(1, 12)):
            t += rng.uniform(0.01, 0.5)
            if rng.random() < 0.5:
                draw = rng.uniform(0, level)
                level -= draw
                entries.append(LedgerEntry(t, -draw, CAUSE_SORTIE))
            else:
                duration = rng.uniform(0, 1.0)
                request = charge_amount(duration, kind, fleet) * rng.uniform(0, 1.2)
                request = min(request, charge_amount(duration, kind, fleet))
                before = level
                charged, level = charge_walk(level, cap, (request,))
                applied = charged[0][1] if charged else 0.0
                if charged:
                    entries.append(LedgerEntry(t, applied, CAUSE_CHARGE))
                assert applied == pytest.approx(min(request, cap - before), abs=1e-9)
        for level in BatteryLedger(kind, 0, cap, tuple(entries)).levels():
            assert -1e-9 <= level <= cap + 1e-9


def _old_exact_charge_between(route, rate, leg_times, cap, start_pos, launch_pos, level):
    """Exact search's charge loop before it called charge_walk, verbatim."""
    legs = []
    for p in range(start_pos, launch_pos):
        if route[p] == 0 and p == 0:
            continue  # no charging on the depot departure leg
        amt = min(rate * leg_times[p], cap - level)
        if amt > 1e-12:
            legs.append((p, amt))
            level += amt
    return tuple(legs), level


def _old_finder_charge(capacity, deltas, amount):
    """The finder's clamp before charge_walk: the one-event ledger charge's
    arithmetic against a ledger level of ``capacity + sum(deltas)``."""
    level = capacity + sum(deltas)
    applied = min(amount, max(0.0, capacity - level))
    if applied == 0.0:
        return 0.0
    deltas.append(applied)
    return applied


def test_charge_walk_matches_the_walks_it_replaced():
    """Random drains and carried legs: exact search's old loop is matched bit
    for bit; the finder's old sum-of-deltas level differs from the running
    level by rounding only, within 2 ulp of capacity, in a pinned number of
    trials."""
    rng = random.Random(23)
    finder_differs = 0
    for _trial in range(3000):
        cap = rng.choice([rng.uniform(3000.0, 14000.0), 3000.0, 8000.0, 14000.0])
        rate = rng.uniform(1000.0, 50000.0)
        n = rng.randint(2, 10)
        route = (0,) + tuple(range(1, n)) + (0,)
        leg_times = [rng.uniform(0.0, 0.5) for _ in range(n)]
        level = old_level = cap
        deltas = []  # the old finder ledger's entries
        differs = False
        pos = 0
        while pos < n - 1:
            launch = rng.randint(pos, n - 1)
            first = max(pos, 1)
            offers = [rate * leg_times[p] for p in range(first, launch)]
            charged, level = charge_walk(level, cap, offers)
            expected, old_level = _old_exact_charge_between(
                route, rate, leg_times, cap, pos, launch, old_level
            )
            assert tuple((first + k, amount) for k, amount in charged) == expected
            assert level == old_level
            amounts = dict(charged)
            for k, offer in enumerate(offers):
                old = _old_finder_charge(cap, deltas, offer)
                assert abs(old - amounts.get(k, 0.0)) <= 2 * math.ulp(cap)
                differs |= old != amounts.get(k, 0.0)
            draw = rng.uniform(0.0, min(level, cap + sum(deltas)))
            level -= draw
            old_level -= draw
            deltas.append(-draw)
            pos = launch + rng.randint(1, 2)
        finder_differs += differs
    assert finder_differs == 52


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(
    kind=st.sampled_from((DRONE, ROBOT)),
    energy_params=st.fixed_dictionaries(
        {
            "W_d": energy_rate(50.0),
            "alpha_d": energy_rate(1000.0),
            "W_r": energy_rate(50.0),
            "k1": energy_rate(1.0),
            "k2": energy_rate(1.0),
            "g": energy_rate(20.0),
            "s_r": st.floats(0.1, 50.0),
            "l_leg": st.floats(0.05, 2.0),
            "robot_energy_scale": energy_rate(200.0),
        }
    ),
    stops=st.lists(
        st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 25.0)), min_size=1, max_size=4
    ),
)
@example(DRONE, {}, [(0.1, 0.0), (0.2, 0.0)]).via("one ulp short without any slack")
@example(DRONE, {"alpha_d": 1000.0, "W_d": 18.3}, [(915.6, 0.0), (48.2, 0.0)]).via(
    "1e-13 km short without the relative slack"
)
def test_battery_range_covers_every_sortie(kind, energy_params, stops):
    """A sortie's energy buys at least its own distance: every leg costs at
    least the unloaded energy of its length, and the rate-free fleets have
    no bound at all.  ``stops`` are (leg km, parcel kg) pairs; the last
    parcel is dropped, since a sortie has one leg more than parcels."""
    fleet = FleetSpec(**energy_params)
    legs = [leg for leg, _ in stops]
    weights = [mass for _, mass in stops[:-1]]
    level = leg_energy(kind, legs, weights, fleet)
    reach = battery_range(kind, level, fleet)
    assert sum(legs) <= reach
    if kind == DRONE:
        free = fleet.alpha_d == 0.0 or fleet.W_d == 0.0
    else:
        free = 0.0 in (fleet.k1, fleet.W_r, fleet.g, fleet.robot_energy_scale)
    if free:
        assert reach == math.inf


def test_battery_range_default_fleet():
    """An empty default drone flies 14000 / (128 * 18) km on a full battery;
    the default robot walks just past its 15 km range cap."""
    fleet = FleetSpec()
    assert battery_range(DRONE, fleet.B_d, fleet) == pytest.approx(14000.0 / 2304.0, rel=1e-8)
    assert 15.0 < battery_range(ROBOT, fleet.B_r, fleet) < 15.1
    assert battery_range(DRONE, 0.0, fleet) < 1e-9
    assert battery_range(DRONE, 1.0, FleetSpec(W_d=0.0)) == math.inf
    assert battery_range(ROBOT, 1.0, FleetSpec(k1=0.0)) == math.inf
