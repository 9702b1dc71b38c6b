import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from vrpdr import finder
from vrpdr.core import (
    FIT_TOL,
    METRICS,
    ConfigurationError,
    DistanceRows,
    FleetSpec,
    Instance,
    InstanceError,
    Node,
    Sortie,
    enumerate_sequences,
    euclidean_distance,
    instance_from_json,
    instance_to_json,
    manhattan_distance,
    plan_from_json,
    plan_to_json,
    Plan,
    sortie_distance,
)
from conftest import make_instance

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)


def test_manhattan_examples():
    assert manhattan_distance((0, 0), (3, 4)) == 7
    assert manhattan_distance((1, 1), (1, 1)) == 0
    assert manhattan_distance((-1, 2), (2, -2)) == 7


def test_euclidean_examples():
    assert euclidean_distance((0, 0), (3, 4)) == 5
    assert euclidean_distance((2, 2), (2, 2)) == 0
    assert euclidean_distance((0, 0), (1, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)


@given(points, points, points)
def test_metric_properties(a, b, c):
    for dist in (manhattan_distance, euclidean_distance):
        assert dist(a, b) >= 0
        assert dist(a, b) == pytest.approx(dist(b, a))
        assert dist(a, a) == 0
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9


@given(st.lists(points, min_size=2, max_size=6), st.data())
def test_distance_rows_are_bitwise_symmetric(pts, data):
    """FINDER reads d(c, node) from the row of node, so the floats must match."""
    a = data.draw(st.integers(0, len(pts) - 1))
    b = data.draw(st.integers(0, len(pts) - 1))
    for metric in METRICS.values():
        rows = DistanceRows(metric, pts)
        assert rows[a][b] == rows[b][a]


@given(points, points)
def test_manhattan_dominates_euclidean(a, b):
    assert manhattan_distance(a, b) >= euclidean_distance(a, b) - 1e-12


def test_sortie_distance_examples():
    # drone, collinear legs
    inst = make_instance([(9, 9), (1, 0), (2, 0)])
    s = Sortie("drone", 0, 1, 2, (0,), 0, 0)  # launch/recovery at nodes 1, 2 via depot
    # rebuild with explicit geometry: launch (0,0), customer (1,0), recover (2,0)
    inst = make_instance([(0, 0), (1, 0), (2, 0)])
    s = Sortie("drone", 0, 0, 2, (1,), 0, 0)
    assert sortie_distance(s, inst) == pytest.approx(2.0)

    # robot, two Manhattan legs of 2 each
    inst = make_instance([(0, 0), (1, 1)])
    s = Sortie("robot", 0, 0, 0, (1,), 0, 0)
    assert sortie_distance(s, inst) == pytest.approx(4.0)

    # drone, 5 + 5 + 0
    inst = make_instance([(0, 0), (3, 4), (6, 8)])
    s = Sortie("drone", 0, 0, 2, (1,), 0, 0)
    assert sortie_distance(s, inst) == pytest.approx(10.0)


def test_distance_rows_head_matches_sortie_distance():
    """Uncapped, the sortie walk yields every sequence; its legs are the metric
    legs and its distance plus the last leg is the float sortie_distance returns."""
    # irregular coordinates, so a different summation order would show in the last bits
    rng = random.Random(3)
    pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(7)]
    inst = make_instance(pts)
    weight = [nd.weight for nd in inst.nodes]
    for kind in ("drone", "robot"):
        rows = DistanceRows(METRICS[kind], [nd.point for nd in inst.nodes])
        for launch in (0, 1, 6):
            pool = [c for c in range(1, 7) if c != launch]
            walked = list(rows.sortie_heads(launch, pool, 3, weight, math.inf, math.inf))
            assert sorted(seq for seq, _, _ in walked) == sorted(enumerate_sequences(pool, 3))
            for seq, legs, head in walked:
                for recovery in (0, 2, 5):
                    if recovery in seq:
                        continue
                    s = Sortie(kind, 0, launch, recovery, seq, 0, 0)
                    last = rows[seq[-1]][recovery]
                    assert list(legs) + [last] == [
                        METRICS[kind](inst.node(i).point, inst.node(j).point) for i, j in s.legs()
                    ]
                    assert head + last == sortie_distance(s, inst)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reach_prune_keeps_every_sequence_that_gets_home(data):
    """The walk pruned by FINDER's ``reach`` is the unpruned walk minus only
    sequences with no recovery passing FINDER's range and timing checks."""
    near = st.floats(-10, 10)
    pts = data.draw(st.lists(st.tuples(near, near), min_size=3, max_size=9))
    kind = data.draw(st.sampled_from(("drone", "robot")))
    nodes = range(len(pts))
    launch = data.draw(st.sampled_from(nodes))
    others = [i for i in nodes if i != launch]
    pool = data.draw(st.lists(st.sampled_from(others), min_size=2, unique=True))
    weight = data.draw(st.lists(st.floats(0, 5), min_size=len(pts), max_size=len(pts)))
    m = data.draw(st.integers(1, 3))
    payload_limit = data.draw(st.floats(5, 30))
    range_limit = data.draw(st.floats(2, 60))
    speed = data.draw(st.floats(5, 80))
    launch_time = data.draw(st.floats(0, 10))
    recovery = [
        (0, q, node, launch_time + data.draw(st.floats(-0.2, 1.5)))
        for q, node in enumerate(data.draw(st.lists(st.sampled_from(nodes), min_size=1)))
    ]
    rows = DistanceRows(METRICS[kind], pts)

    def gets_home(seq, head):
        for _, _, node, deadline in recovery:
            if node in seq:
                continue
            dist = head + rows[seq[-1]][node]
            if dist <= range_limit and launch_time + dist / speed <= deadline:
                return True
        return False

    full = list(rows.sortie_heads(launch, pool, m, weight, payload_limit, range_limit))
    reach = finder._recovery_reach(rows, pool, recovery, launch_time, speed, range_limit)
    pruned = list(
        rows.sortie_heads(launch, pool, m, weight, payload_limit, range_limit, reach)
    )
    kept = {seq for seq, _, _ in pruned}
    # only sequences of the unpruned walk, with its legs and head floats, in its order
    assert pruned == [head for head in full if head[0] in kept]
    assert all(seq in kept for seq, _, head in full if gets_home(seq, head))


grid = st.integers(-6, 6).map(float)  # integer points tie often in both metrics


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_recovery_reach_is_the_max_over_recoveries_bit_for_bit(data):
    """``_recovery_reach`` is ``max(budget - d(c, r)) + FIT_TOL`` over the
    open recoveries, every float to the bit."""
    pts = data.draw(st.lists(st.tuples(grid, grid), min_size=2, max_size=9))
    kind = data.draw(st.sampled_from(("drone", "robot")))
    nodes = range(len(pts))
    pool = data.draw(st.lists(st.sampled_from(nodes), min_size=1, unique=True))
    launch_time = data.draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 10))
    speed = data.draw(st.sampled_from((1.0, 2.0, 4.0)) | st.floats(0.5, 80))
    range_limit = data.draw(st.sampled_from((0.0, 3.0, 7.0, math.inf)) | st.floats(0, 60))
    recovery = [
        (0, q, node, launch_time + delay)
        for q, (node, delay) in enumerate(
            data.draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(nodes),
                        st.sampled_from((0.0, 0.5, 1.0, -0.25)) | st.floats(-1, 3),
                    ),
                    min_size=1,
                    max_size=12,
                )
            )
        )
    ]
    rows = DistanceRows(METRICS[kind], pts)
    budgets = [
        (min(range_limit, (deadline - launch_time) * speed), rows[node])
        for _, _, node, deadline in recovery
    ]
    want = {c: max(b - row[c] for b, row in budgets) + FIT_TOL for c in pool}
    got = finder._recovery_reach(rows, pool, recovery, launch_time, speed, range_limit)
    assert list(got) == list(want)
    assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


def test_sortie_distance_unknown_node():
    inst = make_instance([(0, 0), (1, 0)])
    s = Sortie("drone", 0, 0, 1, (7,), 0, 0)
    with pytest.raises(InstanceError):
        sortie_distance(s, inst)


def test_enumerate_sequences_examples():
    assert enumerate_sequences, "import"
    assert enumerate_sequences({1, 2}, 1) == [(1,), (2,)]
    assert enumerate_sequences({1, 2}, 2) == [(1,), (2,), (1, 2), (2, 1)]
    assert enumerate_sequences(set(), 5) == []


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumerate_sequences_count(n, m):
    customers = set(range(1, n + 1))
    seqs = enumerate_sequences(customers, m)
    # independent oracle: brute permutation count
    expected = sum(
        1
        for length in range(1, m + 1)
        for _ in itertools.permutations(sorted(customers), length)
    )
    assert len(seqs) == expected
    assert len(set(seqs)) == len(seqs)
    closed_form = sum(
        math.factorial(n) // math.factorial(n - length)
        for length in range(1, min(m, n) + 1)
    )
    assert len(seqs) == closed_form


def test_sequences_deterministic_order():
    seqs = enumerate_sequences({3, 1, 2}, 2)
    assert seqs == sorted(seqs, key=lambda s: (len(s), s))


def test_sortie_invariants():
    with pytest.raises(Exception):
        Sortie("drone", 0, 0, 2, (), 0, 0)
    with pytest.raises(Exception):
        Sortie("drone", 0, 0, 2, (1, 1), 0, 0)
    with pytest.raises(Exception):
        Sortie("drone", 0, 0, 2, (2,), 0, 0)  # recovery inside sequence
    s = Sortie("robot", 1, 3, 3, (1,), 0, 1)  # cyclic, cross-truck ok
    assert s.cyclic


def test_instance_validation():
    with pytest.raises(InstanceError):
        Instance([Node(1, 0, 0)], FleetSpec())
    with pytest.raises(InstanceError):
        Instance([Node(0, 0, 0, weight=2.0)], FleetSpec())
    with pytest.raises(InstanceError):
        Instance([Node(0, 0, 0), Node(2, 1, 1, 1.0)], FleetSpec())


@pytest.mark.parametrize(
    "x, y, weight",
    [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -1.0), (1.0, 1.0, math.nan)],
    ids=["nan-x", "inf-y", "negative-weight", "nan-weight"],
)
def test_instance_rejects_bad_node_data(x, y, weight):
    nodes = [Node(0, 0.0, 0.0), Node(1, 2.0, 2.0, 1.0), Node(2, x, y, weight)]
    with pytest.raises(InstanceError, match="node 2"):
        Instance(nodes, FleetSpec())


def test_instance_rejects_coordinates_whose_travel_overflows():
    """An instance loads only while (n + 1) legs of its bounding box's width
    plus height stay finite, so no route's km or hours overflow."""
    far = [(0, 0), (1.5e308, 0), (-1.5e308, 1), (1.5e308, 1), (-1.5e308, 0)]
    with pytest.raises(InstanceError, match="coordinates too far apart"):
        make_instance(far)
    with pytest.raises(InstanceError, match="too far apart"):
        make_instance([(0, 0), (1e308, 0)])  # 2 legs of 1e308 km overflow
    # three nodes 5e307 km apart load (1.5e308), a fourth does not (2e308)
    assert make_instance([(0, 0), (5e307, 0), (0, 0)]).num_customers == 2
    with pytest.raises(InstanceError, match="too far apart"):
        make_instance([(0, 0), (5e307, 0), (0, 0), (0, 0)])
    with pytest.raises(InstanceError, match="too far apart"):
        make_instance([(0, 0), (0, 1e308), (0, -1e308)])  # an infinite height


def test_truck_distance_has_no_mask():
    """Truck km is plain Manhattan km, unreachable ends included: whether a
    truck may drive an arc is read from the nodes' flags, never from a
    distance."""
    inst = make_instance([(0, 0), (1, 0), (2, 0)], reachable=[True, False])
    assert [nd.truck_reachable for nd in inst.nodes] == [True, True, False]
    assert inst.truck_distance(0, 1) == 1
    assert inst.truck_distance(0, 2) == 2
    assert inst.truck_distance(2, 2) == 0
    # the rows are the scalar function's km, unreachable node 2 included
    rows = inst.truck_rows(range(3))
    assert rows.tolist() == [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    for i in range(3):
        for j in range(3):
            assert rows[i, j] == inst.truck_distance(i, j)
    # integer coordinates still give float rows
    assert inst.truck_rows([0]).dtype == float


def test_truck_legs_are_the_scalar_truck_distance():
    """Schedules, scores and the validator read these leg vectors; each leg
    is the float truck_distance returns, bit for bit, unreachable ends
    included."""
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(1, 9)
        pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n + 1)]
        inst = make_instance(pts, reachable=[rng.random() < 0.6 for _ in range(n)])
        inner = [rng.randrange(n + 1) for _ in range(rng.randint(0, 8))]
        if inner:
            k = rng.randrange(len(inner))
            inner.insert(k, inner[k])  # a same-node leg
        for route in ([0, 0], [0, *inner, 0]):
            legs = inst.truck_legs(route)
            expected = [inst.truck_distance(a, b) for a, b in zip(route[:-1], route[1:])]
            assert all(type(km) is float for km in legs)
            assert [km.hex() for km in legs] == [float(km).hex() for km in expected]
    unreachable = make_instance([(0, 0), (1, 0), (2.5, 0)], reachable=[True, False])
    assert unreachable.truck_legs([0, 2, 2, 1, 0]) == [2.5, 0.0, 1.5, 1.0]
    assert unreachable.truck_legs([0, 0]) == [0.0]
    assert unreachable.truck_legs([]) == []
    for bad in ([0, 3, 0], [0, -1, 0]):
        with pytest.raises(InstanceError):
            unreachable.truck_legs(bad)


def test_truck_rows_are_the_scalar_truck_distance():
    """Exact search and the finder's insertion kernel read these rows, over
    truck-reachable routes only; there each entry is the float
    truck_distance returns, and a row comes back per id, in order."""
    rng = random.Random(5)
    pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(8)]
    inst = make_instance(pts, reachable=[rng.random() < 0.7 for _ in range(7)])
    routable = [a for a in range(8) if inst.node(a).truck_reachable]
    ids = [5, 0, 5, 7, 2]
    rows = inst.truck_rows(ids)
    assert rows.shape == (len(ids), 8)
    for k, a in enumerate(ids):
        for b in range(8):
            if a == b or (a in routable and b in routable):
                assert rows[k, b] == inst.truck_distance(a, b)
    assert inst.truck_rows([]).shape == (0, 8)


def test_truck_rows_are_manhattan_distance_bit_for_bit():
    """Every entry is manhattan_distance of its two points, unreachable nodes
    included, and the rows are bitwise symmetric: the finder reads the km
    of a new edge's ends from the inserted customer's own row."""
    rng = random.Random(13)
    for trial in range(30):
        n = rng.randint(1, 12)
        pts = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n + 1)]
        if trial % 3 == 0:
            pts = [(float(rng.randint(-3, 3)), y) for _, y in pts]
        inst = make_instance(pts, reachable=[rng.random() < 0.5 for _ in range(n)])
        rows = inst.truck_rows(range(n + 1)).tolist()
        for a in range(n + 1):
            for b in range(n + 1):
                expected = manhattan_distance(pts[a], pts[b])
                assert rows[a][b].hex() == expected.hex() == rows[b][a].hex()


def test_instance_json_roundtrip():
    inst = make_instance([(0.0, 0.0), (1.5, 2.5), (3.0, 1.0)], weights=[2.0, 9.5])
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert instance_to_json(back) == text
    assert back.num_customers == 2
    assert back.fleet == inst.fleet


def test_instance_json_rejects_unknown_fields():
    inst = make_instance([(0, 0), (1, 1)])
    import json

    doc = json.loads(instance_to_json(inst))
    doc["extra"] = 1
    with pytest.raises(InstanceError):
        instance_from_json(json.dumps(doc))
    doc = json.loads(instance_to_json(inst))
    doc["customers"][0]["color"] = "red"
    with pytest.raises(InstanceError):
        instance_from_json(json.dumps(doc))
    doc = json.loads(instance_to_json(inst))
    doc["fleet"]["warp_speed"] = 9
    with pytest.raises(InstanceError):
        instance_from_json(json.dumps(doc))


def test_plan_json_roundtrip():
    s = Sortie("drone", 0, 1, 2, (3,), 0, 0, launch_time=0.25)
    plan = Plan(
        truck_routes=((0, 1, 2, 0),),
        sorties=(s,),
        truck_arrivals=({1: 0.1, 2: 0.3, 0: 0.5},),
    )
    text = plan_to_json(plan)
    back = plan_from_json(text)
    assert plan_to_json(back) == text
    assert back.sorties[0].sequence == (3,)
    assert back.truck_arrivals[0][2] == pytest.approx(0.3)


def test_fleet_invariants():
    with pytest.raises(Exception):
        FleetSpec(alpha=1.5)
    with pytest.raises(Exception):
        FleetSpec(m=0)
    with pytest.raises(Exception):
        FleetSpec(num_drones=1, s_d=0)
    FleetSpec(num_drones=0, s_d=0)  # fine when no drones exist


def test_benchmark_defaults_frozen():
    """The default parameter set the whole benchmark suite hinges on."""
    f = FleetSpec()
    assert (f.num_trucks, f.num_drones, f.num_robots) == (1, 1, 1)
    assert (f.s_t, f.s_d, f.s_r) == (45.0, 75.0, 25.0)
    assert (f.C_t, f.C_d, f.C_r) == (2.9, 0.08, 0.06)
    assert (f.f_t, f.f_d, f.f_r) == (30.0, 10.0, 8.0)
    assert (f.rho_d, f.rho_r) == (25.0, 20.0)
    assert (f.D_max_d, f.D_max_r) == (20.0, 15.0)
    assert (f.W_d, f.W_r) == (18.0, 15.0)
    assert (f.B_d, f.B_r) == (14000.0, 8000.0)
    assert f.alpha_d == 128.0
    assert f.g == 9.81
    assert f.l_leg == 0.5
    assert (f.C_rate_d, f.C_rate_r) == (5000.0, 4000.0)
    assert (f.k1, f.k2) == (0.1, 0.2)
    assert f.m == 3
    assert f.alpha == 0.5


@pytest.mark.parametrize(
    "field, value",
    [("s_d", math.nan), ("B_r", math.inf), ("C_t", -1.0), ("k1", math.nan)],
)
def test_fleet_rejects_non_finite_or_negative_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        FleetSpec(**{field: value})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["customers"][0].pop("weight"), r"missing field customers\[0\]\.weight"),
        (lambda d: d["customers"][1].update(x="3"), r"customers\[1\]\.x must be a number"),
        (lambda d: d["customers"][0].update(truck_reachable=1), r"customers\[0\]\.truck_reachable"),
        (lambda d: d["customers"][0].update(id=1.0), r"customers\[0\]\.id must be an integer"),
        (lambda d: d.__setitem__("customers", {}), r"instance\.customers must be a list"),
        (lambda d: d.pop("depot"), r"missing field instance\.depot"),
        (lambda d: d["depot"].pop("y"), r"missing field depot\.y"),
        (lambda d: d["fleet"].update(m="3"), r"fleet\.m must be an integer"),
        (lambda d: d["fleet"].update(s_t=True), r"fleet\.s_t must be a number"),
        (lambda d: d.__setitem__("seed", "7"), r"instance\.seed must be an integer"),
    ],
    ids=[
        "missing_weight",
        "string_coordinate",
        "integer_flag",
        "float_id",
        "customers_not_a_list",
        "missing_depot",
        "missing_depot_y",
        "string_fleet_count",
        "boolean_fleet_speed",
        "string_seed",
    ],
)
def test_instance_json_names_bad_field(edit, message):
    import json

    doc = json.loads(instance_to_json(make_instance([(0, 0), (1, 1), (2, 0)])))
    edit(doc)
    with pytest.raises(InstanceError, match=message):
        instance_from_json(json.dumps(doc))


def test_instance_json_rejects_non_object_text():
    for text in ("not json", "[1, 2]"):
        with pytest.raises(InstanceError, match="instance"):
            instance_from_json(text)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["sorties"][0].pop("launch_node"), r"missing field sorties\[0\]\.launch_node"),
        (lambda d: d["sorties"][0].update(sequence=["3"]), r"sorties\[0\]\.sequence\[0\]"),
        (lambda d: d["sorties"][0].update(vehicle_kind="truck"), r"sorties\[0\]\.vehicle_kind"),
        (lambda d: d["sorties"][0].update(color="red"), r"\['color'\] in sorties\[0\]"),
        (lambda d: d.pop("truck_routes"), r"missing field plan\.truck_routes"),
        (lambda d: d["truck_routes"][0].append("x"), r"truck_routes\[0\]\[4\] must be an integer"),
        (lambda d: d["truck_arrivals"][0].update(a=1.0), r"truck_arrivals\[0\] key 'a'"),
        (lambda d: d["truck_arrivals"][0].update({"1": None}), r"truck_arrivals\[0\]\['1'\]"),
        (lambda d: d["charging_events"][0].pop("amount"), r"charging_events\[0\]\.amount"),
        (lambda d: d["ledgers"][0]["entries"][0].pop("delta"), r"entries\[0\]\.delta"),
        (lambda d: d["objective_breakdown"].update(makespan="1"), r"objective_breakdown\.makespan"),
    ],
    ids=[
        "missing_launch_node",
        "string_in_sequence",
        "unknown_kind",
        "unknown_field",
        "missing_routes",
        "string_in_route",
        "bad_arrival_key",
        "null_arrival_time",
        "missing_charge_amount",
        "missing_ledger_delta",
        "string_breakdown",
    ],
)
def test_plan_json_names_bad_field(edit, message):
    import json

    from vrpdr import energy
    from vrpdr.core import ObjectiveBreakdown, PlanStructureError

    ledger = energy.BatteryLedger(
        "drone", 0, FleetSpec().B_d, (energy.LedgerEntry(0.1, -500.0, energy.CAUSE_SORTIE),)
    )
    plan = Plan(
        truck_routes=((0, 1, 2, 0),),
        sorties=(Sortie("drone", 0, 1, 2, (3,), 0, 0, launch_time=0.1),),
        truck_arrivals=({1: 0.1, 2: 0.3, 0: 0.5},),
        charging_events=(energy.ChargingEvent("drone", 0, 0, 2, 0.2, 300.0),),
        ledgers=(ledger,),
        objective_breakdown=ObjectiveBreakdown(10.0, 30.0, 0.5, 20.25),
    )
    doc = json.loads(plan_to_json(plan))
    assert plan_from_json(json.dumps(doc)) == plan
    edit(doc)
    with pytest.raises(PlanStructureError, match=message):
        plan_from_json(json.dumps(doc))
