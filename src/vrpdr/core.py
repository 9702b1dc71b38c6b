"""Data model and geometry for collaborative truck / drone / robot routing.

:meth:`DistanceRows.sortie_heads` is the one sortie walk: the model's
candidate list, which exact search also flies, and the heuristic both
enumerate their drone and robot sorties with it, and the heuristic also
prunes it by the way home (its optional ``reach``).  Canonical units throughout the package: kilometres, hours,
kilograms, dollars.  Battery energy is measured in abstract energy units
(one unit is one mAh-equivalent; see :mod:`vrpdr.energy` for the watt-hour
bridge used by the walking robot).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

DRONE = "drone"
ROBOT = "robot"
VEHICLE_KINDS = (DRONE, ROBOT)
TIME_TOL = 1e-6  # hours; slack allowed on every timing comparison
FIT_TOL = 1e-9  # slack on the payload, range and battery caps a sortie must fit


class VrpdrError(Exception):
    """Base class for all package errors."""


class InstanceError(VrpdrError):
    """The instance data is malformed (bad ids, bad depot, bad fleet)."""


class KindMismatchError(VrpdrError):
    """An operation received a sortie of the wrong vehicle kind."""


class InvalidEventError(VrpdrError):
    """A charging event violates its own invariants."""


class ConfigurationError(VrpdrError):
    """Fleet or solver configuration cannot be used for the request."""


class ModelSizeError(VrpdrError):
    """The instance exceeds the configured sortie enumeration budget."""


class PlanStructureError(VrpdrError):
    """A plan references unknown ids or is otherwise not well formed."""


class InfeasibleError(VrpdrError):
    """No feasible plan exists; ``offending_ids`` names the blockers."""

    def __init__(self, message: str, offending_ids: Sequence[int] = ()):
        super().__init__(message)
        self.offending_ids = tuple(offending_ids)


class BudgetExceededError(VrpdrError):
    """The search budget (candidates or wall clock) ran out."""


# ---------------------------------------------------------------------------
# distance metrics
# ---------------------------------------------------------------------------

def manhattan_distance(a: tuple, b: tuple) -> float:
    """Grid distance |ax-bx| + |ay-by|, used by trucks and robots."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def euclidean_distance(a: tuple, b: tuple) -> float:
    """Straight-line distance, used by drones."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


METRICS = {DRONE: euclidean_distance, ROBOT: manhattan_distance}


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    """A depot (id 0) or customer location; weight is the parcel mass in kg."""

    id: int
    x: float
    y: float
    weight: float = 0.0
    truck_reachable: bool = True

    @property
    def point(self) -> tuple:
        return (self.x, self.y)


@dataclass(frozen=True)
class FleetSpec:
    """Fleet composition and every per-modality parameter.

    Field names double as the JSON schema for the ``fleet`` object, so they
    are kept short and stable.  ``robot_energy_scale`` converts watt-hours
    of walking power into battery units (mAh-equivalent); the default of
    1000/11.1 corresponds to a 3-cell pack at 11.1 V nominal, which makes an
    unloaded robot run of ``D_max_r`` km consume roughly one full battery.
    """

    num_trucks: int = 1
    num_drones: int = 1
    num_robots: int = 1
    s_t: float = 45.0          # km/h
    s_d: float = 75.0
    s_r: float = 25.0
    C_t: float = 2.9           # $/km
    C_d: float = 0.08
    C_r: float = 0.06
    f_t: float = 30.0          # $ fixed per deployment
    f_d: float = 10.0
    f_r: float = 8.0
    rho_d: float = 25.0        # kg payload caps
    rho_r: float = 20.0
    D_max_d: float = 20.0      # km per-sortie range caps
    D_max_r: float = 15.0
    W_d: float = 18.0          # kg self-weights
    W_r: float = 15.0
    B_d: float = 14000.0       # battery capacities, energy units
    B_r: float = 8000.0
    alpha_d: float = 128.0     # drone energy units per kg*km
    g: float = 9.81            # m/s^2
    l_leg: float = 0.5         # m
    C_rate_d: float = 5000.0   # energy units per hour
    C_rate_r: float = 4000.0
    k1: float = 0.1
    k2: float = 0.2
    m: int = 3                 # max customers per sortie
    alpha: float = 0.5         # objective weight on cost vs makespan
    robot_energy_scale: float = 1000.0 / 11.1  # units per Wh

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigurationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        for count in ("num_trucks", "num_drones", "num_robots"):
            if getattr(self, count) < 0:
                raise ConfigurationError(f"{count} must be nonnegative")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(f"{f.name} must be finite and >= 0, got {value}")
        if self.num_trucks > 0 and self.s_t <= 0:
            raise ConfigurationError("truck speed must be positive")
        if self.num_drones > 0:
            for name in ("s_d", "rho_d", "D_max_d", "B_d", "C_rate_d"):
                if getattr(self, name) <= 0:
                    raise ConfigurationError(f"{name} must be positive with drones in the fleet")
        if self.num_robots > 0:
            for name in ("s_r", "rho_r", "D_max_r", "B_r", "C_rate_r", "l_leg"):
                if getattr(self, name) <= 0:
                    raise ConfigurationError(f"{name} must be positive with robots in the fleet")

    def speed(self, kind: str) -> float:
        return self.s_d if kind == DRONE else self.s_r

    def unit_cost(self, kind: str) -> float:
        return self.C_d if kind == DRONE else self.C_r

    def fixed_cost(self, kind: str) -> float:
        return self.f_d if kind == DRONE else self.f_r

    def payload_cap(self, kind: str) -> float:
        return self.rho_d if kind == DRONE else self.rho_r

    def range_cap(self, kind: str) -> float:
        return self.D_max_d if kind == DRONE else self.D_max_r

    def battery(self, kind: str) -> float:
        return self.B_d if kind == DRONE else self.B_r

    def charge_rate(self, kind: str) -> float:
        return self.C_rate_d if kind == DRONE else self.C_rate_r

    def count(self, kind: str) -> int:
        return self.num_drones if kind == DRONE else self.num_robots


@dataclass(frozen=True)
class ModelOptions:
    """Feature toggles shared by the model builder, validator and solvers."""

    charging: bool = True
    flexible_docking: bool = True
    single_visit: bool = False
    single_trip: bool = False
    max_sorties: int = 200_000

    def effective_m(self, fleet: FleetSpec) -> int:
        return 1 if self.single_visit else fleet.m


@dataclass(frozen=True)
class Sortie:
    """One drone or robot trip: launch node, ordered customers, recovery node."""

    vehicle_kind: str
    vehicle_id: int
    launch_node: int
    recovery_node: int
    sequence: tuple
    launch_truck: int
    recovery_truck: int
    launch_time: float = 0.0

    def __post_init__(self):
        if self.vehicle_kind not in VEHICLE_KINDS:
            raise KindMismatchError(f"unknown vehicle kind {self.vehicle_kind!r}")
        object.__setattr__(self, "sequence", tuple(self.sequence))
        if not self.sequence:
            raise PlanStructureError("sortie sequence must be nonempty")
        if len(set(self.sequence)) != len(self.sequence):
            raise PlanStructureError(f"duplicate customer in sortie sequence {self.sequence}")
        if self.launch_node in self.sequence or self.recovery_node in self.sequence:
            raise PlanStructureError("launch/recovery node may not appear in the sequence")

    @property
    def cyclic(self) -> bool:
        return self.launch_node == self.recovery_node

    def legs(self) -> list:
        """Node-id pairs for launch -> customers -> recovery."""
        path = (self.launch_node,) + self.sequence + (self.recovery_node,)
        return list(zip(path[:-1], path[1:]))


@dataclass(frozen=True)
class ObjectiveBreakdown:
    variable_cost: float
    fixed_cost: float
    makespan: float
    weighted_objective: float


@dataclass(frozen=True)
class Plan:
    """Truck routes plus sorties, timing, charging ledger and score.

    ``truck_arrivals[t]`` maps each node of truck ``t``'s route to its
    arrival time; the depot entry holds the return time (departure is 0 by
    convention).  ``ledgers`` holds one battery ledger per fleet vehicle
    (:func:`vrpdr.energy.build_ledgers`).
    """

    truck_routes: tuple
    sorties: tuple = ()
    truck_arrivals: tuple = ()
    charging_events: tuple = ()
    ledgers: tuple = ()
    objective_breakdown: Optional[ObjectiveBreakdown] = None

    def __post_init__(self):
        object.__setattr__(self, "truck_routes", tuple(tuple(r) for r in self.truck_routes))
        object.__setattr__(self, "sorties", tuple(self.sorties))
        object.__setattr__(self, "truck_arrivals", tuple(dict(a) for a in self.truck_arrivals))
        object.__setattr__(self, "charging_events", tuple(self.charging_events))
        object.__setattr__(self, "ledgers", tuple(self.ledgers))

    def route_customers(self) -> list:
        """Customers visited by trucks, in route order."""
        out = []
        for route in self.truck_routes:
            out.extend(n for n in route if n != 0)
        return out

    def sortie_customers(self) -> list:
        out = []
        for s in self.sorties:
            out.extend(s.sequence)
        return out


class Instance:
    """Depot plus customers with dense ids (0 = depot) and the fleet spec."""

    def __init__(self, nodes: Sequence[Node], fleet: FleetSpec, seed: int = 0):
        nodes = tuple(nodes)
        if not nodes:
            raise InstanceError("instance needs at least the depot node")
        for idx, node in enumerate(nodes):
            if node.id != idx:
                raise InstanceError(f"node ids must be dense 0..n, got {node.id} at position {idx}")
            if not (math.isfinite(node.x) and math.isfinite(node.y)):
                raise InstanceError(f"node {node.id} has a non-finite coordinate")
            if not (math.isfinite(node.weight) and node.weight >= 0):
                raise InstanceError(f"node {node.id} has weight {node.weight}; need finite >= 0")
        depot = nodes[0]
        if depot.weight != 0.0 or not depot.truck_reachable:
            raise InstanceError("depot must have zero weight and be truck reachable")
        self.nodes = nodes
        self.fleet = fleet
        self.seed = seed

    @property
    def depot(self) -> Node:
        return self.nodes[0]

    @property
    def customers(self) -> tuple:
        return self.nodes[1:]

    @property
    def num_customers(self) -> int:
        return len(self.nodes) - 1

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise InstanceError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    def distance(self, kind: str, i: int, j: int) -> float:
        """Metric distance between node ids for a vehicle kind."""
        return METRICS[kind](self.node(i).point, self.node(j).point)

    def truck_distance(self, i: int, j: int) -> float:
        """Manhattan truck km between node ids.

        No mask: whether a truck may drive an arc is read from the nodes'
        ``truck_reachable`` flags, never from its length.
        """
        return manhattan_distance(self.node(i).point, self.node(j).point)

    @cached_property
    def node_arrays(self) -> tuple:
        """``(x, y)`` coordinate arrays indexed by node id: O(n), kept."""
        xs = np.array([nd.x for nd in self.nodes], dtype=float)
        ys = np.array([nd.y for nd in self.nodes], dtype=float)
        return xs, ys

    def truck_rows(self, ids):
        """Manhattan km from each node of ``ids`` to every node, a
        ``len(ids) × (n + 1)`` float array from :attr:`node_arrays`.

        Each entry is :func:`manhattan_distance` of the two points, bit for
        bit, so the km from i to j in i's row is the km from j to i in j's.
        The finder's insertion kernel reads the rows of its open customers
        and exact search the rows of all nodes; both route truck-reachable
        nodes only.
        """
        xs, ys = self.node_arrays
        ids = np.asarray(ids, dtype=np.intp)
        return np.abs(xs[ids, None] - xs) + np.abs(ys[ids, None] - ys)

    def truck_legs(self, route) -> list:
        """Truck km of each leg of ``route`` as Python floats, each equal to
        :meth:`truck_distance` of the leg's ends.

        Computed from :attr:`node_arrays` in O(len(route)).
        """
        xs, ys = self.node_arrays
        ids = np.asarray(route, dtype=np.intp)
        if ids.size and not (ids.min() >= 0 and ids.max() < len(self.nodes)):
            raise InstanceError(f"route {list(route)} references an unknown node id")
        a, b = ids[:-1], ids[1:]
        return (np.abs(xs[a] - xs[b]) + np.abs(ys[a] - ys[b])).tolist()


class DistanceRows(dict):
    """``rows[a][b]`` = ``metric(points[a], points[b])``; a row is built on first use.

    Every entry comes from the same metric function :meth:`Instance.distance`
    calls, so each float is the one a checked lookup would return.  Only the
    rows a caller touches are built, never the full table.
    """

    def __init__(self, metric, points):
        super().__init__()
        self.metric = metric
        self.points = points

    def __missing__(self, a):
        metric, here = self.metric, self.points[a]
        row = self[a] = [metric(here, p) for p in self.points]
        return row

    def sortie_heads(self, start, pool, m, weight, payload_limit, range_limit, reach=None):
        """Every ordered tuple of 1..m distinct ``pool`` customers within both caps.

        The one sortie walk: depth first from the ``start`` node, a prefix
        carries its running payload, its distance ``0 + d1 + d2 ...`` summed
        in path order and its leg distances.  One over ``payload_limit`` or
        ``range_limit`` is not extended, which loses nothing because weights
        and distances are non-negative.  ``weight[c]`` is the parcel mass of
        c.  Yields (sequence, leg distances, distance) for each of the
        sequences :func:`enumerate_sequences` returns that pass both caps;
        adding the last leg to the distance gives the float
        :func:`sortie_distance` returns for the whole sortie.

        ``reach[c]``, when given for every pool customer c, is the largest
        distance at which a prefix ending at c can still get home: a prefix
        ending at c farther than that is neither yielded nor extended.  The
        heuristic sets it to ``max_r(budget_r - d(c, r)) + FIT_TOL`` over its
        open recovery points r, where ``budget_r`` is the distance the
        vehicle may cover before r's deadline and range cap.  By the triangle
        inequality every sequence through c adds at least ``d(c, r)`` between
        c and r, so no sequence dropped this way could reach any r within
        its budget; ``FIT_TOL`` covers the rounding of the float sums.
        Without ``reach`` the walk is the cap-pruned walk alone.
        """
        # (customer, its parcel mass, the largest distance a prefix may end at it)
        steps = [
            (c, weight[c], range_limit if reach is None else min(range_limit, reach[c]))
            for c in pool
        ]
        stack = [((), start, 0, 0, ())]  # (prefix, its last node, payload, distance, legs)
        while stack:
            seq, last, payload, dist, legs = stack.pop()
            row = self[last]
            for c, mass, limit in steps:
                if c in seq:
                    continue
                load = payload + mass
                if load > payload_limit:
                    continue
                leg = row[c]
                total = dist + leg
                if total > limit:
                    continue
                grown, grown_legs = seq + (c,), legs + (leg,)
                yield grown, grown_legs, total
                if len(grown) < m:
                    stack.append((grown, c, load, total, grown_legs))


def sortie_distance(sortie: Sortie, inst: Instance) -> float:
    """Total leg distance of a sortie in its vehicle's metric."""
    metric = METRICS[sortie.vehicle_kind]
    total = 0.0
    for i, j in sortie.legs():
        total += metric(inst.node(i).point, inst.node(j).point)
    return total


def sortie_travel_time(sortie: Sortie, inst: Instance, fleet: FleetSpec) -> float:
    return sortie_distance(sortie, inst) / fleet.speed(sortie.vehicle_kind)


def enumerate_sequences(customers: Iterable[int], m: int) -> list:
    """All ordered tuples of distinct customers with length 1..m.

    Deterministic: ascending length, then lexicographic by customer id.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    pool = sorted(set(customers))
    out = []
    for length in range(1, min(m, len(pool)) + 1):
        out.extend(itertools.permutations(pool, length))
    return out


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

_FLEET_FIELDS = {f for f in FleetSpec.__dataclass_fields__}
_FLEET_OPTIONAL = {"robot_energy_scale"}
_CUSTOMER_FIELDS = {"id", "x", "y", "weight", "truck_reachable"}
# JSON types a dataclass field annotation accepts; true and false are no numbers
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool, "tuple": list}
_JSON_NAMES = {
    dict: "an object",
    list: "a list",
    int: "an integer",
    (int, float): "a number",
    str: "a string",
    bool: "true or false",
}


def _reject_unknown(d: dict, allowed: set, where: str, error=InstanceError) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise error(f"unknown field(s) {sorted(unknown)} in {where}")


def _typed(value, types, path: str, error):
    """``value`` when it is a JSON value of ``types``; else ``error`` naming ``path``."""
    if isinstance(value, types) and (types is bool or not isinstance(value, bool)):
        return value
    raise error(f"{path} must be {_JSON_NAMES[types]}, got {value!r}")


def _field(doc: dict, key: str, path: str, types, error):
    """``doc[key]`` checked by :func:`_typed`; a missing key raises ``error`` too."""
    where = f"{path}.{key}"
    if key not in doc:
        raise error(f"missing field {where}")
    return _typed(doc[key], types, where, error)


def _int_tuple(value, path: str, error) -> tuple:
    """A JSON list of integers as a tuple; else ``error`` naming ``path``."""
    _typed(value, list, path, error)
    return tuple(_typed(v, int, f"{path}[{k}]", error) for k, v in enumerate(value))


def _json_object(text: str, what: str, error) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    return _typed(doc, dict, what, error)


def _record(cls, doc, path: str, error, skip=()) -> dict:
    """Keyword arguments for dataclass ``cls`` from the JSON object ``doc``.

    Every field not in ``skip`` must be present unless it has a default and
    hold the JSON type its annotation names (a ``tuple`` is a list of
    integers); a ``vehicle_kind`` must name a vehicle kind.  Anything else
    raises ``error`` naming the field path.
    """
    _typed(doc, dict, path, error)
    cls_fields = fields(cls)
    _reject_unknown(doc, {f.name for f in cls_fields}, path, error)
    kwargs = {}
    for f in cls_fields:
        if f.name in skip or (f.name not in doc and f.default is not MISSING):
            continue
        kwargs[f.name] = _field(doc, f.name, path, _JSON_TYPES[f.type], error)
        if f.type == "tuple":
            kwargs[f.name] = _int_tuple(kwargs[f.name], f"{path}.{f.name}", error)
    kind = kwargs.get("vehicle_kind")
    if kind is not None and kind not in VEHICLE_KINDS:
        raise error(f"{path}.vehicle_kind must be one of {list(VEHICLE_KINDS)}, got {kind!r}")
    return kwargs


def instance_to_json(inst: Instance) -> str:
    doc = {
        "depot": {"x": inst.depot.x, "y": inst.depot.y},
        "customers": [
            {
                "id": c.id,
                "x": c.x,
                "y": c.y,
                "weight": c.weight,
                "truck_reachable": c.truck_reachable,
            }
            for c in inst.customers
        ],
        "fleet": asdict(inst.fleet),
        "seed": inst.seed,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def instance_from_json(text: str) -> Instance:
    """Instance from :func:`instance_to_json` text.

    A missing, unknown or mistyped field raises :class:`InstanceError`
    naming its path, such as ``customers[0].weight``.
    """
    doc = _json_object(text, "instance", InstanceError)
    _reject_unknown(doc, {"depot", "customers", "fleet", "seed"}, "instance")
    fleet_doc = _field(doc, "fleet", "instance", dict, InstanceError)
    missing = _FLEET_FIELDS - _FLEET_OPTIONAL - set(fleet_doc)
    if missing:
        raise InstanceError(f"fleet is missing field(s) {sorted(missing)}")
    fleet = FleetSpec(**_record(FleetSpec, fleet_doc, "fleet", InstanceError))
    depot = _field(doc, "depot", "instance", dict, InstanceError)
    _reject_unknown(depot, {"x", "y"}, "depot")
    nodes = [
        Node(
            0,
            float(_field(depot, "x", "depot", (int, float), InstanceError)),
            float(_field(depot, "y", "depot", (int, float), InstanceError)),
        )
    ]
    customers = _field(doc, "customers", "instance", list, InstanceError)
    for k, c in enumerate(customers):
        path = f"customers[{k}]"
        _typed(c, dict, path, InstanceError)
        _reject_unknown(c, _CUSTOMER_FIELDS, path)
        nodes.append(
            Node(
                _field(c, "id", path, int, InstanceError),
                float(_field(c, "x", path, (int, float), InstanceError)),
                float(_field(c, "y", path, (int, float), InstanceError)),
                float(_field(c, "weight", path, (int, float), InstanceError)),
                _field(c, "truck_reachable", path, bool, InstanceError),
            )
        )
    seed = _typed(doc.get("seed", 0), int, "instance.seed", InstanceError)
    return Instance(nodes, fleet, seed=seed)


def plan_to_json(plan: Plan) -> str:
    doc = {
        "truck_routes": [list(r) for r in plan.truck_routes],
        "sorties": [asdict(s) for s in plan.sorties],
        "truck_arrivals": [
            {str(node): t for node, t in arrivals.items()} for arrivals in plan.truck_arrivals
        ],
        "charging_events": [asdict(e) for e in plan.charging_events],
        "ledgers": [asdict(l) for l in plan.ledgers],
        "objective_breakdown": asdict(plan.objective_breakdown)
        if plan.objective_breakdown
        else None,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _plan_list(doc: dict, key: str, required: bool = False) -> list:
    if key not in doc and not required:
        return []
    return _field(doc, key, "plan", list, PlanStructureError)


def plan_from_json(text: str) -> Plan:
    """Plan from :func:`plan_to_json` text.

    A missing, unknown or mistyped field raises :class:`PlanStructureError`
    naming its path, such as ``sorties[0].launch_node``.
    """
    from . import energy

    error = PlanStructureError
    doc = _json_object(text, "plan", error)
    allowed = {
        "truck_routes",
        "sorties",
        "truck_arrivals",
        "charging_events",
        "ledgers",
        "objective_breakdown",
    }
    _reject_unknown(doc, allowed, "plan", error)
    routes = tuple(
        _int_tuple(route, f"truck_routes[{t}]", error)
        for t, route in enumerate(_plan_list(doc, "truck_routes", required=True))
    )
    sorties = tuple(
        Sortie(**_record(Sortie, s, f"sorties[{k}]", error))
        for k, s in enumerate(_plan_list(doc, "sorties", required=True))
    )
    arrivals = []
    for t, a in enumerate(_plan_list(doc, "truck_arrivals")):
        path = f"truck_arrivals[{t}]"
        _typed(a, dict, path, error)
        times = {}
        for node, at in a.items():
            try:
                node_id = int(node)
            except ValueError:
                raise error(f"{path} key {node!r} is not a node id") from None
            times[node_id] = float(_typed(at, (int, float), f"{path}[{node!r}]", error))
        arrivals.append(times)
    events = tuple(
        energy.ChargingEvent(**_record(energy.ChargingEvent, e, f"charging_events[{k}]", error))
        for k, e in enumerate(_plan_list(doc, "charging_events"))
    )
    ledgers = []
    for k, l in enumerate(_plan_list(doc, "ledgers")):
        path = f"ledgers[{k}]"
        kwargs = _record(energy.BatteryLedger, l, path, error, skip=("entries",))
        entries = _field(l, "entries", path, list, error)
        kwargs["entries"] = tuple(
            energy.LedgerEntry(**_record(energy.LedgerEntry, en, f"{path}.entries[{j}]", error))
            for j, en in enumerate(entries)
        )
        ledgers.append(energy.BatteryLedger(**kwargs))
    breakdown = doc.get("objective_breakdown")
    if breakdown is not None:
        breakdown = ObjectiveBreakdown(
            **_record(ObjectiveBreakdown, breakdown, "objective_breakdown", error)
        )
    return Plan(
        truck_routes=routes,
        sorties=sorties,
        truck_arrivals=tuple(arrivals),
        charging_events=events,
        ledgers=tuple(ledgers),
        objective_breakdown=breakdown,
    )
