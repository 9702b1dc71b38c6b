"""Data model and geometry for collaborative truck / drone / robot routing.

Canonical units throughout the package: kilometres, hours, kilograms,
dollars.  Battery energy is measured in abstract energy units (one unit is
one mAh-equivalent; see :mod:`vrpdr.energy` for the watt-hour bridge used
by the walking robot).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

DRONE = "drone"
ROBOT = "robot"
VEHICLE_KINDS = (DRONE, ROBOT)
TIME_TOL = 1e-6  # hours; slack allowed on every timing comparison


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
    big_M: float = 1e5
    robot_energy_scale: float = 1000.0 / 11.1  # units per Wh

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigurationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.m < 1:
            raise ConfigurationError(f"m must be >= 1, got {self.m}")
        for count in ("num_trucks", "num_drones", "num_robots"):
            if getattr(self, count) < 0:
                raise ConfigurationError(f"{count} must be nonnegative")
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
    convention).  ``ledgers`` carries the per-vehicle battery ledgers that
    the charging events induce.
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
        """Manhattan truck distance, masked to big_M for unreachable endpoints."""
        a, b = self.node(i), self.node(j)
        if i != j and not (a.truck_reachable and b.truck_reachable):
            return self.fleet.big_M
        return manhattan_distance(a.point, b.point)

    def matrix(self, which: str):
        """Dense distance matrix: 'truck' (masked), 'drone', 'robot'.

        Built on every call and not kept on the instance; a caller that
        reads it repeatedly holds its own copy.
        """
        import numpy as np

        xs = np.array([nd.x for nd in self.nodes])
        ys = np.array([nd.y for nd in self.nodes])
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        manh = np.abs(dx) + np.abs(dy)
        if which == DRONE:
            return np.sqrt(dx * dx + dy * dy)
        if which == ROBOT:
            return manh
        if which == "truck":
            reach = np.array([nd.truck_reachable for nd in self.nodes])
            bad = ~(reach[:, None] & reach[None, :])
            np.fill_diagonal(bad, False)
            manh[bad] = self.fleet.big_M
            return manh
        raise ValueError(f"unknown matrix {which!r}")


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


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise InstanceError(f"unknown field(s) {sorted(unknown)} in {where}")


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
    doc = json.loads(text)
    _reject_unknown(doc, {"depot", "customers", "fleet", "seed"}, "instance")
    _reject_unknown(doc["depot"], {"x", "y"}, "depot")
    fleet_doc = dict(doc["fleet"])
    _reject_unknown(fleet_doc, _FLEET_FIELDS, "fleet")
    missing = _FLEET_FIELDS - _FLEET_OPTIONAL - set(fleet_doc)
    if missing:
        raise InstanceError(f"fleet is missing field(s) {sorted(missing)}")
    fleet = FleetSpec(**fleet_doc)
    nodes = [Node(0, float(doc["depot"]["x"]), float(doc["depot"]["y"]))]
    for c in doc["customers"]:
        _reject_unknown(c, _CUSTOMER_FIELDS, f"customer {c.get('id')}")
        nodes.append(
            Node(
                int(c["id"]),
                float(c["x"]),
                float(c["y"]),
                float(c["weight"]),
                bool(c["truck_reachable"]),
            )
        )
    return Instance(nodes, fleet, seed=int(doc.get("seed", 0)))


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


def plan_from_json(text: str) -> Plan:
    from . import energy

    doc = json.loads(text)
    allowed = {
        "truck_routes",
        "sorties",
        "truck_arrivals",
        "charging_events",
        "ledgers",
        "objective_breakdown",
    }
    _reject_unknown(doc, allowed, "plan")
    sorties = tuple(Sortie(**{**s, "sequence": tuple(s["sequence"])}) for s in doc["sorties"])
    arrivals = tuple(
        {int(k): float(v) for k, v in a.items()} for a in doc.get("truck_arrivals", [])
    )
    events = tuple(energy.ChargingEvent(**e) for e in doc.get("charging_events", []))
    ledgers = tuple(
        energy.BatteryLedger(
            vehicle_kind=l["vehicle_kind"],
            vehicle_id=l["vehicle_id"],
            capacity=l["capacity"],
            entries=tuple(energy.LedgerEntry(**en) for en in l["entries"]),
        )
        for l in doc.get("ledgers", [])
    )
    breakdown = doc.get("objective_breakdown")
    return Plan(
        truck_routes=tuple(tuple(r) for r in doc["truck_routes"]),
        sorties=sorties,
        truck_arrivals=arrivals,
        charging_events=events,
        ledgers=ledgers,
        objective_breakdown=ObjectiveBreakdown(**breakdown) if breakdown else None,
    )
