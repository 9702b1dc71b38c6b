"""Mixed-integer model builder and LP text export.

The model is sortie-indexed: every candidate sortie (launch node, ordered
customer sequence, recovery node) gets one binary per vehicle and per
(launch truck, recovery truck) pair of each kind whose payload, range and
battery caps it meets.  The candidate list keeps the caps, and no row does:
a row ``coef * y <= cap`` on a column that meets its cap holds for every y
in [0, 1].  The list also leaves out a cyclic sortie at a customer.  The
validator still reports both (``PAYLOAD``, ``RANGE``, ``PRECEDENCE``),
because a plan file can declare any sortie.  A candidate fixes its legs and
its payload, so its distance and energy are constants per vehicle kind, and
every battery row is linear in the selection binaries as ``energy * z``.
The loop that makes the selection columns also groups them by vehicle, by
vehicle and truck pair, by launch and recovery node and by customer; every
row reads its columns from those groups, in column order, instead of
scanning the candidates.

The multi-commodity flow rows (Wong, 1980) cut subtours: they send one unit
from the depot to each truck-served customer over driven arcs, which gives
the LP relaxation the strength of every subtour-elimination row with a
polynomial number of rows.  Only arcs between truck-reachable nodes get a
column.  The timing rows take their big-M constant from :func:`horizon`,
which bounds every truck arrival.  The arrival rows order each truck's
stops.  A sortie's launch time projects out of its launch and return rows,
leaving one row that puts the recovery at least one flight after the launch
truck's arrival (hour 0 from the depot), so the stops and sorties need no
separate node order.

Each vehicle that can fly a listed sortie gets a ``battery_balance`` row,
charging on or off: its sorties draw at most its battery plus the energy
charged en route.  With charging off nothing is charged, so the row caps
the vehicle's total draw at one battery, as the validator's ledger does,
and it is the model's only battery row; the other charging families
(``CHARGING_FAMILIES``) are built only with charging on.  Charging has one
rule: a vehicle charges at most rate × hours on the leg out of a stop that
its truck drives.  So each vehicle k, truck-served customer v and truck t
get one column ``C[k, v, t]`` and one ``charging_rate_limit`` row, ``C <=
rate_k * sum_i (d(v, i) / s_t) * x[t, v, i]``; the validator's other
charging families need no rows, and no LP optimum moves for want of them.
A charge column at the depot or at a customer no truck reaches would be
pinned at 0.  A charging-time column ``Ct >= 0`` would appear only in ``Ct
<= sum_i leg_h * x[t, v, i]`` and ``C <= rate * Ct``, and eliminating it
gives the rate row; the sum is never negative, so nothing is lost.  A
presence row ``C <= rate * (x_in + x_out)`` is implied whenever every leg
out of v takes 2 h or less, even in the LP relaxation, since the flow rows
make x_in equal to x_out; on a longer leg it would cut plans the validator
accepts.

Constraint group names are shared with :mod:`vrpdr.validator`, which
reports violations under the same families.  ``subtour_flow`` is model-only:
a plan names its routes outright, and :func:`plan_assignment` routes each
commodity along the route prefix to its customer.

Candidates come from :meth:`vrpdr.core.DistanceRows.sortie_heads`, the
cap-pruned sortie walk the heuristic also runs, and their energy from
:func:`vrpdr.energy.leg_energy`; exact search flies the same list.
:func:`export_lp` writes names as they are and formats each distinct number
once per call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

from . import energy as energy_mod
from . import schedule as schedule_mod
from .core import (
    DRONE,
    FIT_TOL,
    METRICS,
    ROBOT,
    ConfigurationError,
    DistanceRows,
    FleetSpec,
    InfeasibleError,
    Instance,
    ModelOptions,
    ModelSizeError,
    Plan,
    VrpdrError,
)

BINARY = "binary"
CONTINUOUS = "continuous"
SENSES = ("<=", ">=", "=")

# constraint family names (the validator reports violations under these)
MAKESPAN = "makespan_bound"
VISIT_ONCE = "visit_exactly_once"
DEPOT = "depot_start_end"
FLOW = "flow_conservation"
SUBTOUR_FLOW = "subtour_flow"  # model-only: a plan names its routes outright
DOCKING = "docking_truck_presence"
# validator-only families: the model needs no rows for them, each for the
# reason given
PRECEDENCE = "sortie_precedence"  # the candidate list leaves out cyclic sorties at a customer
PAYLOAD = "payload_capacity"  # the candidate list keeps the cap
RANGE = "sortie_range"  # the candidate list keeps the cap
UNREACHABLE = "truck_unreachable_arc"  # an arc with an unreachable end has no column
LAUNCH_SYNC = "launch_after_arrival"  # launch times project out of the return rows
NO_DEPOT_CHARGE = "no_depot_charging"  # the depot has no charge column
CHARGE_PRESENCE = "charging_truck_presence"  # the rate row allows charge only on a driven leg
CHARGE_TIME = "charging_time_bound"  # the rate row is its projection
DEPOT_BATTERY = "depot_launch_battery"
BATTERY_BALANCE = "battery_balance"
CHARGE_RATE = "charging_rate_limit"
OVERCHARGE = "overcharge_prevention"
ARRIVAL_SEQ = "truck_arrival_sequence"
RETURN_SYNC = "return_before_departure"
SINGLE_TRIP = "single_trip_cap"

CHARGING_FAMILIES = (DEPOT_BATTERY, CHARGE_RATE, OVERCHARGE)

# selection columns the candidate walk may make before ``build_model``
# raises ModelSizeError; no command sets it
MAX_SORTIE_COLUMNS = 200_000


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lower: float = 0.0
    upper: float = float("inf")


class Constraint(NamedTuple):
    name: str
    family: str
    terms: Tuple[Tuple[float, str], ...]
    sense: str  # one of SENSES
    rhs: float


@dataclass
class MilpModel:
    variables: List[Variable] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)
    objective_terms: List[Tuple[float, str]] = field(default_factory=list)
    objective_sense: str = "minimize"
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self._by_name: Dict[str, Variable] = {}
        for v in self.variables:
            self._register(v)

    def _register(self, v: Variable) -> None:
        if v.name in self._by_name:
            raise VrpdrError(f"duplicate variable name {v.name}")
        self._by_name[v.name] = v

    def add_var(self, name: str, kind: str, lower: float = 0.0, upper: float = float("inf")) -> str:
        if kind == BINARY:
            lower, upper = 0.0, 1.0
        v = Variable(name, kind, lower, upper)
        self.variables.append(v)
        self._register(v)
        return name

    def add_constraint(self, name, family, terms, sense, rhs, ids=()) -> None:
        """Append a row; zero coefficients are dropped, every variable must exist.
        A row left with no terms is skipped if ``0 sense rhs`` holds, and else
        raises :class:`InfeasibleError` naming ``ids``."""
        if sense not in SENSES:
            raise VrpdrError(f"constraint {name} has sense {sense!r}; expected <=, >= or =")
        declared = self._by_name
        kept = []
        for c, v in terms:
            if c != 0.0:
                if v not in declared:
                    raise VrpdrError(f"constraint {name} references undeclared variable {v}")
                kept.append((float(c), v))
        if not kept:
            if {"<=": 0.0 <= rhs, ">=": 0.0 >= rhs, "=": rhs == 0.0}[sense]:
                return
            raise InfeasibleError(
                f"constraint {name} has no columns, so 0 {sense} {rhs:g} cannot hold", ids
            )
        self.constraints.append(Constraint(name, family, tuple(kept), sense, float(rhs)))

    def families(self) -> set:
        return {c.family for c in self.constraints}


@dataclass(frozen=True)
class SortieCandidate:
    """One (launch, sequence, recovery) template with its constants per kind."""

    sid: int
    i: int
    sequence: tuple
    k: int
    dist: Dict[str, float]  # kind that fits -> sortie distance
    energy: Dict[str, float]  # kind that fits -> sortie energy


def enumerate_sortie_candidates(
    inst: Instance, fleet: FleetSpec, options: ModelOptions, budget: float = float("inf")
) -> list:
    """The (i, l, k) triples that some vehicle of the fleet can fly.

    Launch equals recovery only at the depot: the validator rejects a
    cyclic sortie at a customer node, so the list leaves it out.  Per kind
    and launch node ``i``, :meth:`vrpdr.core.DistanceRows.sortie_heads`
    walks the sequences over the other customers that meet the payload and
    range caps; each recovery ``k`` adds the last leg, the range check and
    :func:`vrpdr.energy.leg_energy` against the battery, all within
    ``FIT_TOL``.  The walk and the range check stop at the lower of the
    range cap and :func:`vrpdr.energy.battery_range` of a full battery:
    a longer sortie draws more than the battery holds, so no kept
    candidate is lost.  ``dist`` and ``energy`` keep the kinds that fit, and
    candidates are numbered in (length, sequence, i, k) order.  The model
    gives these columns, and exact search flies them from its tour stops.

    Each kept (candidate, kind) makes one selection column per vehicle of
    the kind and per docking pair; the walk raises :class:`ModelSizeError`
    as soon as their count exceeds ``budget``.
    """
    node_ids = [n.id for n in inst.nodes]
    customers = [n.id for n in inst.customers]
    points = [nd.point for nd in inst.nodes]
    weight = [nd.weight for nd in inst.nodes]
    m = options.effective_m(fleet)
    fits = {}  # (sequence, i, k) -> ({kind: distance}, {kind: energy})
    n_pairs = fleet.num_trucks ** 2 if options.flexible_docking else fleet.num_trucks
    columns = 0
    for kind in (DRONE, ROBOT):
        if not fleet.count(kind):
            continue
        per_fit = n_pairs * fleet.count(kind)
        rows = DistanceRows(METRICS[kind], points)
        payload_limit = fleet.payload_cap(kind) + FIT_TOL
        range_limit = (
            min(fleet.range_cap(kind), energy_mod.battery_range(kind, fleet.battery(kind), fleet))
            + FIT_TOL
        )
        battery_limit = fleet.battery(kind) + FIT_TOL
        for i in node_ids:
            pool = [c for c in customers if c != i]
            for seq, legs, head in rows.sortie_heads(
                i, pool, m, weight, payload_limit, range_limit
            ):
                parcels = [weight[c] for c in seq]
                last_row = rows[seq[-1]]
                for k in node_ids:
                    if k in seq or (k == i and i != 0):
                        continue
                    last = last_row[k]
                    d = head + last
                    if d > range_limit:
                        continue
                    e = energy_mod.leg_energy(kind, legs + (last,), parcels, fleet)
                    if e <= battery_limit:
                        dist, energy = fits.setdefault((seq, i, k), ({}, {}))
                        dist[kind] = d
                        energy[kind] = e
                        columns += per_fit
                        if columns > budget:
                            raise ModelSizeError(
                                f"{columns} sortie variables exceed the budget of {budget}; "
                                "shrink the instance"
                            )
    out = []
    for seq, i, k in sorted(fits, key=lambda key: (len(key[0]), key)):
        out.append(SortieCandidate(len(out), i, seq, k, *fits[seq, i, k]))
    return out


def horizon(inst: Instance, fleet: FleetSpec, candidates) -> float:
    """The model's time constant H: no truck arrival exceeds it.

    H = (T × the depot's longest truck arc + the sum over truck-reachable
    customers of each one's longest truck arc) / ``s_t`` + |C| × the longest
    listed flight in hours.  Proof for :func:`vrpdr.schedule.arrival_times`
    on any routes and sorties the model can select: an arrival ends a wait
    chain from hour 0 at the depot that alternates driven legs with flights,
    each from a launch truck's arrival to the recovery it holds up.  Wait
    chains are acyclic, so a chain drives each arc and flies each sortie once
    at most.  One arc at most leaves each customer, visited once, and each
    truck leaves the depot once, which bounds the driven hours by the first
    term; each sortie serves a customer, so at most |C| fly, which bounds
    the flown hours by the second.  So the timing rows at H keep every plan
    as ``arrival_times`` times it; a plan file may still declare idle hours
    past that timeline.

    The return rows carry 2H; where 2H overflows, which coordinates that
    load can do with many trucks, this raises :class:`ConfigurationError`.
    """
    reach = [0] + [c.id for c in inst.customers if c.truck_reachable]
    longest = [max([inst.truck_distance(i, j) for j in reach if j != i] + [0.0]) for i in reach]
    flights = [c.dist[kind] / fleet.speed(kind) for c in candidates for kind in c.dist]
    driven = (fleet.num_trucks * longest[0] + sum(longest[1:])) / fleet.s_t
    H = driven + inst.num_customers * max(flights, default=0.0)
    if not math.isfinite(2 * H):
        raise ConfigurationError(f"model horizon {H:g} h overflows with {fleet.num_trucks} trucks")
    return H


def build_model(inst: Instance, fleet: FleetSpec, options: ModelOptions = ModelOptions()) -> MilpModel:
    """Assemble the full model with one named constraint group per family."""
    if inst.num_customers < 1:
        raise ConfigurationError("the model needs at least one customer")
    if fleet.num_trucks < 1:
        raise ConfigurationError("the model needs at least one truck")
    V = [n.id for n in inst.nodes]
    C = [n.id for n in inst.customers]
    T = list(range(fleet.num_trucks))
    fleet_kinds = [(kind, veh) for kind in (DRONE, ROBOT) for veh in range(fleet.count(kind))]
    # truck-served customers; an arc gets a column only between the depot and
    # these, so ``ends[j]`` lists the other end of every arc at node j
    stops = [j for j in C if inst.nodes[j].truck_reachable]
    tails = [0] + stops
    ends = {j: [i for i in tails if i != j] if j in tails else [] for j in V}

    candidates = enumerate_sortie_candidates(inst, fleet, options, MAX_SORTIE_COLUMNS)
    # (launch truck, recovery truck) pairs a sortie may dock between
    pairs = [(ti, tk) for ti in T for tk in T if options.flexible_docking or ti == tk]
    H = horizon(inst, fleet, candidates)

    model = MilpModel()
    model.info["candidates"] = candidates
    model.info["horizon"] = H

    # --- variables ---------------------------------------------------------
    x = {}
    for t in T:
        for i in tails:
            for j in ends[i]:
                x[t, i, j] = model.add_var(f"x_t{t}_{i}_{j}", BINARY)
    gamma = model.add_var("Gamma", CONTINUOUS)
    A = {(t, i): model.add_var(f"A_t{t}_{i}", CONTINUOUS) for t in T for i in V}

    # selection variables; the rows below read their columns from the groups
    # filled here, each in column order
    sel = {}     # (kind, veh, ti, tk, sid) -> var
    by_vehicle = {}   # (kind, veh) -> [(candidate, var)]
    by_pair = {}      # (kind, veh, ti, tk) -> [(candidate, var)]
    by_launch = {}    # (kind, ti, tk, launch node) -> [var]
    by_recovery = {}  # (kind, ti, tk, recovery node) -> [var]
    covering = {j: [] for j in C}  # customer -> [var]
    for kind, veh in fleet_kinds:
        letter = "y" if kind == DRONE else "z"
        fitting = [c for c in candidates if kind in c.dist]
        for ti, tk in pairs:
            for cand in fitting:
                key = (kind, veh, ti, tk, cand.sid)
                tag = f"{letter}_{kind[0]}{veh}_t{ti}_t{tk}_s{cand.sid}"
                var = sel[key] = model.add_var(tag, BINARY)
                by_vehicle.setdefault((kind, veh), []).append((cand, var))
                by_pair.setdefault((kind, veh, ti, tk), []).append((cand, var))
                by_launch.setdefault((kind, ti, tk, cand.i), []).append(var)
                by_recovery.setdefault((kind, ti, tk, cand.k), []).append(var)
                for j in cand.sequence:
                    covering[j].append(var)
    model.info["sel"] = sel
    model.info["x"] = x
    model.info["A"] = A
    model.info["gamma"] = gamma

    # one charge column per vehicle, truck and truck-served customer
    charge = {
        (kind, veh, v, t): model.add_var(f"C_{kind[0]}{veh}_v{v}_t{t}", CONTINUOUS)
        for kind, veh in (fleet_kinds if options.charging else ())
        for t in T
        for v in stops
    }
    model.info["charge"] = charge

    # --- makespan bounds ----------------------------------------------------
    for t in T:
        terms = [(1.0, gamma)] + [
            (-inst.truck_distance(i, j) / fleet.s_t, x[t, i, j]) for i in tails for j in ends[i]
        ]
        model.add_constraint(f"{MAKESPAN}_truck{t}", MAKESPAN, terms, ">=", 0.0)
    for (kind, veh, ti, tk), group in by_pair.items():
        terms = [(1.0, gamma)] + [(-c.dist[kind] / fleet.speed(kind), var) for c, var in group]
        model.add_constraint(f"{MAKESPAN}_{kind[0]}{veh}_t{ti}_t{tk}", MAKESPAN, terms, ">=", 0.0)

    # --- visit exactly once -------------------------------------------------
    # a customer no truck reaches and no listed sortie covers leaves this row
    # empty, and no reachable customer leaves the depot rows empty: both raise
    # InfeasibleError
    for j in C:
        terms = [(1.0, x[t, i, j]) for t in T for i in ends[j]]
        terms += [(1.0, var) for var in covering[j]]
        model.add_constraint(f"{VISIT_ONCE}_{j}", VISIT_ONCE, terms, "=", 1.0, (j,))

    # --- depot start / end --------------------------------------------------
    for t in T:
        model.add_constraint(
            f"{DEPOT}_out_t{t}", DEPOT, [(1.0, x[t, 0, j]) for j in stops], "=", 1.0, C
        )
        model.add_constraint(
            f"{DEPOT}_in_t{t}", DEPOT, [(1.0, x[t, i, 0]) for i in stops], "=", 1.0, C
        )

    # --- flow conservation ---------------------------------------------------
    for t in T:
        for j in V:
            terms = [(1.0, x[t, i, j]) for i in ends[j]]
            terms += [(-1.0, x[t, j, i]) for i in ends[j]]
            model.add_constraint(f"{FLOW}_t{t}_{j}", FLOW, terms, "=", 0.0)

    # --- multi-commodity subtour flow (Wong, 1980) ----------------------------
    # Commodity k sends one unit from the depot to k when a truck serves k,
    # over arcs some truck drives; none leaves k or returns to the depot.
    # In-degrees are at most one, so a customer on a cycle away from the depot
    # has no path to carry its unit: the rows cut every subtour, and an
    # integer solution carries each unit on the one depot-to-k path.  The LP
    # relaxation gains the strength of every subtour-elimination row.
    # Truck-unreachable nodes have no arcs, so they get no commodity and no
    # flow arcs.
    flow = {}  # (k, i, j) -> var
    for k in stops:
        for i in tails:
            if i != k:
                for j in stops:
                    if j != i:
                        flow[k, i, j] = model.add_var(f"f_{k}_{i}_{j}", CONTINUOUS, 0.0, 1.0)
    model.info["flow"] = flow
    for k in stops:
        served = [(-1.0, x[t, i, k]) for t in T for i in ends[k]]
        model.add_constraint(
            f"{SUBTOUR_FLOW}_{k}_depot",
            SUBTOUR_FLOW,
            [(1.0, flow[k, 0, j]) for j in stops] + served,
            "=",
            0.0,
        )
        for j in stops:
            terms = [(1.0, flow[k, i, j]) for i in tails if i != j and i != k]
            if j == k:
                terms += served
            else:
                terms += [(-1.0, flow[k, j, l]) for l in stops if l != j]
            model.add_constraint(f"{SUBTOUR_FLOW}_{k}_at{j}", SUBTOUR_FLOW, terms, "=", 0.0)
    # one capacity row per arc over all trucks: an arc into a customer is
    # driven at most once, and this is tighter than one row per truck
    for (k, i, j), var in flow.items():
        model.add_constraint(
            f"{SUBTOUR_FLOW}_{k}_cap_{i}_{j}",
            SUBTOUR_FLOW,
            [(1.0, var)] + [(-1.0, x[t, i, j]) for t in T],
            "<=",
            0.0,
        )

    # --- launch / recovery truck presence (and per-node sortie cardinality) ---
    for kind in (DRONE, ROBOT):
        for ti, tk in pairs:
            for i in V:
                terms = [(1.0, var) for var in by_launch.get((kind, ti, tk, i), ())]
                if terms:
                    terms += [(-1.0, x[ti, j, i]) for j in ends[i]]
                    model.add_constraint(
                        f"{DOCKING}_launch_{kind[0]}_t{ti}_t{tk}_{i}", DOCKING, terms, "<=", 0.0
                    )
            for k in V:
                terms = [(1.0, var) for var in by_recovery.get((kind, ti, tk, k), ())]
                if terms:
                    terms += [(-1.0, x[tk, k, j]) for j in ends[k]]
                    model.add_constraint(
                        f"{DOCKING}_recover_{kind[0]}_t{ti}_t{tk}_{k}", DOCKING, terms, "<=", 0.0
                    )

    # --- battery and charging block -----------------------------------------------
    for kind, veh in fleet_kinds:
        columns = by_vehicle.get((kind, veh), ())
        if options.charging:
            # depot-launched sorties must fit in the initial full battery
            terms = [(c.energy[kind], var) for c, var in columns if c.i == 0]
            if terms:
                model.add_constraint(
                    f"{DEPOT_BATTERY}_{kind[0]}{veh}",
                    DEPOT_BATTERY,
                    terms,
                    "<=",
                    fleet.battery(kind),
                )
            # at most rate x hours on the leg out of v that truck t drives
            rate = fleet.charge_rate(kind)
            for t in T:
                for v in stops:
                    terms = [(1.0, charge[kind, veh, v, t])]
                    terms += [
                        (-rate * inst.truck_distance(v, i) / fleet.s_t, x[t, v, i])
                        for i in ends[v]
                    ]
                    model.add_constraint(
                        f"{CHARGE_RATE}_{kind[0]}{veh}_v{v}_t{t}", CHARGE_RATE, terms, "<=", 0.0
                    )
        # total consumption within battery plus charged energy
        terms = [(c.energy[kind], var) for c, var in columns]
        charge_terms = [(-1.0, var) for key, var in charge.items() if key[:2] == (kind, veh)]
        if terms:
            model.add_constraint(
                f"{BATTERY_BALANCE}_{kind[0]}{veh}",
                BATTERY_BALANCE,
                terms + charge_terms,
                "<=",
                fleet.battery(kind),
            )
            if options.charging:
                # charged energy can never exceed consumed energy (aggregate
                # view of the running-level cap; see module notes)
                model.add_constraint(
                    f"{OVERCHARGE}_{kind[0]}{veh}",
                    OVERCHARGE,
                    [(-c, v) for c, v in terms] + [(-c, v) for c, v in charge_terms],
                    "<=",
                    0.0,
                )

    # --- truck arrival sequencing -------------------------------------------------
    # Arcs out of the depot anchor at departure time zero; A_t0 therefore
    # reads as the return time once the closing arc propagates through.
    for (t, i, j), var in x.items():
        travel = inst.truck_distance(i, j) / fleet.s_t
        terms = [(-1.0, A[t, j]), (travel + H, var)]
        if i != 0:
            terms.insert(0, (1.0, A[t, i]))
        model.add_constraint(f"{ARRIVAL_SEQ}_t{t}_{i}_{j}", ARRIVAL_SEQ, terms, "<=", H)

    # --- sortie launch / return synchronization ------------------------------------
    # A sortie launches at or after its truck reaches the launch node (at hour
    # zero from the depot) and is back by the time its recovery truck
    # arrives; with the launch time projected out, one row says both.
    for key, var in sel.items():
        kind, veh, ti, tk, sid = key
        cand = candidates[sid]
        travel = cand.dist[kind] / fleet.speed(kind)
        if cand.i == 0:
            terms, big = [(-1.0, A[tk, cand.k]), (H, var)], H
        else:
            terms, big = [(1.0, A[ti, cand.i]), (-1.0, A[tk, cand.k]), (2 * H, var)], 2 * H
        model.add_constraint(f"{RETURN_SYNC}_{var}", RETURN_SYNC, terms, "<=", big - travel)

    # --- optional single-trip cap ----------------------------------------------------
    if options.single_trip:
        for (kind, veh), columns in by_vehicle.items():
            terms = [(1.0, var) for _, var in columns]
            model.add_constraint(f"{SINGLE_TRIP}_{kind[0]}{veh}", SINGLE_TRIP, terms, "<=", 1.0)

    # --- objective --------------------------------------------------------------------
    # a truck's fixed cost rides on its arc out of the depot
    alpha = fleet.alpha
    obj = [
        (alpha * fleet.C_t * inst.truck_distance(i, j) + (alpha * fleet.f_t if i == 0 else 0.0), var)
        for (t, i, j), var in x.items()
    ]
    for key, var in sel.items():
        kind = key[0]
        cand = candidates[key[4]]
        obj.append((alpha * (fleet.unit_cost(kind) * cand.dist[kind] + fleet.fixed_cost(kind)), var))
    obj.append((1.0 - alpha, gamma))
    model.objective_terms = [(coef, var) for coef, var in obj if coef != 0.0]
    return model


# ---------------------------------------------------------------------------
# plan -> assignment substitution
# ---------------------------------------------------------------------------

def plan_assignment(model: MilpModel, plan: Plan, inst: Instance, fleet: FleetSpec) -> dict:
    """Map a plan onto the model's variables (for substitution checks)."""
    values = {v.name: 0.0 for v in model.variables}
    x = model.info["x"]
    sel = model.info["sel"]
    A = model.info["A"]
    candidates = model.info["candidates"]
    by_struct = {}
    for key in sel:
        kind, veh, ti, tk, sid = key
        c = candidates[sid]
        by_struct[kind, veh, ti, tk, c.i, c.sequence, c.k] = key

    flow = model.info["flow"]
    for t, route in enumerate(plan.truck_routes):
        for a, b in zip(route[:-1], route[1:]):
            if (t, a, b) not in x:
                raise VrpdrError(f"truck {t} drives {a}->{b}, which has no model column")
            values[x[t, a, b]] = 1.0
        # commodity k flows along the route prefix from the depot to k; a
        # route that revisits a node drives arcs that carry no commodity
        for p in range(1, len(route) - 1):
            k = route[p]
            for a, b in zip(route[:p], route[1 : p + 1]):
                if (k, a, b) in flow:
                    values[flow[k, a, b]] = 1.0
    # arrival times: plan values for visited nodes, zero elsewhere
    for t, arrivals in enumerate(plan.truck_arrivals):
        for node, at in arrivals.items():
            values[A[t, node]] = at
    for s in plan.sorties:
        key = by_struct.get(
            (s.vehicle_kind, s.vehicle_id, s.launch_truck, s.recovery_truck,
             s.launch_node, s.sequence, s.recovery_node)
        )
        if key is None:
            raise VrpdrError(f"plan sortie {s} has no counterpart in the model")
        values[sel[key]] = 1.0
    charge = model.info["charge"]
    if charge:
        for e in plan.charging_events:
            var = charge.get((e.vehicle_kind, e.vehicle_id, e.node, e.truck_id))
            if var is None:
                raise VrpdrError(f"charging event at node {e.node} has no model variable")
            values[var] += e.amount
    values[model.info["gamma"]] = schedule_mod.objective_value(plan, inst, fleet).makespan
    return values


def evaluate_objective(model: MilpModel, values: dict) -> float:
    return sum(coef * values[var] for coef, var in model.objective_terms)


def check_assignment(model: MilpModel, values: dict, tol: float = 1e-6) -> list:
    """Names of constraints the assignment violates."""
    bad = []
    for c in model.constraints:
        lhs = sum(coef * values[var] for coef, var in c.terms)
        ok = (
            lhs <= c.rhs + tol
            if c.sense == "<="
            else lhs >= c.rhs - tol
            if c.sense == ">="
            else abs(lhs - c.rhs) <= tol
        )
        if not ok:
            bad.append(c.name)
    for v in model.variables:
        val = values[v.name]
        if not (v.lower - tol <= val <= v.upper + tol):
            bad.append(f"bounds:{v.name}")
        if v.kind == BINARY and min(abs(val), abs(val - 1.0)) > tol:
            bad.append(f"integrality:{v.name}")
    return bad


# ---------------------------------------------------------------------------
# LP text export
# ---------------------------------------------------------------------------

# LP-safe names: letters, digits and underscores, and a first character that
# cannot start a number
_LP_NAME = re.compile(r"[A-DF-Za-df-z][A-Za-z0-9_]*")


def _lp_name(name: str) -> str:
    if not _LP_NAME.fullmatch(name):
        raise VrpdrError(f"name {name!r} is not LP-safe and cannot be exported")
    return name


def _num(v: float) -> str:
    return format(v, ".17g")


def _signed(coef: float) -> str:
    """A term's text before its variable name: `` + 2.5 `` or `` - 1 ``."""
    return f" {'+' if coef >= 0 else '-'} {_num(abs(coef))} "


def export_lp(model: MilpModel) -> str:
    """Deterministic CPLEX-LP text: objective, constraints, bounds, binaries.

    Names are written as they are; one that is not LP-safe raises
    :class:`VrpdrError`.  Each distinct coefficient is formatted once per
    call.
    """
    names = {v.name: _lp_name(v.name) for v in model.variables}
    term: dict = {}  # coefficient -> its text before a variable name

    def body(terms) -> str:
        return "".join(
            [
                (term.get(coef) or term.setdefault(coef, _signed(coef))) + names[var]
                for coef, var in terms
            ]
        )

    lines = ["\\ vrpdr model export", "Minimize"]
    lines.append((" obj:" + body(model.objective_terms)) if model.objective_terms else " obj: 0")
    lines.append("Subject To")
    for c in model.constraints:
        if not c.terms:
            raise VrpdrError(f"constraint {c.name} has no terms and cannot be exported")
        lines.append(f" {_lp_name(c.name)}:{body(c.terms)} {c.sense} {_num(c.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.kind == BINARY:
            continue
        hi = "+inf" if v.upper == float("inf") else _num(v.upper)
        lines.append(f" {_num(v.lower)} <= {names[v.name]} <= {hi}")
    binaries = [names[v.name] for v in model.variables if v.kind == BINARY]
    lines.append("Binaries")
    for group_start in range(0, len(binaries), 8):
        lines.append(" " + " ".join(binaries[group_start : group_start + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"
