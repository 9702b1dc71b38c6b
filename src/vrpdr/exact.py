"""Exhaustive reference optimum for tiny instances.

Enumerates truck tours over customer subsets, then all ways to cover the
remaining customers with non-overlapping drone/robot sortie chains anchored
on the tour.  Timing never prunes a candidate because trucks may wait at
recovery nodes for free (the makespan counts travel only); battery
chronology with en-route charging, payload, range and per-node docking
rules do.  :func:`vrpdr.energy.charge_legs` charges the battery before each
launch, as it charges the finder's carriages, and each chain sortie keeps
those events.  Candidates are scored by :func:`vrpdr.schedule.score`, and
an incumbent's truck arrivals, waits included, come from
:func:`vrpdr.schedule.arrival_times`: the objective and timeline the
validator reads.  :func:`vrpdr.schedule.timed_plan` assembles it, as it
does the heuristic's plan, and the validator confirms every improving
candidate before it becomes the incumbent.

Sorties come from :func:`vrpdr.milp.enumerate_sortie_candidates`, the list
the model gives columns, read once per search with its distances and
energies; truck legs come from :meth:`vrpdr.core.Instance.truck_rows`
over all nodes, the rows the heuristic's insertion kernel reads.  No probe
``Sortie`` is built, so only plan assembly and validation call
:func:`vrpdr.energy.sortie_energy`.

Truck subsets are enumerated largest first, so the longest tours,
truck-only when every customer is reachable, set the incumbent before the
sortie chains of a shorter route are walked.  A route is skipped when its
bare score cannot beat the incumbent, or when that score plus ``alpha``
times the off-route customers' shares exceeds the incumbent by more than
``_SHARE_TOL``.  A customer's share is the least cost per customer of a
listed sortie serving it: the sortie's cost split evenly over its
customers.  Every customer off the route rides exactly one sortie, so the
sorties cost at least the sum of the shares, and sorties only add flight
time to the makespan.  Every candidate on a skipped route thus scores
more than ``_EPS`` above the incumbent, which the search rejects anyway,
so the prune changes no plan.  A subset is skipped outright when a
customer off it is served by no listed sortie.

Scope: one truck, at most one drone and one robot; larger fleets belong to
the LP-export path.
"""

from __future__ import annotations

import itertools
import time as time_mod
from dataclasses import dataclass, replace
from typing import Optional

from . import energy as energy_mod
from . import validator as validator_mod
from .core import (
    DRONE,
    FIT_TOL,
    ROBOT,
    BudgetExceededError,
    ConfigurationError,
    FleetSpec,
    InfeasibleError,
    Instance,
    ModelOptions,
    Plan,
    Sortie,
)
from .milp import enumerate_sortie_candidates
from .schedule import arrival_times, score, timed_plan

_EPS = 1e-12
_SHARE_TOL = 1e-9  # above _EPS and the rounding of a summed bound


@dataclass(frozen=True)
class SearchBudget:
    max_customers: int = 8
    max_candidates: int = 5_000_000
    time_limit: float = 600.0

    def __post_init__(self):
        if self.max_customers <= 0 or self.max_candidates <= 0 or self.time_limit <= 0:
            raise ConfigurationError("search budget fields must be positive")


@dataclass(frozen=True)
class _ChainSortie:
    launch_pos: int
    recovery_pos: int
    sequence: tuple
    distance: float
    energy: float
    events: tuple  # charging events on the legs ridden since the last recovery


def _customer_shares(sorties, fleet) -> dict:
    """Customer -> the least cost per customer of a listed sortie serving it.

    A sortie's cost is split evenly over its customers; a customer that no
    listed sortie serves is absent.
    """
    share = {}
    for (kind, _), rows in sorties.items():
        for seq, _, dist, _ in rows:
            each = (fleet.unit_cost(kind) * dist + fleet.fixed_cost(kind)) / len(seq)
            for c in seq:
                share[c] = min(share.get(c, each), each)
    return share


class _Search:
    def __init__(self, inst, fleet, options, budget):
        self.inst = inst
        self.fleet = fleet
        self.options = options
        self.budget = budget
        self.t0 = time_mod.monotonic()
        self.candidates_seen = 0
        self.best_obj: Optional[float] = None
        self.best_key = None
        self.best_plan: Optional[Plan] = None
        # (kind, launch node) -> [(sequence, recovery node, distance, energy)]
        self.sorties = {}
        for cand in enumerate_sortie_candidates(inst, fleet, options):
            for kind, dist in cand.dist.items():
                self.sorties.setdefault((kind, cand.i), []).append(
                    (cand.sequence, cand.k, dist, cand.energy[kind])
                )
        self.share = _customer_shares(self.sorties, fleet)

    def tick(self, amount: int = 1) -> None:
        self.candidates_seen += amount
        if self.candidates_seen > self.budget.max_candidates:
            raise BudgetExceededError(
                f"candidate budget of {self.budget.max_candidates} exhausted"
            )
        if self.candidates_seen % 4096 == 0:
            if time_mod.monotonic() - self.t0 > self.budget.time_limit:
                raise BudgetExceededError(
                    f"time limit of {self.budget.time_limit}s exhausted"
                )


def _vehicle_chains(search: _Search, kind: str, vid: int, route, leg_times, remaining):
    """All sortie chains for one vehicle, left to right along the route.

    Yields (chain, rest) pairs: a chain is a tuple of _ChainSortie, and
    rest the customers of ``remaining`` it leaves, in order.  The battery
    starts full, drains by sortie energy at each launch, and recharges on
    carried legs between recovery and next launch, clamped by
    :func:`vrpdr.energy.charge_legs`, which charges no leg out of the
    depot.  From each launch position it flies the listed sorties whose
    customers are all in ``remaining``, whose recovery node lies later on
    the route (the depot at the return) and whose energy the charged level
    covers; under ``single_trip`` a chain holds one sortie at most.
    """
    fleet, options = search.fleet, search.options
    last_pos = len(route) - 1
    position = {node: p for p, node in enumerate(route)}  # the depot maps to the return

    def charge_between(start_pos, launch_pos, level):
        """Charging events and level over the legs [start_pos, launch_pos)."""
        stop = launch_pos if options.charging else 0
        legs = [(route[p], leg_times[p]) for p in range(start_pos, stop)]
        return energy_mod.charge_legs(kind, vid, 0, level, fleet, legs)

    def rec(start_pos, level, remaining, acc):
        yield tuple(acc), remaining
        if not remaining or (options.single_trip and acc):
            return
        unserved = set(remaining)
        for launch_pos in range(start_pos, last_pos):
            events, level_at_launch = charge_between(start_pos, launch_pos, level)
            for seq, recovery_node, dist, e in search.sorties.get((kind, route[launch_pos]), ()):
                # a node off the route reads as position 0, before every launch
                recovery_pos = position.get(recovery_node, 0)
                if (
                    recovery_pos <= launch_pos
                    or e > level_at_launch + FIT_TOL
                    or not unserved.issuperset(seq)
                ):
                    continue
                search.tick()
                entry = _ChainSortie(launch_pos, recovery_pos, seq, dist, e, events)
                rest = tuple(c for c in remaining if c not in seq)
                if recovery_pos == last_pos:
                    # recovered at the depot: the vehicle is retired
                    yield tuple(acc) + (entry,), rest
                else:
                    yield from rec(recovery_pos, level_at_launch - e, rest, acc + [entry])

    yield from rec(0, fleet.battery(kind), tuple(remaining), [])


def _assemble_plan(search: _Search, route, assignment) -> Plan:
    """Build a full plan from vehicle chains; the truck waits for its sorties."""
    inst, fleet = search.inst, search.fleet
    sorties = []
    launch_positions = []
    events = []
    for (kind, vid), chain in sorted(assignment.items()):
        for cs in chain:
            sorties.append(
                Sortie(
                    vehicle_kind=kind,
                    vehicle_id=vid,
                    launch_node=route[cs.launch_pos],
                    recovery_node=route[cs.recovery_pos],
                    sequence=cs.sequence,
                    launch_truck=0,
                    recovery_truck=0,
                )
            )
            launch_positions.append(cs.launch_pos)
            events += cs.events
    arrivals = arrival_times([route], inst, fleet, sorties)
    sorties = [replace(s, launch_time=arrivals[0][p]) for s, p in zip(sorties, launch_positions)]
    return timed_plan([route], arrivals, sorties, events, inst, fleet)


def _plan_key(route, assignment) -> tuple:
    rows = []
    for (kind, vid), chain in sorted(assignment.items()):
        for cs in chain:
            rows.append((kind, vid, cs.launch_pos, cs.recovery_pos, cs.sequence))
    return (route, tuple(rows))


def solve_exact(
    inst: Instance,
    fleet: FleetSpec,
    options: ModelOptions = ModelOptions(),
    budget: SearchBudget = SearchBudget(),
) -> Plan:
    """Minimum weighted-objective plan by exhaustive enumeration."""
    if fleet.num_trucks != 1:
        raise ConfigurationError("exact search supports exactly one truck")
    if fleet.num_drones > 1 or fleet.num_robots > 1:
        raise ConfigurationError("exact search supports at most one drone and one robot")
    customers = [c.id for c in inst.customers]
    if len(customers) > budget.max_customers:
        raise BudgetExceededError(
            f"{len(customers)} customers exceed the budget cap of {budget.max_customers}"
        )
    if not customers:
        raise InfeasibleError("no customers: a truck cannot make its mandatory tour")
    reachable = [c for c in customers if inst.node(c).truck_reachable]
    unreachable = [c for c in customers if not inst.node(c).truck_reachable]
    vehicles = [(DRONE, d) for d in range(fleet.num_drones)]
    vehicles += [(ROBOT, r) for r in range(fleet.num_robots)]
    if unreachable and not vehicles:
        raise InfeasibleError(
            "truck-unreachable customers with no drone or robot in the fleet",
            offending_ids=unreachable,
        )
    if not reachable:
        raise InfeasibleError(
            "the truck must visit at least one customer but none are reachable",
            offending_ids=unreachable,
        )

    search = _Search(inst, fleet, options, budget)
    truck_km = inst.truck_rows(range(len(inst.nodes))).tolist()

    # largest subsets first, so the longest tours set the incumbent early
    for size in range(len(reachable), 0, -1):
        for subset in itertools.combinations(sorted(reachable), size):
            rest = [c for c in customers if c not in subset]
            if not all(c in search.share for c in rest):
                continue  # no listed sortie serves some customer off the route
            # each customer off the route rides one sortie and pays at least its share
            rest_cost = fleet.alpha * sum(search.share[c] for c in rest)
            for perm in itertools.permutations(subset):
                route = (0,) + perm + (0,)
                km = [truck_km[a][b] for a, b in zip(route[:-1], route[1:])]
                leg_times = [d / fleet.s_t for d in km]
                route_rows = [(sum(km), True)]
                # sorties only add cost and flight time, so the bare route bounds the plan
                bound = score(route_rows, (), fleet).weighted_objective
                if search.best_obj is not None and (
                    bound >= search.best_obj - _EPS
                    or bound + rest_cost > search.best_obj + _SHARE_TOL
                ):
                    search.tick()
                    continue

                def assign(vidx, remaining, acc):
                    if vidx == len(vehicles):
                        if not remaining:
                            _consider(route, dict(acc))
                        return
                    kind, vid = vehicles[vidx]
                    for chain, left in _vehicle_chains(
                        search, kind, vid, route, leg_times, remaining
                    ):
                        acc[(kind, vid)] = chain
                        assign(vidx + 1, left, acc)
                        del acc[(kind, vid)]

                def _consider(route, assignment):
                    search.tick()
                    sortie_rows = [
                        (kind, vid, cs.distance)
                        for (kind, vid), chain in assignment.items()
                        for cs in chain
                    ]
                    obj = score(route_rows, sortie_rows, fleet).weighted_objective
                    if search.best_obj is not None and obj >= search.best_obj - _EPS:
                        if (
                            abs(obj - (search.best_obj or 0.0)) > _EPS
                            or _plan_key(route, assignment) >= search.best_key
                        ):
                            return
                    plan = _assemble_plan(search, route, assignment)
                    report = validator_mod.validate(plan, inst, fleet, options)
                    if not report.feasible:
                        raise VrpdrInternalError(plan, report)
                    search.best_obj = plan.objective_breakdown.weighted_objective
                    search.best_key = _plan_key(route, assignment)
                    search.best_plan = plan

                assign(0, tuple(rest), {})

    if search.best_plan is None:
        raise InfeasibleError(
            "no feasible plan: leftover customers cannot be covered by any sortie",
            offending_ids=unreachable or customers,
        )
    return search.best_plan


class VrpdrInternalError(AssertionError):
    """An exact candidate passed static screening but failed validation."""

    def __init__(self, plan, report):
        details = "; ".join(v.detail for v in report.violations[:5])
        super().__init__(f"exact candidate failed validation: {details}")
        self.plan = plan
        self.report = report
