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

Sorties come from :meth:`vrpdr.core.DistanceRows.sortie_heads`, the
cap-pruned walk the heuristic and the model share, over rows built once
per search; truck legs come from :meth:`vrpdr.core.Instance.truck_matrix`,
the table the heuristic reads.  Each (sequence, launch, recovery) energy
is priced by :func:`vrpdr.energy.leg_energy` once per search and no probe
``Sortie`` is built, so only plan assembly and validation call
:func:`vrpdr.energy.sortie_energy`.

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
    METRICS,
    ROBOT,
    VEHICLE_KINDS,
    BudgetExceededError,
    ConfigurationError,
    DistanceRows,
    FleetSpec,
    InfeasibleError,
    Instance,
    ModelOptions,
    Plan,
    Sortie,
)
from .schedule import arrival_times, score, timed_plan

_EPS = 1e-12


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
        points = [nd.point for nd in inst.nodes]
        self.rows = {kind: DistanceRows(METRICS[kind], points) for kind in VEHICLE_KINDS}
        self.weight = [nd.weight for nd in inst.nodes]
        # (kind, sequence, launch node, recovery node) -> sortie energy
        self.energies = {}

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

    Yields (chain, served) pairs; a chain is a tuple of _ChainSortie.  The
    battery starts full, drains by sortie energy at each launch, and
    recharges on carried legs between recovery and next launch, clamped by
    :func:`vrpdr.energy.charge_legs`, which charges no leg out of the
    depot.  From each launch position,
    :meth:`vrpdr.core.DistanceRows.sortie_heads` walks the sequences of
    remaining customers that meet the payload and range caps.
    """
    fleet, options = search.fleet, search.options
    m_eff = options.effective_m(fleet)
    cap = fleet.battery(kind)
    payload_limit = fleet.payload_cap(kind) + FIT_TOL
    range_limit = fleet.range_cap(kind) + FIT_TOL
    rows, weight, energies = search.rows[kind], search.weight, search.energies
    last_pos = len(route) - 1

    def charge_between(start_pos, launch_pos, level):
        """Charging events and level over the legs [start_pos, launch_pos)."""
        stop = launch_pos if options.charging else 0
        legs = [(route[p], leg_times[p]) for p in range(start_pos, stop)]
        return energy_mod.charge_legs(kind, vid, 0, level, fleet, legs)

    def rec(start_pos, level, remaining, acc):
        yield tuple(acc), frozenset(set(remaining_all) - set(remaining))
        if not remaining or start_pos > last_pos:
            return
        for launch_pos in range(start_pos, last_pos):
            launch_node = route[launch_pos]
            events, level_at_launch = charge_between(start_pos, launch_pos, level)
            for seq, legs, head in rows.sortie_heads(
                launch_node, remaining, m_eff, weight, payload_limit, range_limit
            ):
                parcels = [weight[c] for c in seq]
                last_row = rows[seq[-1]]
                rest = tuple(c for c in remaining if c not in seq)
                for recovery_pos in range(launch_pos + 1, last_pos + 1):
                    recovery_node = route[recovery_pos]
                    last_leg = last_row[recovery_node]
                    dist = head + last_leg
                    if dist > range_limit:
                        continue
                    key = (kind, seq, launch_node, recovery_node)
                    e = energies.get(key)
                    if e is None:
                        e = energies[key] = energy_mod.leg_energy(
                            kind, legs + (last_leg,), parcels, fleet
                        )
                    if e > level_at_launch + FIT_TOL:
                        continue
                    search.tick()
                    entry = _ChainSortie(launch_pos, recovery_pos, seq, dist, e, events)
                    if recovery_pos == last_pos:
                        # recovered at the depot: the vehicle is retired
                        yield tuple(acc) + (entry,), frozenset(
                            set(remaining_all) - set(rest)
                        )
                    else:
                        yield from rec(
                            recovery_pos,
                            level_at_launch - e,
                            rest,
                            acc + [entry],
                        )

    remaining_all = tuple(remaining)
    yield from rec(0, cap, tuple(remaining), [])


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
    truck_km = inst.truck_matrix().tolist()

    max_trips = 1 if options.single_trip else None

    def chains_for(kind, vid, route, leg_times, remaining):
        for chain, served in _vehicle_chains(search, kind, vid, route, leg_times, remaining):
            if max_trips is not None and len(chain) > max_trips:
                continue
            yield chain, served

    for size in range(1, len(reachable) + 1):
        for subset in itertools.combinations(sorted(reachable), size):
            rest = [c for c in customers if c not in subset]
            if rest and not vehicles:
                continue
            for perm in itertools.permutations(subset):
                route = (0,) + perm + (0,)
                km = [truck_km[a][b] for a, b in zip(route[:-1], route[1:])]
                leg_times = [d / fleet.s_t for d in km]
                route_rows = [(sum(km), True)]
                # sorties only add cost and flight time, so the bare route bounds the plan
                bound = score(route_rows, (), fleet).weighted_objective
                if search.best_obj is not None and bound >= search.best_obj - _EPS:
                    search.tick()
                    continue

                def assign(vidx, remaining, acc):
                    if not remaining and vidx == len(vehicles):
                        _consider(route, leg_times, dict(acc))
                        return
                    if vidx == len(vehicles):
                        return
                    kind, vid = vehicles[vidx]
                    for chain, served in chains_for(kind, vid, route, leg_times, remaining):
                        acc[(kind, vid)] = chain
                        assign(vidx + 1, tuple(c for c in remaining if c not in served), acc)
                        del acc[(kind, vid)]

                def _consider(route, leg_times, assignment):
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
