"""The benchmark's workloads: instance pools, the timed operation and its checks.

Every workload solves one instance at a time (closed loop, one client).  A
run's pool holds ``pool`` instances of one size; instance ``i`` is drawn
with seed ``seed + i``, the way ``vrpdr.bench`` derives row seeds from
``seed_base``.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from vrpdr import bench, exact, finder, lp_io, milp, validator
from vrpdr.core import FleetSpec, ModelOptions, plan_to_json

OPTIONS = ModelOptions()  # bench.default_toggles(): every feature on
LP_TOL = 1e-6             # |LP optimum - exact optimum|, as acceptance criterion 1
OBJ_TOL = 1e-9            # exact optimum never above the heuristic, as criterion 2


@dataclass(frozen=True)
class Workload:
    mode: str     # collaborative mode handed to bench.mode_fleet
    size: int     # customers per instance
    pool: int     # instances per run; sized so one pass takes most of a run
    oracle: bool  # run the exact / MILP / HiGHS pipeline as well

    @property
    def fleet(self) -> FleetSpec:
        return bench.mode_fleet(FleetSpec(), self.mode)


WORKLOADS = {
    "finder_ef": Workload(mode="ef", size=20, pool=200, oracle=False),
    "finder_to": Workload(mode="to", size=150, pool=50, oracle=False),
    "oracle_tiny": Workload(mode="ef", size=5, pool=25, oracle=True),
}

# minimal sizes for the smoke test: every code path, a fraction of a second
SMOKE_SIZE = {"finder_ef": 8, "finder_to": 10, "oracle_tiny": 4}
SMOKE_POOL = 2


@dataclass
class Outcome:
    plans: list     # in fingerprint order: exact (oracle only), then finder
    problems: list  # failed checks; empty when the operation is correct

    @property
    def finder_plan(self):
        return self.plans[-1] if self.plans else None


def make_pool(wl: Workload, seed: int) -> list:
    fleet = wl.fleet
    return [bench.generate_instance(wl.size, seed + i, fleet) for i in range(wl.pool)]


def warm_up(seed: int) -> None:
    """Pay one-off costs before timing: lazy imports inside HiGHS, first calls."""
    fleet = FleetSpec()
    tiny = bench.generate_instance(3, seed, fleet)
    lp_io.solve_lp_text(milp.export_lp(milp.build_model(tiny, fleet, OPTIONS)), time_limit=60)
    small = bench.generate_instance(10, seed, fleet)
    finder.solve_finder(small, fleet, OPTIONS)


def solve(wl: Workload, inst) -> Outcome:
    """The timed operation for one instance, with its correctness checks."""
    fleet = wl.fleet
    plans, problems = [], []
    try:
        if wl.oracle:
            best = exact.solve_exact(inst, fleet, OPTIONS)
            plans.append(best)
            model = milp.build_model(inst, fleet, OPTIONS)
            lp_obj, _ = lp_io.solve_lp_text(milp.export_lp(model), time_limit=120)
            bad = milp.check_assignment(model, milp.plan_assignment(model, best, inst, fleet))
            exact_obj = best.objective_breakdown.weighted_objective
            if abs(lp_obj - exact_obj) > LP_TOL:
                problems.append(f"LP optimum {lp_obj!r} differs from exact {exact_obj!r}")
            if bad:
                problems.append(f"exact plan violates {len(bad)} model rows, e.g. {bad[0]}")
        plan = finder.solve_finder(inst, fleet, OPTIONS)
        plans.append(plan)
        report = validator.validate(plan, inst, fleet, OPTIONS)
        objective = plan.objective_breakdown.weighted_objective
        if not report.feasible:
            problems.append(f"finder plan has {len(report.violations)} violations")
        if not math.isfinite(objective):
            problems.append(f"finder objective is {objective!r}")
        if wl.oracle and exact_obj > objective + OBJ_TOL:
            problems.append(f"exact {exact_obj!r} above finder {objective!r}")
    except Exception as exc:  # a failed operation is counted and reported, not fatal
        problems.append(f"{type(exc).__name__}: {exc}")
        plans = []
    return Outcome(plans, problems)


def fingerprint(outcomes) -> str:
    """sha256 over every plan's JSON and objective, in instance order."""
    h = hashlib.sha256()
    for out in outcomes:
        for plan in out.plans:
            h.update(plan_to_json(plan).encode())
            h.update(repr(plan.objective_breakdown.weighted_objective).encode())
    return h.hexdigest()
