"""Benchmark harness: instance generation, experiment scenarios, CSV output.

Instances are sampled with numpy's PCG64 generator; the stream for a row is
``seed_base + row_index`` where rows enumerate (size, repetition) in order,
so every variant of a scenario sees identical instances and reruns are
reproducible byte for byte.  Wall-clock timings go to separate files
(``timings.csv``, ``plots/time_vs_size.csv``) because they can never be
deterministic; every other CSV is.
"""

from __future__ import annotations

import csv
import math
import os
import time as time_mod
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import finder as finder_mod
from . import validator as validator_mod
from .core import (
    FleetSpec,
    InfeasibleError,
    Instance,
    InstanceError,
    ModelOptions,
    Node,
    Plan,
    plan_to_json,
)

MODES = ("to", "td", "tr", "ef")

AREA = 15.0
WEIGHT_RANGE = (0.5, 10.0)


def generate_instance(
    size: int, seed: int, fleet: FleetSpec, unreachable_frac: float = 0.0
) -> Instance:
    """Depot plus ``size`` customers uniform over the 15x15 km square.

    A negative ``size`` or ``seed``, or an ``unreachable_frac`` outside
    [0, 1], raises :class:`InstanceError`.
    """
    if size < 0:
        raise InstanceError(f"size must be nonnegative, got {size}")
    if seed < 0:
        raise InstanceError(f"seed must be nonnegative, got {seed}")
    if not 0.0 <= unreachable_frac <= 1.0:
        raise InstanceError(f"unreachable fraction must lie in [0, 1], got {unreachable_frac}")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, AREA, size=(size + 1, 2))
    weights = rng.uniform(*WEIGHT_RANGE, size=size)
    unreachable: set = set()
    if unreachable_frac > 0 and size > 0:
        k = int(round(unreachable_frac * size))
        if k > 0:
            unreachable = set(rng.choice(np.arange(1, size + 1), size=k, replace=False).tolist())
    nodes = [Node(0, float(coords[0, 0]), float(coords[0, 1]))]
    for idx in range(1, size + 1):
        nodes.append(
            Node(
                idx,
                float(coords[idx, 0]),
                float(coords[idx, 1]),
                float(weights[idx - 1]),
                idx not in unreachable,
            )
        )
    return Instance(nodes, fleet, seed=seed)


def gap(reference: float, candidate: float) -> float:
    """Percentage excess of candidate over reference."""
    if reference <= 0:
        raise ValueError(f"gap reference must be positive, got {reference}")
    return (candidate - reference) / reference * 100.0


def mode_fleet(fleet: FleetSpec, mode: str) -> FleetSpec:
    """Mask the auxiliary fleet for the collaborative mode."""
    if mode == "to":
        return replace(fleet, num_drones=0, num_robots=0)
    if mode == "td":
        return replace(fleet, num_robots=0)
    if mode == "tr":
        return replace(fleet, num_drones=0)
    if mode == "ef":
        return fleet
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment family: a mode and model options over sizes and seeds."""

    name: str
    sizes: tuple
    repetitions: int = 25
    mode: str = "ef"
    options: ModelOptions = ModelOptions()
    sweeps: Optional[dict] = None
    seed_base: int = 42

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "sizes", tuple(self.sizes))


def _sweep_points(spec: ScenarioSpec) -> list:
    """(label, fleet overrides) grid; a single empty point without sweeps."""
    if not spec.sweeps:
        return [("", {})]
    names = sorted(spec.sweeps)
    points = [{}]
    for name in names:
        points = [dict(p, **{name: v}) for p in points for v in spec.sweeps[name]]
    out = []
    for p in points:
        label = ";".join(f"{k}={p[k]}" for k in names)
        out.append((label, p))
    return out


def run_scenario(spec: ScenarioSpec, fleet: FleetSpec = FleetSpec(), plan_sink=None) -> dict:
    """Solve every (size, repetition, sweep point) with the heuristic.

    Returns {"rows": [...], "timings": [...]}; rows are deterministic given
    the scenario, timings carry wall-clock seconds and are reported
    separately.  ``plan_sink(spec, variant, size, rep, plan)`` receives
    every solved plan.
    """
    options = spec.options
    rows = []
    timings = []
    row_index = 0
    for size in spec.sizes:
        for rep in range(spec.repetitions):
            seed = spec.seed_base + row_index
            row_index += 1
            for label, overrides in _sweep_points(spec):
                run_fleet = mode_fleet(replace(fleet, **overrides), spec.mode)
                inst = generate_instance(size, seed, run_fleet)
                t0 = time_mod.perf_counter()
                feasible = True
                violations = 0
                plan: Optional[Plan] = None
                try:
                    plan = finder_mod.solve_finder(inst, run_fleet, options)
                    report = validator_mod.validate(plan, inst, run_fleet, options)
                    feasible = report.feasible
                    violations = len(report.violations)
                except InfeasibleError:
                    feasible = False
                elapsed = time_mod.perf_counter() - t0
                if plan is not None and plan_sink is not None:
                    plan_sink(spec, label or spec.mode, size, rep, plan)
                row = {
                    "scenario": spec.name,
                    "variant": label or spec.mode,
                    "size": size,
                    "rep": rep,
                    "seed": seed,
                    "feasible": feasible,
                    "violations": violations,
                    "n_sorties": len(plan.sorties) if plan else 0,
                    "variable_cost": plan.objective_breakdown.variable_cost if plan else math.nan,
                    "fixed_cost": plan.objective_breakdown.fixed_cost if plan else math.nan,
                    "operational_cost": (
                        plan.objective_breakdown.variable_cost
                        + plan.objective_breakdown.fixed_cost
                        if plan
                        else math.nan
                    ),
                    "model_makespan": report.model_makespan if plan else math.nan,
                    "simulated_makespan": report.simulated_makespan if plan else math.nan,
                    "weighted_objective": (
                        plan.objective_breakdown.weighted_objective if plan else math.nan
                    ),
                }
                rows.append(row)
                timings.append(
                    {
                        "scenario": spec.name,
                        "variant": label or spec.mode,
                        "size": size,
                        "rep": rep,
                        "runtime_s": elapsed,
                    }
                )
    return {"rows": rows, "timings": timings}


def summarize(rows: Sequence[dict]) -> list:
    """Mean and sample standard deviation per (scenario, variant, size)."""
    metrics = ("operational_cost", "model_makespan", "simulated_makespan", "weighted_objective")
    groups: Dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row["scenario"], row["variant"], row["size"]), []).append(row)
    out = []
    for key in sorted(groups, key=str):
        scenario, variant, size = key
        bucket = groups[key]
        entry = {
            "scenario": scenario,
            "variant": variant,
            "size": size,
            "n": len(bucket),
            "n_feasible": sum(1 for r in bucket if r["feasible"]),
        }
        for metric in metrics:
            values = [r[metric] for r in bucket if not math.isnan(r[metric])]
            if values:
                mean = sum(values) / len(values)
                if len(values) > 1:
                    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
                    std = math.sqrt(var)
                else:
                    std = 0.0
            else:
                mean = math.nan
                std = math.nan
            entry[f"mean_{metric}"] = mean
            entry[f"std_{metric}"] = std
        out.append(entry)
    return out


def _write_csv(path: str, rows: Sequence[dict], columns: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


RESULT_COLUMNS = (
    "scenario",
    "variant",
    "size",
    "rep",
    "seed",
    "feasible",
    "violations",
    "n_sorties",
    "variable_cost",
    "fixed_cost",
    "operational_cost",
    "model_makespan",
    "simulated_makespan",
    "weighted_objective",
)

SUMMARY_COLUMNS = (
    "scenario",
    "variant",
    "size",
    "n",
    "n_feasible",
    "mean_operational_cost",
    "std_operational_cost",
    "mean_model_makespan",
    "std_model_makespan",
    "mean_simulated_makespan",
    "std_simulated_makespan",
    "mean_weighted_objective",
    "std_weighted_objective",
)


def emit_plot_data(rows: Sequence[dict], out_dir: str, timings: Sequence[dict] = ()) -> list:
    """One CSV per figure family under ``out_dir``/plots.

    objective_vs_size.csv / cost_vs_size.csv / makespan_vs_size.csv hold one
    series per (scenario, variant); time_vs_size.csv mirrors the runtime
    means and inherits their nondeterminism.
    """
    plot_dir = os.path.join(out_dir, "plots")
    os.makedirs(plot_dir, exist_ok=True)
    summary = summarize(rows)
    written = []

    def emit(name, columns, records):
        path = os.path.join(plot_dir, name)
        _write_csv(path, records, columns)
        written.append(path)

    emit(
        "objective_vs_size.csv",
        ("scenario", "variant", "size", "mean_weighted_objective", "std_weighted_objective"),
        summary,
    )
    emit(
        "cost_vs_size.csv",
        ("scenario", "variant", "size", "mean_operational_cost", "std_operational_cost"),
        summary,
    )
    emit(
        "makespan_vs_size.csv",
        (
            "scenario",
            "variant",
            "size",
            "mean_model_makespan",
            "mean_simulated_makespan",
        ),
        summary,
    )
    if timings:
        groups: Dict[tuple, list] = {}
        for t in timings:
            groups.setdefault((t["scenario"], t["variant"], t["size"]), []).append(t["runtime_s"])
        records = [
            {
                "scenario": k[0],
                "variant": k[1],
                "size": k[2],
                "mean_runtime_s": sum(v) / len(v),
            }
            for k, v in sorted(groups.items(), key=str)
        ]
        emit("time_vs_size.csv", ("scenario", "variant", "size", "mean_runtime_s"), records)
    return written


# scenario family -> the fields of each of its ScenarioSpec entries; the
# entries of a family share sizes, repetitions and seeds
SUITES = {
    "modes": tuple({"name": f"modes_{m}", "mode": m} for m in MODES),
    "visits": (
        {"name": "visits_multi"},
        {"name": "visits_single", "options": ModelOptions(single_visit=True)},
    ),
    "trips": (
        {"name": "trips_multi"},
        {"name": "trips_single", "options": ModelOptions(single_trip=True)},
    ),
    "charging": (
        {"name": "charging_enroute"},
        {"name": "charging_none", "options": ModelOptions(charging=False)},
    ),
    "docking": (
        {"name": "docking_flexible"},
        {"name": "docking_fixed", "options": ModelOptions(flexible_docking=False)},
    ),
    "sweep": ({"name": "sweep_drones", "sweeps": {"num_drones": list(range(9))}},),
}


def scenario_suite(
    name: str,
    sizes: Sequence[int],
    repetitions: int = 25,
    seed_base: int = 42,
) -> list:
    """The :data:`SUITES` family ``name`` over shared sizes and seeds."""
    if name not in SUITES:
        raise ValueError(f"unknown scenario {name!r}")
    shared = dict(sizes=tuple(sizes), repetitions=repetitions, seed_base=seed_base)
    return [ScenarioSpec(**shared, **entry) for entry in SUITES[name]]


def run_suite(
    name: str,
    sizes: Sequence[int],
    repetitions: int,
    seed_base: int,
    out_dir: str,
    fleet: FleetSpec = FleetSpec(),
    save_plans: bool = True,
) -> dict:
    """Run a scenario family and persist results.csv / summary.csv / plots."""
    os.makedirs(out_dir, exist_ok=True)
    specs = scenario_suite(name, sizes, repetitions, seed_base)
    if name == "docking" and fleet.num_trucks < 2:
        fleet = replace(fleet, num_trucks=2)
    sink = None
    if save_plans:
        plan_dir = os.path.join(out_dir, "plans")
        os.makedirs(plan_dir, exist_ok=True)

        def sink(spec, variant, size, rep, plan):
            fname = f"{spec.name}_{variant}_{size}_{rep}.json".replace(";", "_").replace("=", "-")
            with open(os.path.join(plan_dir, fname), "w") as fh:
                fh.write(plan_to_json(plan))

    all_rows: List[dict] = []
    all_timings: List[dict] = []
    for spec in specs:
        result = run_scenario(spec, fleet, plan_sink=sink)
        all_rows.extend(result["rows"])
        all_timings.extend(result["timings"])
    all_rows.sort(key=lambda r: (r["scenario"], r["variant"], r["size"], r["rep"]))
    all_timings.sort(key=lambda r: (r["scenario"], r["variant"], r["size"], r["rep"]))
    _write_csv(os.path.join(out_dir, "results.csv"), all_rows, RESULT_COLUMNS)
    _write_csv(os.path.join(out_dir, "summary.csv"), summarize(all_rows), SUMMARY_COLUMNS)
    _write_csv(
        os.path.join(out_dir, "timings.csv"),
        all_timings,
        ("scenario", "variant", "size", "rep", "runtime_s"),
    )
    emit_plot_data(all_rows, out_dir, all_timings)
    return {"rows": all_rows, "timings": all_timings}
