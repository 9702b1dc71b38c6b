"""Command line interface: generate, export-lp, exact, validate, solve, bench."""

from __future__ import annotations

import sys

import click

from . import bench as bench_mod
from . import exact as exact_mod
from . import finder as finder_mod
from . import milp as milp_mod
from . import validator as validator_mod
from .core import (
    BudgetExceededError,
    FleetSpec,
    InfeasibleError,
    ModelOptions,
    instance_from_json,
    plan_from_json,
    plan_to_json,
)


def _load_instance(path: str):
    with open(path) as fh:
        return instance_from_json(fh.read())


def _options(no_charging, single_visit, single_trip, fixed_docking) -> ModelOptions:
    return ModelOptions(
        charging=not no_charging,
        flexible_docking=not fixed_docking,
        single_visit=single_visit,
        single_trip=single_trip,
    )


@click.group()
def main():
    """Truck, drone and robot last-mile routing toolkit."""


@main.command()
@click.option("--size", type=int, required=True, help="number of customers")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--unreachable-frac", type=float, default=0.0, show_default=True)
@click.option("--trucks", type=int, default=1, show_default=True)
@click.option("--drones", type=int, default=1, show_default=True)
@click.option("--robots", type=int, default=1, show_default=True)
def generate(size, seed, out, unreachable_frac, trucks, drones, robots):
    """Write a random benchmark instance as JSON."""
    fleet = FleetSpec(num_trucks=trucks, num_drones=drones, num_robots=robots)
    inst = bench_mod.generate_instance(size, seed, fleet, unreachable_frac=unreachable_frac)
    from .core import instance_to_json

    with open(out, "w") as fh:
        fh.write(instance_to_json(inst))
    click.echo(f"wrote {out}: {size} customers, seed {seed}")


@main.command("export-lp")
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--no-charging", is_flag=True)
@click.option("--single-visit", is_flag=True)
@click.option("--single-trip", is_flag=True)
@click.option("--fixed-docking", is_flag=True)
def export_lp(instance_path, out, no_charging, single_visit, single_trip, fixed_docking):
    """Build the full model and write LP text for an external solver."""
    inst = _load_instance(instance_path)
    options = _options(no_charging, single_visit, single_trip, fixed_docking)
    model = milp_mod.build_model(inst, inst.fleet, options)
    with open(out, "w") as fh:
        fh.write(milp_mod.export_lp(model))
    click.echo(
        f"wrote {out}: {len(model.variables)} variables, {len(model.constraints)} constraints"
    )


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--budget-customers", type=int, default=8, show_default=True)
@click.option("--max-candidates", type=int, default=5_000_000, show_default=True)
@click.option("--time-limit", type=float, default=600.0, show_default=True)
@click.option("--no-charging", is_flag=True)
@click.option("--single-visit", is_flag=True)
@click.option("--single-trip", is_flag=True)
@click.option("--fixed-docking", is_flag=True)
def exact(instance_path, out, budget_customers, max_candidates, time_limit, no_charging,
          single_visit, single_trip, fixed_docking):
    """Exhaustive optimum for a tiny instance."""
    inst = _load_instance(instance_path)
    options = _options(no_charging, single_visit, single_trip, fixed_docking)
    budget = exact_mod.SearchBudget(
        max_customers=budget_customers,
        max_candidates=max_candidates,
        time_limit=time_limit,
    )
    try:
        plan = exact_mod.solve_exact(inst, inst.fleet, options, budget)
    except InfeasibleError as exc:
        click.echo(f"infeasible: {exc} (ids {list(exc.offending_ids)})", err=True)
        sys.exit(2)
    except BudgetExceededError as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(3)
    if out:
        with open(out, "w") as fh:
            fh.write(plan_to_json(plan))
    b = plan.objective_breakdown
    click.echo(
        f"objective {b.weighted_objective:.6f} "
        f"(cost {b.variable_cost + b.fixed_cost:.4f}, makespan {b.makespan:.4f}h)"
    )


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--plan", "plan_path", type=click.Path(exists=True), required=True)
@click.option("--no-charging", is_flag=True)
@click.option("--single-visit", is_flag=True)
@click.option("--single-trip", is_flag=True)
@click.option("--fixed-docking", is_flag=True)
def validate(instance_path, plan_path, no_charging, single_visit, single_trip, fixed_docking):
    """Check a plan against every constraint family; exit 0 iff feasible."""
    inst = _load_instance(instance_path)
    with open(plan_path) as fh:
        plan = plan_from_json(fh.read())
    options = _options(no_charging, single_visit, single_trip, fixed_docking)
    report = validator_mod.validate(plan, inst, inst.fleet, options)
    click.echo(report.to_json())
    sys.exit(0 if report.feasible else 1)


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--mode", type=click.Choice(bench_mod.MODES), default="ef", show_default=True)
@click.option("--no-charging", is_flag=True)
@click.option("--single-visit", is_flag=True)
@click.option("--single-trip", is_flag=True)
@click.option("--fixed-docking", is_flag=True)
def solve(instance_path, out, mode, no_charging, single_visit, single_trip, fixed_docking):
    """Solve with the construction heuristic and write the plan JSON."""
    inst = _load_instance(instance_path)
    fleet = bench_mod.mode_fleet(inst.fleet, mode)
    options = _options(no_charging, single_visit, single_trip, fixed_docking)
    try:
        plan = finder_mod.solve_finder(inst, fleet, options)
    except InfeasibleError as exc:
        click.echo(f"infeasible: {exc} (ids {list(exc.offending_ids)})", err=True)
        sys.exit(2)
    with open(out, "w") as fh:
        fh.write(plan_to_json(plan))
    b = plan.objective_breakdown
    click.echo(
        f"objective {b.weighted_objective:.6f} "
        f"(cost {b.variable_cost + b.fixed_cost:.4f}, makespan {b.makespan:.4f}h, "
        f"{len(plan.sorties)} sorties)"
    )


def _parse_sizes(spec: str) -> list:
    if ":" in spec:
        parts = [int(p) for p in spec.split(":")]
        if len(parts) != 3:
            raise click.BadParameter("use start:stop:step or a comma list")
        start, stop, step = parts
        return list(range(start, stop + 1, step))
    return [int(p) for p in spec.split(",")]


@main.command("bench")
@click.option("--scenario", type=click.Choice(
    ["modes", "visits", "trips", "charging", "docking", "sweep"]), required=True)
@click.option("--sizes", default="20:100:20", show_default=True,
              help="start:stop:step or comma-separated")
@click.option("--reps", type=int, default=25, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--no-plans", is_flag=True, help="skip per-run plan.json artifacts")
def bench_cmd(scenario, sizes, reps, seed, out_dir, no_plans):
    """Run an experiment family and write results/summary/plot CSVs."""
    size_list = _parse_sizes(sizes)
    result = bench_mod.run_suite(
        scenario, size_list, reps, seed, out_dir, save_plans=not no_plans
    )
    n = len(result["rows"])
    feasible = sum(1 for r in result["rows"] if r["feasible"])
    click.echo(f"{n} runs ({feasible} feasible) -> {out_dir}")


if __name__ == "__main__":
    main()
