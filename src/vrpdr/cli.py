"""Command line interface: generate, export-lp, exact, validate, solve, bench.

Exit codes: 1 an infeasible plan (validate), 2 no feasible plan found, 3
search or model-size budget exhausted, reported in one ``budget exceeded:``
line, 4 a malformed instance, fleet, plan or option value, reported in one
``bad input:`` line.
"""

from __future__ import annotations

import functools
import sys

import click

from . import bench as bench_mod
from . import exact as exact_mod
from . import finder as finder_mod
from . import milp as milp_mod
from . import validator as validator_mod
from .core import (
    BudgetExceededError,
    ConfigurationError,
    FleetSpec,
    InfeasibleError,
    InstanceError,
    ModelOptions,
    ModelSizeError,
    PlanStructureError,
    instance_from_json,
    plan_from_json,
    plan_to_json,
)


def _bad_input(exc: Exception) -> None:
    """Report malformed input in one line and exit with code 4."""
    click.echo(f"bad input: {exc}", err=True)
    sys.exit(4)


def _load_instance(path: str):
    with open(path) as fh:
        try:
            return instance_from_json(fh.read())
        except (InstanceError, ConfigurationError) as exc:
            _bad_input(exc)


def _model_options(command):
    """Declare the four model toggle flags on ``command`` and hand it ``options``."""

    @click.option("--no-charging", is_flag=True)
    @click.option("--single-visit", is_flag=True)
    @click.option("--single-trip", is_flag=True)
    @click.option("--fixed-docking", is_flag=True)
    @functools.wraps(command)
    def with_options(no_charging, single_visit, single_trip, fixed_docking, **kwargs):
        options = ModelOptions(
            charging=not no_charging,
            flexible_docking=not fixed_docking,
            single_visit=single_visit,
            single_trip=single_trip,
        )
        return command(options=options, **kwargs)

    return with_options


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
    try:
        fleet = FleetSpec(num_trucks=trucks, num_drones=drones, num_robots=robots)
        inst = bench_mod.generate_instance(size, seed, fleet, unreachable_frac=unreachable_frac)
    except (InstanceError, ConfigurationError) as exc:
        _bad_input(exc)
    from .core import instance_to_json

    with open(out, "w") as fh:
        fh.write(instance_to_json(inst))
    click.echo(f"wrote {out}: {size} customers, seed {seed}")


@main.command("export-lp")
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_model_options
def export_lp(instance_path, out, options):
    """Build the full model and write LP text for an external solver."""
    inst = _load_instance(instance_path)
    try:
        model = milp_mod.build_model(inst, inst.fleet, options)
    except InfeasibleError as exc:
        click.echo(f"infeasible: {exc} (ids {list(exc.offending_ids)})", err=True)
        sys.exit(2)
    except ModelSizeError as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(3)
    except ConfigurationError as exc:
        _bad_input(exc)
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
@_model_options
def exact(instance_path, out, budget_customers, max_candidates, time_limit, options):
    """Exhaustive optimum for a tiny instance."""
    inst = _load_instance(instance_path)
    try:
        budget = exact_mod.SearchBudget(
            max_customers=budget_customers,
            max_candidates=max_candidates,
            time_limit=time_limit,
        )
        plan = exact_mod.solve_exact(inst, inst.fleet, options, budget)
    except InfeasibleError as exc:
        click.echo(f"infeasible: {exc} (ids {list(exc.offending_ids)})", err=True)
        sys.exit(2)
    except BudgetExceededError as exc:
        click.echo(f"budget exceeded: {exc}", err=True)
        sys.exit(3)
    except ConfigurationError as exc:
        _bad_input(exc)
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
@_model_options
def validate(instance_path, plan_path, options):
    """Check a plan against every constraint family; exit 0 iff feasible."""
    inst = _load_instance(instance_path)
    with open(plan_path) as fh:
        text = fh.read()
    try:
        report = validator_mod.validate(plan_from_json(text), inst, inst.fleet, options)
    except PlanStructureError as exc:
        _bad_input(exc)
    click.echo(report.to_json())
    sys.exit(0 if report.feasible else 1)


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--mode", type=click.Choice(bench_mod.MODES), default="ef", show_default=True)
@_model_options
def solve(instance_path, out, mode, options):
    """Solve with the construction heuristic and write the plan JSON."""
    inst = _load_instance(instance_path)
    fleet = bench_mod.mode_fleet(inst.fleet, mode)
    try:
        plan = finder_mod.solve_finder(inst, fleet, options)
    except InfeasibleError as exc:
        click.echo(f"infeasible: {exc} (ids {list(exc.offending_ids)})", err=True)
        sys.exit(2)
    except ConfigurationError as exc:
        _bad_input(exc)
    with open(out, "w") as fh:
        fh.write(plan_to_json(plan))
    b = plan.objective_breakdown
    click.echo(
        f"objective {b.weighted_objective:.6f} "
        f"(cost {b.variable_cost + b.fixed_cost:.4f}, makespan {b.makespan:.4f}h, "
        f"{len(plan.sorties)} sorties)"
    )


def _parse_sizes(spec: str) -> list:
    """Sizes from ``start:stop:step`` (stop included) or a comma list;
    :class:`ConfigurationError` unless they are nonnegative integers, at
    least one, with a positive step."""
    bad = ConfigurationError(
        f"--sizes {spec!r}: use start:stop:step with a positive step, or a comma "
        "list, of nonnegative integers"
    )
    try:
        parts = [int(p) for p in spec.split(":" if ":" in spec else ",")]
    except ValueError:
        raise bad from None
    if ":" in spec:
        if len(parts) != 3 or parts[2] < 1:
            raise bad
        start, stop, step = parts
        parts = list(range(start, stop + 1, step))
    if not parts or min(parts) < 0:
        raise bad
    return parts


@main.command("bench")
@click.option("--scenario", type=click.Choice(list(bench_mod.SUITES)), required=True)
@click.option("--sizes", default="20:100:20", show_default=True,
              help="start:stop:step or comma-separated")
@click.option("--reps", type=int, default=25, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--no-plans", is_flag=True, help="skip per-run plan.json artifacts")
def bench_cmd(scenario, sizes, reps, seed, out_dir, no_plans):
    """Run an experiment family and write results/summary/plot CSVs."""
    try:
        size_list = _parse_sizes(sizes)
        if reps < 1:
            raise ConfigurationError(f"--reps must be at least 1, got {reps}")
        if seed < 0:
            raise ConfigurationError(f"--seed must be nonnegative, got {seed}")
    except ConfigurationError as exc:
        _bad_input(exc)
    result = bench_mod.run_suite(
        scenario, size_list, reps, seed, out_dir, save_plans=not no_plans
    )
    n = len(result["rows"])
    feasible = sum(1 for r in result["rows"] if r["feasible"])
    click.echo(f"{n} runs ({feasible} feasible) -> {out_dir}")


if __name__ == "__main__":
    main()
