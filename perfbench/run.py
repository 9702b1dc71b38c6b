"""vrpdr benchmark: one workload per process, closed loop with one client.

    python3 perfbench/run.py --workload finder_ef --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout; vrpdr is imported from its
``src`` directory.  ``--trace 0`` times the workload's operation over its
instance pool, cycling the pool until ``--seconds`` have passed and at
least one pass is done, and reports the end-to-end metrics.  Its timings
are rescaled to a reference host speed: between operations it times a
fixed pure-Python kernel (``reference_kernel``), and a host that runs it
slower than in ``REF_KERNEL_S`` has its timings divided by the slowdown,
so that a shared host's slow and fast spells cancel out.  ``--trace 1``
solves every pool instance twice, plainly and with spans around the vrpdr
entry points (spans.py), and reports the per-layer metrics, the tracing
overhead among them.  The last line of standard output is one JSON object;
the lines before it give every metric with its unit and direction, the
attempted and failed counts, the environment and the plan fingerprint.
Exit code 1 means a correctness check failed, 2 that the checkout holds no
vrpdr package.
"""

import os

# one thread per process, set before numpy or scipy load a BLAS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import functools
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vrpdr"
SETUP_REPS = 5
# the reference host runs reference_kernel() in REF_KERNEL_S seconds; the
# kernel runs between operations until it has taken REF_SHARE of their time
REF_KERNEL_S = 0.010
REF_SHARE = 0.2
# scipy.optimize is what lp_io imports lazily on its first solve
IMPORTS = (
    "numpy", "scipy.optimize",
    "vrpdr.bench", "vrpdr.exact", "vrpdr.finder", "vrpdr.lp_io", "vrpdr.milp",
)
SLOC_MODULES = (
    "__init__", "bench", "cli", "core", "energy", "exact", "finder", "lp_io", "milp", "validator",
)


def import_package() -> None:
    """Import vrpdr from this checkout; exit 2 when the checkout has none."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"no vrpdr package at {PACKAGE}; run from a repository checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(PACKAGE.parent))
    for name in IMPORTS:
        importlib.import_module(name)
    import vrpdr

    if Path(vrpdr.__file__).resolve().parent != PACKAGE.resolve():
        sys.stderr.write(f"imported vrpdr from {vrpdr.__file__}, not from {PACKAGE}\n")
        sys.exit(2)


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes for IMPORTS."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        f"t0 = time.perf_counter(); import {', '.join(IMPORTS)}; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(proc.stdout)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' outside one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def env_stamp() -> str:
    import numpy
    import scipy

    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"python={sys.version.split()[0]} numpy={numpy.__version__} scipy={scipy.__version__} "
        f"commit={git_commit()} {threads}"
    )


def sloc() -> dict:
    """Non-blank, non-comment source lines per module; a deleted module counts 0."""

    def count(path):
        lines = (ln.strip() for ln in path.read_text().splitlines())
        return sum(1 for ln in lines if ln and not ln.startswith("#"))

    out = {}
    for mod in SLOC_MODULES:
        path = PACKAGE / f"{mod}.py"
        out[f"sloc.{mod}"] = count(path) if path.is_file() else 0
    out["sloc.total"] = sum(count(path) for path in PACKAGE.glob("*.py"))
    return out


def solve_timed(op, pool, i):
    """(outcome, seconds) of the operation on instance ``i``; failures are printed."""
    t0 = time.perf_counter()
    outcome = op(pool[i])
    seconds = time.perf_counter() - t0
    if outcome.problems:
        print(f"FAILED instance {i}: {'; '.join(outcome.problems)}")
    return outcome, seconds


def reference_kernel(n=120, seed=12345) -> float:
    """Fixed pure-Python work that gauges the host's speed: a cheapest-insertion
    tour through ``n`` seeded points, with cached distances, as the finder
    does on a small scale.  Returns the tour length."""
    rng = random.Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    cache = {}

    def dist(a, b):
        key = (a, b) if a < b else (b, a)
        d = cache.get(key)
        if d is None:
            d = cache[key] = math.hypot(pts[a][0] - pts[b][0], pts[a][1] - pts[b][1])
        return d

    tour = [0, 1]
    for c in range(2, n):
        best, pos = math.inf, 0
        for i in range(len(tour)):
            a, b = tour[i], tour[(i + 1) % len(tour)]
            delta = dist(a, c) + dist(c, b) - dist(a, b)
            if delta < best:
                best, pos = delta, i + 1
        tour.insert(pos, c)
    return sum(dist(tour[i], tour[(i + 1) % n]) for i in range(n))


def run_pass(op, pool, seconds):
    """Solve pool instances in order until one pass is done and ``seconds``
    passed; after each operation, run the reference kernel until it has taken
    REF_SHARE of the operations' time.

    Returns (first-pass outcomes, seconds per operation, failed count,
    seconds per reference kernel).
    """
    first, latencies, failed, kernels = [], [], 0, []
    start = time.perf_counter()
    i = 0
    while i < len(pool) or time.perf_counter() - start < seconds:
        outcome, dt = solve_timed(op, pool, i % len(pool))
        latencies.append(dt)
        failed += bool(outcome.problems)
        if i < len(pool):
            first.append(outcome)
        i += 1
        while sum(kernels) < REF_SHARE * sum(latencies):
            t0 = time.perf_counter()
            reference_kernel()
            kernels.append(time.perf_counter() - t0)
    return first, latencies, failed, kernels


def run_traced(op, pool, traced_pool, tracer):
    """One plain and one traced solve of every instance, alternating, so that a
    drift in machine speed reaches both alike.

    Returns (plain outcomes, traced outcomes, failed count, plain seconds,
    traced seconds).
    """
    plain, traced, failed, plain_s, traced_s = [], [], 0, 0.0, 0.0
    for i in range(len(pool)):
        outcome, dt = solve_timed(op, pool, i)
        plain.append(outcome)
        plain_s += dt
        tracer.install()
        try:
            outcome, dt = solve_timed(op, traced_pool, i)
        finally:
            tracer.uninstall()
        traced.append(outcome)
        traced_s += dt
        failed += bool(plain[-1].problems) + bool(outcome.problems)
    return plain, traced, failed, plain_s, traced_s


def plan_stats(outcomes) -> dict:
    plans = [o.finder_plan for o in outcomes if o.finder_plan is not None]
    customers = sum(len(p.route_customers()) + len(p.sortie_customers()) for p in plans)
    by_sortie = sum(len(p.sortie_customers()) for p in plans)
    return {
        "objective_mean": statistics.fmean(p.objective_breakdown.weighted_objective for p in plans)
        if plans else math.nan,
        "finder.sorties": sum(len(p.sorties) for p in plans),
        "finder.sortie_share": by_sortie / customers if customers else 0.0,
    }


def layer_metrics(tracer, n, stats, ips_plain, ips_traced) -> dict:
    """Per-layer metrics of one traced pass: seconds are self time per instance."""

    def per(span):
        return tracer.self_s[span] / n

    return {
        "finder.solve_finder.s": per("finder.solve_finder"),
        "finder.construct_truck_routes.s": per("finder.construct_truck_routes"),
        "finder.build_timeline.calls": tracer.calls["finder.build_timeline"],
        "finder.assign_sorties.s": per("finder.assign_sorties"),
        "finder.assign_sorties.calls": tracer.calls["finder.assign_sorties"],
        "finder.insert_unserved.s": per("finder.insert_unserved"),
        "finder.insert_unserved.calls": tracer.calls["finder.insert_unserved"],
        "finder.insert_unserved.customers": tracer.totals["finder.insert_unserved.customers"],
        "finder.sorties": stats["finder.sorties"],
        "finder.sortie_share": stats["finder.sortie_share"],
        "energy.sortie_energy.calls": tracer.calls["energy.sortie_energy"],
        "validator.validate.s": per("validator.validate"),
        "validator.validate.calls": tracer.calls["validator.validate"],
        "validator.simulated_makespan.s": per("validator.simulated_makespan"),
        "validator.build_ledgers.s": per("validator.build_ledgers"),
        "milp.build_model.s": per("milp.build_model"),
        "milp.export_lp.s": per("milp.export_lp"),
        "milp.vars": tracer.totals["milp.vars"],
        "milp.rows": tracer.totals["milp.rows"],
        "milp.lp_bytes": tracer.totals["milp.lp_bytes"],
        "milp.check_assignment.s": per("milp.check_assignment"),
        "lp_io.parse_lp.s": per("lp_io.parse_lp"),
        "lp_io.highs_s": per("lp_io.solve_lp_text"),
        "exact.solve_exact.s": per("exact.solve_exact"),
        "exact.incumbents": tracer.nested["exact.solve_exact", "validator.validate"],
        "bench.generate_instance.s": per("bench.generate_instance"),
        **sloc(),
        "trace.instances_per_s": ips_traced,
        "trace.overhead_ips": ips_plain - ips_traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes, for the smoke test")
    args = parser.parse_args(argv)

    import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.smoke:
        wl = workloads.Workload(
            wl.mode, workloads.SMOKE_SIZE[args.workload], workloads.SMOKE_POOL, wl.oracle
        )
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}

    # set-up = imports in a fresh interpreter + warm-up + pool generation;
    # the first in-process warm-up also pays the one-off first-call costs
    imports, reps = [], []
    for _ in range(SETUP_REPS):
        imports.append(fresh_import_s())
        t0 = time.perf_counter()
        workloads.warm_up(args.seed)
        pool = workloads.make_pool(wl, args.seed)
        reps.append(time.perf_counter() - t0)
    setup_s = statistics.median(i + r for i, r in zip(imports, reps))

    print(f"# env {env_stamp()}")
    print(f"# setup import_s={imports!r} warm_up_and_pool_s={reps!r}")
    print(
        f"# workload {args.workload} seed={args.seed} mode={wl.mode} size={wl.size} "
        f"pool={wl.pool} trace={args.trace}"
    )
    op = functools.partial(workloads.solve, wl)
    if args.trace == 0:
        reference_kernel()  # first call outside the timing
        first, latencies, failed, kernels = run_pass(op, pool, args.seconds)
        attempted = len(latencies)
        # above 1 on a host slower than the reference host
        slowdown = statistics.fmean(kernels) / REF_KERNEL_S
        wall_s = statistics.fmean(latencies)
        print(f"# fingerprint {workloads.fingerprint(first)}")
        print(
            f"# wall clock: solve_s={wall_s!r} instances_per_s={1 / wall_s!r}; "
            f"reference kernel {statistics.fmean(kernels)!r} s over {len(kernels)} runs, "
            f"slowdown {slowdown!r} against the reference host"
        )
        metrics = {
            "setup_s": setup_s,
            "instances_per_s": slowdown / wall_s,
            "solve_s": wall_s / slowdown,
            "objective_mean": plan_stats(first)["objective_mean"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        tracer = spans.Tracer()
        for missing in tracer.install():
            print(f"# not traced: {missing} is gone from vrpdr")
        try:
            traced_pool = workloads.make_pool(wl, args.seed)
        finally:
            tracer.uninstall()
        first, traced, failed, plain_s, traced_s = run_traced(op, pool, traced_pool, tracer)
        attempted = 2 * len(pool)
        plain_fp, traced_fp = workloads.fingerprint(first), workloads.fingerprint(traced)
        print(f"# fingerprint {plain_fp} (traced {traced_fp})")
        if traced_fp != plain_fp:
            print("FAILED tracing changed the plans: fingerprints differ")
            failed += 1
        ips_plain, ips_traced = len(pool) / plain_s, len(pool) / traced_s
        print(
            f"# tracing overhead {ips_plain - ips_traced:.4f} instances/s "
            f"({ips_plain:.4f} plain, {ips_traced:.4f} traced, same {len(pool)} instances)"
        )
        metrics = layer_metrics(tracer, len(pool), plan_stats(traced), ips_plain, ips_traced)

    if set(spec) != set(metrics):
        mismatch = sorted(set(spec) ^ set(metrics))
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {mismatch}")
    for name, value in metrics.items():
        print(f"{name:36s} {value!r:>24} {spec[name]['unit']:8s} {spec[name]['better']}")
    print(f"attempted {attempted} failed {failed} fail_frac {failed / attempted!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": spec[name]["unit"]} for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
