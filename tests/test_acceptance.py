"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The heavier trend criteria drive the construction heuristic
over dozens of seeded instances and take a few minutes in total.
"""

import itertools
import random
import time

import pytest

from vrpdr import bench, exact, finder, lp_io, milp, validator
from vrpdr.core import FleetSpec, ModelOptions, Sortie
from vrpdr.energy import (
    CAUSE_CHARGE,
    CAUSE_SORTIE,
    BatteryLedger,
    LedgerEntry,
    charge_amount,
    charge_walk,
    robot_power,
    sortie_energy,
)
from conftest import make_instance

FLEET = FleetSpec()  # benchmark defaults: 1 truck, 1 drone, 1 robot


def _finder_objective(size, seed, fleet, options):
    inst = bench.generate_instance(size, seed, fleet)
    plan = finder.solve_finder(inst, fleet, options)
    b = plan.objective_breakdown
    return {
        "cost": b.variable_cost + b.fixed_cost,
        "makespan": b.makespan,
        "weighted": b.weighted_objective,
    }


def test_criterion_01_oracle_equivalence():
    """Exact enumeration equals an external MILP solve of the exported LP."""
    t0 = time.perf_counter()
    try:
        from scipy.optimize import milp as _scipy_milp  # noqa: F401

        solver_available = True
    except Exception:  # pragma: no cover - scipy is a declared dependency
        solver_available = False
    worst = 0.0
    checked = 0
    for seed in range(25):
        inst = bench.generate_instance(5, seed=seed, fleet=FLEET)
        plan = exact.solve_exact(inst, FLEET)
        obj_exact = plan.objective_breakdown.weighted_objective
        model = milp.build_model(inst, FLEET)
        if solver_available:
            obj_lp, _ = lp_io.solve_lp_text(milp.export_lp(model), time_limit=120)
            worst = max(worst, abs(obj_lp - obj_exact))
            assert abs(obj_lp - obj_exact) <= 1e-6, (seed, obj_lp, obj_exact)
        # substitution stand-in: the exact plan satisfies every model row
        values = milp.plan_assignment(model, plan, inst, FLEET)
        assert milp.check_assignment(model, values) == []
        assert milp.evaluate_objective(model, values) == pytest.approx(obj_exact, abs=1e-9)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 1 PASS: exact vs exported-LP optimum on {checked} seeds, "
        f"worst |diff| {worst:.2e} (solver={'HiGHS' if solver_available else 'absent'}), "
        f"{elapsed:.1f}s"
    )


def test_criterion_02_heuristic_quality():
    """Mean FINDER gap within [0, 30] percent and never below the optimum."""
    gaps = []
    slowest = 0.0
    for seed in range(25):
        inst = bench.generate_instance(5, seed=seed, fleet=FLEET)
        t0 = time.perf_counter()
        heur = finder.solve_finder(inst, FLEET)
        slowest = max(slowest, time.perf_counter() - t0)
        best = exact.solve_exact(inst, FLEET)
        h = heur.objective_breakdown.weighted_objective
        e = best.objective_breakdown.weighted_objective
        assert e <= h + 1e-9, f"seed {seed}: heuristic beat the exact optimum"
        gaps.append(bench.gap(e, h))
    mean_gap = sum(gaps) / len(gaps)
    assert 0.0 <= mean_gap <= 30.0
    assert slowest < 1.0
    print(
        f"\nACCEPTANCE 2 PASS: mean gap {mean_gap:.2f}% over 25 seeds "
        f"(max {max(gaps):.2f}%), slowest solve {slowest*1000:.0f}ms"
    )


def test_criterion_03_feasibility_sweep():
    """FINDER output validates cleanly across sizes, modes and toggles."""
    sizes = (10, 20, 50, 100)
    modes = bench.MODES
    toggle_grid = list(itertools.product((True, False), repeat=4))
    combos = [
        (mode, dict(zip(("multi_visit", "multi_trip", "enroute_charging", "flexible_docking"), t)))
        for mode in modes
        for t in toggle_grid
    ]
    assert len(combos) == 64
    count = 0
    covered = set()
    for i in range(100):
        size = sizes[i % len(sizes)]
        mode, toggles = combos[i % len(combos)]
        covered.add(i % len(combos))
        fleet = bench.mode_fleet(FLEET, mode)
        options = ModelOptions(
            charging=toggles["enroute_charging"],
            flexible_docking=toggles["flexible_docking"],
            single_visit=not toggles["multi_visit"],
            single_trip=not toggles["multi_trip"],
        )
        inst = bench.generate_instance(size, seed=1000 + i, fleet=fleet)
        plan = finder.solve_finder(inst, fleet, options)
        report = validator.validate(plan, inst, fleet, options)
        assert report.feasible, (
            size,
            mode,
            toggles,
            [v.detail for v in report.violations][:3],
        )
        count += 1
    assert count == 100
    assert len(covered) == 64
    print(
        "\nACCEPTANCE 3 PASS: 100 seeded instances over sizes "
        f"{sizes}, all 64 mode/toggle combinations, zero violations"
    )


def test_criterion_04_scalability():
    inst100 = bench.generate_instance(100, seed=4242, fleet=FLEET)
    t0 = time.perf_counter()
    plan100 = finder.solve_finder(inst100, FLEET)
    t100 = time.perf_counter() - t0
    assert t100 < 60.0
    assert validator.validate(plan100, inst100, FLEET).feasible

    inst300 = bench.generate_instance(300, seed=4242, fleet=FLEET)
    t0 = time.perf_counter()
    plan300 = finder.solve_finder(inst300, FLEET)
    t300 = time.perf_counter() - t0
    assert t300 < 7200.0
    assert validator.validate(plan300, inst300, FLEET).feasible
    print(
        f"\nACCEPTANCE 4 PASS: 100 customers in {t100:.2f}s (<60s), "
        f"300 customers in {t300:.2f}s (<2h)"
    )


def test_criterion_05_multi_visit_cost_saving():
    sizes = (20, 100, 200)
    multi = ModelOptions(single_visit=False)
    single = ModelOptions(single_visit=True)
    per_size = {}
    total_m = []
    total_s = []
    idx = 0
    for size in sizes:
        costs_m = []
        costs_s = []
        for rep in range(25):
            seed = 2000 + idx
            idx += 1
            costs_m.append(_finder_objective(size, seed, FLEET, multi)["cost"])
            costs_s.append(_finder_objective(size, seed, FLEET, single)["cost"])
        per_size[size] = (sum(costs_m) / 25, sum(costs_s) / 25)
        total_m.extend(costs_m)
        total_s.extend(costs_s)
    mean_m = sum(total_m) / len(total_m)
    mean_s = sum(total_s) / len(total_s)
    assert mean_m < mean_s, f"multi-visit {mean_m:.2f} not below single-visit {mean_s:.2f}"
    saving = bench.gap(mean_m, mean_s)
    detail = ", ".join(
        f"{size}: {m:.1f} vs {s:.1f}" for size, (m, s) in per_size.items()
    )
    print(
        f"\nACCEPTANCE 5 PASS: single-visit costs {saving:.2f}% more than "
        f"multi-visit over 75 paired runs ({detail})"
    )


def test_criterion_06_mode_makespan_ordering():
    means = {}
    for mode in bench.MODES:
        fleet = bench.mode_fleet(FLEET, mode)
        spans = []
        for rep in range(25):
            spans.append(_finder_objective(100, 3000 + rep, fleet, ModelOptions())["makespan"])
        means[mode] = sum(spans) / len(spans)
    assert means["ef"] <= means["td"] <= means["to"], means
    assert means["ef"] <= means["tr"] <= means["to"], means
    print(
        "\nACCEPTANCE 6 PASS: mean model makespan ordering "
        f"EF {means['ef']:.3f} <= TD {means['td']:.3f} <= TO {means['to']:.3f} and "
        f"EF <= TR {means['tr']:.3f} <= TO"
    )


def test_criterion_07_charging_trend():
    on = ModelOptions(charging=True)
    off = ModelOptions(charging=False)
    cost_on, cost_off, span_on, span_off = [], [], [], []
    for rep in range(25):
        seed = 4000 + rep
        a = _finder_objective(100, seed, FLEET, on)
        b = _finder_objective(100, seed, FLEET, off)
        cost_on.append(a["cost"])
        cost_off.append(b["cost"])
        span_on.append(a["makespan"])
        span_off.append(b["makespan"])
    mc_on, mc_off = sum(cost_on) / 25, sum(cost_off) / 25
    ms_on, ms_off = sum(span_on) / 25, sum(span_off) / 25
    assert mc_on <= mc_off + 1e-9, (mc_on, mc_off)
    assert ms_on <= ms_off + 1e-9, (ms_on, ms_off)
    print(
        f"\nACCEPTANCE 7 PASS: en-route charging cost {mc_on:.2f} <= {mc_off:.2f} "
        f"and makespan {ms_on:.4f} <= {ms_off:.4f} (no-charge means)"
    )


def test_criterion_08_energy_values():
    inst1 = make_instance([(0, 0), (1, 0), (1, 1)], weights=[2.0, 0.5], fleet=FLEET)
    s1 = Sortie("drone", 0, 0, 2, (1,), 0, 0)
    e1 = sortie_energy(s1, inst1, FLEET)
    assert e1 == pytest.approx(4864.0, abs=1e-9)

    inst2 = make_instance([(0, 0), (1, 0), (2, 0), (3, 0)], weights=[2.0, 3.0, 0.5], fleet=FLEET)
    s2 = Sortie("drone", 0, 0, 3, (1, 2), 0, 0)
    e2 = sortie_energy(s2, inst2, FLEET)
    assert e2 == pytest.approx(7936.0, abs=1e-9)

    v = FLEET.s_r / 3.6
    expected_power = (1 + FLEET.k2) * FLEET.k1 * FLEET.W_r * FLEET.g * v * (
        1 + FLEET.g / (2 * FLEET.l_leg * v * v)
    )
    p = robot_power(0.0, FLEET)
    assert p == pytest.approx(expected_power, rel=1e-12)
    assert abs(p - 147.6) <= 0.5
    print(
        f"\nACCEPTANCE 8 PASS: drone sortie energies {e1:.1f} and {e2:.1f}, "
        f"robot power {p:.2f}W within 0.5W of 147.6W"
    )


def test_criterion_09_ledger_property():
    rng = random.Random(2024)
    clamp_checks = 0
    for trial in range(1000):
        kind = "drone" if trial % 2 == 0 else "robot"
        cap = FLEET.battery(kind)
        level, entries = cap, []
        t = 0.0
        for _ in range(rng.randint(1, 10)):
            t += rng.uniform(0.01, 0.4)
            if rng.random() < 0.5:
                draw = rng.uniform(0, level)
                level -= draw
                entries.append(LedgerEntry(t, -draw, CAUSE_SORTIE))
            else:
                duration = rng.uniform(0, 0.8)
                amount = min(
                    charge_amount(duration, kind, FLEET),
                    charge_amount(duration, kind, FLEET) * rng.uniform(0, 1.5),
                )
                before = level
                charged, level = charge_walk(level, cap, (amount,))
                applied = charged[0][1] if charged else 0.0
                if charged:
                    entries.append(LedgerEntry(t, applied, CAUSE_CHARGE))
                assert applied == pytest.approx(min(amount, cap - before), abs=1e-9)
                clamp_checks += 1
        for level in BatteryLedger(kind, 0, cap, tuple(entries)).levels():
            assert -1e-9 <= level <= cap + 1e-9
    assert clamp_checks > 500
    print(
        f"\nACCEPTANCE 9 PASS: 1000 random schedules stay within [0, capacity]; "
        f"{clamp_checks} clamp reports verified"
    )


def test_criterion_10_bench_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    bench.run_suite("modes", [10], 3, 99, str(out1))
    bench.run_suite("modes", [10], 3, 99, str(out2))
    compared = 0
    for rel in ("results.csv", "summary.csv", "plots/objective_vs_size.csv",
                "plots/cost_vs_size.csv", "plots/makespan_vs_size.csv"):
        a = (out1 / rel).read_bytes()
        b = (out2 / rel).read_bytes()
        assert a == b, f"{rel} differs between reruns"
        compared += 1
    plans1 = sorted(p.name for p in (out1 / "plans").glob("*.json"))
    plans2 = sorted(p.name for p in (out2 / "plans").glob("*.json"))
    assert plans1 == plans2 and plans1
    for name in plans1:
        assert (out1 / "plans" / name).read_bytes() == (out2 / "plans" / name).read_bytes()
        compared += 1
    print(
        f"\nACCEPTANCE 10 PASS: scenario rerun byte-identical across "
        f"{compared} deterministic artifacts (timings excluded by design)"
    )
