import dataclasses

import numpy as np
import pytest

from vrpdr import bench
from vrpdr.core import InstanceError, ModelOptions, instance_to_json


def test_generate_instance_bounds_and_size(fleet):
    inst = bench.generate_instance(50, seed=3, fleet=fleet)
    assert inst.num_customers == 50
    for node in inst.nodes:
        assert 0.0 <= node.x <= 15.0
        assert 0.0 <= node.y <= 15.0
    for c in inst.customers:
        assert 0.5 <= c.weight <= 10.0
        assert c.truck_reachable
    empty = bench.generate_instance(0, seed=1, fleet=fleet)
    assert empty.num_customers == 0


def test_generate_instance_rejects_bad_arguments(fleet):
    for size, frac in ((-1, 0.0), (5, 1.5), (5, -0.5), (5, float("nan"))):
        with pytest.raises(InstanceError):
            bench.generate_instance(size, seed=0, fleet=fleet, unreachable_frac=frac)
    with pytest.raises(InstanceError):
        bench.generate_instance(5, seed=-1, fleet=fleet)
    every = bench.generate_instance(5, seed=0, fleet=fleet, unreachable_frac=1.0)
    assert not any(c.truck_reachable for c in every.customers)


def test_generate_instance_deterministic(fleet):
    a = bench.generate_instance(20, seed=9, fleet=fleet)
    b = bench.generate_instance(20, seed=9, fleet=fleet)
    assert instance_to_json(a) == instance_to_json(b)
    c = bench.generate_instance(20, seed=10, fleet=fleet)
    assert instance_to_json(a) != instance_to_json(c)


def test_generate_instance_mean_weight(fleet):
    total = 0.0
    n = 0
    for seed in range(10):
        inst = bench.generate_instance(1000, seed=seed, fleet=fleet)
        total += sum(c.weight for c in inst.customers)
        n += inst.num_customers
    assert n == 10_000
    assert abs(total / n - 5.25) <= 0.1


def test_generate_unreachable_fraction(fleet):
    inst = bench.generate_instance(40, seed=2, fleet=fleet, unreachable_frac=0.25)
    masked = sum(1 for c in inst.customers if not c.truck_reachable)
    assert masked == 10


def test_gap_examples():
    assert bench.gap(79.31, 88.34) == pytest.approx(11.3858, abs=1e-3)
    assert round(bench.gap(79.31, 88.34), 1) == 11.4  # table rounding is 11.3 vs 11.4
    assert abs(bench.gap(79.31, 88.34) - 11.3) < 0.1
    assert bench.gap(5.0, 5.0) == 0.0
    assert bench.gap(274.85, 288.17) == pytest.approx(4.85, abs=5e-3)
    with pytest.raises(ValueError):
        bench.gap(0.0, 1.0)
    with pytest.raises(ValueError):
        bench.gap(-2.0, 1.0)


def test_mode_fleet(fleet):
    assert bench.mode_fleet(fleet, "to").num_drones == 0
    assert bench.mode_fleet(fleet, "to").num_robots == 0
    assert bench.mode_fleet(fleet, "td").num_robots == 0
    assert bench.mode_fleet(fleet, "tr").num_drones == 0
    assert bench.mode_fleet(fleet, "ef") == fleet
    with pytest.raises(ValueError):
        bench.mode_fleet(fleet, "xx")


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        bench.ScenarioSpec(name="x", sizes=())
    with pytest.raises(ValueError):
        bench.ScenarioSpec(name="x", sizes=(5,), repetitions=0)
    assert bench.ScenarioSpec(name="x", sizes=(5,)).options == ModelOptions()
    # each toggle family runs every feature on, then turns exactly its own one off
    turned_off = {
        "visits": {"single_visit": True},
        "trips": {"single_trip": True},
        "charging": {"charging": False},
        "docking": {"flexible_docking": False},
    }
    for name, change in turned_off.items():
        on, off = bench.scenario_suite(name, (5,))
        assert on.options == ModelOptions()
        assert off.options == dataclasses.replace(ModelOptions(), **change)


def test_run_scenario_rows_and_summary(fleet):
    spec = bench.ScenarioSpec(name="tiny", sizes=(6, 8), repetitions=3, seed_base=5)
    result = bench.run_scenario(spec, fleet)
    rows = result["rows"]
    assert len(rows) == 6
    assert all(r["feasible"] for r in rows)
    # same seed for the same (size, rep) row index
    assert [r["seed"] for r in rows] == [5, 6, 7, 8, 9, 10]
    summary = bench.summarize(rows)
    assert len(summary) == 2
    for entry in summary:
        bucket = [r for r in rows if r["size"] == entry["size"]]
        values = [r["weighted_objective"] for r in bucket]
        mean = sum(values) / len(values)
        std = np.std(values, ddof=1)
        assert entry["mean_weighted_objective"] == pytest.approx(mean)
        assert entry["std_weighted_objective"] == pytest.approx(std)


def test_run_suite_outputs(tmp_path, fleet):
    out = tmp_path / "suite"
    result = bench.run_suite("charging", [6], 2, 11, str(out))
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "timings.csv").exists()
    assert (out / "plots" / "objective_vs_size.csv").exists()
    assert (out / "plots" / "cost_vs_size.csv").exists()
    assert (out / "plots" / "time_vs_size.csv").exists()
    plans = list((out / "plans").glob("*.json"))
    assert len(plans) == len(result["rows"])
    # one variant per charging setting, sharing seeds
    variants = {r["scenario"] for r in result["rows"]}
    assert variants == {"charging_enroute", "charging_none"}
    seeds = {r["scenario"]: [x["seed"] for x in result["rows"] if x["scenario"] == r["scenario"]] for r in result["rows"]}
    a, b = sorted(seeds)
    assert seeds[a] == seeds[b]


def test_rerun_byte_identical(tmp_path, fleet):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    bench.run_suite("visits", [6], 2, 3, str(out1), save_plans=True)
    bench.run_suite("visits", [6], 2, 3, str(out2), save_plans=True)
    for name in ("results.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for plot in ("objective_vs_size.csv", "cost_vs_size.csv", "makespan_vs_size.csv"):
        assert (out1 / "plots" / plot).read_bytes() == (out2 / "plots" / plot).read_bytes()
    plans1 = sorted(p.name for p in (out1 / "plans").glob("*.json"))
    plans2 = sorted(p.name for p in (out2 / "plans").glob("*.json"))
    assert plans1 == plans2
    for name in plans1:
        assert (out1 / "plans" / name).read_bytes() == (out2 / "plans" / name).read_bytes()


def test_sweep_emits_one_series_per_point(tmp_path, fleet):
    spec = bench.ScenarioSpec(
        name="sweep_drones",
        sizes=(8,),
        repetitions=2,
        sweeps={"num_drones": [0, 1, 2]},
        seed_base=1,
    )
    result = bench.run_scenario(spec, fleet)
    variants = sorted({r["variant"] for r in result["rows"]})
    assert variants == ["num_drones=0", "num_drones=1", "num_drones=2"]
    rows = result["rows"]
    assert len(rows) == 6


def test_emit_plot_data_empty_results(tmp_path):
    written = bench.emit_plot_data([], str(tmp_path))
    for path in written:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1  # header only


def test_drone_count_sweep_trend(fleet):
    """Mean makespan falls as drones are added, with diminishing returns."""
    from dataclasses import replace

    from vrpdr import finder

    means = []
    for nd in range(0, 9):
        run_fleet = replace(fleet, num_drones=nd)
        spans = []
        for rep in range(10):
            inst = bench.generate_instance(60, seed=7000 + rep, fleet=run_fleet)
            spans.append(finder.solve_finder(inst, run_fleet).objective_breakdown.makespan)
        means.append(sum(spans) / len(spans))
    assert means[8] < means[0]
    assert means[1] < means[0]  # the first drone gives the largest single step
    for a, b in zip(means[:-1], means[1:]):
        assert b <= a + 1e-9


def test_runtime_mean_nondecreasing_in_size(fleet):
    import time as time_mod

    from vrpdr import finder

    means = []
    for size in (10, 40, 100):
        total = 0.0
        for rep in range(25):
            inst = bench.generate_instance(size, seed=600 + rep, fleet=fleet)
            t0 = time_mod.perf_counter()
            finder.solve_finder(inst, fleet)
            total += time_mod.perf_counter() - t0
        means.append(total / 25)
    assert means[0] <= means[1] <= means[2], means


def test_docking_suite_uses_two_trucks(tmp_path, fleet):
    out = tmp_path / "dock"
    result = bench.run_suite("docking", [10], 2, 21, str(out), save_plans=False)
    assert {r["scenario"] for r in result["rows"]} == {"docking_flexible", "docking_fixed"}
    assert all(r["feasible"] for r in result["rows"])


def test_modes_scenario_series_count(tmp_path, fleet):
    specs = bench.scenario_suite("modes", (6,), 2, 7)
    assert [s.mode for s in specs] == ["to", "td", "tr", "ef"]
    rows = []
    for spec in specs:
        rows.extend(bench.run_scenario(spec, fleet)["rows"])
    assert {r["scenario"] for r in rows} == {"modes_to", "modes_td", "modes_tr", "modes_ef"}
