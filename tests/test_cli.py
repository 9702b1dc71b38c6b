import json

import pytest
from click.testing import CliRunner

from vrpdr.cli import main


def test_cli_round_trip(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    plan = tmp_path / "plan.json"
    lp = tmp_path / "model.lp"

    r = runner.invoke(main, ["generate", "--size", "6", "--seed", "7", "--out", str(inst)])
    assert r.exit_code == 0, r.output
    assert inst.exists()

    r = runner.invoke(main, ["solve", "--instance", str(inst), "--out", str(plan)])
    assert r.exit_code == 0, r.output
    assert "objective" in r.output

    r = runner.invoke(main, ["validate", "--instance", str(inst), "--plan", str(plan)])
    assert r.exit_code == 0, r.output
    report = json.loads(r.output)
    assert report["feasible"] is True

    r = runner.invoke(main, ["export-lp", "--instance", str(inst), "--out", str(lp)])
    assert r.exit_code == 0, r.output
    text = lp.read_text()
    assert text.startswith("\\ vrpdr model export")
    assert "Binaries" in text

    r = runner.invoke(main, ["exact", "--instance", str(inst)])
    assert r.exit_code == 0, r.output


def test_cli_validate_rejects_bad_plan(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    plan = tmp_path / "plan.json"
    runner.invoke(main, ["generate", "--size", "4", "--seed", "1", "--out", str(inst)])
    runner.invoke(main, ["solve", "--instance", str(inst), "--out", str(plan)])
    doc = json.loads(plan.read_text())
    doc["truck_routes"][0].insert(1, doc["truck_routes"][0][1])  # duplicate visit
    plan.write_text(json.dumps(doc))
    r = runner.invoke(main, ["validate", "--instance", str(inst), "--plan", str(plan)])
    assert r.exit_code == 1


def test_cli_solve_modes_and_flags(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    runner.invoke(main, ["generate", "--size", "8", "--seed", "2", "--out", str(inst)])
    for mode in ("to", "td", "tr", "ef"):
        out = tmp_path / f"plan_{mode}.json"
        r = runner.invoke(
            main,
            ["solve", "--instance", str(inst), "--out", str(out), "--mode", mode,
             "--single-visit", "--no-charging"],
        )
        assert r.exit_code == 0, r.output
        assert out.exists()


def test_cli_bench_small(tmp_path):
    runner = CliRunner()
    out = tmp_path / "bench"
    r = runner.invoke(
        main,
        ["bench", "--scenario", "visits", "--sizes", "5", "--reps", "2",
         "--seed", "3", "--out", str(out), "--no-plans"],
    )
    assert r.exit_code == 0, r.output
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()


def test_cli_exact_infeasible_exit_code(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    runner.invoke(
        main,
        ["generate", "--size", "3", "--seed", "5", "--out", str(inst),
         "--drones", "0", "--robots", "0", "--unreachable-frac", "0.5"],
    )
    r = runner.invoke(main, ["exact", "--instance", str(inst)])
    assert r.exit_code == 2
    assert "infeasible" in r.output or "infeasible" in (r.stderr or "")


def test_cli_export_lp_over_the_sortie_budget_exit_code(tmp_path, monkeypatch):
    from vrpdr import milp

    runner = CliRunner()
    inst = tmp_path / "inst.json"
    lp = tmp_path / "model.lp"
    runner.invoke(main, ["generate", "--size", "5", "--seed", "1", "--out", str(inst)])
    monkeypatch.setattr(milp, "MAX_SORTIE_COLUMNS", 1)
    r = runner.invoke(main, ["export-lp", "--instance", str(inst), "--out", str(lp)])
    assert r.exit_code == 3, r.output
    (line,) = r.output.strip().splitlines()
    assert line.startswith("budget exceeded: ") and "exceed the budget of 1;" in line
    # no vrpdr command sets the budget, so the line does not ask for it
    assert "raise ModelOptions.max_sorties" not in line
    assert "MAX_SORTIE_COLUMNS" not in line
    assert not lp.exists()


def test_cli_bad_instance_exit_code(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    runner.invoke(main, ["generate", "--size", "4", "--seed", "1", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    doc["customers"][0]["x"] = float("nan")
    inst.write_text(json.dumps(doc))
    r = runner.invoke(main, ["solve", "--instance", str(inst), "--out", str(tmp_path / "p.json")])
    assert r.exit_code == 4
    assert "node 1 has a non-finite coordinate" in r.output + (r.stderr or "")


def test_cli_overflowing_coordinates_exit_code(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    runner.invoke(main, ["generate", "--size", "4", "--seed", "1", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    doc["depot"]["x"] = doc["depot"]["y"] = 0.0
    far = [(1.5e308, 0), (-1.5e308, 1), (1.5e308, 1), (-1.5e308, 0)]
    for c, (x, y) in zip(doc["customers"], far):
        c["x"], c["y"] = x, y
    inst.write_text(json.dumps(doc))
    r = runner.invoke(main, ["solve", "--instance", str(inst), "--out", str(tmp_path / "p.json")])
    assert r.exit_code == 4, r.output
    assert r.output.startswith("bad input: coordinates too far apart")


@pytest.mark.parametrize(
    "x, s_t, horizon",
    [(4.4e307, 45.0, "inf"), (1e307, 0.5, "1e+308")],
    ids=["infinite", "finite_but_not_doubled"],
)
def test_cli_export_lp_overflowing_horizon_exit_code(tmp_path, x, s_t, horizon):
    """Coordinates that load can still overflow the model's horizon H, which
    counts the depot's longest arc once per truck, or 2H, which the return
    rows carry."""
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    lp = tmp_path / "model.lp"
    runner.invoke(main, ["generate", "--size", "3", "--seed", "1", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    doc["depot"]["x"] = doc["depot"]["y"] = 0.0
    for c in doc["customers"]:
        c["x"], c["y"] = x, 0.0
    doc["fleet"]["num_trucks"] = 2
    doc["fleet"]["s_t"] = s_t
    inst.write_text(json.dumps(doc))
    r = runner.invoke(main, ["export-lp", "--instance", str(inst), "--out", str(lp)])
    assert r.exit_code == 4, r.output
    (line,) = r.output.strip().splitlines()
    assert line == f"bad input: model horizon {horizon} h overflows with 2 trucks"
    assert not lp.exists()


def test_cli_validate_unknown_node_exit_code(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    plan = tmp_path / "plan.json"
    runner.invoke(main, ["generate", "--size", "4", "--seed", "1", "--out", str(inst)])
    runner.invoke(main, ["solve", "--instance", str(inst), "--out", str(plan)])
    doc = json.loads(plan.read_text())
    doc["truck_routes"][0].insert(1, 99)
    plan.write_text(json.dumps(doc))
    r = runner.invoke(main, ["validate", "--instance", str(inst), "--plan", str(plan)])
    assert r.exit_code == 4
    assert "unknown node 99" in r.output + (r.stderr or "")


def test_cli_missing_field_exit_code(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    runner.invoke(main, ["generate", "--size", "4", "--seed", "1", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    del doc["customers"][0]["weight"]
    inst.write_text(json.dumps(doc))
    r = runner.invoke(main, ["solve", "--instance", str(inst), "--out", str(tmp_path / "p.json")])
    assert r.exit_code == 4
    assert r.output.strip().splitlines() == ["bad input: missing field customers[0].weight"]


def test_cli_validate_impossible_number_exit_code(tmp_path):
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    plan = tmp_path / "plan.json"
    runner.invoke(main, ["generate", "--size", "8", "--seed", "33", "--out", str(inst)])
    runner.invoke(main, ["solve", "--instance", str(inst), "--out", str(plan)])
    text = plan.read_text()
    assert json.loads(text)["sorties"] and json.loads(text)["charging_events"]
    r = runner.invoke(main, ["validate", "--instance", str(inst), "--plan", str(plan)])
    assert r.exit_code == 0, r.output
    # the stored objective and ledgers are checked too; a draw is negative
    drawn = next(k for k, l in enumerate(json.loads(text)["ledgers"]) if l["entries"])
    nan = float("nan")
    edits = (
        (("sorties", 0, "launch_time"), nan),
        (("truck_arrivals", 0, "0"), nan),
        (("charging_events", 0, "amount"), nan),
        (("charging_events", 0, "amount"), -50.0),
        (("objective_breakdown", "weighted_objective"), nan),
        (("objective_breakdown", "makespan"), -3.0),
        (("ledgers", 0, "capacity"), float("inf")),
        (("ledgers", drawn, "entries", 0, "time"), -1.0),
        (("ledgers", drawn, "entries", 0, "delta"), nan),
    )
    for path, value in edits:
        doc = json.loads(text)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        plan.write_text(json.dumps(doc))
        r = runner.invoke(main, ["validate", "--instance", str(inst), "--plan", str(plan)])
        assert r.exit_code == 4, (path, value, r.output)
        assert r.output.startswith("bad input:")


def test_cli_toggle_flags_reach_the_model(tmp_path):
    from vrpdr import milp
    from vrpdr.core import ModelOptions, instance_from_json

    runner = CliRunner()
    inst = tmp_path / "inst.json"
    runner.invoke(main, ["generate", "--size", "4", "--seed", "3", "--out", str(inst),
                         "--trucks", "2"])
    instance = instance_from_json(inst.read_text())
    cases = {
        (): ModelOptions(),
        ("--no-charging", "--single-trip"): ModelOptions(charging=False, single_trip=True),
        ("--single-visit", "--fixed-docking"): ModelOptions(
            single_visit=True, flexible_docking=False
        ),
    }
    for flags, options in cases.items():
        lp = tmp_path / "model.lp"
        r = runner.invoke(main, ["export-lp", "--instance", str(inst), "--out", str(lp), *flags])
        assert r.exit_code == 0, r.output
        expected = milp.export_lp(milp.build_model(instance, instance.fleet, options))
        assert lp.read_text() == expected, flags


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--size", "-1"],
        ["generate", "--size", "5", "--unreachable-frac", "1.5"],
        ["generate", "--size", "5", "--unreachable-frac", "-0.5"],
        ["generate", "--size", "5", "--trucks", "-1"],
        ["generate", "--size", "5", "--seed", "-1"],
        ["bench", "--scenario", "modes", "--sizes", "abc"],
        ["bench", "--scenario", "modes", "--sizes", "10:5:0"],
        ["bench", "--scenario", "modes", "--sizes", "10:5:1"],
        ["bench", "--scenario", "modes", "--sizes", "1:2"],
        ["bench", "--scenario", "modes", "--sizes", "-3"],
        ["bench", "--scenario", "modes", "--sizes", "5", "--reps", "0"],
        ["bench", "--scenario", "modes", "--sizes", "5", "--seed", "-1"],
    ],
    ids=lambda args: " ".join(args),
)
def test_cli_bad_arguments_exit_code(tmp_path, args):
    """Malformed command-line values end in one ``bad input:`` line, exit 4."""
    out = tmp_path / "out"
    r = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert r.exit_code == 4, r.output
    assert len(r.output.strip().splitlines()) == 1
    assert r.output.startswith("bad input:")
    assert not out.exists()


def test_cli_unusable_fleet_exit_code(tmp_path):
    """A zero-truck or two-truck fleet the command cannot serve is bad input."""
    runner = CliRunner()
    paths = {}
    for trucks in (0, 2):
        paths[trucks] = tmp_path / f"inst{trucks}.json"
        r = runner.invoke(
            main, ["generate", "--size", "4", "--trucks", str(trucks), "--out", str(paths[trucks])]
        )
        assert r.exit_code == 0, r.output
    cases = [
        ["solve", "--instance", str(paths[0]), "--out", str(tmp_path / "plan.json")],
        ["export-lp", "--instance", str(paths[0]), "--out", str(tmp_path / "model.lp")],
        ["exact", "--instance", str(paths[0])],
        ["exact", "--instance", str(paths[2])],
        ["exact", "--instance", str(paths[2]), "--budget-customers", "0"],
    ]
    for args in cases:
        r = runner.invoke(main, args)
        assert r.exit_code == 4, (args, r.output)
        assert r.output.strip().splitlines() == [r.output.strip()], args
        assert r.output.startswith("bad input:"), args


def test_cli_export_lp_infeasible_exit_code(tmp_path):
    """A customer that no truck reaches and no listed sortie covers: the
    model cannot be built, and export-lp exits 2 as exact does."""
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    lp = tmp_path / "model.lp"
    r = runner.invoke(
        main,
        ["generate", "--size", "5", "--seed", "0", "--unreachable-frac", "0.3", "--out", str(inst)],
    )
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["export-lp", "--instance", str(inst), "--out", str(lp)])
    assert r.exit_code == 2, r.output
    assert r.output.startswith("infeasible: constraint visit_exactly_once_1 has no columns")
    assert r.output.strip().endswith("(ids [1])")
    assert not lp.exists()
    r = runner.invoke(main, ["exact", "--instance", str(inst)])
    assert r.exit_code == 2, r.output


def test_cli_instance_naming_big_m_exit_code(tmp_path):
    """The model takes its time constant from the instance, so a fleet has
    no ``big_M``: a file that still names it is bad input, exit 4."""
    runner = CliRunner()
    inst = tmp_path / "inst.json"
    runner.invoke(main, ["generate", "--size", "4", "--seed", "1", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    assert "big_M" not in doc["fleet"]
    doc["fleet"]["big_M"] = 1e5
    inst.write_text(json.dumps(doc))
    for args in (["solve", "--instance", str(inst), "--out", str(tmp_path / "p.json")],
                 ["export-lp", "--instance", str(inst), "--out", str(tmp_path / "m.lp")]):
        r = runner.invoke(main, args)
        assert r.exit_code == 4, (args, r.output)
        assert r.output.strip().splitlines() == ["bad input: unknown field(s) ['big_M'] in fleet"]
