"""Smoke test of the benchmark: every workload at minimal size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def fingerprint(lines):
    return next(ln.split()[2] for ln in lines if ln.startswith("# fingerprint "))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    fingerprints = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m for m in SPEC[kind]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            n: m["unit"] for n, m in expected.items()
        }
        for name, m in expected.items():
            assert isinstance(result["metrics"][name]["value"], (int, float))
            assert any(
                ln.split()[0] == name and ln.split()[-2:] == [m["unit"], m["better"]]
                for ln in lines
            ), name
        assert any(ln.startswith(f"attempted {result['attempted']} failed 0 ") for ln in lines)
        fingerprints.append(fingerprint(lines))
    assert fingerprints[0] == fingerprints[1]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("finder_ef", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
