"""Tests of the benchmark itself: smoke runs of every workload, and the checker
rejecting corrupted results.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import (  # noqa: E402
    MEMORY_RTOL,
    Allocation,
    check_allocation,
    check_beampattern_csv,
    compare_golden,
)
from workloads import WIDE_BAND, WORKLOADS, OptimizeDefault  # noqa: E402

from lwacomm.experiments import ScenarioConfig, optimize_scenario, sample_users  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The layer each workload exists to stress must hold the largest self time.
DOMINANT = {
    "optimize-default": {"optimizer.geometry_step", "channel.build", "physics.gain_grid"},
    "sweep-snr": {"optimizer.geometry_step", "channel.build", "physics.gain_grid"},
    "wide-band": {"mimo.build", "mimo.normalize", "mimo.rate"},
    "beampattern-fine": {"channel.export"},
}
DRAW_REUSE = {"optimize-default": 1.0, "sweep-snr": 9.0, "wide-band": 1.0, "beampattern-fine": 1.0}


def smoke(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def assert_reported(stdout: str, name: str, unit: str) -> None:
    line = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+\(.*n=\d+"
    assert re.search(line, stdout, re.M), f"{name} [{unit}] not printed"


def test_benchmark_json_matches_the_workloads():
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    stdout, result = smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert_reported(stdout, name, unit)
        assert result["metrics"][name]["value"] > 0
    assert_reported(stdout, "op_tail_s", "s")
    assert re.search(r"^\s+error_rate\s+0\s+fraction\s+\(0/2 ops failed\)", stdout, re.M)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced(workload):
    stdout, result = smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert_reported(stdout, name, unit)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["experiments.draw_reuse"] == DRAW_REUSE[workload]

    self_s = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    dominant = sum(self_s[span] for span in DOMINANT[workload])
    assert all(dominant > v for span, v in self_s.items() if span not in DOMINANT[workload])


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wide-band", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def small_result():
    config = ScenarioConfig(num_subbands=8, b_grid_points=3, slit_grid_points=3, seed=42)
    users = sample_users(config, 0)
    return config, users, optimize_scenario(config, users)


def test_checker_accepts_a_real_result(small_result):
    config, users, result = small_result
    alloc = Allocation.from_result(result)
    assert check_allocation(alloc, config, users, config.power_budget, MEMORY_RTOL) == []


def test_checker_rejects_scaled_powers(small_result):
    config, users, result = small_result
    alloc = Allocation.from_result(result)
    alloc.powers = alloc.powers * 1.01
    problems = check_allocation(alloc, config, users, config.power_budget, MEMORY_RTOL)
    assert any("budget" in p for p in problems)
    assert any("recomputed" in p for p in problems)


def test_checker_rejects_swapped_geometry(small_result):
    config, users, result = small_result
    alloc = Allocation.from_result(result)
    alloc.b_m, alloc.L_m = alloc.L_m, alloc.b_m
    problems = check_allocation(alloc, config, users, config.power_budget, MEMORY_RTOL)
    assert any("chosen b=" in p for p in problems)
    assert any("chosen L=" in p for p in problems)


def test_checker_rejects_a_decreasing_trace(small_result):
    config, users, result = small_result
    alloc = Allocation.from_result(result)
    b, L, rate = alloc.trace[-1]
    alloc.trace = alloc.trace + [(b, L, rate * 0.5)]
    problems = check_allocation(alloc, config, users, config.power_budget, MEMORY_RTOL)
    assert any("decrease" in p for p in problems)


def test_cli_workload_rejects_corrupted_report(tmp_path):
    workload = OptimizeDefault()
    assert workload.run(0, tmp_path) == 0
    assert workload.inspect(0, 0, tmp_path).problems == []
    report = tmp_path / "allocation.txt"
    lines = report.read_text().splitlines()
    lines = [
        "powers: " + " ".join(f"{1.01 * float(p):.9g}" for p in line.split()[1:])
        if line.startswith("powers:") else line
        for line in lines
    ]
    report.write_text("\n".join(lines) + "\n")
    assert workload.inspect(0, 0, tmp_path).problems
    assert workload.inspect(0, 3, tmp_path).problems == ["CLI exited 3"]


def test_beampattern_csv_check(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("angle_deg,range_m,log_energy\n1,5,-2.5\n1,5.1,-2.75\n")
    assert check_beampattern_csv(path, 2, (1,)) == ([], [-2.75])
    problems, _ = check_beampattern_csv(path, 3)
    assert problems == ["beampattern CSV has 2 rows, expected 3"]


def test_golden_comparison():
    golden = {"b_m": 0.00093, "L_m": 0.014, "iterations": 4, "lwa_rate_bits": 0.5}
    assert compare_golden(dict(golden), golden) == []
    assert compare_golden(dict(golden, lwa_rate_bits=0.5 * (1 + 1e-12)), golden) == []
    assert compare_golden(dict(golden, lwa_rate_bits=0.5 * (1 + 1e-6)), golden)
    assert compare_golden(dict(golden, b_m=np.nextafter(0.00093, 1.0)), golden)
    assert compare_golden(dict(golden, iterations=5), golden)
    assert compare_golden({"points": [golden]}, {"points": [golden, golden]})


def test_inputs_follow_the_seed():
    def take(name, seed):
        return list(itertools.islice(WORKLOADS[name].inputs(seed), 3))

    assert take("optimize-default", 7) == take("optimize-default", 7) != take("optimize-default", 8)
    assert 0 not in take("optimize-default", 7)  # 0 is the golden seed
    assert take("wide-band", 7)[0] == (replace(WIDE_BAND, seed=7), 1)
