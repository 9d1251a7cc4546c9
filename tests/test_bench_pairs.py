import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25}


def summarize(metric, parent, change):
    runs = [
        {"parent": {"metrics": {metric["name"]: p}}, "change": {"metrics": {metric["name"]: c}}}
        for p, c in zip(parent, change)
    ]
    return bench_pairs.summarize(runs, [metric])[metric["name"]]


@pytest.mark.parametrize("metric", [HIGHER, LOWER], ids=["higher", "lower"])
def test_ties_count_for_neither_side(metric):
    entry = summarize(metric, [1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 3.0, 3.5])
    assert entry["change_wins"] + entry["parent_wins"] == 2
    assert entry["change_wins"] == entry["parent_wins"] == 1


@pytest.mark.parametrize(
    "metric, change_wins, gain", [(HIGHER, 3, 0.5), (LOWER, 0, -0.5)], ids=["higher", "lower"]
)
def test_direction_follows_better(metric, change_wins, gain):
    # every change value is the parent's plus 1
    entry = summarize(metric, [1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert entry["change_wins"] == change_wins
    assert entry["parent_wins"] == 3 - change_wins
    assert entry["median_gain"] == pytest.approx(gain)
    assert entry["parent"]["median"] == 2.0 and entry["change"]["median"] == 3.0


@pytest.mark.parametrize(
    "metric, shift, exceeds",
    [
        (HIGHER, 2.5, True),
        (HIGHER, 1.5, False),
        (HIGHER, -2.5, False),
        (LOWER, -2.5, True),
        (LOWER, -1.5, False),
        (LOWER, 2.5, False),
    ],
)
def test_median_gap_exceeds_parent_iqr(metric, shift, exceeds):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # inclusive quartiles 2 and 4: IQR 2
    entry = summarize(metric, parent, [p + shift for p in parent])
    assert entry["parent"]["iqr"] == 2.0
    assert entry["median_gap_exceeds_parent_iqr"] is exceeds


def test_src_lines_counts_python_files_under_src_only(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3")  # no final newline
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "c.py").write_text("w = 4\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def stub_run(monkeypatch, correct):
    line = {"correct": correct, "attempted": 5, "failed": 0 if correct else 2,
            "metrics": {"ops_per_s": {"value": 3.0}}}

    def run(cmd, **kwargs):
        assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        stdout = "ops: 5\n" + json.dumps(line) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="check failed: op 3\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)


def test_run_once_reads_a_correct_run(monkeypatch, tmp_path):
    stub_run(monkeypatch, correct=True)
    run = bench_pairs.run_once(tmp_path, "optimize-default", 1, 1.0)
    assert run == {"correct": True, "attempted": 5, "failed": 0, "metrics": {"ops_per_s": 3.0}}


def test_run_once_rejects_an_incorrect_run(monkeypatch, tmp_path):
    # run.py exits 0 when checks fail; its JSON line says "correct": false
    stub_run(monkeypatch, correct=False)
    with pytest.raises(RuntimeError, match="2 of 5 ops failed"):
        bench_pairs.run_once(tmp_path, "optimize-default", 1, 1.0)


def test_main_creates_a_missing_workdir(monkeypatch, tmp_path):
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [HIGHER]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda sha, dest: (dest / "src").mkdir(parents=True))
    run = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"ops_per_s": 3.0}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: run)
    workdir = tmp_path / "not" / "yet"
    assert bench_pairs.main(["--pr", "7", "--pairs", "1", "--workdir", str(workdir)]) == 0
    assert workdir.is_dir() and not any(workdir.iterdir())
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["workloads"]["w"]["runs"][0]["change"] == run
