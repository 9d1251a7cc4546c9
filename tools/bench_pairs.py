"""Paired benchmark runs of a parent commit against a change.

    python3 tools/bench_pairs.py --pr N [--parent REV] [--change REV]
        [--pairs 10] [--seconds S] [--workload NAME ...] [--first-seed 1]
        [--workdir DIR]

Exports both revisions with `git archive` into a temporary directory and
runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
from each export, so each side measures its own committed files with its
own benchmark code, with PYTHONDONTWRITEBYTECODE=1. Pair i uses seed
first_seed + i on both sides, and the side that runs first alternates from
pair to pair. Workloads and the run length default to those of
BENCHMARK.json.

Writes BENCH_<N>.json at the repository root after every pair: both SHAs,
each side's src/ line count (the lines of src/**/*.py in its export), every
run's metrics, each side's median and quartiles per metric and workload,
and how many pairs each side won. A pair is won by the side whose
value is better in the direction BENCHMARK.json gives; ties count for
neither. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Set in every run's environment. With bytecode writing on, a side's first run
# would compile src/ into a cache that its later runs import without
# compiling; off, every run's import pays the compile, as setup_s counts it.
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the committed tree of `sha` into dest with git archive."""
    archive = dest.with_suffix(".zip")
    git("archive", "--format=zip", f"--output={archive}", sha)
    with zipfile.ZipFile(archive) as zf:
        zf.extractall(dest)
    archive.unlink()


def src_lines(checkout: Path) -> int:
    """The number of lines of the src/**/*.py files under checkout."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (checkout / "src").rglob("*.py")
    )


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `run.py --trace 0` run; returns its final JSON line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=checkout, env={**os.environ, **RUN_ENV}, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        # run.py exits 0 even when an op check or the golden comparison fails
        raise RuntimeError(
            f"{' '.join(cmd)} in {checkout}: {result['failed']} of {result['attempted']} "
            f"ops failed or the golden check failed:\n{proc.stderr}"
        )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: each side's median and quartiles, and the pair wins."""
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
        if len(runs) >= 2:
            entry.update({side: spread(values[side]) for side in SIDES})
            parent, change = entry["parent"], entry["change"]
            # relative change of the median, positive when the change is better
            entry["median_gain"] = sign * (change["median"] - parent["median"]) / parent["median"]
            entry["median_gap_exceeds_parent_iqr"] = (
                sign * (change["median"] - parent["median"]) > parent["iqr"]
            )
        entry["change_wins"] = sum(d > 0 for d in diffs)
        entry["parent_wins"] = sum(d < 0 for d in diffs)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--parent", help="default: the change's first parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="repeatable; default: BENCHMARK.json's")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workdir", help="where the temporary exports go (created if missing)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    shas = {"change": git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    shas["parent"] = git("rev-parse", "--verify", f"{args.parent or shas['change'] + '^'}^{{commit}}")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out_path = ROOT / f"BENCH_{args.pr}.json"
    record = {
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": args.seconds,
        "pairs": args.pairs,
        "first_seed": args.first_seed,
        "host": {
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "env": RUN_ENV,
        },
        "workloads": {w: {"runs": []} for w in workloads},
    }

    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=args.workdir) as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(shas[side], checkouts[side])
        record["src_lines"] = {side: src_lines(checkouts[side]) for side in SIDES}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                run = {"pair": pair, "seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(checkouts[side], workload, seed, args.seconds)
                    print(
                        f"pair {pair} {workload} {side}: "
                        + json.dumps(run[side]["metrics"]), file=sys.stderr, flush=True,
                    )
                entry = record["workloads"][workload]
                entry["runs"].append(run)
                entry["ops"] = {
                    side: {key: sum(r[side][key] for r in entry["runs"]) for key in ("attempted", "failed")}
                    for side in SIDES
                }
                entry["summary"] = summarize(entry["runs"], spec["end_to_end"])
            out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
