"""Minor page faults and median time per op of each benchmark workload.

    python3 tools/faults.py [--ops 300] [--workload NAME ...]

For each workload (default: those of BENCHMARK.json) a fresh interpreter
imports the package from ./src, runs the workload's op from
perfbench/workloads.py once on its golden input as a warm-up, then `--ops`
ops on the inputs drawn from seed 1, one after another, each into an
output directory that is deleted after it. Around every op it reads
getrusage(RUSAGE_SELF).ru_minflt and the clock; outputs are not checked.
Prints one line per workload: minor faults per op (their mean), the op's
median time and the op count. BLAS is pinned to one thread, as the
benchmark pins it. Fault counts depend on the process's allocation history,
so compare counts only between runs of the same op sequence. Standard
library only (the child process imports numpy through the package).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEED = 1  # every run measures the same op sequence


def measure(workload_name: str, ops: int) -> dict:
    """Run in the fresh process: the warm-up, then `ops` measured ops."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    faults, times = 0, []
    with tempfile.TemporaryDirectory(prefix="faults_") as tmp:
        out_dir = Path(tmp) / "op"
        workload.run(workload.golden_input, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        for inp in itertools.islice(workload.inputs(SEED), ops):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            workload.run(inp, out_dir)
            times.append(time.perf_counter() - t0)
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            shutil.rmtree(out_dir, ignore_errors=True)
    return {"workload": workload_name, "ops": ops,
            "faults_per_op": faults / ops, "op_p50_s": statistics.median(times)}


def run_fresh(workload_name: str, ops: int) -> dict:
    """measure() in a new interpreter; returns its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload_name,
           "--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: BENCHMARK.json's")
    parser.add_argument("--child", choices=names, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be >= 1")
    if args.child:
        print(json.dumps(measure(args.child, args.ops)))
        return 0
    print(f"{'workload':<20} {'faults/op':>10} {'p50 ms':>9} {'ops':>5}")
    for name in args.workload or names:
        result = run_fresh(name, args.ops)
        print(f"{name:<20} {result['faults_per_op']:>10.1f} "
              f"{result['op_p50_s'] * 1e3:>9.3f} {result['ops']:>5}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
