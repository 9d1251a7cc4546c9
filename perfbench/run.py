"""lwacomm benchmark: one workload, one seed, one process, one core.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
./src and nowhere else. Each op starts after the previous one returns (a
closed loop with one caller) and is checked after its clock stops.

--trace 0 measures the end-to-end metrics, with every timing scaled to a
nominal host speed gauged by a reference task timed between ops
(reference.py). --trace 1 runs every op twice,
untraced and traced in alternating order, and reports the per-layer
metrics plus the tracing overhead. --smoke runs one set-up and two ops. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

# BLAS is pinned to one thread before numpy loads: op times spread far
# less across runs, and one thread is the plain single-core baseline.
from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"  # op outputs, deleted after each check
TRACES = ROOT / ".perfbench_out"  # span files written by traced runs

SETUP_REPS = 5
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples beyond it
SMOKE_OPS = 2

# (metric, unit): the end-to-end metrics of the JSON result, which
# BENCHMARK.json bounds. Two more are printed only: op_tail_s, because on
# the default scenario the op with 10 slower ones lands on the edge of the
# i_max-capped cluster of draws and its value flips from seed to seed by
# ~30%; and error_rate, because it reads 0 (failed/attempted carry it).
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mean_lwa_rate_bits", "bits/use"),
]


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


@dataclass
class Op:
    """One executed op: its wall time and what the checker found."""

    seconds: float
    problems: list
    lwa_rate_bits: float
    summary: dict | None = None
    check_s: float = 0.0


def execute(workload, inp, out_dir: Path, tracer=None) -> Op:
    """Run one op (traced if a tracer is given), stop the clock, then check its outputs."""
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        raw = workload.run(inp, out_dir)
    except Exception as exc:  # a failed op is counted, not fatal
        seconds = time.perf_counter() - t0
        return Op(seconds, [f"{type(exc).__name__}: {exc}"], math.nan)
    finally:
        if tracer is not None:
            tracer.end_op()
    t1 = time.perf_counter()
    try:
        outcome = workload.inspect(inp, raw, out_dir)
        problems, rate, summary = outcome.problems, outcome.lwa_rate_bits, outcome.summary
    except Exception as exc:
        problems, rate, summary = [f"check raised {type(exc).__name__}: {exc}"], math.nan, None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Op(t1 - t0, problems, rate, summary, check_s=time.perf_counter() - t1)


def tail(times: list) -> tuple:
    """(value, percentile label) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max, only {n} samples"
    return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.2f}"


def report(name, value, unit, note) -> None:
    print(f"  {name:<44} {value:>14.6g} {unit:<12} ({note})")


def fail_lines(ops: list) -> None:
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"op {i} failed: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one set-up and two ops")
    args = parser.parse_args(argv)

    if not (SRC / "lwacomm" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/lwacomm", file=sys.stderr)
        return 2

    import numpy  # noqa: F401  the harness's own dependency, loaded before the clock starts

    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import lwacomm

    import_s = time.perf_counter() - t_import
    if Path(lwacomm.__file__).resolve().parent != (SRC / "lwacomm").resolve():
        print(f"perfbench: lwacomm imported from {lwacomm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from checks import compare_golden
    from reference import HostSpeed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())[workload.name]
    env = environment(args.seed)
    SCRATCH.mkdir(exist_ok=True)
    out_dir = SCRATCH / f"{workload.name}-{os.getpid()}"
    if hasattr(workload, "prepare"):
        workload.prepare()
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    try:
        # set-up: input generation plus one warm-up op on the golden input,
        # repeated; the import is paid once and added to the median
        host = HostSpeed()
        setups, golden_problems = [], []
        for _ in range(1 if args.smoke else SETUP_REPS):
            t0 = time.perf_counter()
            inputs = workload.inputs(args.seed)
            warm = execute(workload, workload.golden_input, out_dir)
            setups.append(time.perf_counter() - t0 - warm.check_s)
            host.keep_up(math.fsum(setups))
            golden_problems += warm.problems
            if warm.summary is not None:
                golden_problems += compare_golden(warm.summary, golden)
        setup_s = import_s + statistics.median(setups)
        print(f"set-up: import {import_s:.4f} s + median of " + ", ".join(f"{t:.4f}" for t in setups) + " s")
        for problem in golden_problems:
            print(f"golden check failed: {problem}", file=sys.stderr)

        max_ops = SMOKE_OPS if args.smoke else math.inf
        deadline = math.inf if args.smoke else time.perf_counter() + args.seconds
        if args.trace:
            result = traced_run(workload, inputs, out_dir, deadline, max_ops, env, args.seed)
        else:
            result = untraced_run(
                workload, inputs, out_dir, deadline, max_ops, setup_s, len(setups), host
            )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    ops, metrics = result
    failed = sum(1 for op in ops if op.problems)
    fail_lines(ops)
    print(f"  golden reference: {'ok' if not golden_problems else 'MISMATCH'}")
    print(json.dumps({
        "correct": failed == 0 and not golden_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def untraced_run(workload, inputs, out_dir, deadline, max_ops, setup_s, setup_reps, host):
    ops, measured = [], setup_s
    for inp in inputs:
        ops.append(execute(workload, inp, out_dir))
        measured += ops[-1].seconds
        host.keep_up(measured)
        if len(ops) >= max_ops or time.perf_counter() >= deadline:
            break
    scale = host.scale()
    raw_times = [op.seconds for op in ops]
    times = [t * scale for t in raw_times]
    n = len(ops)
    failed = sum(1 for op in ops if op.problems)
    rates = [op.lwa_rate_bits for op in ops if not op.problems]
    tail_s, tail_label = tail(times)
    values = {
        "setup_s": (setup_s * scale, f"median, n={setup_reps} set-ups"),
        "ops_per_s": (n / math.fsum(times), f"n={n} ops"),
        "op_p50_s": (statistics.median(times), f"n={n} ops"),
        "op_tail_s": (tail_s, f"{tail_label}, n={n} ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n=1 process"),
        "mean_lwa_rate_bits": (
            math.fsum(rates) / len(rates) if rates else math.nan, f"n={len(rates)} ops"
        ),
    }
    print(
        f"host speed: reference task median {statistics.median(host.samples) * 1e3:.3f} ms "
        f"over n={len(host.samples)}, timings scaled by {scale:.4f} "
        f"(raw: set-up {setup_s:.4f} s, op p50 {statistics.median(raw_times):.4f} s, "
        f"{n / math.fsum(raw_times):.4f} op/s)"
    )
    print("end-to-end (timings at the nominal host speed):")
    for name, unit in END_TO_END + [("op_tail_s", "s")]:
        report(name, values[name][0], unit, values[name][1])
    report("error_rate", failed / n, "fraction", f"{failed}/{n} ops failed")
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    return ops, metrics


def traced_run(workload, inputs, out_dir, deadline, max_ops, env, seed):
    from tracing import PER_LAYER, Tracer

    tracer = Tracer()
    for binding in tracer.missing:
        print(f"trace: {binding} not found, its layer is not traced")
    ops, untraced_s, traced_s = [], 0.0, 0.0
    for i, inp in enumerate(inputs):
        # alternate which of the pair runs first, so warm caches favour neither
        if i % 2:
            traced = execute(workload, inp, out_dir, tracer)
            plain = execute(workload, inp, out_dir)
        else:
            plain = execute(workload, inp, out_dir)
            traced = execute(workload, inp, out_dir, tracer)
        ops += [plain, traced]
        untraced_s += plain.seconds
        traced_s += traced.seconds
        if i + 1 >= max_ops or time.perf_counter() >= deadline:
            break
    n = len(ops) // 2
    calls, self_s, op_total = tracer.self_times()
    values = tracer.metrics(n, traced_s / untraced_s, calls, self_s)

    print(f"self-time share of {op_total:.3f} s traced over {n} ops:")
    for name, seconds in self_s.most_common():
        print(f"  {name:<44} {100.0 * seconds / op_total:6.2f} %  ({calls[name]} calls)")
    print("per-layer:")
    for name, unit, _ in PER_LAYER:
        report(name, values[name], unit, f"n={n} traced ops")

    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(path, env)
    print(f"spans written to {path.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return ops, metrics


if __name__ == "__main__":
    sys.exit(main())
