"""The benchmark's workloads.

Each workload makes its op inputs from the run's seed, runs one op through
the package's public functions (looked up on their modules at call time, so
the traced run's rebinding sees them), and checks the op's outputs after the
clock stops. The golden input is the default seed; its op is the warm-up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lwacomm import cli, experiments
from lwacomm.experiments import ScenarioConfig, sample_users

from checks import (
    MEMORY_RTOL,
    TEXT_RTOL,
    Allocation,
    check_allocation,
    check_beampattern_csv,
    check_mimo_rate,
)


@dataclass
class Outcome:
    """What the checker found for one op."""

    problems: list
    summary: dict | None  # compared with golden.json on the golden input
    lwa_rate_bits: float


def _scenario_seeds(seed: int):
    """Distinct per-op scenario seeds drawn from the run seed (never 0, the golden seed)."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1, 2**63))


def _allocation_summary(alloc: Allocation) -> dict:
    return {
        "b_m": alloc.b_m,
        "L_m": alloc.L_m,
        "iterations": len(alloc.trace),
        "lwa_rate_bits": alloc.sum_rate,
    }


class OptimizeDefault:
    name = "optimize-default"
    why = (
        "the interactive job: one `lwacomm optimize` per op on the default "
        "scenario, dominated by the geometry step's Python overhead; no reuse across draws"
    )
    golden_input = 0

    def inputs(self, seed):
        return _scenario_seeds(seed)

    def run(self, seed, out_dir):
        return cli.main(["optimize", "--seed", str(seed), "--out", str(out_dir), "--quiet"])

    def inspect(self, seed, exit_code, out_dir) -> Outcome:
        if exit_code != 0:
            return Outcome([f"CLI exited {exit_code}"], None, math.nan)
        config = ScenarioConfig(seed=seed)
        alloc = Allocation.from_cli_dir(out_dir)
        problems = check_allocation(
            alloc, config, sample_users(config, 0), config.power_budget, TEXT_RTOL
        )
        return Outcome(problems, _allocation_summary(alloc), alloc.sum_rate)


class SweepSnr:
    name = "sweep-snr"
    why = (
        "one user draw re-optimized at each of the 9 SNR ladder points with "
        "MIMO at every point, so channel builds repeat 9x per draw"
    )
    golden_input = 0

    def __init__(self):
        self.captured = []

    def prepare(self):
        """Capture the sweep's per-point optimizer results for the checker."""
        original = experiments.optimize_scenario

        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            self.captured.append((args, result))
            return result

        experiments.optimize_scenario = capturing

    def inputs(self, seed):
        return _scenario_seeds(seed)

    def run(self, seed, out_dir):
        self.captured.clear()
        return experiments.run_snr_sweep(
            ScenarioConfig(seed=seed, trials=1), cli.DEFAULT_SNR_LADDER_DB
        )

    def inspect(self, seed, sweep, out_dir) -> Outcome:
        ladder = cli.DEFAULT_SNR_LADDER_DB
        if len(sweep.points) != len(ladder) or len(self.captured) != len(ladder):
            counts = f"{len(sweep.points)} sweep points, {len(self.captured)} optimizations"
            return Outcome([counts], None, math.nan)
        problems, points = [], []
        for snr_db, point, (args, result) in zip(ladder, sweep.points, self.captured):
            config, users, budget = args
            alloc = Allocation.from_result(result)
            problems += check_allocation(alloc, config, users, budget, MEMORY_RTOL)
            problems += check_mimo_rate(point.mean_mimo)
            if point.snr_db != snr_db or point.trials != 1:
                problems.append(f"sweep point {point} does not match the ladder")
            if not math.isclose(point.mean_lwa, alloc.sum_rate, rel_tol=MEMORY_RTOL):
                problems.append(f"sweep LWA rate {point.mean_lwa!r} != optimizer {alloc.sum_rate!r}")
            points.append(dict(_allocation_summary(alloc), mimo_rate_bits=point.mean_mimo))
        mean_lwa = math.fsum(p.mean_lwa for p in sweep.points) / len(ladder)
        return Outcome(problems, {"points": points}, mean_lwa)


WIDE_BAND = ScenarioConfig(
    num_subbands=256, num_users=32, mimo_elements=256, b_grid_points=7, slit_grid_points=7
)


class WideBand:
    name = "wide-band"
    why = (
        "the compare-mimo job at N=256, K=32, M=256 on a 7x7 grid: arrays ~50x "
        "the default, MIMO build, SVD and pooled waterfill dominate"
    )
    golden_input = (WIDE_BAND, 0)

    def inputs(self, seed):
        config = replace(WIDE_BAND, seed=seed)
        return ((config, trial) for trial in itertools.count(1))

    def run(self, inp, out_dir):
        config, trial = inp
        return experiments.paired_rates(config, trial, config.power_budget)

    def inspect(self, inp, rates, out_dir) -> Outcome:
        config, trial = inp
        lwa_rate, mimo_rate, result = rates
        alloc = Allocation.from_result(result)
        problems = check_allocation(
            alloc, config, sample_users(config, trial), config.power_budget, MEMORY_RTOL
        )
        problems += check_mimo_rate(mimo_rate)
        if lwa_rate != alloc.sum_rate:
            problems.append(f"paired LWA rate {lwa_rate!r} != optimizer {alloc.sum_rate!r}")
        return Outcome(problems, dict(_allocation_summary(alloc), mimo_rate_bits=mimo_rate), lwa_rate)


ANGLE_STEP_DEG = 0.1
RANGE_STEP_M = 0.1
BEAMPATTERN_ROWS = 900 * 201  # angles 0.1..90 deg by 0.1, ranges 5..25 m by 0.1
CSV_SAMPLE_ROWS = (0, 1, 45_000, 90_450, 135_000, BEAMPATTERN_ROWS - 1)


class BeampatternFine:
    name = "beampattern-fine"
    why = (
        "a 900x201 beampattern map written as CSV per op: the only workload "
        "where output formatting and file writes dominate"
    )
    golden_input = 0

    def inputs(self, seed):
        return _scenario_seeds(seed)

    def run(self, seed, out_dir):
        return experiments.run_beampattern_experiment(
            ScenarioConfig(seed=seed), str(out_dir),
            angle_step_deg=ANGLE_STEP_DEG, range_step_m=RANGE_STEP_M,
        )

    def inspect(self, seed, result, out_dir) -> Outcome:
        config = ScenarioConfig(seed=seed)
        alloc = Allocation.from_result(result)
        problems = check_allocation(
            alloc, config, sample_users(config, 0), config.power_budget, MEMORY_RTOL
        )
        csv_problems, samples = check_beampattern_csv(
            Path(out_dir) / "beampattern.csv", BEAMPATTERN_ROWS, CSV_SAMPLE_ROWS
        )
        summary = dict(_allocation_summary(alloc), csv_log_energy_samples=samples)
        return Outcome(problems + csv_problems, summary, alloc.sum_rate)


WORKLOADS = {w.name: w for w in (OptimizeDefault(), SweepSnr(), WideBand(), BeampatternFine())}
