"""Output checks behind the benchmark's error_rate, and the golden comparison.

Every timed op is checked after its clock stops. The checks recompute what
they can through the package's own public functions, which the checker
imports by name here, so the traced run's rebinding never sees these calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lwacomm.channel import InverseRangeLoss, average_sum_rate, build_channel
from lwacomm.physics import LwaConfig

# Results handed back in memory must meet the issue's 1e-9 budget tolerance.
MEMORY_RTOL = 1e-9
# The CLI writes 9 significant digits, so a sum of 40 powers read back from
# text can be off by a few 1e-9; 1e-7 still catches a 1% corruption.
TEXT_RTOL = 1e-7
# Golden rates are compared to this relative tolerance; geometry exactly.
GOLDEN_RTOL = 1e-8
GOLDEN_EXACT_KEYS = ("b_m", "L_m")

BEAMPATTERN_HEADER = "angle_deg,range_m,log_energy"


@dataclass
class Allocation:
    """The parts of an optimizer result the checks look at, as plain values."""

    b_m: float
    L_m: float
    sum_rate: float
    powers: np.ndarray
    trace: list  # (b_m, L_m, rate_bits) per iteration

    @classmethod
    def from_result(cls, result) -> "Allocation":
        return cls(
            result.chosen_b,
            result.chosen_L,
            result.sum_rate,
            np.asarray(result.powers.powers, dtype=float),
            [(r.b_m, r.L_m, r.rate_bits) for r in result.trace],
        )

    @classmethod
    def from_cli_dir(cls, out_dir) -> "Allocation":
        """Parse allocation.txt and trace.csv as written by `lwacomm optimize`."""
        out_dir = Path(out_dir)
        fields = {}
        for line in (out_dir / "allocation.txt").read_text().splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        rows = (out_dir / "trace.csv").read_text().splitlines()
        if not rows or rows[0] != "iter,b_m,L_m,rate_bits":
            raise ValueError("trace.csv has no iter,b_m,L_m,rate_bits header")
        trace = []
        for row in rows[1:]:
            _, b, L, rate = row.split(",")
            trace.append((float(b), float(L), float(rate)))
        return cls(
            float(fields["chosen_b_m"]),
            float(fields["chosen_L_m"]),
            float(fields["sum_rate_bits"]),
            np.array([float(p) for p in fields["powers"].split()]),
            trace,
        )


def check_allocation(alloc: Allocation, config, users, budget: float, rtol: float) -> list:
    """Invariants of one optimizer result; returns the problems found."""
    problems = []
    grids = config.search_grids()
    on_grid = True
    for name, value, grid in (("b", alloc.b_m, grids.b_grid), ("L", alloc.L_m, grids.L_grid)):
        if not np.any(np.abs(grid - value) <= rtol * abs(value)):
            problems.append(f"chosen {name}={value!r} is not on the search grid")
            on_grid = False

    powers = alloc.powers
    if powers.shape != (config.num_subbands,):
        problems.append(f"{powers.size} powers for {config.num_subbands} subbands")
        return problems
    if np.any(powers < 0):
        problems.append("a power is negative")
    if not math.isclose(math.fsum(powers), budget, rel_tol=rtol):
        problems.append(f"powers sum to {math.fsum(powers)!r}, budget is {budget!r}")

    if on_grid:
        channel = build_channel(
            LwaConfig(alloc.b_m, alloc.L_m), config.frequency_grid(), users, InverseRangeLoss()
        )
        rate = average_sum_rate(channel, powers, config.noise())
        if not math.isclose(rate, alloc.sum_rate, rel_tol=rtol):
            problems.append(f"sum_rate {alloc.sum_rate!r} != recomputed {rate!r}")

    if not 1 <= len(alloc.trace) <= config.max_iterations:
        problems.append(f"trace has {len(alloc.trace)} iterations")
    rates = [rate for _, _, rate in alloc.trace]
    if any(later < earlier - rtol * abs(earlier) for earlier, later in zip(rates, rates[1:])):
        problems.append(f"trace rates decrease: {rates}")
    if alloc.trace and not math.isclose(rates[-1], alloc.sum_rate, rel_tol=rtol):
        problems.append("last trace rate differs from sum_rate")
    return problems


def check_mimo_rate(rate: float) -> list:
    if not (math.isfinite(rate) and rate >= 0.0):
        return [f"MIMO rate {rate!r} is not finite and >= 0"]
    return []


def check_beampattern_csv(path, expected_rows: int, sample_rows=()):
    """Check the header and data-row count; return (problems, sampled log_energy)."""
    samples = {}
    wanted = set(sample_rows)
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = 0
        for line in fh:
            if rows in wanted:
                samples[rows] = float(line.rsplit(",", 1)[1])
            rows += 1
    problems = []
    if header != BEAMPATTERN_HEADER:
        problems.append(f"beampattern CSV header is {header!r}")
    if rows != expected_rows:
        problems.append(f"beampattern CSV has {rows} rows, expected {expected_rows}")
    return problems, [samples.get(i, math.nan) for i in sample_rows]


def compare_golden(summary, golden, path: str = "") -> list:
    """Differences between an op summary and its recorded golden reference."""
    if isinstance(golden, dict):
        if not isinstance(summary, dict) or set(summary) != set(golden):
            return [f"{path}: keys differ from the golden reference"]
        return [p for key in golden for p in compare_golden(summary[key], golden[key], f"{path}.{key}")]
    if isinstance(golden, list):
        if not isinstance(summary, list) or len(summary) != len(golden):
            return [f"{path}: length differs from the golden reference"]
        return [p for i, (s, g) in enumerate(zip(summary, golden)) for p in compare_golden(s, g, f"{path}[{i}]")]
    if isinstance(golden, float) and not path.endswith(GOLDEN_EXACT_KEYS):
        if math.isclose(summary, golden, rel_tol=GOLDEN_RTOL, abs_tol=1e-300):
            return []
    elif summary == golden:
        return []
    return [f"{path}: {summary!r} != golden {golden!r}"]
