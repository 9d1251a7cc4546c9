"""Seeded Monte-Carlo experiment harness.

Scenario defaults mirror the reference wideband setup: a [200, 800] GHz
band split into 40 subbands, 4 users drawn uniformly in [10, 55] degrees
and [10, 20] m, unit noise, total power 10, and geometry bounds
b in [0.9, 1.1] mm, L in [10, 50] mm.

Randomness discipline: one RNG sub-stream per trial index, derived from the
scenario seed, so changing the trial count never perturbs earlier trials.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import (
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    beampattern,
    build_channel,
    geometry_gains_squared,
)
from .mimo import UlaGeometry, build_mimo_channel, mimo_sum_rate
from .optimizer import (
    AllocationResult,
    SearchGrids,
    alternate_optimize,
)
from .physics import LwaConfig


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    f_low_hz: float = 200e9
    f_high_hz: float = 800e9
    num_subbands: int = 40
    num_users: int = 4
    angle_min_deg: float = 10.0
    angle_max_deg: float = 55.0
    range_min_m: float = 10.0
    range_max_m: float = 20.0
    power_budget: float = 10.0
    noise_variance: float = 1.0
    b_min_m: float = 0.9e-3
    b_max_m: float = 1.1e-3
    slit_min_m: float = 10e-3
    slit_max_m: float = 50e-3
    b_grid_points: int = 21
    slit_grid_points: int = 21
    max_iterations: int = 10
    mimo_elements: int = 8
    mimo_ref_frequency_hz: float = 0.0  # 0 means band center
    seed: int = 0
    trials: int = 20

    def __post_init__(self) -> None:
        for name, kind in _CONFIG_TYPES.items():
            value = getattr(self, name)
            integral = kind is int
            # the exact type first: an ABC isinstance takes about 0.6 us a field
            # (Python 3.11, Intel Xeon), and most fields are exactly int or float
            if type(value) is not kind and (isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integral else numbers.Real
            )):
                noun = "an integer" if integral else "a real number"
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
            # a comparison, not math.isfinite: any real compares, a NaN fails
            if not integral and not -math.inf < value < math.inf:
                raise ConfigError(f"{name} must be finite, got {value}")
        if not (0 < self.f_low_hz < self.f_high_hz):
            raise ConfigError("need 0 < f_low_hz < f_high_hz")
        if self.num_subbands < 1 or self.num_users < 1:
            raise ConfigError("num_subbands and num_users must be >= 1")
        try:
            self.frequency_grid()
        except ValueError:
            raise ConfigError(
                f"the band [{self.f_low_hz}, {self.f_high_hz}] Hz is too narrow "
                f"for {self.num_subbands} distinct subband centers"
            ) from None
        # math.radians, not the degrees: a subnormal angle_min_deg is 0 rad
        if not (0 < math.radians(self.angle_min_deg)
                and self.angle_min_deg <= self.angle_max_deg <= 90):
            raise ConfigError("angle range must satisfy 0 < min <= max <= 90")
        if not (0 < self.range_min_m <= self.range_max_m):
            raise ConfigError("range interval must satisfy 0 < min <= max")
        if self.power_budget <= 0 or self.noise_variance <= 0:
            raise ConfigError("power_budget and noise_variance must be > 0")
        if self.power_budget / self.num_subbands < np.finfo(float).smallest_normal:
            # a subnormal share rounds, and N shares may sum past the budget
            raise ConfigError("power_budget / num_subbands is a subnormal share")
        if not (0 < self.b_min_m <= self.b_max_m):
            raise ConfigError("b bounds must satisfy 0 < min <= max")
        if not (0 < self.slit_min_m <= self.slit_max_m):
            raise ConfigError("slit bounds must satisfy 0 < min <= max")
        if self.b_grid_points < 1 or self.slit_grid_points < 1:
            raise ConfigError("grid point counts must be >= 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.mimo_elements < 1:
            raise ConfigError("mimo_elements must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")

    def frequency_grid(self) -> FrequencyGrid:
        return FrequencyGrid(self.f_low_hz, self.f_high_hz, self.num_subbands)

    def search_grids(self) -> SearchGrids:
        return SearchGrids(
            np.linspace(self.b_min_m, self.b_max_m, self.b_grid_points),
            np.linspace(self.slit_min_m, self.slit_max_m, self.slit_grid_points),
        )

    def noise(self) -> NoiseModel:
        return NoiseModel(self.noise_variance)

    def ula(self) -> UlaGeometry:
        """The MIMO baseline's array. Only compare-mimo and sweep-snr use it,
        so its fields are checked here rather than in __post_init__."""
        f_ref = self.mimo_ref_frequency_hz
        if f_ref == 0.0:
            f_ref = 0.5 * (self.f_low_hz + self.f_high_hz)
        if f_ref < 0:
            raise ConfigError("mimo_ref_frequency_hz must be > 0 (or 0 for band center)")
        ula = UlaGeometry(self.mimo_elements, f_ref)
        if not ula.aperture_m / 2.0 < self.range_min_m:
            raise ConfigError(
                f"the ULA's half aperture {ula.aperture_m / 2.0:.6g} m reaches "
                f"range_min_m {self.range_min_m:.6g} m; raise mimo_ref_frequency_hz"
            )
        return ula


# each field's type, int or float, by name; read by __post_init__ and load_config
_CONFIG_TYPES = {
    f.name: int if f.type in ("int", int) else float for f in fields(ScenarioConfig)
}


def load_config(path) -> ScenarioConfig:
    """Parse a flat key=value UTF-8 config file; unknown or repeated keys
    and text that is not UTF-8 are errors."""
    overrides, key_lines = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {key_lines[key]}")
        key_lines[key] = lineno
        try:
            overrides[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return ScenarioConfig(**overrides)


def sample_users(config: ScenarioConfig, trial: int) -> UserSet:
    """Uniform user draw from the scenario's angle/range box, one sub-stream
    per trial index."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
    )
    angles = np.radians(
        rng.uniform(config.angle_min_deg, config.angle_max_deg, config.num_users)
    )
    ranges = rng.uniform(config.range_min_m, config.range_max_m, config.num_users)
    return UserSet(angles, ranges)


def optimize_scenario(
    config: ScenarioConfig, users: UserSet, budget: float | None = None
) -> AllocationResult:
    """Run the alternating optimization for one user draw."""
    grids = config.search_grids()
    gains = geometry_gains_squared(
        grids.b_grid, grids.L_grid, config.frequency_grid(), users, InverseRangeLoss()
    )
    return alternate_optimize(
        grids,
        gains,
        config.power_budget if budget is None else budget,
        config.noise(),
        i_max=config.max_iterations,
    )


def paired_rates(config: ScenarioConfig, trial: int, budget: float):
    """LWA-optimized and normalized-MIMO rates for one trial's user draw."""
    ula = config.ula()
    users = sample_users(config, trial)
    result = optimize_scenario(config, users, budget)
    grid = config.frequency_grid()
    lwa_channel = build_channel(
        LwaConfig(result.chosen_b, result.chosen_L), grid, users, InverseRangeLoss()
    )
    spectrum = build_mimo_channel(ula, grid, users)
    lwa_peak = float(np.max(np.abs(lwa_channel)))
    mimo_rate = mimo_sum_rate(spectrum, lwa_peak, budget, config.noise())
    return result.sum_rate, mimo_rate, result


def run_beampattern_experiment(
    config: ScenarioConfig,
    out_dir,
    angle_step_deg: float = 0.25,
    range_step_m: float = 0.25,
) -> AllocationResult:
    """Optimize trial 0's user draw and export the energy map plus the user
    positions and the allocation report/trace. The angles run from
    angle_step_deg up to 90 deg. Raises ValueError unless both grid steps
    are real numbers (not bools), finite and > 0, and the angle step is at
    most 90, before anything is computed."""
    for name, step in (("angle_step_deg", angle_step_deg), ("range_step_m", range_step_m)):
        real = isinstance(step, numbers.Real) and not isinstance(step, bool)
        if not (real and math.isfinite(step) and step > 0):
            raise ValueError(f"{name} must be finite and > 0, got {step!r}")
    if angle_step_deg > 90:  # the grid's first point would pass pi/2
        raise ValueError(f"angle_step_deg must be at most 90, got {angle_step_deg!r}")
    users = sample_users(config, 0)
    result = optimize_scenario(config, users)

    angle_grid = np.radians(np.arange(angle_step_deg, 90.0 + angle_step_deg / 2, angle_step_deg))
    # arange can pass 90 deg by up to half a step, or by rounding alone:
    # drop the points past pi/2 and clip one within rounding of it
    angle_grid = np.minimum(angle_grid[angle_grid <= math.pi / 2 * (1 + 1e-12)], math.pi / 2)
    range_grid = np.arange(5.0, 25.0 + range_step_m / 2, range_step_m)
    energy = beampattern(
        LwaConfig(result.chosen_b, result.chosen_L),
        config.frequency_grid(),
        result.powers.powers,
        InverseRangeLoss(),
        angle_grid,
        range_grid,
    )

    os.makedirs(out_dir, exist_ok=True)
    export_beampattern_csv(
        os.path.join(out_dir, "beampattern.csv"), angle_grid, range_grid, energy
    )
    users_rows = zip(map(math.degrees, users.angles_rad), users.ranges_m)
    write_csv(os.path.join(out_dir, "users.csv"), "angle_deg,range_m", users_rows)
    write_allocation(result, out_dir)
    return result


def write_allocation(result: AllocationResult, out_dir) -> None:
    """Write the report to allocation.txt and the trace to trace.csv in out_dir."""
    write_report(os.path.join(out_dir, "allocation.txt"), {
        "chosen_b_m": result.chosen_b, "chosen_L_m": result.chosen_L,
        "sum_rate_bits": result.sum_rate, "total_budget": float(result.powers.total_budget_P),
        "powers": result.powers.powers, "iterations": len(result.trace),
        "stop_reason": result.stop_reason,
    })
    write_csv(os.path.join(out_dir, "trace.csv"), "iter,b_m,L_m,rate_bits", result.trace)


def _format(value) -> str:
    """A string as it is, an integer count as its digits, any other number
    as %.9g, and an array as its entries so formatted, joined by spaces."""
    if isinstance(value, np.ndarray):
        return " ".join(["%.9g" % v for v in value.tolist()])
    return str(value) if isinstance(value, (str, int, np.integer)) else "%.9g" % value


def write_csv(path, header: str, rows) -> None:
    """Write the header line, then each row's values by _format, comma-separated."""
    lines = [header, *(",".join(map(_format, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", newline="")


def write_report(path, items: dict) -> str:
    """Write a `name: value` line per item, the value by _format; return the text."""
    text = "".join(f"{name}: {_format(value)}\n" for name, value in items.items())
    Path(path).write_text(text, newline="")
    return text


def export_beampattern_csv(
    path,
    angle_grid_rad: np.ndarray,
    range_grid_m: np.ndarray,
    energy_map: np.ndarray,
) -> None:
    """Write the map as CSV rows (angle_deg, range_m, log_energy), angle-major.

    Every number is written as %.9g. energy_map must have shape
    (len(angle_grid_rad), len(range_grid_m)); ValueError otherwise, before
    the file is opened.
    """
    angle_deg = np.degrees(np.asarray(angle_grid_rad, dtype=float))
    range_m = np.asarray(range_grid_m, dtype=float)
    energy_map = np.asarray(energy_map, dtype=float)
    if energy_map.shape != (len(angle_deg), len(range_m)):
        raise ValueError(
            f"energy map of shape {energy_map.shape} does not match the "
            f"{len(angle_deg)} x {len(range_m)} angle x range grid"
        )
    # One %-format per angle row, in bytes: joining the row tails with the
    # angle gives b"ang,rng_0,%.9g\nang,rng_1,%.9g\n..." (the leading b""
    # puts the angle before the first tail and keeps an empty range grid
    # empty). b"%.9g" % x equals f"{x:.9g}".encode() for every float. The
    # rows are converted one at a time, so no list of the whole map exists;
    # the file's 64 KiB buffer gathers them into 60 writes for a 900 x 201
    # map, not one write per angle row (5 KB on a 201-point range grid).
    tails = [b"", *(b",%.9g,%%.9g\n" % rng for rng in range_m)]
    with open(path, "wb", buffering=2**16) as fh:
        fh.write(b"angle_deg,range_m,log_energy\n")
        for ang, row in zip(angle_deg, energy_map):
            fh.write((b"%.9g" % ang).join(tails) % tuple(row.tolist()))


class SweepPoint(NamedTuple):
    snr_db: float
    mean_lwa: float
    std_lwa: float
    mean_mimo: float
    std_mimo: float
    trials: int


class SweepResult(NamedTuple):
    points: tuple


def _mean_std(values) -> tuple:
    # compensated sums keep the aggregate independent of trial ordering
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def _snr_budget(config: ScenarioConfig, snr_db: float) -> float:
    """P = SNR * N * sigma^2; ConfigError unless it is finite and > 0."""
    try:
        budget = 10.0 ** (snr_db / 10.0) * config.num_subbands * config.noise_variance
    except OverflowError:
        budget = math.inf
    if not 0 < budget < math.inf:
        raise ConfigError(f"SNR {snr_db} dB gives the power budget {budget}; need finite and > 0")
    return budget


def run_snr_sweep(config: ScenarioConfig, snr_points_db) -> SweepResult:
    """Mean/std sum-rate of both systems over the trial set, per SNR point.

    SNR = P / (N sigma^2), so each point sets P = SNR * N * sigma^2. Both
    systems see the identical user draw within a trial.
    """
    snr_points_db = list(snr_points_db)
    if not snr_points_db:
        raise ValueError("need at least one SNR point")
    budgets = [_snr_budget(config, snr_db) for snr_db in snr_points_db]
    points = []
    for snr_db, budget in zip(snr_points_db, budgets):
        lwa_rates, mimo_rates = [], []
        for trial in range(config.trials):
            lwa_rate, mimo_rate, _ = paired_rates(config, trial, budget)
            lwa_rates.append(lwa_rate)
            mimo_rates.append(mimo_rate)
        mean_l, std_l = _mean_std(lwa_rates)
        mean_m, std_m = _mean_std(mimo_rates)
        points.append(
            SweepPoint(float(snr_db), mean_l, std_l, mean_m, std_m, config.trials)
        )
    return SweepResult(tuple(points))
