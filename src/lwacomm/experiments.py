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
import os
from dataclasses import dataclass, fields

import numpy as np

from .channel import (
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    beampattern,
    build_channel,
    export_beampattern_csv,
    geometry_gains_squared,
)
from .mimo import UlaGeometry, build_mimo_channel, mimo_sum_rate, normalize_to_lwa
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
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
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
        return FrequencyGrid.subband_centers(
            self.f_low_hz, self.f_high_hz, self.num_subbands
        )

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


_CONFIG_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def load_config(path) -> ScenarioConfig:
    """Parse a flat key=value config file; unknown keys are errors."""
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            caster = int if _CONFIG_TYPES[key] in ("int", int) else float
            try:
                overrides[key] = caster(value)
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
    tensor = build_mimo_channel(ula, grid, users)
    tensor = normalize_to_lwa(tensor, lwa_channel)
    mimo_rate = mimo_sum_rate(tensor, budget, config.noise())
    return result.sum_rate, mimo_rate, result


def run_beampattern_experiment(
    config: ScenarioConfig,
    out_dir,
    angle_step_deg: float = 0.25,
    range_step_m: float = 0.25,
    trial: int = 0,
) -> AllocationResult:
    """Optimize one user draw and export the energy map plus the user
    positions and the allocation report/trace."""
    users = sample_users(config, trial)
    result = optimize_scenario(config, users)

    angle_grid = np.radians(
        np.arange(angle_step_deg, 90.0 + angle_step_deg / 2, angle_step_deg)
    )
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
    with open(os.path.join(out_dir, "users.csv"), "w", newline="") as fh:
        fh.write("angle_deg,range_m\n")
        for ang, rng in zip(users.angles_rad, users.ranges_m):
            fh.write(f"{math.degrees(ang):.9g},{rng:.9g}\n")
    with open(os.path.join(out_dir, "allocation.txt"), "w") as fh:
        fh.write(result.report_text())
    with open(os.path.join(out_dir, "trace.csv"), "w", newline="") as fh:
        fh.write(result.trace_csv())
    return result


@dataclass(frozen=True)
class SweepPoint:
    snr_db: float
    mean_lwa: float
    std_lwa: float
    mean_mimo: float
    std_mimo: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    points: tuple

    def to_csv(self) -> str:
        lines = ["snr_db,mean_lwa,std_lwa,mean_mimo,std_mimo,trials"]
        for p in self.points:
            lines.append(
                f"{p.snr_db:.9g},{p.mean_lwa:.9g},{p.std_lwa:.9g},"
                f"{p.mean_mimo:.9g},{p.std_mimo:.9g},{p.trials}"
            )
        return "\n".join(lines) + "\n"


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
