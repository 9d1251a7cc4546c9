"""Multi-user wideband channel built on the LWA physics.

The entry for subband n and user k is the diffraction gain at the user's
angle times a path-loss coefficient at the user's range. Rates use base-2
logs (bits per channel use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .physics import LwaConfig, SPEED_OF_LIGHT, diffraction_gain_grid

BEAMPATTERN_FLOOR = -300.0  # log10 value reported where the energy sum is zero


@dataclass(frozen=True)
class FrequencyGrid:
    """Ordered center frequencies of the N subbands, in Hz."""

    frequencies: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        if freqs.ndim != 1 or freqs.size < 1:
            raise ValueError("need at least one frequency")
        if np.any(freqs <= 0):
            raise ValueError("frequencies must be positive")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")

    @classmethod
    def subband_centers(cls, f_low: float, f_high: float, n: int) -> "FrequencyGrid":
        """Centers of n equal-width bins covering [f_low, f_high]."""
        if not (0 < f_low < f_high):
            raise ValueError("need 0 < f_low < f_high")
        width = (f_high - f_low) / n
        return cls(f_low + width * (np.arange(n) + 0.5))

    @property
    def num_subbands(self) -> int:
        return int(self.frequencies.size)


@dataclass(frozen=True)
class UserSet:
    """K user positions in polar coordinates relative to the antenna."""

    angles_rad: np.ndarray
    ranges_m: np.ndarray

    def __post_init__(self) -> None:
        angles = np.atleast_1d(np.asarray(self.angles_rad, dtype=float))
        ranges = np.atleast_1d(np.asarray(self.ranges_m, dtype=float))
        object.__setattr__(self, "angles_rad", angles)
        object.__setattr__(self, "ranges_m", ranges)
        if angles.size < 1 or angles.size != ranges.size:
            raise ValueError("need K >= 1 matching angles and ranges")
        if np.any(ranges <= 0):
            raise ValueError("ranges must be positive")
        if np.any(angles <= 0) or np.any(angles > math.pi / 2):
            raise ValueError("angles must lie in (0, pi/2]")

    @property
    def num_users(self) -> int:
        return int(self.angles_rad.size)


class InverseRangeLoss:
    """Frequency-independent attenuation coefficient Gamma = rho_ref / rho."""

    def __init__(self, reference_range_m: float = 1.0):
        if reference_range_m <= 0:
            raise ValueError("reference_range_m must be > 0")
        self.reference_range_m = reference_range_m

    def evaluate(self, range_m, frequency_hz):
        range_m = np.asarray(range_m, dtype=float)
        return np.broadcast_to(
            self.reference_range_m / range_m,
            np.broadcast_shapes(np.shape(range_m), np.shape(frequency_hz)),
        ).copy()


@dataclass(frozen=True)
class NoiseModel:
    """Per-subband additive Gaussian noise power (linear units)."""

    variance_sigma2: float

    def __post_init__(self) -> None:
        if self.variance_sigma2 <= 0:
            raise ValueError("variance_sigma2 must be > 0")


@dataclass(frozen=True)
class ChannelMatrix:
    """N x K complex gains; row n is the nth subband channel vector.

    subcutoff_subbands lists the subband indices whose frequency fell below
    the waveguide cutoff; their rows are zero rather than an error so the
    optimizer can traverse geometry grids containing near-cutoff b values.
    """

    entries: np.ndarray
    subcutoff_subbands: tuple = ()

    @property
    def gains_squared(self) -> np.ndarray:
        """Per-subband squared channel norms ||h_n||^2, length N."""
        return np.sum(np.abs(self.entries) ** 2, axis=1)


def build_channel(
    config: LwaConfig,
    grid: FrequencyGrid,
    users: UserSet,
    loss: InverseRangeLoss,
) -> ChannelMatrix:
    """Assemble the N x K channel: entry (n,k) = G(phi_k, f_n) * Gamma(rho_k, f_n).

    Sub-cutoff subbands get zero gain and are reported in subcutoff_subbands.
    """
    freqs = grid.frequencies
    gamma = loss.evaluate(users.ranges_m[None, :], freqs[:, None])
    entries = diffraction_gain_grid(config, users.angles_rad, freqs) * gamma
    subcutoff = np.nonzero(freqs < config.cutoff_frequency)[0]
    return ChannelMatrix(entries, tuple(int(n) for n in subcutoff))


def geometry_gains_squared(
    b_grid: np.ndarray,
    L_grid: np.ndarray,
    grid: FrequencyGrid,
    users: UserSet,
    loss: InverseRangeLoss,
) -> np.ndarray:
    """||h_n||^2 for every geometry of the b x L search grid, shape (B, L, N).

    Entry [i, j] equals build_channel(LwaConfig(b_grid[i], L_grid[j]), grid,
    users, loss).gains_squared bitwise, so subbands below that geometry's
    cutoff are zero. One gain evaluation per b covers all slit lengths. The
    norms do not depend on the powers: one array per user draw serves every
    step of the alternating optimization.
    """
    freqs = grid.frequencies
    gamma = loss.evaluate(users.ranges_m[None, :], freqs[:, None])
    slits = np.asarray(L_grid, dtype=float)[:, None, None]
    rows = (diffraction_gain_grid(LwaConfig(b, slits), users.angles_rad, freqs) for b in b_grid)
    return np.stack([np.sum(np.abs(row * gamma) ** 2, axis=-1) for row in rows])


def subband_rate(h_n: np.ndarray, power: float, noise: NoiseModel) -> float:
    """Single-subband sum rate log2(1 + P/sigma^2 * ||h_n||^2), in bits."""
    if power < 0:
        raise ValueError("power must be >= 0")
    gain2 = float(np.sum(np.abs(np.asarray(h_n)) ** 2))
    return math.log2(1.0 + power / noise.variance_sigma2 * gain2)


def average_sum_rate(channel: ChannelMatrix, powers, noise: NoiseModel) -> float:
    """Mean over subbands of subband_rate, in bits per channel use."""
    powers = np.asarray(powers, dtype=float)
    gains2 = channel.gains_squared
    if powers.shape != gains2.shape:
        raise ValueError(
            f"power vector length {powers.size} != subband count {gains2.size}"
        )
    rates = np.log2(1.0 + powers / noise.variance_sigma2 * gains2)
    return float(math.fsum(rates) / gains2.size)


def beampattern(
    config: LwaConfig,
    grid: FrequencyGrid,
    powers,
    loss: InverseRangeLoss,
    angle_grid: np.ndarray,
    range_grid: np.ndarray,
    floor: float = BEAMPATTERN_FLOOR,
) -> np.ndarray:
    """Radiated energy map over (angle, range) grid points.

    Value at (phi, rho) is log10 of sum_n P_n |G(phi, f_n) Gamma(rho, f_n)|^2;
    points where the sum is zero get `floor`. Shape is
    (len(angle_grid), len(range_grid)).
    """
    powers = np.asarray(powers, dtype=float)
    angle_grid = np.asarray(angle_grid, dtype=float)
    range_grid = np.asarray(range_grid, dtype=float)
    if powers.size != grid.num_subbands:
        raise ValueError("power vector length must match subband count")
    if angle_grid.size == 0 or range_grid.size == 0:
        raise ValueError("angle and range grids must be non-empty")

    freqs = grid.frequencies
    gains2 = np.abs(diffraction_gain_grid(config, angle_grid, freqs)) ** 2
    gamma2 = loss.evaluate(range_grid[None, :], freqs[:, None]) ** 2
    energy = np.einsum("n,na,nr->ar", powers, gains2, gamma2)
    return np.log10(energy, out=np.full_like(energy, floor), where=energy > 0.0)


def export_beampattern_csv(
    path,
    angle_grid_rad: np.ndarray,
    range_grid_m: np.ndarray,
    energy_map: np.ndarray,
) -> None:
    """Write the map as CSV rows (angle_deg, range_m, log_energy), angle-major."""
    angle_deg = np.degrees(np.asarray(angle_grid_rad, dtype=float))
    range_m = np.asarray(range_grid_m, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("angle_deg,range_m,log_energy\n")
        for i, ang in enumerate(angle_deg):
            for j, rng in enumerate(range_m):
                fh.write(f"{ang:.9g},{rng:.9g},{energy_map[i, j]:.9g}\n")


def frequency_bins_near_angle(
    config: LwaConfig, grid: FrequencyGrid, angle_rad: float, halfwidth_rad: float
) -> int:
    """Count subbands whose emission angle falls within +/- halfwidth of angle."""
    freqs = grid.frequencies
    valid = freqs >= config.cutoff_frequency
    ratio = SPEED_OF_LIGHT / (2.0 * config.plate_separation_b * freqs[valid])
    ang = np.arcsin(np.minimum(ratio, 1.0))  # at the cutoff, ratio can round above 1
    return int(np.count_nonzero(np.abs(ang - angle_rad) <= halfwidth_rad))
