"""Multi-user wideband channel built on the LWA physics.

The entry for subband n and user k is the diffraction gain at the user's
angle times a path-loss coefficient at the user's range. Every rate is taken
by rate_bits, with base-2 logs (bits per channel use).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .physics import LwaConfig, diffraction_gain_grid

BEAMPATTERN_FLOOR = -300.0  # log10 value reported where the energy sum is zero


class FrequencyGrid:
    """Centers of n equal-width subbands covering [f_low, f_high], in Hz.

    Raises ValueError unless 0 < f_low < f_high and n is an integer >= 1,
    or if the centers are not finite and strictly increasing (a band too
    narrow for n distinct centers)."""

    __slots__ = ("frequencies",)

    def __init__(self, f_low: float, f_high: float, n: int) -> None:
        if not (0 < f_low < f_high):
            raise ValueError("the band must satisfy 0 < f_low < f_high")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"need an integer bin count n >= 1, got {n!r}")
        width = (f_high - f_low) / n
        self.frequencies = freqs = f_low + width * (np.arange(n) + 0.5)
        if not np.all(np.isfinite(freqs)) or np.any(np.diff(freqs) <= 0):
            raise ValueError("subband centers must be finite and strictly increasing")

    @property
    def num_subbands(self) -> int:
        return int(self.frequencies.size)


class UserSet:
    """K user positions in polar coordinates relative to the antenna."""

    __slots__ = ("angles_rad", "ranges_m")

    def __init__(self, angles_rad: np.ndarray, ranges_m: np.ndarray) -> None:
        self.angles_rad = angles = np.atleast_1d(np.asarray(angles_rad, dtype=float))
        self.ranges_m = ranges = np.atleast_1d(np.asarray(ranges_m, dtype=float))
        if angles.size < 1 or angles.size != ranges.size:
            raise ValueError("need K >= 1 matching angles and ranges")
        if not np.all(np.isfinite(ranges)) or np.any(ranges <= 0):
            raise ValueError("ranges must be finite and positive")
        if not np.all((angles > 0) & (angles <= math.pi / 2)):  # NaN fails both
            raise ValueError("angles must lie in (0, pi/2]")

    @property
    def num_users(self) -> int:
        return int(self.angles_rad.size)


class InverseRangeLoss:
    """Frequency-independent attenuation coefficient Gamma = 1 m / rho."""

    __slots__ = ()

    def evaluate(self, range_m):
        return 1.0 / np.asarray(range_m, dtype=float)


class NoiseModel:
    """Per-subband additive Gaussian noise power (linear units)."""

    __slots__ = ("variance_sigma2",)

    def __init__(self, variance_sigma2: float) -> None:
        if not (math.isfinite(variance_sigma2) and variance_sigma2 > 0):
            raise ValueError("variance_sigma2 must be finite and > 0")
        self.variance_sigma2 = variance_sigma2


def build_channel(
    config: LwaConfig,
    grid: FrequencyGrid,
    users: UserSet,
    loss: InverseRangeLoss,
) -> np.ndarray:
    """The float64 N x K channel, entry (n, k) = G(phi_k, f_n) * Gamma(rho_k).
    Subbands below the cutoff get zero rows rather than an error."""
    gains = diffraction_gain_grid(config, users.angles_rad, grid.frequencies)
    return gains * loss.evaluate(users.ranges_m)


def geometry_gains_squared(
    b_grid: np.ndarray,
    L_grid: np.ndarray,
    grid: FrequencyGrid,
    users: UserSet,
    loss: InverseRangeLoss,
) -> np.ndarray:
    """||h_n||^2 for every geometry of the b x L search grid, shape (B, L, N).

    The norms are evaluated once per distinct slit length, over the column
    np.unique(L_grid) of those lengths in increasing order, so rows of L_grid
    that repeat a length are equal. That column must be evenly spaced, as
    linspace makes it: LwaConfig raises ValueError otherwise. Entry [i, j]
    is the ||h_n||^2 that average_sum_rate takes from the channel h =
    build_channel(LwaConfig(b_grid[i], L_grid[j]), grid, users, loss):
    bitwise where L_grid[j] sits on an anchor row of that column (its place
    0 mod SLIT_ANCHOR_STRIDE), and within the slit recurrence's bound of
    physics.py elsewhere, (2 R + K + 3) eps sum_k Gamma_k^2 for the row's
    gain bound R eps. Subbands below that geometry's cutoff are exactly
    zero. Both add the users in order, k = 0, 1, ..., K-1. One LwaConfig
    holds the whole grid, and one diffraction_gain_grid call per user gives
    its contiguous (B, L, N) gains, which are scaled and squared in place
    and added to the output: no earlier user's term but the last is held
    while the next is computed. The norms do not depend on the powers: one
    array per user draw serves every step of the alternating optimization.
    Raises ValueError if either grid is empty.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    L_grid = np.asarray(L_grid, dtype=float)
    if b_grid.size == 0 or L_grid.size == 0:
        raise ValueError("grids must be non-empty")
    lengths, rows_of_L = np.unique(L_grid, return_inverse=True)
    config = LwaConfig(b_grid[:, None, None], lengths[:, None, None])
    freqs = grid.frequencies
    gamma = loss.evaluate(users.ranges_m)
    angles = users.angles_rad
    out = np.zeros((b_grid.size, lengths.size, freqs.size))
    for k in range(angles.size):
        term = diffraction_gain_grid(config, angles[k:k + 1], freqs)[..., 0]
        term *= gamma[k]
        out += np.square(term, out=term)  # the gain is real: |x|^2 = x*x bitwise
    return out if np.array_equal(lengths, L_grid) else out[:, rows_of_L]


def rate_bits(powers, gains2, noise: NoiseModel, num_subbands: int) -> float:
    """Sum of log2(1 + P/sigma^2 * g) over the modes divided by num_subbands,
    in bits per channel use. Every rate in the package is taken here, as
    log1p/ln 2 so that an SNR below eps still counts. Raises
    FloatingPointError if the rate is not finite."""
    snr = powers / noise.variance_sigma2 * gains2
    rate = math.fsum(np.log1p(snr)) / math.log(2.0) / num_subbands
    if not math.isfinite(rate):
        raise FloatingPointError(f"the sum rate is not finite: {rate}")
    return rate


def average_sum_rate(channel, powers, noise: NoiseModel) -> float:
    """Mean over the rows h_n of an N x K channel of log2(1 + P_n/sigma^2 *
    ||h_n||^2), in bits per channel use. Powers must be >= 0."""
    channel = np.asarray(channel)
    if channel.ndim != 2:
        raise ValueError(f"need an N x K channel array, got shape {channel.shape}")
    powers = np.asarray(powers, dtype=float)
    gains2 = np.zeros(channel.shape[0])
    for column in np.abs(channel).T:  # the users in order, as geometry_gains_squared
        gains2 += column ** 2
    if powers.shape != gains2.shape:
        raise ValueError(
            f"power vector length {powers.size} != subband count {gains2.size}"
        )
    if np.any(powers < 0):
        raise ValueError("powers must be >= 0")
    return rate_bits(powers, gains2, noise, gains2.size)


def beampattern(
    config: LwaConfig,
    grid: FrequencyGrid,
    powers,
    loss: InverseRangeLoss,
    angle_grid: np.ndarray,
    range_grid: np.ndarray,
) -> np.ndarray:
    """Radiated energy map over (angle, range) grid points.

    Value at (phi, rho) is log10 of sum_n P_n |G(phi, f_n) Gamma(rho)|^2;
    points where the sum is zero get BEAMPATTERN_FLOOR. Shape is
    (len(angle_grid), len(range_grid)).

    Only the powered subbands (P_n > 0) enter the map: the sum adds its terms
    in order of n, and a zero-power term is +0, so leaving it out changes no
    bit. Raises ValueError if a power is negative or not finite, if an
    angle lies outside (0, pi/2] or a range is not finite and > 0, as
    UserSet's do, or if Gamma^2 is not finite at some range (0 * inf would
    be NaN).
    """
    powers = np.asarray(powers, dtype=float)
    angle_grid = np.asarray(angle_grid, dtype=float)
    range_grid = np.asarray(range_grid, dtype=float)
    if powers.size != grid.num_subbands:
        raise ValueError("power vector length must match subband count")
    if not np.all(np.isfinite(powers)) or np.any(powers < 0):
        raise ValueError("powers must be finite and >= 0")
    if angle_grid.size == 0 or range_grid.size == 0:
        raise ValueError("angle and range grids must be non-empty")
    if not np.all((angle_grid > 0) & (angle_grid <= math.pi / 2)):  # NaN fails both
        raise ValueError("angles must be finite and lie in (0, pi/2]")
    if not np.all(np.isfinite(range_grid)) or np.any(range_grid <= 0):
        raise ValueError("ranges must be finite and positive")
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        gamma2 = loss.evaluate(range_grid) ** 2
    if not np.all(np.isfinite(gamma2)):
        raise ValueError("ranges must give a finite Gamma^2")

    active = np.flatnonzero(powers)
    freqs = grid.frequencies[active]
    gains2 = np.square(diffraction_gain_grid(config, angle_grid, freqs))
    # an (active, R) view: with it the einsum sums as over the (N, R) operand
    gamma2 = np.broadcast_to(gamma2, (active.size, range_grid.size))
    energy = np.einsum("n,na,nr->ar", powers[active], gains2, gamma2)
    positive = energy > 0.0
    np.log10(energy, out=energy, where=positive)  # in place: no second map
    energy[~positive] = BEAMPATTERN_FLOOR
    return energy

