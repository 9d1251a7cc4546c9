"""Independent oracles used to freeze and cross-check expected values.

These deliberately avoid the code paths they validate: high-precision
scalar evaluation via mpmath (the emission angle arcsin(c/(2bf)), which the
package has no function for, the diffraction gain against which the
package's gain grid is checked, and the mean rate), the squared channel
norms with the users added in order, exhaustive grid maximization over the
power simplex organized as a max-plus convolution (every grid point is
considered; the DP only reorders the enumeration), waterfilling solved in
exact rational arithmetic, a brute-force replay of the alternating
optimizer's stated updates that never calls the optimizer's own grid
search or loop, the beampattern map summed over every subband, the
straightforward per-entry beampattern CSV writer, the
MIMO rate from a full SVD of every subband matrix, the MIMO spectrum of an
explicit array scaled to a largest |entry| of 1 by a pass over the entries,
with each subband scaled by its own largest part, the unit-peak MIMO tensor
from one broadcast expression, and the diffraction gain grid
evaluated in complex arithmetic throughout. It also states, per slit row,
how far physics.py's recurrence may take the gain and ||h_n||^2 from the
direct evaluation, by the bound physics.py derives, and gives the memory
tests traced_peak, the tracemalloc peak of one call.
"""

import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from lwacomm.channel import average_sum_rate, build_channel
from lwacomm.mimo import MimoSpectrum
from lwacomm.optimizer import waterfill
from lwacomm.physics import (
    SLIT_ANCHOR_STRIDE,
    SPACING_TOL,
    SPEED_OF_LIGHT,
    LwaConfig,
    diffraction_gain_grid,
)

C_MPF = mp.mpf(299792458)
EPS = np.finfo(float).eps


def traced_peak(call, *args):
    """call(*args) and the peak of the memory tracemalloc traced during it,
    in bytes: (result, peak)."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def slit_gain_bound(slits) -> np.ndarray:
    """Per row of an evenly spaced slit column, how far the recurrence's gain
    may lie from the direct evaluation: (2 SPACING_TOL + 8 + 5 m) (L_max /
    L_j) eps, m = j mod SLIT_ANCHOR_STRIDE, and 0 on the anchor rows, which
    equal it bitwise."""
    slits = np.ravel(slits)
    m = np.arange(slits.size) % SLIT_ANCHOR_STRIDE
    bound = (2 * SPACING_TOL + 8 + 5 * m) * (np.abs(slits).max(initial=0.0) / slits) * EPS
    return np.where(m == 0, 0.0, bound)


def slit_gains_squared_bound(slits, gammas) -> np.ndarray:
    """Per slit row, how far ||h_n||^2 = sum_k (G_k Gamma_k)^2 from the
    recurrence may lie from the direct one: (2 R + K + 3) eps sum_k
    Gamma_k^2 for a gain bound R eps, and 0 on the anchor rows."""
    gain = slit_gain_bound(slits)
    gammas = np.asarray(gammas, dtype=float)
    bound = (2 * gain + (gammas.size + 3) * EPS) * np.sum(gammas ** 2)
    return np.where(gain == 0.0, 0.0, bound)


def assert_rows_within(got, want, bound, axis=-3) -> None:
    """|got - want| <= bound[j] along the slit axis: bitwise where the bound
    is 0."""
    got, want = np.moveaxis(got, axis, 0), np.moveaxis(want, axis, 0)
    assert got.shape == want.shape
    bound = np.reshape(bound, (-1,) + (1,) * (got.ndim - 1))
    excess = np.abs(got - want) - bound
    assert np.all(excess <= 0.0), (
        f"rows {np.flatnonzero((excess > 0).any(axis=tuple(range(1, got.ndim))))} "
        f"exceed their bound by up to {excess.max():.3g}"
    )


def hp_emission_angle(b_m: str, freq_hz: str) -> float:
    """Arcsin(c/(2bf)) at 50 decimal digits, rounded to float."""
    with mp.workdps(50):
        return float(mp.asin(C_MPF / (2 * mp.mpf(b_m) * mp.mpf(freq_hz))))


def hp_diffraction_gain(b_m: str, L_m: str, freq_hz: str, angle_rad) -> complex:
    """Direct 50-digit evaluation of sinc[(beta - k0 cos phi) L/2], alpha = 0."""
    with mp.workdps(50):
        b, L, f = mp.mpf(b_m), mp.mpf(L_m), mp.mpf(freq_hz)
        k0 = 2 * mp.pi * f / C_MPF
        beta = k0 * mp.sqrt(1 - (C_MPF / (2 * b * f)) ** 2)
        z = (beta - k0 * mp.cos(mp.mpf(angle_rad))) * L / 2
        if z == 0:
            return 1.0
        return complex(mp.sin(z) / z)


def channel_gains_squared(channel) -> np.ndarray:
    """Per-subband squared norms ||h_n||^2 of an N x K channel array, adding
    the users k = 0, 1, ..., K-1 in order, the order the package uses."""
    channel = np.asarray(channel)
    total = np.abs(channel[:, 0]) ** 2
    for k in range(1, channel.shape[1]):
        total = total + np.abs(channel[:, k]) ** 2
    return total


def hp_average_sum_rate(gains_squared, powers, sigma2) -> float:
    """Eq.-style mean rate re-evaluated at 50 decimal digits."""
    with mp.workdps(50):
        total = mp.mpf(0)
        for g, p in zip(gains_squared, powers):
            total += mp.log(1 + mp.mpf(p) * mp.mpf(g) / mp.mpf(sigma2), 2)
        return float(total / len(gains_squared))


def simplex_grid_best_rate(gains_squared, budget, sigma2, steps) -> float:
    """Max of sum_n log2(1 + p_n g_n / sigma2) over the discrete simplex
    {p_n = k_n * budget/steps, sum k_n = steps}, divided by N.

    Exhaustive over the grid: the max-plus convolution pass considers every
    split of every partial budget, so the result equals brute-force
    enumeration of all grid points.
    """
    gains = np.asarray(gains_squared, dtype=float)
    quanta = np.arange(steps + 1) * (budget / steps)
    tables = [np.log2(1.0 + quanta * g / sigma2) for g in gains]
    acc = tables[0]
    for table in tables[1:]:
        merged = np.empty(steps + 1)
        for s in range(steps + 1):
            k = np.arange(s + 1)
            merged[s] = np.max(acc[k] + table[s - k])
        acc = merged
    return float(acc[steps] / gains.size)


def exact_waterfill(gains_squared, budget, sigma2) -> np.ndarray:
    """The KKT solution of waterfilling, in exact rational arithmetic.

    With floors f_n = sigma2/g_n of the positive gains, start with all of
    them active at the level (budget + sum f_n)/|active|, drop every subband
    whose floor reaches the level, and repeat until none does. Active
    subbands get level - f_n, the rest 0; the result is rounded to float.
    """
    floors = {
        n: Fraction(sigma2) / Fraction(g) for n, g in enumerate(gains_squared) if g > 0
    }
    active = set(floors)
    while True:
        level = (Fraction(budget) + sum(floors[n] for n in active)) / len(active)
        kept = {n for n in active if floors[n] < level}
        if kept == active:
            break
        active = kept
    return np.array(
        [float(level - floors[n]) if n in active else 0.0 for n in range(len(gains_squared))]
    )


@dataclass(frozen=True)
class AlternatingReplay:
    """Where the replayed alternating updates stopped."""

    powers: np.ndarray
    sum_rate: float
    trace: tuple  # (b, L) chosen at each iteration
    fixed_point: bool


def replay_alternating(b_grid, L_grid, budget, grid, users, loss, noise, i_max):
    """Replay the alternating updates as stated, by brute force.

    Start from the uniform allocation budget/N. Each iteration evaluates
    average_sum_rate at every (b, L) grid point under the current powers,
    takes the argmax (ties to the smallest b, then the smallest L: the
    first maximum in b-major order), then waterfills that geometry's
    channel. Stops when geometry and powers repeat those of the previous
    iteration, or after i_max iterations.
    """
    powers = np.full(grid.num_subbands, budget / grid.num_subbands)
    channels = [
        [build_channel(LwaConfig(b, L), grid, users, loss) for L in L_grid]
        for b in b_grid
    ]
    trace = []
    prev = None
    fixed_point = False
    for _ in range(i_max):
        rates = np.array(
            [[average_sum_rate(ch, powers, noise) for ch in row] for row in channels]
        )
        i, j = np.unravel_index(np.argmax(rates), rates.shape)
        powers = waterfill(channel_gains_squared(channels[i][j]), budget, noise).powers
        trace.append((float(b_grid[i]), float(L_grid[j])))
        if prev is not None and prev[:2] == (i, j) and np.array_equal(prev[2], powers):
            fixed_point = True
            break
        prev = (i, j, powers)
    return AlternatingReplay(
        powers,
        average_sum_rate(channels[i][j], powers, noise),
        tuple(trace),
        fixed_point,
    )


def reference_beampattern(config, grid, powers, loss, angle_grid, range_grid) -> np.ndarray:
    """The energy map summed over every subband, zero-power ones included,
    with an (N, R) Gamma^2 operand and -300 where the sum is zero."""
    powers = np.asarray(powers, dtype=float)
    angle_grid = np.asarray(angle_grid, dtype=float)
    range_grid = np.asarray(range_grid, dtype=float)
    freqs = grid.frequencies
    gains2 = np.square(diffraction_gain_grid(config, angle_grid, freqs))
    gamma2 = np.tile(loss.evaluate(range_grid) ** 2, (freqs.size, 1))
    energy = np.einsum("n,na,nr->ar", powers, gains2, gamma2)
    return np.log10(energy, out=np.full_like(energy, -300.0), where=energy > 0.0)


def reference_export_beampattern_csv(path, angle_grid_rad, range_grid_m, energy_map) -> None:
    """Write the beampattern CSV one formatted entry at a time."""
    angle_deg = np.degrees(np.asarray(angle_grid_rad, dtype=float))
    range_m = np.asarray(range_grid_m, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("angle_deg,range_m,log_energy\n")
        for i, ang in enumerate(angle_deg):
            for j, rng in enumerate(range_m):
                fh.write(f"{ang:.9g},{rng:.9g},{energy_map[i, j]:.9g}\n")


def svd_mimo_rate(entries, budget_P, noise) -> float:
    """Pooled-eigenmode waterfilling rate from the squared singular values
    of every subband matrix of the N x K x M entries (pass the normalized
    entries). The rate of each mode is log1p(snr) / ln 2, so per-mode SNRs
    below eps still count."""
    if budget_P <= 0:
        raise ValueError("budget_P must be > 0")
    n_subbands = entries.shape[0]
    svals = np.linalg.svd(entries, compute_uv=False)  # N x min(K, M)
    pooled = (svals ** 2).ravel()
    alloc = waterfill(pooled, budget_P, noise)
    rates = np.log1p(alloc.powers * pooled / noise.variance_sigma2) / math.log(2.0)
    rate = math.fsum(rates) / n_subbands
    if not math.isfinite(rate):
        raise FloatingPointError(f"the MIMO rate is not finite: {rate}")
    return rate


class ExplicitEntries(NamedTuple):
    """An explicit N x K x M array as the source of a MimoSpectrum."""

    array: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.array.shape

    def blocks(self, rows):
        """The array itself, as one block: only MimoSpectrum.entries reads
        the source, and it asks for every row at once."""
        yield self.array


def reference_mimo_spectrum(entries) -> MimoSpectrum:
    """The spectrum of an explicit N x K x M array, with no knowledge of how
    it was made, as the unit-peak channel entries / peak: peak is the
    largest |entry|, found by a pass over the entries (an all-zero array
    stays as it is). Each subband H_n is scaled to a largest real or
    imaginary part p_n of 1 before its Gram is formed on the short side, so
    the Gram cannot underflow or overflow whatever the subbands'
    magnitudes, and its eigenvalues are then taken to those of H_n / peak
    by (p_n / peak)^2."""
    entries = np.asarray(entries)
    _, K, M = entries.shape
    peak = float(np.max(np.abs(entries)))  # np.max: a nan propagates
    scale = np.maximum(np.abs(entries.real), np.abs(entries.imag)).max(axis=(1, 2))
    inv_scale = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)
    wide = entries * inv_scale[:, None, None]
    if K > M:
        wide = wide.swapaxes(-1, -2)
    eigs = np.linalg.eigvalsh(wide @ wide.conj().swapaxes(-1, -2))
    if peak > 0:
        eigs *= np.square(scale / peak)[:, None]
        entries = entries / peak
    return MimoSpectrum(eigs, ExplicitEntries(entries))


def reference_mimo_entries(geometry, grid, users) -> np.ndarray:
    """(d_min/d_km) exp(-j 2 pi f_n d_km / c) as one broadcast expression,
    d_min the nearest element-to-user distance: the LoS channel scaled to a
    largest |entry| of 1."""
    ux = users.ranges_m * np.cos(users.angles_rad)
    uy = users.ranges_m * np.sin(users.angles_rad)
    pos = geometry.element_positions
    dist = np.sqrt((ux[:, None] - pos[None, :]) ** 2 + uy[:, None] ** 2)  # K x M
    freqs = grid.frequencies
    phase = np.exp(-2j * np.pi * freqs[:, None, None] * dist[None, :, :] / SPEED_OF_LIGHT)
    return phase * (dist.min() / dist)


def _reference_sinc(z: np.ndarray) -> np.ndarray:
    """Unnormalized sinc sin(z)/z for complex z, sinc(0) = 1."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-6
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z * z / 6.0 + z ** 4 / 120.0, np.sin(safe) / safe)


def reference_diffraction_gain_grid(config, angles, frequencies) -> np.ndarray:
    """The diffraction gain grid with the sinc argument always complex."""
    angles = np.asarray(angles, dtype=float)
    frequencies = np.asarray(frequencies, dtype=float)
    if np.any(frequencies <= 0):
        raise ValueError("frequencies must be > 0")
    valid = frequencies >= config.cutoff_frequency
    ratio = SPEED_OF_LIGHT / (2.0 * config.plate_separation_b * frequencies)
    k0 = 2.0 * np.pi * frequencies / SPEED_OF_LIGHT
    beta = k0 * np.sqrt(np.maximum(1.0 - ratio ** 2, 0.0))
    z = (beta[:, None] - k0[:, None] * np.cos(angles)[None, :]) * (config.slit_length_L / 2.0)
    return np.where(valid[:, None], _reference_sinc(z), 0.0)
