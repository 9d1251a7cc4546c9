"""Fully digital wideband MIMO baseline.

Uniform linear array with an exact-distance (spherical wavefront) LoS
channel, valid in both radiative near and far field. The channel is held
with a largest tap magnitude of 1 and scaled to the LWA channel's largest
tap by one scalar, the LWA peak, when the sum-rate is taken: waterfilling
pooled over per-subband eigenmodes and frequency bins.

The rate reads only the channel's MimoSpectrum and that peak. The spectrum
is taken in one pass over blocks of subbands without keeping the N x K x M
entries, so the baseline's memory is of the order of one block. Every
entry exp(-2j pi f d_km / c) / d_km has magnitude 1/d_km at every
frequency, so the largest is 1/d_min, known before any entry is made; the
entries are made times d_min, with a largest magnitude of 1, and each Gram
is formed from them as made, with no pass over the entries for their
magnitudes.
The entries are physics.phasor_rows over the subband centers, evenly spaced
as FrequencyGrid makes them, one complex multiply per entry, anchored on
the direct phasor every ANCHOR_STRIDE subbands; one recurrence runs through
every block, so the pass takes one direct phasor row per anchor. Each entry
lies within 4 Phi_max eps relative of its exact value (Phi_max = 2 pi f_max
d_max / c, the largest phase), the same bound the direct exp meets, since
rounding the phase argument already costs it about Phi_max eps.
"""

from __future__ import annotations

import math
import numbers
from itertools import islice
from typing import NamedTuple

import numpy as np

from .channel import FrequencyGrid, NoiseModel, UserSet, rate_bits
from .optimizer import waterfill
from .physics import SPEED_OF_LIGHT, _phasor, phasor_rows

# Relative accuracy asked of every Gram eigenvalue the rate uses. A Gram
# eigenvalue of an r x r subband carries an absolute error of order
# r * eps * lambda_max, so only those at or above r * eps / GRAM_RTOL times
# the subband's largest are resolved; the rest are treated as 0.
GRAM_RTOL = 1e-9
# Subband matrices per block: bounds the entries and conjugated copies that
# exist at one time to about this many entries each.
GRAM_BLOCK_ENTRIES = 2**15
# Subbands from one exact anchor row of the LoS entries to the next.
ANCHOR_STRIDE = 16


class UlaGeometry:
    """M elements on a line, half-wavelength spaced at the reference
    frequency and centered at the origin."""

    __slots__ = ("num_elements_M", "reference_frequency_hz")

    def __init__(self, num_elements_M: int, reference_frequency_hz: float) -> None:
        m = num_elements_M
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"num_elements_M must be an integer >= 1, got {m!r}")
        if not 0 < reference_frequency_hz < math.inf:  # NaN fails both
            raise ValueError("reference_frequency_hz must be finite and > 0")
        self.num_elements_M = num_elements_M
        self.reference_frequency_hz = reference_frequency_hz

    @property
    def spacing_m(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.reference_frequency_hz)

    @property
    def element_positions(self) -> np.ndarray:
        m = np.arange(self.num_elements_M, dtype=float)
        return (m - (self.num_elements_M - 1) / 2.0) * self.spacing_m

    @property
    def aperture_m(self) -> float:
        return (self.num_elements_M - 1) * self.spacing_m


class _LineOfSight(NamedTuple):
    """A built channel's entries d_min exp(-2j pi f_n d_km / c) / d_km, d_min
    the nearest element-to-user distance, made in order from subband 0 by
    blocks: the LoS channel scaled to a largest magnitude of 1.

    The subband centers are FrequencyGrid's, evenly spaced: f_n = f_a +
    (n - a) * delta, delta = (f_{N-1} - f_0) / (N - 1), so the rows are
    physics.phasor_rows with the step exp(-2j pi delta d_km / c): row n is
    the direct phasor at n = 0 (mod ANCHOR_STRIDE), times the step n mod
    ANCHOR_STRIDE times, in that order, whatever the block size."""

    dist: np.ndarray
    freqs: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.freqs.size, *self.dist.shape)

    def blocks(self, rows: int):
        """Consecutive blocks of at most rows subbands, from subband 0 to the
        last, each a fresh array."""
        dist, freqs = self.dist, self.freqs
        spacing = (freqs[-1] - freqs[0]) / max(freqs.size - 1, 1)
        inv_dist = dist.min() / dist

        def anchor(n, out):
            # the direct phasor, rounding as exp(-2j*pi*f*d / c) * (d_min / d)
            _phasor(((-2.0 * np.pi) * freqs[n] * dist) * (1.0 / SPEED_OF_LIGHT), out)
            out *= inv_dist
        step = ((-2.0 * np.pi) * spacing * dist) * (1.0 / SPEED_OF_LIGHT)
        recurrence = phasor_rows(anchor, step, freqs.size, ANCHOR_STRIDE)
        for start in range(0, freqs.size, rows):
            block = np.empty((min(rows, freqs.size - start), *dist.shape), dtype=complex)
            for i, row in enumerate(islice(recurrence, len(block))):
                block[i] = row
            yield block


class MimoSpectrum(NamedTuple):
    """An N x K x M channel H with a largest |entry| of 1, as the rate reads
    it: the ascending eigenvalues of the Gram matrix of each subband H_n on
    its short side, shape (N, min(K, M)); and the source H is read from,
    with its shape and its blocks."""

    eigenvalues: np.ndarray
    source: _LineOfSight

    @property
    def entries(self) -> np.ndarray:
        """H, rebuilt from the source as one block on every access (only the
        SVD fallback of mimo_sum_rate and tests read it)."""
        source = self.source
        return next(source.blocks(source.shape[0]))


def build_mimo_channel(
    geometry: UlaGeometry, grid: FrequencyGrid, users: UserSet
) -> MimoSpectrum:
    """Exact-distance LoS channel: entry (n,k,m) = (1/d_km) exp(-j 2 pi f_n d_km / c),
    held times d_min, so that its largest |entry| is 1.

    d_km is the element-to-user Euclidean distance, so near-field curvature
    is captured. Users must lie outside the array (range > aperture/2), or
    ValueError is raised. The spectrum is read here, in one pass over blocks
    of about GRAM_BLOCK_ENTRIES entries of whole subbands; the N x K x M
    entries are never held at once, and .entries rebuilds them. The entries
    are at most 1 in magnitude, so no Gram formed from them can overflow.
    """
    if np.any(users.ranges_m <= geometry.aperture_m / 2.0):
        raise ValueError("user ranges must exceed half the array aperture")
    # array lies along the plate axis; user k sits at polar (rho_k, phi_k)
    ux = users.ranges_m * np.cos(users.angles_rad)
    uy = users.ranges_m * np.sin(users.angles_rad)
    pos = geometry.element_positions
    dist = np.sqrt((ux[:, None] - pos[None, :]) ** 2 + uy[:, None] ** 2)  # K x M
    source = _LineOfSight(dist, grid.frequencies)
    n, K, M = source.shape
    step = max(1, GRAM_BLOCK_ENTRIES // (K * M))
    eigs = np.empty((n, min(K, M)))
    for start, block in zip(range(0, n, step), source.blocks(step)):
        if K > M:
            block = block.swapaxes(-1, -2)  # H^T conj(H) = conj(H^H H), same eigenvalues
        eigs[start : start + step] = np.linalg.eigvalsh(block @ block.conj().swapaxes(-1, -2))
    return MimoSpectrum(eigs, source)


def _pooled_rate(pooled: np.ndarray, budget_P: float, noise: NoiseModel):
    """Waterfill the pool; return the allocation and the mean rate over N."""
    alloc = waterfill(pooled.ravel(), budget_P, noise)
    return alloc, rate_bits(alloc.powers, pooled.ravel(), noise, pooled.shape[0])


def mimo_sum_rate(
    spectrum: MimoSpectrum, peak: float, budget_P: float, noise: NoiseModel
) -> float:
    """Spatial-spectral waterfilling rate, bits per channel use.

    The channel is peak * spectrum.entries: the unit-peak channel scaled to
    a largest |entry| of peak, the LWA channel's (max-tap normalization).
    Pools the squared singular values of every subband matrix H_n of it as
    parallel channels, waterfills the budget across the pool, and averages
    the resulting rates over the N subbands (channel.rate_bits, which
    raises FloatingPointError if the rate is not finite). waterfill raises
    ValueError unless the budget is finite and > 0, and AllGainsZero if
    the pool is all zero, as it is for a zero peak.

    The squared singular values are taken from the spectrum: the
    eigenvalues of the r x r Gram matrix of each unit-peak subband on its
    short side (r = min(K, M)), times peak^2. Those below
    tau * lambda_max(n), tau = r * eps / GRAM_RTOL, are not resolved and
    enter the waterfill as 0. If the water level shows that one of them
    could still have been active, the pool is recomputed from the SVD of
    the entries and waterfilled again, so the rate keeps the SVD's accuracy
    at any SNR.
    """
    tau = spectrum.eigenvalues.shape[1] * np.finfo(float).eps / GRAM_RTOL
    sigma2 = noise.variance_sigma2

    pooled = spectrum.eigenvalues * np.square(peak)
    lam_max = pooled[:, -1:]
    unresolved = pooled < tau * lam_max
    pooled[unresolved] = 0.0
    alloc, rate = _pooled_rate(pooled, budget_P, noise)

    active = np.argmax(alloc.powers)
    level = alloc.powers[active] + sigma2 / pooled.flat[active]
    if np.any(sigma2 / level < tau * lam_max[unresolved.any(axis=1)]):
        # an unresolved mode's floor may lie below the water level
        entries = spectrum.entries
        _, K, M = entries.shape
        tall = entries if K > M else entries.swapaxes(-1, -2)
        svals = np.linalg.svd(tall, compute_uv=False)
        _, rate = _pooled_rate(np.square(peak * svals), budget_P, noise)
    return rate
