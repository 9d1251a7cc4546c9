"""Fully digital wideband MIMO baseline.

Uniform linear array with an exact-distance (spherical wavefront) LoS
channel, valid in both radiative near and far field. The tensor is
normalized so its largest tap magnitude matches the LWA channel, and the
sum-rate uses waterfilling pooled over per-subband eigenmodes and
frequency bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, FrequencyGrid, NoiseModel, UserSet, rate_bits
from .optimizer import waterfill
from .physics import SPEED_OF_LIGHT

# Relative accuracy asked of every Gram eigenvalue the rate uses. A Gram
# eigenvalue of an r x r subband carries an absolute error of order
# r * eps * lambda_max, so only those at or above r * eps / GRAM_RTOL times
# the subband's largest are resolved; the rest are treated as 0.
GRAM_RTOL = 1e-9
# Subband matrices per block: bounds the magnitudes, scaled and conjugated
# copies that exist at one time to about this many entries each.
GRAM_BLOCK_ENTRIES = 2**15


class ZeroChannel(ValueError):
    """A channel with no nonzero entry cannot be normalized."""


@dataclass(frozen=True)
class UlaGeometry:
    """M elements on a line, half-wavelength spaced at the reference
    frequency and centered at the origin."""

    num_elements_M: int
    reference_frequency_hz: float

    def __post_init__(self) -> None:
        if self.num_elements_M < 1:
            raise ValueError("num_elements_M must be >= 1")
        if self.reference_frequency_hz <= 0:
            raise ValueError("reference_frequency_hz must be > 0")

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


@dataclass(frozen=True)
class MimoChannelTensor:
    """N x K x M complex gains and a scalar normalization: the channel is
    normalization_factor * entries."""

    entries: np.ndarray
    normalization_factor: float = 1.0


def build_mimo_channel(
    geometry: UlaGeometry, grid: FrequencyGrid, users: UserSet
) -> MimoChannelTensor:
    """Exact-distance LoS channel: entry (n,k,m) = (1/d_km) exp(-j 2 pi f_n d_km / c).

    d_km is the element-to-user Euclidean distance, so near-field curvature
    is captured. Users must lie outside the array (range > aperture/2).
    """
    if np.any(users.ranges_m <= geometry.aperture_m / 2.0):
        raise ValueError("user ranges must exceed half the array aperture")
    # array lies along the plate axis; user k sits at polar (rho_k, phi_k)
    ux = users.ranges_m * np.cos(users.angles_rad)
    uy = users.ranges_m * np.sin(users.angles_rad)
    pos = geometry.element_positions
    dist = np.sqrt((ux[:, None] - pos[None, :]) ** 2 + uy[:, None] ** 2)  # K x M
    freqs = grid.frequencies
    # Built in place, rounding as exp(-2j*pi*f*d / c) / d does: numpy divides
    # a complex by a real x as a product with 1/x.
    entries = np.zeros((freqs.size, *dist.shape), dtype=complex)
    phase = entries.imag
    np.multiply((-2.0 * np.pi) * freqs[:, None, None], dist, out=phase)
    phase *= 1.0 / SPEED_OF_LIGHT
    np.exp(entries, out=entries)
    entries *= 1.0 / dist
    return MimoChannelTensor(entries, 1.0)


def _subband_blocks(entries: np.ndarray) -> list:
    """Slices of whole subbands holding about GRAM_BLOCK_ENTRIES entries each."""
    n, K, M = entries.shape
    step = max(1, GRAM_BLOCK_ENTRIES // (K * M))
    return [slice(start, start + step) for start in range(0, n, step)]


def normalize_to_lwa(
    tensor: MimoChannelTensor, lwa_channel: ChannelMatrix
) -> MimoChannelTensor:
    """Set the normalization so the channel's max tap magnitude matches the
    LWA channel's. The entries are shared, not copied."""
    entries = tensor.entries
    peak = np.max([np.abs(entries[block]).max() for block in _subband_blocks(entries)])
    mimo_max = tensor.normalization_factor * float(peak)
    lwa_max = float(np.max(np.abs(lwa_channel.entries)))
    if mimo_max == 0.0 or lwa_max == 0.0:
        raise ZeroChannel("cannot normalize a channel with all-zero entries")
    return MimoChannelTensor(tensor.entries, tensor.normalization_factor * (lwa_max / mimo_max))


def _gram_eigenvalues(entries: np.ndarray, scale: float) -> np.ndarray:
    """Eigenvalues of the Gram matrix of scale * H_n on its short side, for
    each subband matrix H_n of entries: ascending, shape (N, min(K, M)).

    Each subband is scaled to a largest real or imaginary part of 1 before
    its Gram is formed, so the Gram cannot underflow or overflow; the scale
    is put back on the eigenvalues.
    """
    n, K, M = entries.shape
    eigs = np.empty((n, min(K, M)))
    for subbands in _subband_blocks(entries):
        block = np.ascontiguousarray(entries[subbands])
        peak = np.abs(block.view(float)).max(axis=(1, 2))
        inv_peak = np.divide(1.0, peak, out=np.zeros_like(peak), where=peak > 0)
        wide = block * inv_peak[:, None, None]
        if K > M:
            wide = wide.swapaxes(-1, -2)  # H^T conj(H) = conj(H^H H), same eigenvalues
        gram = wide @ wide.conj().swapaxes(-1, -2)
        eigs[subbands] = np.linalg.eigvalsh(gram) * np.square(scale * peak)[:, None]
    return eigs


def _pooled_rate(pooled: np.ndarray, budget_P: float, noise: NoiseModel):
    """Waterfill the pool; return the allocation and the mean rate over N."""
    alloc = waterfill(pooled.ravel(), budget_P, noise)
    return alloc, rate_bits(alloc.powers, pooled.ravel(), noise, pooled.shape[0])


def mimo_sum_rate(
    tensor: MimoChannelTensor, budget_P: float, noise: NoiseModel
) -> float:
    """Spatial-spectral waterfilling rate, bits per channel use.

    Pools the squared singular values of every subband matrix H_n of the
    channel normalization_factor * entries as parallel channels,
    waterfills the budget across the pool, and averages the resulting rates
    over the N subbands (channel.rate_bits, which raises FloatingPointError
    if the rate is not finite).

    The squared singular values are taken as the eigenvalues of the r x r
    Gram matrix of H_n on its short side (r = min(K, M)). Those below
    tau * lambda_max(n), tau = r * eps / GRAM_RTOL, are not resolved and
    enter the waterfill as 0. If the water level shows that one of them
    could still have been active, the pool is recomputed from the SVD and
    waterfilled again, so the rate keeps the SVD's accuracy at any SNR.
    """
    if budget_P <= 0:
        raise ValueError("budget_P must be > 0")
    entries, factor = tensor.entries, tensor.normalization_factor
    _, K, M = entries.shape
    tau = min(K, M) * np.finfo(float).eps / GRAM_RTOL
    sigma2 = noise.variance_sigma2

    pooled = _gram_eigenvalues(entries, factor)
    lam_max = pooled[:, -1:]
    unresolved = pooled < tau * lam_max
    pooled[unresolved] = 0.0
    alloc, rate = _pooled_rate(pooled, budget_P, noise)

    active = np.argmax(alloc.powers)
    level = alloc.powers[active] + sigma2 / pooled.flat[active]
    if np.any(sigma2 / level < tau * lam_max[unresolved.any(axis=1)]):
        # an unresolved mode's floor may lie below the water level
        tall = entries if K > M else entries.swapaxes(-1, -2)
        svals = np.linalg.svd(tall, compute_uv=False)
        _, rate = _pooled_rate(np.square(factor * svals), budget_P, noise)
    return rate
