"""Fully digital wideband MIMO baseline.

Uniform linear array with an exact-distance (spherical wavefront) LoS
channel, valid in both radiative near and far field. The tensor is
normalized so its largest tap magnitude matches the LWA channel, and the
sum-rate uses waterfilling pooled over per-subband eigenmodes and
frequency bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, FrequencyGrid, NoiseModel, UserSet
from .optimizer import waterfill
from .physics import SPEED_OF_LIGHT


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
    """N x K x M complex gains plus the scalar normalization applied."""

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
    phase = np.exp(-2j * np.pi * freqs[:, None, None] * dist[None, :, :] / SPEED_OF_LIGHT)
    entries = phase / dist[None, :, :]
    return MimoChannelTensor(entries, 1.0)


def normalize_to_lwa(
    tensor: MimoChannelTensor, lwa_channel: ChannelMatrix
) -> MimoChannelTensor:
    """Scale all entries so the max tap magnitude matches the LWA channel's."""
    mimo_max = float(np.max(np.abs(tensor.entries)))
    lwa_max = float(np.max(np.abs(lwa_channel.entries)))
    if mimo_max == 0.0 or lwa_max == 0.0:
        raise ZeroChannel("cannot normalize a channel with all-zero entries")
    scale = lwa_max / mimo_max
    return MimoChannelTensor(tensor.entries * scale, tensor.normalization_factor * scale)


def mimo_sum_rate(
    tensor: MimoChannelTensor, budget_P: float, noise: NoiseModel
) -> float:
    """Spatial-spectral waterfilling rate, bits per channel use.

    Pools the squared singular values of every subband matrix H_n as
    parallel channels, waterfills the budget across the pool, and averages
    the resulting rates over the N subbands. Raises FloatingPointError if
    the rate is not finite.
    """
    if budget_P <= 0:
        raise ValueError("budget_P must be > 0")
    n_subbands = tensor.entries.shape[0]
    svals = np.linalg.svd(tensor.entries, compute_uv=False)  # N x min(K, M)
    pooled = (svals ** 2).ravel()
    alloc = waterfill(pooled, budget_P, noise)
    rates = np.log2(1.0 + alloc.powers * pooled / noise.variance_sigma2)
    rate = math.fsum(rates) / n_subbands
    if not math.isfinite(rate):
        raise FloatingPointError(f"the MIMO rate is not finite: {rate}")
    return rate
