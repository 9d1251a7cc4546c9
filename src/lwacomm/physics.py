"""Leaky-wave antenna (LWA) emission physics.

A guided wave travels between two parallel plates separated by b and leaks
through a slit of length L. Each frequency f above the cutoff c/(2b) is
radiated at its own azimuth angle arcsin(c/(2bf)) (the "THz rainbow"), with
a sinc-shaped diffraction pattern whose width shrinks as the slit grows.

diffraction_gain_grid is the one way in: the optimizer, the beampattern and
the MIMO normalization all read the gain from it. It is pure; LwaConfig is a
plain class that checks its fields when it is built.
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# Below this magnitude sin(z)/z is evaluated by series to avoid cancellation
# at the beam peak, where the argument crosses zero.
_SINC_SERIES_CUTOFF = 1e-6


class LwaConfig:
    """Antenna geometry: plate separation b and slit length L, in meters.

    slit_length_L may be a (J, 1, 1) array of slit lengths, for which
    diffraction_gain_grid returns one gain grid per slit, and
    plate_separation_b a (B, 1, 1) array, for which it returns one such
    (J, N, K) block per b. Every field must be finite.
    """

    __slots__ = ("plate_separation_b", "slit_length_L")

    def __init__(
        self, plate_separation_b: float | np.ndarray, slit_length_L: float | np.ndarray
    ) -> None:
        self.plate_separation_b = plate_separation_b
        self.slit_length_L = slit_length_L
        for name in self.__slots__:
            value = getattr(self, name)
            if not np.all(np.isfinite(value)) or np.any(value <= 0):
                raise ValueError(f"{name} must be finite and > 0")

    @property
    def cutoff_frequency(self) -> float:
        """Lowest propagating frequency, c/(2b), in Hz."""
        return SPEED_OF_LIGHT / (2.0 * self.plate_separation_b)


def _sinc(z: np.ndarray) -> np.ndarray:
    """Unnormalized sinc sin(z)/z of real z, sinc(0) = 1, in float64.

    Near zero a 4th-order series keeps the peak numerically exact. sin(z) is
    multiplied by 1/z: that is how numpy rounds a complex division by a
    number whose imaginary part is 0, so the result equals the complex
    evaluation bitwise. z itself is never written; it is copied, and the
    mask of series entries built, only when some entry needs the series.
    """
    z = np.asarray(z)
    magnitude = np.abs(z)
    # fmin skips NaN, so a NaN entry cannot hide a small one
    small = None
    if magnitude.size and np.fmin.reduce(magnitude, axis=None) < _SINC_SERIES_CUTOFF:
        small = magnitude < _SINC_SERIES_CUTOFF
    safe = z if small is None else np.where(small, 1.0, z)
    out = np.sin(safe)
    # the magnitudes are no longer needed, so the reciprocal goes there
    out *= np.divide(1.0, safe, out=magnitude)
    if small is not None:
        z_small = z[small]
        z2 = z_small * z_small
        out[small] = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return out


def diffraction_gain_grid(
    config: LwaConfig, angles: np.ndarray, frequencies: np.ndarray
) -> np.ndarray:
    """Diffraction gain sinc[(beta - k0*cos(angle)) L/2] on the outer grid
    of `frequencies` x `angles`.

    beta = k0*sqrt(1 - (c/(2bf))^2) is the guided-mode phase constant and
    k0 = 2*pi*f/c the free-space wavenumber. The gain is real, |G| <= 1,
    and |G| = 1 at each frequency's emission angle arcsin(c/(2bf)).

    Returns an array of shape (len(frequencies), len(angles)), or
    (J, len(frequencies), len(angles)) when slit_length_L is a (J, 1, 1)
    array. When plate_separation_b is a (B, 1, 1) array the result gains a
    leading b axis, (B, J, N, K), with J = 1 for a scalar slit length;
    every entry equals the one evaluated with that b alone, bitwise. The
    gain is float64. Below the cutoff c/(2b) the guided mode is evanescent
    and radiates nothing: those frequencies get a gain of exactly 0. Raises
    ValueError unless every frequency is finite and > 0.
    """
    angles = np.asarray(angles, dtype=float)
    frequencies = np.asarray(frequencies, dtype=float)
    if not np.all(np.isfinite(frequencies)) or np.any(frequencies <= 0):
        raise ValueError("frequencies must be finite and > 0")
    b = np.asarray(config.plate_separation_b, dtype=float)
    b = b[..., None] if b.ndim else b  # (B, 1, 1, 1): one (J, N, K) block per b
    f = frequencies[:, None]
    valid = f >= SPEED_OF_LIGHT / (2.0 * b)  # the cutoff_frequency expression
    ratio = SPEED_OF_LIGHT / (2.0 * b * f)
    k0 = 2.0 * np.pi * f / SPEED_OF_LIGHT
    beta = k0 * np.sqrt(np.maximum(1.0 - ratio ** 2, 0.0))
    z = (beta - k0 * np.cos(angles)) * (config.slit_length_L / 2.0)
    gain = _sinc(z)
    if not valid.all():
        np.copyto(gain, 0.0, where=~valid)
    return gain
