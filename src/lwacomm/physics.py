"""Leaky-wave antenna (LWA) emission physics.

A guided wave travels between two parallel plates separated by b and leaks
through a slit of length L. Each frequency component is radiated at its own
azimuth angle (the "THz rainbow"), with a sinc-shaped diffraction pattern
whose width shrinks as the slit grows.

All functions here are pure; configs are frozen dataclasses and safe to
share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# Below this magnitude sin(z)/z is evaluated by series to avoid cancellation
# at the beam peak, where the argument crosses zero.
_SINC_SERIES_CUTOFF = 1e-6


class CutoffViolation(ValueError):
    """Frequency is below the waveguide cutoff c/(2b): the guided mode is
    evanescent and no propagating emission angle exists."""


@dataclass(frozen=True)
class LwaConfig:
    """Antenna geometry: plate separation b and slit length L, in meters.

    leakage_alpha is the per-meter attenuation of the guided wave due to
    leakage out of the slit; it is negligible in practice and defaults to 0,
    but a nonzero value exercises the complex branch of the gain.
    slit_length_L may be a (J, 1, 1) array of slit lengths, for which
    diffraction_gain_grid returns one gain grid per slit.
    """

    plate_separation_b: float
    slit_length_L: float | np.ndarray
    leakage_alpha: float = 0.0

    def __post_init__(self) -> None:
        if np.any(self.plate_separation_b <= 0):
            raise ValueError("plate_separation_b must be > 0")
        if np.any(self.slit_length_L <= 0):
            raise ValueError("slit_length_L must be > 0")
        if self.leakage_alpha < 0:
            raise ValueError("leakage_alpha must be >= 0")

    @property
    def cutoff_frequency(self) -> float:
        """Lowest propagating frequency, c/(2b), in Hz."""
        return SPEED_OF_LIGHT / (2.0 * self.plate_separation_b)


def _require_propagating(config: LwaConfig, frequency: float) -> None:
    if frequency < config.cutoff_frequency:
        raise CutoffViolation(
            f"frequency {frequency:.6g} Hz below cutoff "
            f"{config.cutoff_frequency:.6g} Hz"
        )


def emission_angle(config: LwaConfig, frequency: float) -> float:
    """Azimuth angle (rad) at which `frequency` is radiated: arcsin(c/(2bf)).

    Strictly decreasing in frequency for fixed b. Raises CutoffViolation for
    frequencies below the cutoff c/(2b).
    """
    if frequency <= 0:
        raise ValueError("frequency must be > 0")
    _require_propagating(config, frequency)
    ratio = SPEED_OF_LIGHT / (2.0 * config.plate_separation_b * frequency)
    return math.asin(min(ratio, 1.0))  # at the cutoff, ratio can round to 1 + 2^-52


def beam_peak_frequency(config: LwaConfig, angle: float) -> float:
    """Inverse of emission_angle: frequency radiated at `angle` (rad).

    Defined for angles in (0, pi/2]; at pi/2 this is the cutoff frequency.
    """
    if not 0.0 < angle <= math.pi / 2:
        raise ValueError("angle must lie in (0, pi/2]")
    return SPEED_OF_LIGHT / (2.0 * config.plate_separation_b * math.sin(angle))


def _sinc(z: np.ndarray) -> np.ndarray:
    """Unnormalized sinc sin(z)/z for complex z, sinc(0) = 1.

    Near zero a 4th-order series keeps the peak numerically exact.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 - z * z / 6.0 + z ** 4 / 120.0, np.sin(safe) / safe)


def diffraction_gain(config: LwaConfig, angle: float, frequency: float) -> complex:
    """Complex slit diffraction gain sinc[(beta - j*alpha - k0*cos(angle)) L/2].

    beta = k0*sqrt(1 - (c/(2bf))^2) is the guided-mode phase constant and
    k0 = 2*pi*f/c the free-space wavenumber. With alpha = 0 the gain is real,
    |G| <= 1, and |G| = 1 exactly at the emission angle of `frequency`.
    Raises CutoffViolation below cutoff, where no mode propagates.
    """
    gain = diffraction_gain_grid(
        config, np.asarray([angle], dtype=float), np.asarray([frequency], dtype=float)
    )
    _require_propagating(config, frequency)
    return complex(gain[0, 0])


def diffraction_gain_grid(
    config: LwaConfig, angles: np.ndarray, frequencies: np.ndarray
) -> np.ndarray:
    """Diffraction gain on the outer grid of `frequencies` x `angles`.

    Returns a complex array of shape (len(frequencies), len(angles)), or
    (J, len(frequencies), len(angles)) when slit_length_L is a (J, 1, 1)
    array. Below the cutoff c/(2b) the guided mode is evanescent and
    radiates nothing: those frequencies get a gain of exactly 0.
    """
    angles = np.asarray(angles, dtype=float)
    frequencies = np.asarray(frequencies, dtype=float)
    if np.any(frequencies <= 0):
        raise ValueError("frequencies must be > 0")
    valid = frequencies >= config.cutoff_frequency
    ratio = SPEED_OF_LIGHT / (2.0 * config.plate_separation_b * frequencies)
    k0 = 2.0 * np.pi * frequencies / SPEED_OF_LIGHT
    beta = k0 * np.sqrt(np.maximum(1.0 - ratio ** 2, 0.0))
    z = (
        (beta - 1j * config.leakage_alpha)[:, None]
        - k0[:, None] * np.cos(angles)[None, :]
    ) * (config.slit_length_L / 2.0)
    return np.where(valid[:, None], _sinc(z), 0.0)
