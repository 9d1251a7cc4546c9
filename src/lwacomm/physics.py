"""Leaky-wave antenna (LWA) emission physics.

A guided wave travels between two parallel plates separated by b and leaks
through a slit of length L. Each frequency f above the cutoff c/(2b) is
radiated at its own azimuth angle arcsin(c/(2bf)) (the "THz rainbow"), with
a sinc-shaped diffraction pattern whose width shrinks as the slit grows.

diffraction_gain_grid is the one way in: the optimizer, the beampattern and
the LWA peak that scales the MIMO rate all read the gain from it. It is
pure; LwaConfig is a plain class that checks its fields when it is built.
It makes two arrays of the gain's size, the argument z and the gain, and
writes every other full-size step into one of them in place, in order:
|z| into the gain, the series test on it, sin(z) over it, times 1/z taken
into z (how numpy rounds the complex division, so the gain equals the
complex evaluation bitwise), and the series entries last. A copy of z and
a mask are added only when some entry needs the series near z = 0. A freed
full-size array is memory the allocator may hand back to the system and
fault in again on the next call.

A slit column must be evenly spaced: every L_j within SPACING_TOL eps
max|L| of L_0 + j delta (even_spacing). LwaConfig checks that once, when it
is built, raising ValueError otherwise, and keeps delta. Along it the
sinc argument z_j = w L_j / 2, with w = beta - k0 cos(phi), is linear in j.
So sin(z_j) is the imaginary part of a phasor that advances by one complex
multiply per row, with an exact anchor cos(z_j) + i sin(z_j) every
SLIT_ANCHOR_STRIDE rows, whose imaginary part is the direct sin(z_j) itself:
phasor_rows, the package's one anchored recurrence, which the MIMO line of
sight also runs with its own stride and bound.
For row j, m = j mod SLIT_ANCHOR_STRIDE steps past its anchor a, against
sin(z_j) / z_j on the same bits of z_j:

    |G_j - sin(z_j) / z_j| <= (2 SPACING_TOL + 8 + 5 m) (L_max / L_j) eps

- The phasor's magnitude errs by at most (1 + 1.6 m) eps: eps for the
  anchor; per step, eps for the step's magnitude and sqrt(5) eps / 2 for
  the complex product.
- Its phase errs by at most Z_max (5.5 + 2 SPACING_TOL + 2.5 m) eps, with
  Z_max = |w| L_max / 2. The anchor's phase and the roundings of z_j and
  z_a cost 3 Z_max eps. The step's phase w delta / 2 errs by 2.5 eps
  relative, 2.5 Z_max eps over the m steps. The slit lengths may lie
  SPACING_TOL eps L_max off the line at either end: 2 SPACING_TOL Z_max eps.
  Each product's phase errs by at most 2.5 Z_max eps, since its terms are
  bounded by the phases they add.
- sin(z_j) errs by the magnitude error times |sin z_j| plus the phase
  error. Divided by z_j, that leaves the magnitude error plus the phase
  error over |z_j|, and Z_max / |z_j| = L_max / L_j. Rounding the quotient
  costs one eps more.

The direct sin meets the same bound (it lies within 2 eps of the exact
sinc of its argument), and entries below the series cutoff come from z
alone, so they equal the direct ones. For ||h_n||^2 = sum_k (G_k Gamma_k)^2,
with |G| <= 1, a gain bound R eps on every user's row gives (2 R + K + 3) eps
sum_k Gamma_k^2: twice the gain error, plus one rounding of each product,
square and running sum that may fall the other way.

Both evaluations share the argument z. Its own rounding against the exact
argument is at most about Z (2.5 / s + 7.35) eps, with Z = k0 L / 2 and
s = sqrt(1 - (c / (2 b f))^2); that moves G by at most 0.44 times as much,
0.44 being the largest |sinc'|.
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s

# Below this magnitude sin(z)/z is evaluated by series to avoid cancellation
# at the beam peak, where the argument crosses zero.
_SINC_SERIES_CUTOFF = 1e-6
# Slit rows from one exact anchor cos(z) + i sin(z) to the next: the default
# 21-slit grid takes a single anchor.
SLIT_ANCHOR_STRIDE = 32
# How far, in eps * max|v|, a value of an evenly spaced column may lie off the
# line through its first and last: linspace rounding leaves at most about 2,
# and so does FrequencyGrid, whose centers the MIMO line of sight trusts.
SPACING_TOL = 4.0


class LwaConfig:
    """Antenna geometry: plate separation b and slit length L, in meters.

    slit_length_L may be a (J, 1, 1) array of evenly spaced slit lengths,
    for which diffraction_gain_grid returns one gain grid per slit, and
    plate_separation_b a (B, 1, 1) array, for which it returns one such
    (J, N, K) block per b. Raises ValueError unless every field is finite
    and > 0 and the slit lengths are evenly spaced (even_spacing).
    slit_step holds their step, 0.0 for a single length, which
    diffraction_gain_grid trusts. So a config is read-only: a field is a
    float or a float64 copy with its writeable flag off, and assigning one
    raises AttributeError.
    """

    __slots__ = ("plate_separation_b", "slit_length_L", "slit_step")

    def __init__(
        self, plate_separation_b: float | np.ndarray, slit_length_L: float | np.ndarray
    ) -> None:
        for name, value in (("plate_separation_b", plate_separation_b),
                            ("slit_length_L", slit_length_L)):
            if not np.all(np.isfinite(value)) or np.any(value <= 0):
                raise ValueError(f"{name} must be finite and > 0")
            value = np.array(value, dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value if value.ndim else float(value))
        object.__setattr__(self, "slit_step", even_spacing(np.ravel(self.slit_length_L)))

    def __setattr__(self, name, value):
        raise AttributeError(f"LwaConfig is read-only: build a new one to change {name}")

    @property
    def cutoff_frequency(self) -> float:
        """Lowest propagating frequency, c/(2b), in Hz."""
        return SPEED_OF_LIGHT / (2.0 * self.plate_separation_b)


def even_spacing(values: np.ndarray) -> float:
    """The step (v[-1] - v[0]) / (n - 1) of a 1-D array of n values, a slit
    column, 0 for fewer than two. Raises ValueError unless every value lies
    within SPACING_TOL * eps * max|v| of v[0] + i * step."""
    if values.size < 2:
        return 0.0
    n = np.arange(values.size)
    step = (values[-1] - values[0]) / (values.size - 1)
    off_line = np.abs(values - (values[0] + n * step))
    if np.any(off_line > SPACING_TOL * np.finfo(float).eps * np.abs(values).max()):
        raise ValueError("the slit lengths must be evenly spaced")
    return step


def _phasor(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(i x) of real x as cos(x) + i sin(x), written into the complex out:
    its imaginary part is np.sin(x) itself. The two real ufuncs take about
    three quarters of the time of the complex exp."""
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def phasor_rows(anchor, step, count: int, stride: int):
    """Rows j = 0, ..., count - 1 of a phasor recurrence along an evenly spaced
    axis, in order: anchor(j, row) writes the exact row j = 0 (mod stride)
    into the buffer it is given, and any other row is the row before times
    exp(i step), made only when count > 1. Every row is yielded as the one
    buffer, so it holds only until the next row is asked for."""
    row = np.empty(np.shape(step), dtype=complex)
    if count > 1:
        step = _phasor(step, np.empty_like(row))
    for j in range(count):
        if j % stride:
            row *= step
        else:
            anchor(j, row)
        yield row


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
    and radiates nothing: those frequencies get a gain of exactly 0.

    A scalar slit length takes sin directly. Along a slit column, whose
    even spacing LwaConfig checked and whose step config.slit_step is
    trusted here, sin comes from the phasor recurrence of the module
    docstring. Its anchor rows (j = 0 mod SLIT_ANCHOR_STRIDE) equal the gain
    evaluated with that slit length alone, bitwise, and the other rows lie
    within the recurrence's bound of it, so rows that repeat a slit length
    may differ in their last bits (geometry_gains_squared evaluates each
    distinct length once). Raises ValueError unless every frequency is
    finite and > 0.
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
    w = beta - k0 * np.cos(angles)
    slits = config.slit_length_L
    z = w * (slits / 2.0)
    gain = np.abs(z, out=np.empty(z.shape))
    # fmin skips NaN, so a NaN entry cannot hide a small one
    small = None
    if gain.size and np.fmin.reduce(gain, axis=None) < _SINC_SERIES_CUTOFF:
        small = gain < _SINC_SERIES_CUTOFF
    if np.ndim(slits):  # a (J, 1, 1) column: sin(z_j) is the phasor rows' .imag
        z_rows = np.moveaxis(z, -3, 0)
        step = np.reshape(w * (config.slit_step / 2.0), z_rows.shape[1:])
        rows = phasor_rows(lambda j, row: _phasor(z_rows[j], row), step,
                           len(z_rows), SLIT_ANCHOR_STRIDE)
        for sine_row, row in zip(np.moveaxis(gain, -3, 0), rows):
            sine_row[...] = row.imag
    else:
        np.sin(z, out=gain)
    safe = z if small is None else np.where(small, 1.0, z)
    gain *= np.divide(1.0, safe, out=safe)
    if small is not None:  # the series entries, from z alone
        z_small = z[small]
        z2 = z_small * z_small
        gain[small] = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    if not valid.all():
        np.copyto(gain, 0.0, where=~valid)
    return gain
