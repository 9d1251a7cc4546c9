import math
import warnings

import numpy as np
import pytest

from lwacomm import physics
from lwacomm.channel import (
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    beampattern,
    build_channel,
)
from lwacomm.optimizer import AllGainsZero, waterfill
from lwacomm.physics import SPEED_OF_LIGHT, LwaConfig, diffraction_gain_grid

from oracles import (
    EPS,
    assert_rows_within,
    hp_diffraction_gain,
    hp_emission_angle,
    reference_diffraction_gain_grid,
    slit_gain_bound,
    traced_peak,
)

B1MM = LwaConfig(plate_separation_b=1e-3, slit_length_L=10e-3)


def gain_at(config, angle, frequency):
    """The grid's gain at one (angle, frequency) point."""
    return diffraction_gain_grid(config, np.array([angle]), np.array([frequency]))[0, 0]


def peak_angle(config, frequency):
    """The 50-digit oracle's emission angle arcsin(c/(2bf)) of `config`."""
    return hp_emission_angle(repr(float(config.plate_separation_b)), repr(float(frequency)))


class TestEmissionAngle:
    """The grid's gain peaks at the emission angle arcsin(c/(2bf))."""

    def test_known_angles_b_1mm(self):
        # frozen from the 50-digit oracle (hp_emission_angle)
        for angle, f in [
            (0.5231994068648067, 300e9),
            (0.3613408804665874, 424e9),
            (0.2525016355467884, 600e9),
        ]:
            assert gain_at(B1MM, angle, f) == pytest.approx(1.0, abs=1e-12)

    def test_matches_high_precision_oracle(self):
        offsets = np.arange(-5, 6) * 1e-6  # offsets[5] is 0: the oracle's angle
        for f in ("200e9", "300e9", "555e9", "800e9"):
            angles = hp_emission_angle("1e-3", f) + offsets
            gains = diffraction_gain_grid(B1MM, angles, np.array([float(f)]))[0]
            assert np.argmax(gains) == 5 and gains[5] == pytest.approx(1.0, abs=1e-14)

    def test_cutoff_boundary_is_broadside(self):
        angles = np.linspace(0.01, math.pi / 2, 500)
        # c/(2 b f) at f = cutoff_frequency rounds to 1 + 2^-52 for the second b
        for config in (B1MM, LwaConfig(0.0005375138883100129, 10e-3)):
            gains = diffraction_gain_grid(config, angles, np.array([config.cutoff_frequency]))
            assert angles[np.argmax(gains[0])] == math.pi / 2

    def test_below_cutoff_raises(self):
        # below c/(2b) no angle receives the frequency: the whole sweep is 0,
        # so there is no emission angle, and no power can be put there
        angles = np.linspace(0.01, math.pi / 2, 500)
        gains = diffraction_gain_grid(B1MM, angles, np.array([100e9, 120e9]))
        assert np.all(gains == 0.0)
        with pytest.raises(AllGainsZero):
            waterfill(np.max(gains ** 2, axis=1), 1.0, NoiseModel(1.0))

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            diffraction_gain_grid(B1MM, np.linspace(0.01, math.pi / 2, 50), np.array([0.0]))

    def test_strictly_decreasing_in_frequency(self):
        freqs = np.linspace(160e9, 900e9, 200)
        angles = np.radians(np.arange(0.01, 90.0, 0.01))
        peaks = angles[np.argmax(diffraction_gain_grid(B1MM, angles, freqs), axis=1)]
        assert np.all(np.diff(peaks) < 0)


class TestDiffractionGain:
    def test_unity_at_emission_angle(self):
        gain = gain_at(B1MM, peak_angle(B1MM, 300e9), 300e9)
        assert gain == pytest.approx(1.0, abs=1e-12)

    def test_broadside_value(self):
        # frozen from the 50-digit oracle (hp_diffraction_gain)
        gain = gain_at(B1MM, math.pi / 2, 300e9)
        assert gain == pytest.approx(0.03171009294709409, abs=1e-12)

    def test_matches_high_precision_oracle(self):
        for angle in (0.2, 0.7, 1.2, math.pi / 2):
            got = gain_at(B1MM, angle, 420e9)
            want = hp_diffraction_gain("1e-3", "10e-3", "420e9", angle)
            assert got == pytest.approx(want, abs=1e-12)

    def test_off_peak_magnitude_below_one(self):
        phi = peak_angle(B1MM, 300e9)
        for delta in (1e-3, 0.01, 0.1):
            assert abs(gain_at(B1MM, phi + delta, 300e9)) < 1.0

    def test_returns_float_matching_oracle(self):
        rng = np.random.default_rng(7)
        angles = rng.uniform(0.05, math.pi / 2, 20)
        freqs = rng.uniform(200e9, 800e9, 20)
        grid = diffraction_gain_grid(B1MM, angles, freqs)
        assert grid.dtype == np.float64
        for i, f in enumerate(freqs):
            for j, angle in enumerate(angles):
                want = hp_diffraction_gain("1e-3", "10e-3", repr(float(f)), angle)
                assert grid[i, j] == pytest.approx(want, abs=1e-12)

    def test_series_matches_direct_near_zero(self):
        # continuity across the series/direct switchover at |z| ~ 1e-6
        near = gain_at(B1MM, peak_angle(B1MM, 300e9) + 1e-9, 300e9)
        assert near == pytest.approx(1.0, abs=1e-10)

    def test_below_cutoff_raises(self):
        # the grid gives sub-cutoff subbands exactly 0, so a channel with only
        # those subbands carries nothing and waterfilling it raises
        freqs = np.array([100e9, np.nextafter(B1MM.cutoff_frequency, 0.0)])
        assert np.all(diffraction_gain_grid(B1MM, np.array([0.5]), freqs) == 0.0)
        users = UserSet(np.array([0.5, 1.2]), np.array([10.0, 20.0]))
        grid = FrequencyGrid(80e9, 140e9, 2)  # 95 and 125 GHz
        channel = build_channel(B1MM, grid, users, InverseRangeLoss())
        with pytest.raises(AllGainsZero):
            waterfill(np.sum(channel ** 2, axis=1), 1.0, NoiseModel(1.0))

    def test_grid_matches_scalar(self):
        # each entry of the outer grid equals the gain evaluated at its point alone
        angles = np.array([0.3, 0.9, 1.4])
        freqs = np.array([250e9, 610e9])
        grid = diffraction_gain_grid(B1MM, angles, freqs)
        for i, f in enumerate(freqs):
            for j, a in enumerate(angles):
                assert grid[i, j] == pytest.approx(gain_at(B1MM, a, f))

    def test_grid_matches_oracle(self):
        angles = np.array([0.3, 0.9, 1.4])
        freqs = np.array([250e9, 610e9])
        grid = diffraction_gain_grid(B1MM, angles, freqs)
        for i, f in enumerate(freqs):
            for j, a in enumerate(angles):
                assert grid[i, j] == pytest.approx(
                    hp_diffraction_gain("1e-3", "10e-3", repr(float(f)), a), abs=1e-12
                )


class TestCutoffContract:
    """diffraction_gain_grid owns the cutoff: zero gain below c/(2b)."""

    def test_slit_column_matches_oracle(self):
        slits = ["10e-3", "20e-3", "30e-3"]
        freqs = ["250e9", "420e9", "610e9"]
        angles = np.array([0.2, 0.7, 1.2, math.pi / 2])
        column = np.array([float(L) for L in slits])[:, None, None]
        grid = diffraction_gain_grid(
            LwaConfig(1e-3, column), angles, np.array([float(f) for f in freqs])
        )
        assert grid.shape == (3, 3, 4)
        for j, L in enumerate(slits):
            for n, f in enumerate(freqs):
                for k, a in enumerate(angles):
                    want = hp_diffraction_gain("1e-3", L, f, a)
                    assert grid[j, n, k] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("slits", [10e-3, np.array([10e-3, 40e-3])[:, None, None]])
    def test_subcutoff_entries_are_exactly_zero(self, slits):
        freqs = np.array([100e9, np.nextafter(B1MM.cutoff_frequency, 0.0), 300e9])
        grid = diffraction_gain_grid(LwaConfig(1e-3, slits), np.array([0.5, 1.5]), freqs)
        below = grid[..., :2, :]
        assert np.all(below.real == 0.0) and np.all(below.imag == 0.0)
        assert np.all(grid[..., 2, :] != 0.0)

    # at b = 0.53751... mm, c/(2 b f) at f = cutoff_frequency rounds to 1 + 2^-52
    @pytest.mark.parametrize("b", [1e-3, 0.0005375138883100129])
    def test_gain_at_cutoff_is_finite_without_warning(self, b):
        config = LwaConfig(b, 10e-3)
        angles = np.array([0.5, math.pi / 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = diffraction_gain_grid(config, angles, np.array([config.cutoff_frequency]))
        assert np.all(np.isfinite(grid))
        # at cutoff the emission angle is broadside, where the gain peaks at 1
        assert grid[0, 1] == pytest.approx(1.0, abs=1e-12)


B_AT_ROUNDING_CUTOFF = 0.0005375138883100129  # c/(2 b f) at its cutoff rounds to 1 + 2^-52
BAND = np.linspace(200e9, 800e9, 40)
ANGLES = np.linspace(0.01, math.pi / 2, 37)


def _peak_angles(config, freqs, offsets=(0.0, 1e-9, -1e-8, 1e-7)):
    """Angles at and next to each frequency's emission angle, where |z| lies
    below or just above the sinc's series cutoff."""
    return np.array([peak_angle(config, f) + d for f in freqs for d in offsets])


def _slit_column(*slits):
    return np.array(slits)[:, None, None]


REFERENCE_CASES = {
    "lossless": (B1MM, ANGLES, BAND),
    "slit-column": (LwaConfig(1e-3, _slit_column(10e-3, 30e-3, 50e-3)), ANGLES, BAND),
    "sub-cutoff": (
        LwaConfig(1e-3, _slit_column(10e-3, 40e-3)),
        ANGLES,
        np.array([100e9, np.nextafter(B1MM.cutoff_frequency, 0.0), B1MM.cutoff_frequency, 300e9]),
    ),
    "rounding-cutoff": (
        LwaConfig(B_AT_ROUNDING_CUTOFF, 10e-3),
        np.array([0.5, 1.2, math.pi / 2]),
        np.array([LwaConfig(B_AT_ROUNDING_CUTOFF, 10e-3).cutoff_frequency, 400e9]),
    ),
    "series": (
        LwaConfig(1e-3, _slit_column(10e-3, 50e-3)),
        _peak_angles(B1MM, [210e9, 300e9, 610e9]),
        np.array([210e9, 300e9, 610e9]),
    ),
}


def assert_matches_reference(got, config, angles, freqs):
    """got equals the complex reference bitwise for a scalar slit length; for
    a slit column, on its anchor rows bitwise and on the others within the
    recurrence's bound."""
    want = reference_diffraction_gain_grid(config, angles, freqs)
    assert got.dtype == np.float64
    assert np.all(want.imag == 0.0)
    assert got.shape == want.shape
    if np.ndim(config.slit_length_L):
        assert_rows_within(got, want.real, slit_gain_bound(config.slit_length_L))
    else:
        assert np.array_equal(got, want)


class TestRealGain:
    """The gain is evaluated in float64 and equals, bitwise, the same grid
    evaluated in complex arithmetic, but on a slit column's recurrence rows,
    which lie within the bound physics.py derives."""

    @pytest.mark.parametrize("name", list(REFERENCE_CASES))
    def test_matches_complex_reference_bitwise(self, name):
        config, angles, freqs = REFERENCE_CASES[name]
        got = diffraction_gain_grid(config, angles, freqs)
        assert_matches_reference(got, config, angles, freqs)

    def test_float32_angles_are_evaluated_in_float64(self):
        angles = ANGLES.astype(np.float32)
        got = diffraction_gain_grid(B1MM, angles, BAND)
        assert np.array_equal(got, diffraction_gain_grid(B1MM, angles.astype(float), BAND))

    @pytest.mark.parametrize("name", ["series"])
    def test_series_cases_reach_the_series_branch(self, name, monkeypatch):
        smallest = []
        sinc = physics._sinc
        monkeypatch.setattr(
            physics, "_sinc", lambda z, *sines: smallest.append(np.abs(z).min()) or sinc(z, *sines)
        )
        config, angles, freqs = REFERENCE_CASES[name]
        diffraction_gain_grid(config, angles, freqs)
        assert smallest[0] < physics._SINC_SERIES_CUTOFF

    def test_random_geometries_match_complex_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            slits = _slit_column(*np.linspace(*np.sort(rng.uniform(5e-3, 60e-3, 2)), 5))
            config = LwaConfig(rng.uniform(0.2e-3, 2e-3), slits)
            freqs = np.sort(rng.uniform(150e9, 800e9, 30))
            angles = rng.uniform(0.0, math.pi / 2, 20)
            got = diffraction_gain_grid(config, angles, freqs)
            assert_matches_reference(got, config, angles, freqs)


class _CountingNumpy:
    """numpy with the entries its exp, sin and cos evaluate counted."""

    def __init__(self):
        self.entries = {"exp": 0, "sin": 0, "cos": 0}

    def __getattr__(self, name):
        return getattr(np, name)

    def _count(self, name, x, *args, **kwargs):
        self.entries[name] += np.size(x)
        return getattr(np, name)(x, *args, **kwargs)

    def exp(self, x, *args, **kwargs):
        return self._count("exp", x, *args, **kwargs)

    def sin(self, x, *args, **kwargs):
        return self._count("sin", x, *args, **kwargs)

    def cos(self, x, *args, **kwargs):
        return self._count("cos", x, *args, **kwargs)


class TestSlitRecurrence:
    """Along a slit column sin comes from the phasor recurrence: one exact
    sin and cos row per anchor and one for the step, where the direct
    evaluation takes sin of every row. Anchor rows equal the direct
    evaluation bitwise, the others lie within the bound that physics.py
    derives, and with the argument's own rounding within the 50-digit
    oracle."""

    @pytest.mark.parametrize("num_slits", [1, 2, 21, 32, 33, 40, 65])
    @pytest.mark.parametrize("b", [1e-3, np.array([0.3e-3, 1e-3])[:, None, None]])
    def test_takes_one_sin_row_per_anchor(self, num_slits, b, monkeypatch):
        slits = _slit_column(*np.linspace(10e-3, 50e-3, num_slits))
        spy = _CountingNumpy()
        monkeypatch.setattr(physics, "np", spy)
        got = diffraction_gain_grid(LwaConfig(b, slits), ANGLES[:3], BAND)
        rows = math.ceil(num_slits / physics.SLIT_ANCHOR_STRIDE) + (num_slits > 1)
        row = np.size(b) * BAND.size * 3
        # the cos of the 3 angles, as the direct evaluation takes it
        assert spy.entries == {"exp": 0, "sin": rows * row, "cos": rows * row + 3}
        monkeypatch.undo()
        assert_matches_reference(got.reshape(-1, num_slits, BAND.size, 3)[-1],
                                 LwaConfig(1e-3, slits), ANGLES[:3], BAND)

    def test_scalar_slit_takes_the_direct_sin(self, monkeypatch):
        spy = _CountingNumpy()
        monkeypatch.setattr(physics, "np", spy)
        diffraction_gain_grid(B1MM, ANGLES, BAND)
        assert spy.entries == {"exp": 0, "sin": BAND.size * ANGLES.size, "cos": ANGLES.size}

    def test_anchor_rows_equal_the_reference_bitwise(self):
        slits = np.linspace(10e-3, 50e-3, 2 * physics.SLIT_ANCHOR_STRIDE + 5)
        angles = np.concatenate([ANGLES, _peak_angles(B1MM, [300e9, 610e9])])
        got = diffraction_gain_grid(LwaConfig(1e-3, _slit_column(*slits)), angles, BAND)
        for j in range(0, slits.size, physics.SLIT_ANCHOR_STRIDE):
            want = reference_diffraction_gain_grid(LwaConfig(1e-3, slits[j]), angles, BAND)
            assert np.array_equal(got[j], want), j
        # the recurrence rows are not the direct sin: the spy is not vacuous
        direct = reference_diffraction_gain_grid(LwaConfig(1e-3, slits[-1]), angles, BAND)
        assert not np.array_equal(got[-1], direct)

    def test_forty_slits_match_oracle_within_bound(self):
        # two anchors (rows 0 and 32) over the default band; b = 0.3 mm cuts
        # off at ~500 GHz, so its lower subbands are exactly 0; the 1 mm
        # emission angles put entries in and just above the series branch
        slits = np.linspace(10e-3, 50e-3, 40)
        freqs = FrequencyGrid(200e9, 800e9, 40).frequencies
        b = np.array([1e-3, 0.3e-3])
        offsets = (0.0, 1e-9, 1e-7, 1e-5)  # |z| below, at and above the cutoff
        angles = np.concatenate([[0.3, 1.2], _peak_angles(B1MM, freqs[1:2], offsets)])
        config = LwaConfig(b[:, None, None], _slit_column(*slits))
        got = diffraction_gain_grid(config, angles, freqs)
        above_cutoff = freqs >= SPEED_OF_LIGHT / (2.0 * b[:, None])
        valid = np.broadcast_to(above_cutoff[:, None], (2, 40, 40))
        assert np.count_nonzero(~valid[:, 0]) == 20
        assert np.all(got[~valid] == 0.0)
        assert np.all(np.abs(got[0, :, 1, 2:4] - 1.0) < 1e-12)  # the series
        gain_bound = slit_gain_bound(slits)
        worst = 0.0
        for i, j, n in zip(*np.nonzero(valid)):
            if n != 1 and (j + n) % 3:
                continue  # the peak subband and a third of the others: the oracle is slow
            k0 = 2.0 * math.pi * freqs[n] / SPEED_OF_LIGHT
            s = math.sqrt(1.0 - (SPEED_OF_LIGHT / (2.0 * b[i] * freqs[n])) ** 2)
            # the argument's rounding (Z (2.5 / s + 7.35) eps, times the
            # largest |sinc'|), the direct sinc's 2 eps, and the recurrence
            argument = 0.44 * (k0 * slits[j] / 2.0) * (2.5 / s + 7.35) * EPS
            bound = argument + 2 * EPS + gain_bound[j]
            for k, angle in enumerate(angles):
                want = hp_diffraction_gain(
                    repr(float(b[i])), repr(float(slits[j])), repr(float(freqs[n])), angle
                ).real
                assert abs(got[i, j, n, k] - want) <= bound, (i, j, n, k)
                worst = max(worst, abs(got[i, j, n, k] - want) / bound)
        assert worst > 0.0

    @pytest.mark.parametrize("slits", [[], [20e-3], [10e-3, 40e-3], [30e-3] * 5])
    def test_short_and_constant_columns(self, slits):
        # J = 0 gives an empty grid; J = 1 is one anchor; J = 2 one anchor
        # and one step; equal slit lengths (slit_min_m == slit_max_m) step
        # by exactly 1, so every row is its anchor's
        config = LwaConfig(1e-3, _slit_column(*slits))
        angles = np.concatenate([ANGLES, _peak_angles(B1MM, [300e9])])
        got = diffraction_gain_grid(config, angles, BAND)
        assert_matches_reference(got, config, angles, BAND)
        if len(set(slits)) == 1:
            want = reference_diffraction_gain_grid(LwaConfig(1e-3, slits[0]), angles, BAND)
            assert all(np.array_equal(row, want) for row in got)

    @pytest.mark.parametrize(
        "slits",
        [
            [10e-3, 23e-3, 50e-3],
            [10e-3, 20e-3, 35e-3],
            np.random.default_rng(8).uniform(5e-3, 60e-3, 5),
            # one slit 5 eps * L_max off the line: past SPACING_TOL = 4
            [10e-3, 20e-3 + 5 * EPS * 30e-3, 30e-3],
        ],
    )
    def test_uneven_slit_column_raises(self, slits):
        # when the config is built, before any gain is evaluated
        with pytest.raises(ValueError, match="the slit lengths must be evenly spaced"):
            LwaConfig(1e-3, _slit_column(*slits))

    def test_spacing_within_tolerance_passes(self):
        slits = [10e-3, 20e-3 + 3 * EPS * 30e-3, 30e-3]
        config = LwaConfig(1e-3, _slit_column(*slits))
        assert config.slit_step == (30e-3 - 10e-3) / 2
        assert LwaConfig(1e-3, 20e-3).slit_step == 0.0
        assert diffraction_gain_grid(config, ANGLES, BAND).shape == (3, BAND.size, ANGLES.size)

    def test_a_value_exactly_at_the_tolerance_passes(self):
        # 8 eps off the line through 0 and 2: SPACING_TOL * eps * max|v| exactly
        assert physics.even_spacing(np.array([0.0, 1.0 + 8 * EPS, 2.0])) == 1.0


class TestPlateSeparationAxis:
    """A (B, 1, 1) plate separation gives a (B, J, N, K) gain whose b slices
    equal, bitwise, the grids evaluated with each b alone."""

    B_COLUMN = np.array([0.3e-3, 1e-3, B_AT_ROUNDING_CUTOFF, 1.5e-3])[:, None, None]
    # 0.3 mm cuts off at ~500 GHz, inside the band; the rounding b at its cutoff
    FREQS = np.array([200e9, 300e9, 480e9, 610e9, 800e9,
                      LwaConfig(B_AT_ROUNDING_CUTOFF, 10e-3).cutoff_frequency])
    # angles at the 1 mm emission angles reach the series branch
    ANGLES = np.concatenate([ANGLES, _peak_angles(B1MM, [300e9, 610e9])])

    @pytest.mark.parametrize("slits", [10e-3, _slit_column(10e-3, 30e-3, 50e-3)])
    def test_b_column_equals_per_b_grids(self, slits):
        got = diffraction_gain_grid(LwaConfig(self.B_COLUMN, slits), self.ANGLES, self.FREQS)
        configs = [LwaConfig(b, slits) for b in self.B_COLUMN.ravel()]
        per_b = np.stack([diffraction_gain_grid(c, self.ANGLES, self.FREQS) for c in configs])
        reference = np.stack(
            [reference_diffraction_gain_grid(c, self.ANGLES, self.FREQS) for c in configs]
        )
        assert got.shape == (4, np.size(slits), 6, len(self.ANGLES))
        assert got.dtype == per_b.dtype == np.float64
        assert np.array_equal(got, per_b.reshape(got.shape))
        reference = reference.reshape(got.shape).real
        if np.ndim(slits):
            assert_rows_within(got, reference, slit_gain_bound(slits))
        else:
            assert np.array_equal(got, reference)
        assert np.all(got[0, :, 3:5] != 0.0) and np.all(got[0, :, :3] == 0.0)

    def test_inputs_are_not_written(self):
        inputs = [self.B_COLUMN, _slit_column(10e-3, 50e-3), self.ANGLES, self.FREQS]
        inputs = [x.copy() for x in inputs]
        before = [x.copy() for x in inputs]
        for x in inputs:
            x.flags.writeable = False
        b, slits, angles, freqs = inputs
        diffraction_gain_grid(LwaConfig(b, slits), angles, freqs)
        assert all(np.array_equal(x, y) for x, y in zip(inputs, before))

    @pytest.mark.parametrize(
        "z",
        [
            np.array([0.5, -2.0, 30.0]),
            np.array([0.5, 0.0, -3e-7, 2.0]),  # series branch
            np.array([math.nan, 0.0, 2.0]),
            np.array([math.nan, -1.0, 5.0]),
        ],
    )
    def test_sinc_takes_its_argument_as_scratch(self, z):
        # the same bits as sin(z) * (1/z) and the series, each step into a new
        # array; the argument is overwritten and the result is a new array
        small = np.abs(z) < physics._SINC_SERIES_CUTOFF
        safe = np.where(small, 1.0, z)
        want = np.sin(safe) * (1.0 / safe)
        z2 = z[small] * z[small]
        want[small] = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
        scratch = z.copy()
        got = physics._sinc(scratch)
        assert got is not scratch and got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("series, most", [(False, 1.01), (True, 2.2)])
    def test_sinc_allocates_its_result_alone(self, series, most):
        # 1/z goes into the argument and |z| and sin(z) into the result; only
        # the series makes the mask and a copy of z
        z = np.linspace(-50.0 if series else 0.5, 50.0, 10**5 + 1)  # z[50000] ~ 0
        physics._sinc(z.copy())
        scratch = z.copy()
        _, peak = traced_peak(physics._sinc, scratch)
        assert peak <= most * z.nbytes, f"peak {peak / z.nbytes:.3f} arrays"

    def test_sinc_series_is_not_hidden_by_nan(self):
        # the series test looks at the smallest magnitude, which NaN must not mask
        with np.errstate(divide="raise", invalid="raise"):
            out = physics._sinc(np.array([math.nan, 0.0, 2.0]))
        assert math.isnan(out[0]) and out[1] == 1.0 and out[2] == math.sin(2.0) / 2.0
        assert physics._sinc(np.array([])).shape == (0,)


class TestBeamPeakFrequency:
    """Read along frequency at a fixed angle phi, the grid peaks at the
    frequency c/(2b sin phi) that radiates phi."""

    def test_known_value(self):
        phi = peak_angle(B1MM, 300e9)
        freqs = 300e9 + np.arange(-50, 51) * 1e7  # freqs[50] is 300 GHz
        gains = diffraction_gain_grid(B1MM, np.array([phi]), freqs)[:, 0]
        assert np.argmax(gains) == 50
        assert gains[50] == pytest.approx(1.0, abs=1e-12)

    def test_broadside_gives_cutoff(self):
        fc = B1MM.cutoff_frequency
        freqs = np.concatenate([[np.nextafter(fc, 0.0)], fc + np.arange(0, 100) * 1e8])
        gains = diffraction_gain_grid(B1MM, np.array([math.pi / 2]), freqs)[:, 0]
        assert gains[0] == 0.0
        assert np.argmax(gains) == 1
        assert gains[1] == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(0.05, math.pi / 2)
            f = SPEED_OF_LIGHT / (2.0 * B1MM.plate_separation_b * math.sin(phi))
            assert gain_at(B1MM, phi, f) == pytest.approx(1.0, abs=1e-12)
            assert peak_angle(B1MM, f) == pytest.approx(phi, rel=1e-12)

    @pytest.mark.parametrize("angle", [0.0, -0.1, math.pi / 2 + 1e-9, math.pi])
    def test_domain_errors(self, angle):
        # beams exist for angles in (0, pi/2]; users and beampattern angle
        # grids, the angles the gain is evaluated at, must lie there
        with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
            UserSet(np.array([angle]), np.array([10.0]))
        with pytest.raises(ValueError, match=r"\(0, pi/2\]"):
            beampattern(
                B1MM, FrequencyGrid(200e9, 400e9, 1), [1.0], InverseRangeLoss(),
                np.array([angle]), np.array([10.0]),
            )


class TestProperties:
    def test_peak_location_on_angle_grid(self):
        rng = np.random.default_rng(11)
        angles = np.radians(np.arange(0.05, 90.0, 0.05))
        for _ in range(20):
            b = rng.uniform(0.9e-3, 1.1e-3)
            L = rng.uniform(10e-3, 50e-3)
            cfg = LwaConfig(b, L)
            f = rng.uniform(cfg.cutoff_frequency * 1.05, 800e9)
            mags = np.abs(diffraction_gain_grid(cfg, angles, np.array([f]))[0])
            peak = angles[np.argmax(mags)]
            assert abs(peak - peak_angle(cfg, f)) <= math.radians(0.05)

    def test_beamwidth_non_increasing_in_slit_length(self):
        angles = np.radians(np.arange(0.02, 90.0, 0.02))
        f = 400e9

        def half_power_width(L):
            cfg = LwaConfig(1e-3, L)
            mags = np.abs(diffraction_gain_grid(cfg, angles, np.array([f]))[0])
            return np.count_nonzero(mags >= mags.max() / math.sqrt(2))

        widths = [half_power_width(L) for L in (5e-3, 10e-3, 20e-3, 40e-3)]
        assert all(w1 >= w2 for w1, w2 in zip(widths, widths[1:]))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"plate_separation_b": 0.0, "slit_length_L": 1e-2},
            {"plate_separation_b": 1e-3, "slit_length_L": -1.0},
            {"plate_separation_b": 1e-3, "slit_length_L": 0.0},
            {"plate_separation_b": 1e-3, "slit_length_L": np.array([[[1e-2]], [[0.0]]])},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            LwaConfig(**kwargs)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, 0.0, -300e9])
    @pytest.mark.parametrize(
        "evaluate",
        [
            # the angle sweep whose argmax is the emission angle of f
            lambda f: diffraction_gain_grid(B1MM, np.linspace(0.01, math.pi / 2, 50), [f]),
            lambda f: gain_at(B1MM, 0.5, f),
            lambda f: diffraction_gain_grid(B1MM, np.array([0.5]), np.array([300e9, f])),
        ],
        ids=["emission_angle", "diffraction_gain", "diffraction_gain_grid"],
    )
    def test_bad_frequency(self, evaluate, f):
        # NaN fails every comparison, so it used to pass the cutoff check
        with pytest.raises(ValueError, match="must be finite and > 0"):
            evaluate(f)

    def test_cutoff_frequency(self):
        assert B1MM.cutoff_frequency == pytest.approx(149896229000.0)
