import math
import warnings

import numpy as np
import pytest

from lwacomm.physics import (
    SPEED_OF_LIGHT,
    CutoffViolation,
    LwaConfig,
    beam_peak_frequency,
    diffraction_gain,
    diffraction_gain_grid,
    emission_angle,
)

from oracles import hp_diffraction_gain, hp_emission_angle

B1MM = LwaConfig(plate_separation_b=1e-3, slit_length_L=10e-3)


class TestEmissionAngle:
    def test_known_angles_b_1mm(self):
        # frozen from the 50-digit oracle (hp_emission_angle)
        assert emission_angle(B1MM, 300e9) == pytest.approx(
            0.5231994068648067, abs=1e-12
        )
        assert emission_angle(B1MM, 424e9) == pytest.approx(
            0.3613408804665874, abs=1e-12
        )
        assert emission_angle(B1MM, 600e9) == pytest.approx(
            0.2525016355467884, abs=1e-12
        )

    def test_matches_high_precision_oracle(self):
        for f in ("200e9", "300e9", "555e9", "800e9"):
            assert emission_angle(B1MM, float(f)) == pytest.approx(
                hp_emission_angle("1e-3", f), abs=1e-14
            )

    def test_cutoff_boundary_is_broadside(self):
        fc = SPEED_OF_LIGHT / (2 * 1e-3)
        assert emission_angle(B1MM, fc) == pytest.approx(math.pi / 2, abs=1e-15)
        # c/(2 b f) at f = cutoff_frequency rounds to 1 + 2^-52 for this b
        config = LwaConfig(0.0005375138883100129, 10e-3)
        assert emission_angle(config, config.cutoff_frequency) == math.pi / 2

    def test_below_cutoff_raises(self):
        with pytest.raises(CutoffViolation):
            emission_angle(B1MM, 100e9)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            emission_angle(B1MM, 0.0)

    def test_strictly_decreasing_in_frequency(self):
        freqs = np.linspace(160e9, 900e9, 200)
        angles = [emission_angle(B1MM, f) for f in freqs]
        assert all(a > b for a, b in zip(angles, angles[1:]))


class TestDiffractionGain:
    def test_unity_at_emission_angle(self):
        phi = emission_angle(B1MM, 300e9)
        gain = diffraction_gain(B1MM, phi, 300e9)
        assert gain == pytest.approx(1.0, abs=1e-12)

    def test_broadside_value(self):
        # frozen from the 50-digit oracle (hp_diffraction_gain)
        gain = diffraction_gain(B1MM, math.pi / 2, 300e9)
        assert gain.real == pytest.approx(0.03171009294709409, abs=1e-12)

    def test_matches_high_precision_oracle(self):
        for angle in (0.2, 0.7, 1.2, math.pi / 2):
            got = diffraction_gain(B1MM, angle, 420e9)
            want = hp_diffraction_gain("1e-3", "10e-3", "420e9", angle)
            assert got == pytest.approx(want, abs=1e-12)

    def test_off_peak_magnitude_below_one(self):
        phi = emission_angle(B1MM, 300e9)
        for delta in (1e-3, 0.01, 0.1):
            assert abs(diffraction_gain(B1MM, phi + delta, 300e9)) < 1.0

    def test_real_when_alpha_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gain = diffraction_gain(
                B1MM, rng.uniform(0.05, math.pi / 2), rng.uniform(200e9, 800e9)
            )
            assert abs(gain.imag) <= 1e-12 * max(abs(gain), 1e-30)

    def test_complex_when_alpha_positive(self):
        lossy = LwaConfig(1e-3, 10e-3, leakage_alpha=50.0)
        gain = diffraction_gain(lossy, 0.8, 300e9)
        assert gain.imag != 0.0

    def test_series_matches_direct_near_zero(self):
        # continuity across the series/direct switchover at |z| ~ 1e-6
        phi = emission_angle(B1MM, 300e9)
        near = diffraction_gain(B1MM, phi + 1e-9, 300e9)
        assert near == pytest.approx(1.0, abs=1e-10)

    def test_below_cutoff_raises(self):
        with pytest.raises(CutoffViolation):
            diffraction_gain(B1MM, 0.5, 100e9)
        with pytest.raises(CutoffViolation):
            diffraction_gain(B1MM, 0.5, np.nextafter(B1MM.cutoff_frequency, 0.0))

    def test_grid_matches_scalar(self):
        angles = np.array([0.3, 0.9, 1.4])
        freqs = np.array([250e9, 610e9])
        grid = diffraction_gain_grid(B1MM, angles, freqs)
        for i, f in enumerate(freqs):
            for j, a in enumerate(angles):
                assert grid[i, j] == pytest.approx(diffraction_gain(B1MM, a, f))


class TestCutoffContract:
    """diffraction_gain_grid owns the cutoff: zero gain below c/(2b)."""

    def test_slit_column_matches_oracle(self):
        slits = ["10e-3", "20e-3", "35e-3"]
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
            scalar = diffraction_gain(config, math.pi / 2, config.cutoff_frequency)
        assert np.all(np.isfinite(grid))
        # at cutoff the emission angle is broadside, where the gain peaks at 1
        assert grid[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert scalar == grid[0, 1]


class TestBeamPeakFrequency:
    def test_known_value(self):
        phi = emission_angle(B1MM, 300e9)
        assert beam_peak_frequency(B1MM, phi) == pytest.approx(300e9, rel=1e-12)

    def test_broadside_gives_cutoff(self):
        assert beam_peak_frequency(B1MM, math.pi / 2) == pytest.approx(
            B1MM.cutoff_frequency, rel=1e-15
        )

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(0.05, math.pi / 2)
            back = emission_angle(B1MM, beam_peak_frequency(B1MM, phi))
            assert back == pytest.approx(phi, rel=1e-12)

    @pytest.mark.parametrize("angle", [0.0, -0.1, math.pi / 2 + 1e-9, math.pi])
    def test_domain_errors(self, angle):
        with pytest.raises(ValueError):
            beam_peak_frequency(B1MM, angle)


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
            assert abs(peak - emission_angle(cfg, f)) <= math.radians(0.05)

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
            {"plate_separation_b": 1e-3, "slit_length_L": 1e-2, "leakage_alpha": -1},
            {"plate_separation_b": 1e-3, "slit_length_L": np.array([[[1e-2]], [[0.0]]])},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError, match="must be"):
            LwaConfig(**kwargs)

    def test_cutoff_frequency(self):
        assert B1MM.cutoff_frequency == pytest.approx(149896229000.0)
