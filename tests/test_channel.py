import math

import numpy as np
import pytest

from lwacomm.channel import (
    ChannelMatrix,
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    average_sum_rate,
    beampattern,
    build_channel,
    export_beampattern_csv,
    frequency_bins_near_angle,
    geometry_gains_squared,
    subband_rate,
)
from lwacomm.physics import LwaConfig, SPEED_OF_LIGHT, emission_angle

from oracles import hp_average_sum_rate

LOSS = InverseRangeLoss()
NOISE = NoiseModel(1.0)


def peak_config_for(angle_rad, frequency):
    """Geometry whose emission angle at `frequency` is exactly `angle_rad`."""
    b = SPEED_OF_LIGHT / (2.0 * frequency * math.sin(angle_rad))
    return LwaConfig(b, 10e-3)


class TestBuildChannel:
    def test_on_peak_user_at_unit_range(self):
        angle = math.radians(30.0)
        cfg = peak_config_for(angle, 300e9)
        grid = FrequencyGrid(np.array([300e9]))
        users = UserSet(np.array([angle]), np.array([1.0]))
        channel = build_channel(cfg, grid, users, LOSS)
        assert channel.entries[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_range_doubling_halves_column(self):
        grid = FrequencyGrid.subband_centers(200e9, 800e9, 8)
        cfg = LwaConfig(1e-3, 20e-3)
        near = UserSet(np.array([0.4, 0.7]), np.array([5.0, 12.0]))
        far = UserSet(np.array([0.4, 0.7]), np.array([10.0, 12.0]))
        ch_near = build_channel(cfg, grid, near, LOSS)
        ch_far = build_channel(cfg, grid, far, LOSS)
        np.testing.assert_allclose(
            np.abs(ch_far.entries[:, 0]), np.abs(ch_near.entries[:, 0]) / 2, rtol=1e-12
        )
        np.testing.assert_allclose(
            ch_far.entries[:, 1], ch_near.entries[:, 1], rtol=1e-12
        )

    def test_broadside_entry_value(self):
        # frozen oracle value, diffraction gain 0.03171... times unit loss
        grid = FrequencyGrid(np.array([300e9]))
        users = UserSet(np.array([math.pi / 2]), np.array([1.0]))
        channel = build_channel(LwaConfig(1e-3, 10e-3), grid, users, LOSS)
        assert channel.entries[0, 0].real == pytest.approx(
            0.03171009294709409, abs=1e-12
        )

    def test_subcutoff_rows_zeroed_and_flagged(self):
        cfg = LwaConfig(1e-3, 10e-3)  # cutoff ~149.9 GHz
        grid = FrequencyGrid(np.array([100e9, 140e9, 300e9]))
        users = UserSet(np.array([0.5]), np.array([10.0]))
        channel = build_channel(cfg, grid, users, LOSS)
        assert channel.subcutoff_subbands == (0, 1)
        assert np.all(channel.entries[:2] == 0)
        assert channel.entries[2, 0] != 0
        # the cutoff frequency itself propagates
        grid = FrequencyGrid(np.array([cfg.cutoff_frequency]))
        at_cutoff = build_channel(cfg, grid, users, LOSS)
        assert at_cutoff.subcutoff_subbands == () and at_cutoff.entries[0, 0] != 0

    @pytest.mark.parametrize("num_users", [1, 4])
    def test_geometry_gains_squared_matches_per_point_channels(self, num_users):
        # b from 0.3 mm (cutoff ~500 GHz, above the whole band) to 1.5 mm
        # (~100 GHz, below it): every degree of sub-cutoff masking occurs
        grid = FrequencyGrid.subband_centers(120e9, 480e9, 12)
        rng = np.random.default_rng(num_users)
        users = UserSet(rng.uniform(0.2, 1.5, num_users), rng.uniform(5.0, 20.0, num_users))
        b_grid = np.linspace(0.3e-3, 1.5e-3, 7)
        L_grid = np.linspace(10e-3, 50e-3, 3)
        gains2 = geometry_gains_squared(b_grid, L_grid, grid, users, LOSS)
        assert gains2.shape == (7, 3, 12)
        for i, b in enumerate(b_grid):
            for j, L in enumerate(L_grid):
                channel = build_channel(LwaConfig(b, L), grid, users, LOSS)
                assert np.array_equal(gains2[i, j], channel.gains_squared), (b, L)
        assert np.all(gains2[0] == 0.0) and np.all(gains2[-1] > 0.0)

    def test_gains_squared_matches_entries(self):
        grid = FrequencyGrid.subband_centers(200e9, 800e9, 5)
        users = UserSet(np.array([0.3, 0.8]), np.array([10.0, 15.0]))
        channel = build_channel(LwaConfig(1e-3, 30e-3), grid, users, LOSS)
        want = np.sum(np.abs(channel.entries) ** 2, axis=1)
        np.testing.assert_allclose(channel.gains_squared, want)


class TestRates:
    def test_unit_everything_is_one_bit(self):
        assert subband_rate(np.array([1.0]), 1.0, NOISE) == pytest.approx(1.0)

    def test_zero_power_is_zero(self):
        assert subband_rate(np.array([0.3, 0.5j]), 0.0, NOISE) == 0.0

    def test_gain_three_is_two_bits(self):
        h = np.array([1.0, 1.0, 1.0])  # ||h||^2 = 3
        assert subband_rate(h, 1.0, NOISE) == pytest.approx(2.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            subband_rate(np.array([1.0]), -0.1, NOISE)

    def _channel(self, gains):
        # synthetic channel with prescribed per-subband ||h_n||^2
        return ChannelMatrix(np.sqrt(np.asarray(gains, dtype=float))[:, None].astype(complex))

    def test_mean_of_equal_subbands(self):
        channel = self._channel([1.0] * 6)
        assert average_sum_rate(channel, [1.0] * 6, NOISE) == pytest.approx(1.0)

    def test_single_active_subband(self):
        channel = self._channel([3.0, 3.0, 3.0, 3.0])
        rate = average_sum_rate(channel, [1.0, 0.0, 0.0, 0.0], NOISE)
        assert rate == pytest.approx(0.5)

    def test_high_precision_oracle(self):
        gains = [0.73, 2.1, 0.0041]
        powers = [1.2, 0.4, 3.3]
        channel = self._channel(gains)
        got = average_sum_rate(channel, powers, NoiseModel(0.7))
        assert got == pytest.approx(hp_average_sum_rate(gains, powers, 0.7), abs=1e-12)

    def test_length_mismatch(self):
        channel = self._channel([1.0, 1.0])
        with pytest.raises(ValueError):
            average_sum_rate(channel, [1.0], NOISE)

    def test_rate_increases_with_power(self):
        channel = self._channel([0.5, 2.0, 1.0])
        base = average_sum_rate(channel, [1.0, 1.0, 1.0], NOISE)
        for n in range(3):
            powers = [1.0, 1.0, 1.0]
            powers[n] += 0.5
            assert average_sum_rate(channel, powers, NOISE) > base

    def test_loss_scaling_equivalent_to_power_scaling(self):
        grid = FrequencyGrid.subband_centers(200e9, 800e9, 4)
        users = UserSet(np.array([0.4, 0.9]), np.array([10.0, 14.0]))
        cfg = LwaConfig(1e-3, 25e-3)
        scale = 3.0
        ch1 = build_channel(cfg, grid, users, InverseRangeLoss(1.0))
        ch2 = build_channel(cfg, grid, users, InverseRangeLoss(scale))
        np.testing.assert_allclose(
            np.abs(ch2.entries), scale * np.abs(ch1.entries), rtol=1e-12
        )
        powers = [1.0, 2.0, 0.5, 0.1]
        scaled_powers = [p * scale ** 2 for p in powers]
        assert average_sum_rate(ch2, powers, NOISE) == pytest.approx(
            average_sum_rate(ch1, scaled_powers, NOISE), rel=1e-12
        )


class TestBeampattern:
    GRID = FrequencyGrid.subband_centers(200e9, 800e9, 4)
    CFG = LwaConfig(1e-3, 20e-3)
    ANGLES = np.radians(np.arange(1.0, 90.0, 1.0))
    RANGES = np.array([5.0, 10.0, 20.0])

    def test_zero_power_hits_floor(self):
        m = beampattern(self.CFG, self.GRID, [0.0] * 4, LOSS, self.ANGLES, self.RANGES)
        assert np.all(m == -300.0)

    def test_single_subband_peaks_at_emission_angle(self):
        powers = [0.0, 0.0, 1.0, 0.0]
        m = beampattern(self.CFG, self.GRID, powers, LOSS, self.ANGLES, self.RANGES)
        peak_angle = self.ANGLES[np.argmax(m[:, 0])]
        want = emission_angle(self.CFG, self.GRID.frequencies[2])
        assert abs(peak_angle - want) <= math.radians(1.0)

    def test_two_subbands_are_log_sum_of_singles(self):
        m0 = beampattern(
            self.CFG, self.GRID, [1.0, 0, 0, 0], LOSS, self.ANGLES, self.RANGES
        )
        m1 = beampattern(
            self.CFG, self.GRID, [0, 1.0, 0, 0], LOSS, self.ANGLES, self.RANGES
        )
        both = beampattern(
            self.CFG, self.GRID, [1.0, 1.0, 0, 0], LOSS, self.ANGLES, self.RANGES
        )
        np.testing.assert_allclose(both, np.log10(10 ** m0 + 10 ** m1), atol=1e-9)

    def test_value_at_user_position_one_hot(self):
        users = UserSet(np.array([0.6]), np.array([12.0]))
        channel = build_channel(self.CFG, self.GRID, users, LOSS)
        p_n = 2.5
        m = beampattern(
            self.CFG,
            self.GRID,
            [0.0, p_n, 0.0, 0.0],
            LOSS,
            users.angles_rad,
            users.ranges_m,
        )
        want = math.log10(p_n * abs(channel.entries[1, 0]) ** 2)
        assert m[0, 0] == pytest.approx(want, abs=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            beampattern(self.CFG, self.GRID, [1.0] * 4, LOSS, np.array([]), self.RANGES)

    def test_csv_export_format(self, tmp_path):
        m = beampattern(self.CFG, self.GRID, [1.0] * 4, LOSS, self.ANGLES, self.RANGES)
        path = tmp_path / "map.csv"
        export_beampattern_csv(path, self.ANGLES, self.RANGES, m)
        lines = path.read_text().splitlines()
        assert lines[0] == "angle_deg,range_m,log_energy"
        assert len(lines) == 1 + self.ANGLES.size * self.RANGES.size
        # row-major over angles then ranges
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert float(first[0]) == float(second[0]) == 1.0
        assert float(first[1]) == 5.0 and float(second[1]) == 10.0
        assert float(first[2]) == pytest.approx(m[0, 0], rel=1e-8)

    def test_bin_counting_near_angle(self):
        cfg = LwaConfig(1e-3, 20e-3)
        grid = FrequencyGrid.subband_centers(200e9, 800e9, 40)
        phi = emission_angle(cfg, grid.frequencies[10])
        count = frequency_bins_near_angle(cfg, grid, phi, math.radians(2.0))
        assert count >= 1
        # the cutoff frequency radiates broadside, even where c/(2 b f) rounds above 1
        cfg = LwaConfig(0.0005375138883100129, 20e-3)
        grid = FrequencyGrid(np.array([cfg.cutoff_frequency, 2 * cfg.cutoff_frequency]))
        assert frequency_bins_near_angle(cfg, grid, math.pi / 2, 1e-9) == 1


class TestValidation:
    def test_frequency_grid_invariants(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([]))
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([2e11, 1e11]))
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([-1e9, 1e11]))

    def test_user_set_invariants(self):
        with pytest.raises(ValueError):
            UserSet(np.array([0.5]), np.array([-1.0]))
        with pytest.raises(ValueError):
            UserSet(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            UserSet(np.array([math.pi / 2 + 0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            UserSet(np.array([0.5, 0.6]), np.array([1.0]))

    def test_noise_model(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0)

    def test_inverse_range_loss(self):
        with pytest.raises(ValueError):
            InverseRangeLoss(0.0)
        assert InverseRangeLoss().evaluate(2.0, 3e11) == pytest.approx(0.5)
