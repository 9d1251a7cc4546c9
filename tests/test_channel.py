import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lwacomm import channel, experiments, physics
from lwacomm.channel import (
    BEAMPATTERN_FLOOR,
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    average_sum_rate,
    beampattern,
    build_channel,
    geometry_gains_squared,
    rate_bits,
)
from lwacomm.experiments import export_beampattern_csv
from lwacomm.physics import LwaConfig, SPEED_OF_LIGHT, diffraction_gain_grid

from oracles import (
    assert_rows_within,
    hp_average_sum_rate,
    hp_emission_angle,
    reference_beampattern,
    reference_export_beampattern_csv,
    slit_gains_squared_bound,
    traced_peak,
)

LOSS = InverseRangeLoss()
NOISE = NoiseModel(1.0)
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def norms_in_user_order(point):
    """||h_n||^2 of an N x K channel, adding the users k = 0, 1, ... in order."""
    norms = np.zeros(point.shape[0])
    for column in point.T:
        norms += column ** 2
    return norms


def peak_config_for(angle_rad, frequency):
    """Geometry whose emission angle at `frequency` is exactly `angle_rad`."""
    b = SPEED_OF_LIGHT / (2.0 * frequency * math.sin(angle_rad))
    return LwaConfig(b, 10e-3)


class TestBuildChannel:
    def test_on_peak_user_at_unit_range(self):
        angle = math.radians(30.0)
        cfg = peak_config_for(angle, 300e9)
        grid = FrequencyGrid(200e9, 400e9, 1)  # one subband, centered on 300 GHz
        users = UserSet(np.array([angle]), np.array([1.0]))
        channel = build_channel(cfg, grid, users, LOSS)
        assert channel[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_range_doubling_halves_column(self):
        grid = FrequencyGrid(200e9, 800e9, 8)
        cfg = LwaConfig(1e-3, 20e-3)
        near = UserSet(np.array([0.4, 0.7]), np.array([5.0, 12.0]))
        far = UserSet(np.array([0.4, 0.7]), np.array([10.0, 12.0]))
        ch_near = build_channel(cfg, grid, near, LOSS)
        ch_far = build_channel(cfg, grid, far, LOSS)
        np.testing.assert_allclose(
            np.abs(ch_far[:, 0]), np.abs(ch_near[:, 0]) / 2, rtol=1e-12
        )
        np.testing.assert_allclose(
            ch_far[:, 1], ch_near[:, 1], rtol=1e-12
        )

    def test_broadside_entry_value(self):
        # frozen oracle value, diffraction gain 0.03171... times unit loss
        grid = FrequencyGrid(200e9, 400e9, 1)
        users = UserSet(np.array([math.pi / 2]), np.array([1.0]))
        channel = build_channel(LwaConfig(1e-3, 10e-3), grid, users, LOSS)
        assert channel[0, 0] == pytest.approx(
            0.03171009294709409, abs=1e-12
        )

    def test_subcutoff_rows_zeroed_and_flagged(self):
        cfg = LwaConfig(1e-3, 10e-3)  # cutoff ~149.9 GHz
        grid = FrequencyGrid(80e9, 320e9, 6)  # 100, 140, 180, ..., 300 GHz
        users = UserSet(np.array([0.5]), np.array([10.0]))
        channel = build_channel(cfg, grid, users, LOSS)
        assert np.all(channel[:2] == 0)
        assert np.all(channel[2:] != 0)
        # the cutoff frequency itself propagates
        grid = FrequencyGrid(cfg.cutoff_frequency / 2, 1.5 * cfg.cutoff_frequency, 1)
        assert grid.frequencies[0] == cfg.cutoff_frequency
        at_cutoff = build_channel(cfg, grid, users, LOSS)
        assert at_cutoff[0, 0] != 0

    # from 8 users on, numpy's pairwise sum no longer adds in user order,
    # and above 128 it splits; the default scenario has 4
    USER_COUNTS = [1, 4, 8, 9, 32, 129]

    @staticmethod
    def _sub_cutoff_grid(num_users):
        # b from 0.3 mm (cutoff ~500 GHz, above the whole band) to 1.5 mm
        # (~100 GHz, below it): every degree of sub-cutoff masking occurs
        grid = FrequencyGrid(120e9, 480e9, 12)
        rng = np.random.default_rng(num_users)
        users = UserSet(rng.uniform(0.2, 1.5, num_users), rng.uniform(5.0, 20.0, num_users))
        return np.linspace(0.3e-3, 1.5e-3, 7), np.linspace(10e-3, 50e-3, 3), grid, users

    @pytest.mark.parametrize("num_users", USER_COUNTS)
    def test_geometry_gains_squared_matches_per_point_channels(self, num_users):
        b_grid, L_grid, grid, users = self._sub_cutoff_grid(num_users)
        gains2 = geometry_gains_squared(b_grid, L_grid, grid, users, LOSS)
        assert gains2.shape == (7, 3, 12)
        self._assert_per_point_match(gains2, b_grid, L_grid, grid, users)
        assert np.all(gains2[0] == 0.0) and np.all(gains2[-1] > 0.0)

    @staticmethod
    def _assert_per_point_match(gains2, b_grid, L_grid, grid, users):
        # the slit grid's anchor row bitwise, its recurrence rows within
        # the bound physics.py derives
        bound = slit_gains_squared_bound(L_grid, LOSS.evaluate(users.ranges_m))
        assert bound[0] == 0.0 and np.all(bound[1:] > 0.0)
        for i, b in enumerate(b_grid):
            points = [build_channel(LwaConfig(b, L), grid, users, LOSS) for L in L_grid]
            want = np.stack([norms_in_user_order(point) for point in points])
            assert_rows_within(gains2[i], want, bound, axis=0)
            if users.num_users < 8:  # numpy's sum adds these in order too
                summed = np.stack([np.sum(np.abs(point) ** 2, axis=1) for point in points])
                assert_rows_within(gains2[i], summed, bound, axis=0)

    # one gain call per user, in user order, each over the whole 7 x 3 grid
    @pytest.mark.parametrize("num_users", USER_COUNTS)
    def test_one_gain_call_per_user_over_the_whole_grid(self, num_users, monkeypatch):
        b_grid, L_grid, grid, users = self._sub_cutoff_grid(num_users)
        calls = []
        gain_grid = channel.diffraction_gain_grid
        with monkeypatch.context() as spy:
            spy.setattr(
                channel,
                "diffraction_gain_grid",
                lambda config, angles, freqs: calls.append(
                    (len(config.plate_separation_b), len(config.slit_length_L), *angles)
                ) or gain_grid(config, angles, freqs),
            )
            gains2 = geometry_gains_squared(b_grid, L_grid, grid, users, LOSS)
        assert calls == [(7, 3, angle) for angle in users.angles_rad]
        self._assert_per_point_match(gains2, b_grid, L_grid, grid, users)

    # b rows are independent: blocks of rows, as a caller with a memory cap
    # would take them, give the whole grid's rows bit for bit. Rows below
    # one give seven one-row blocks; three give blocks of 3, 3 and 1. Each
    # block makes one gain call per user, in user order.
    @pytest.mark.parametrize("block_rows, blocks", [(0, 7), (3, 3)])
    @pytest.mark.parametrize("num_users", USER_COUNTS)
    def test_gains_blocks_match_per_point_channels(
        self, num_users, block_rows, blocks, monkeypatch
    ):
        b_grid, L_grid, grid, users = self._sub_cutoff_grid(num_users)
        whole = geometry_gains_squared(b_grid, L_grid, grid, users, LOSS)
        rows = max(1, block_rows)
        starts = range(0, len(b_grid), rows)
        sizes = [min(rows, len(b_grid) - start) for start in starts]
        assert len(sizes) == blocks
        calls = []
        gain_grid = channel.diffraction_gain_grid
        with monkeypatch.context() as spy:
            spy.setattr(
                channel,
                "diffraction_gain_grid",
                lambda config, angles, freqs: calls.append(
                    (len(config.plate_separation_b), *angles)
                ) or gain_grid(config, angles, freqs),
            )
            gains2 = np.concatenate([
                geometry_gains_squared(b_grid[start:start + rows], L_grid, grid, users, LOSS)
                for start in starts
            ])
        assert calls == [(size, angle) for size in sizes for angle in users.angles_rad]
        assert np.array_equal(gains2, whole)
        self._assert_per_point_match(gains2, b_grid, L_grid, grid, users)

    def test_slit_column_spacing_checked_once(self, monkeypatch):
        # LwaConfig checks the column when it is built; the K gain calls
        # trust its step
        b_grid, L_grid, grid, users = self._sub_cutoff_grid(4)
        checked = []
        even_spacing = physics.even_spacing
        monkeypatch.setattr(
            physics, "even_spacing", lambda values: checked.append(values.size) or even_spacing(values)
        )
        geometry_gains_squared(b_grid, L_grid, grid, users, LOSS)
        assert checked == [3]

    def test_repeated_slit_lengths_share_one_row(self):
        # linspace over one ulp repeats two values: the rows of one value are
        # one gains row, so a fixed point of the optimizer by (i, j) is one by
        # geometry. The slit recurrence runs over the distinct lengths in
        # increasing order, so a descending grid gives the same rows reversed.
        b_grid, _, grid, users = self._sub_cutoff_grid(4)
        L_grid = np.linspace(15.86e-3, np.nextafter(15.86e-3, 1.0), 4)
        lengths = np.unique(L_grid)
        assert lengths.size == 2 and np.array_equal(L_grid, lengths[[0, 0, 1, 1]])
        gains2 = geometry_gains_squared(b_grid, L_grid, grid, users, LOSS)
        distinct = geometry_gains_squared(b_grid, lengths, grid, users, LOSS)
        assert np.array_equal(gains2, distinct[:, [0, 0, 1, 1]])
        reversed_grid = geometry_gains_squared(b_grid, L_grid[::-1], grid, users, LOSS)
        assert np.array_equal(reversed_grid, gains2[:, ::-1])
        self._assert_per_point_match(distinct, b_grid, lengths, grid, users)

    @pytest.mark.parametrize("b_grid, L_grid", [([], [10e-3]), ([1e-3], [])])
    def test_geometry_gains_squared_rejects_empty_grids(self, b_grid, L_grid):
        grid = FrequencyGrid(200e9, 400e9, 1)
        users = UserSet(np.array([0.5]), np.array([10.0]))
        with pytest.raises(ValueError, match="grids must be non-empty"):
            geometry_gains_squared(np.array(b_grid), np.array(L_grid), grid, users, LOSS)

    def test_gains_squared_matches_entries(self):
        # the channel is a plain float64 N x K array, and average_sum_rate
        # takes ||h_n||^2 from its rows
        grid = FrequencyGrid(200e9, 800e9, 5)
        users = UserSet(np.array([0.3, 0.8]), np.array([10.0, 15.0]))
        channel = build_channel(LwaConfig(1e-3, 30e-3), grid, users, LOSS)
        assert type(channel) is np.ndarray
        assert channel.dtype == np.float64 and channel.shape == (5, 2)
        powers = np.array([1.0, 2.0, 0.0, 0.5, 3.0])
        want = rate_bits(powers, np.sum(channel ** 2, axis=1), NOISE, 5)
        assert average_sum_rate(channel, powers, NOISE) == want


class TestUserSum:
    """geometry_gains_squared and average_sum_rate add the users in one
    order, k = 0, 1, ..., K-1. The counts cross 8 and 128 terms, where
    numpy's pairwise summation would add them in another."""

    COUNTS = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 255, 256, 257, 300, 1000]
    GRID = FrequencyGrid(200e9, 800e9, 12)
    CFG = LwaConfig(1e-3, 20e-3)

    @staticmethod
    def _users(num_users):
        rng = np.random.default_rng(num_users)
        return UserSet(rng.uniform(0.2, 1.5, num_users), rng.uniform(5.0, 20.0, num_users))

    def _gains2(self, users):
        b, L = [self.CFG.plate_separation_b], [self.CFG.slit_length_L]
        return geometry_gains_squared(b, L, self.GRID, users, LOSS)[0, 0]

    @pytest.mark.parametrize("num_users", COUNTS)
    def test_adds_users_in_order(self, num_users, monkeypatch):
        # on 12 subbands every count from 8 on has some subband where
        # numpy's order gives another bit than this one
        users = self._users(num_users)
        gains2 = self._gains2(users)
        point = build_channel(self.CFG, self.GRID, users, LOSS)
        want = norms_in_user_order(point)
        assert np.array_equal(gains2, want)
        rated = []
        monkeypatch.setattr(channel, "rate_bits", lambda powers, norms, *_: rated.append(norms))
        average_sum_rate(point, np.ones(self.GRID.num_subbands), NOISE)
        assert np.array_equal(rated[0], want)

    @pytest.mark.parametrize("num_users", [8, 128, 129, 1000])
    def test_holds_only_the_last_user_term(self, num_users, monkeypatch):
        alive, most = [], []
        gain_grid = channel.diffraction_gain_grid

        def spy(config, angles, freqs):
            most.append(sum(ref() is not None for ref in alive))
            gains = gain_grid(config, angles, freqs)
            alive.append(weakref.ref(gains))
            return gains

        monkeypatch.setattr(channel, "diffraction_gain_grid", spy)
        self._gains2(self._users(num_users))
        # only the last user's gains are alive when the next are computed
        assert len(most) == num_users and max(most) == 1

    def test_default_grid_peak_is_a_few_user_arrays(self):
        # a gain call holds z and its result, which takes |z|, sin(z) and the
        # gain in turn, while the output and the last user's term are alive.
        # The default grid, and a 101 x 41 one over 64 subbands, which is
        # one gain call per user as well: the whole grid at once
        for b_points, L_points, num_subbands in [(21, 21, 40), (101, 41, 64)]:
            config = experiments.ScenarioConfig(
                seed=1, b_grid_points=b_points, slit_grid_points=L_points,
                num_subbands=num_subbands,
            )
            users, grid = experiments.sample_users(config, 0), config.frequency_grid()
            grids = config.search_grids()
            one_user = b_points * L_points * num_subbands * 8
            args = grids.b_grid, grids.L_grid, grid, users, LOSS
            geometry_gains_squared(*args)
            _, peak = traced_peak(geometry_gains_squared, *args)
            assert peak <= 5 * one_user, f"peak {peak / one_user:.2f} one-user arrays"


class TestRates:
    @staticmethod
    def _one_subband(h):
        return np.asarray(h)[None, :]

    def test_unit_everything_is_one_bit(self):
        channel = self._one_subband([1.0])
        assert average_sum_rate(channel, [1.0], NOISE) == pytest.approx(1.0)

    def test_zero_power_is_zero(self):
        channel = self._one_subband([0.3, 0.5j])
        assert average_sum_rate(channel, [0.0], NOISE) == 0.0

    def test_gain_three_is_two_bits(self):
        channel = self._one_subband([1.0, 1.0, 1.0])  # ||h||^2 = 3
        assert average_sum_rate(channel, [1.0], NOISE) == pytest.approx(2.0)
        assert average_sum_rate([[1.0, 1.0, 1.0]], [1.0], NOISE) == 2.0  # a nested list too

    def test_negative_power_rejected(self):
        # -0.5 on a unit gain used to give -1 bit, and -2.0 a nan
        for power in (-0.1, -0.5, -2.0):
            with pytest.raises(ValueError):
                average_sum_rate(self._one_subband([1.0]), [power], NOISE)

    def test_non_finite_rate_raises(self):
        with pytest.raises(FloatingPointError):
            rate_bits(np.array([1.0]), np.array([np.inf]), NOISE, 1)
        with pytest.raises(FloatingPointError):
            rate_bits(np.array([np.nan, 1.0]), np.array([1.0, 1.0]), NOISE, 2)

    def _channel(self, gains):
        # synthetic channel with prescribed per-subband ||h_n||^2
        return np.sqrt(np.asarray(gains, dtype=float))[:, None].astype(complex)

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

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3, 1)])
    def test_channel_that_is_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="N x K channel array"):
            average_sum_rate(np.ones(shape), [1.0], NOISE)

    def test_rate_increases_with_power(self):
        channel = self._channel([0.5, 2.0, 1.0])
        base = average_sum_rate(channel, [1.0, 1.0, 1.0], NOISE)
        for n in range(3):
            powers = [1.0, 1.0, 1.0]
            powers[n] += 0.5
            assert average_sum_rate(channel, powers, NOISE) > base

    def test_loss_scaling_equivalent_to_power_scaling(self):
        grid = FrequencyGrid(200e9, 800e9, 4)
        users = UserSet(np.array([0.4, 0.9]), np.array([10.0, 14.0]))
        cfg = LwaConfig(1e-3, 25e-3)
        scale = 3.0  # users scale times nearer
        nearer = UserSet(users.angles_rad, users.ranges_m / scale)
        ch1 = build_channel(cfg, grid, users, InverseRangeLoss())
        ch2 = build_channel(cfg, grid, nearer, InverseRangeLoss())
        np.testing.assert_allclose(
            np.abs(ch2), scale * np.abs(ch1), rtol=1e-12
        )
        powers = [1.0, 2.0, 0.5, 0.1]
        scaled_powers = [p * scale ** 2 for p in powers]
        assert average_sum_rate(ch2, powers, NOISE) == pytest.approx(
            average_sum_rate(ch1, scaled_powers, NOISE), rel=1e-12
        )


class TestBeampattern:
    GRID = FrequencyGrid(200e9, 800e9, 4)
    CFG = LwaConfig(1e-3, 20e-3)
    ANGLES = np.radians(np.arange(1.0, 90.0, 1.0))
    RANGES = np.array([5.0, 10.0, 20.0])

    @pytest.mark.parametrize("bad_range", [-10.0, 0.0])
    def test_non_positive_range_rejected(self, bad_range):
        # -10 m used to give the log-energy of +10 m, and 0 m a division by zero
        ranges = np.array([5.0, bad_range])
        with pytest.raises(ValueError, match="ranges"):
            beampattern(self.CFG, self.GRID, [1.0] * 4, LOSS, self.ANGLES, ranges)

    @pytest.mark.parametrize("bad_range", [math.inf, -math.inf])
    def test_non_finite_range_rejected(self, bad_range):
        # an infinite range used to get the -300 floor
        ranges = np.array([bad_range, 10.0])
        with pytest.raises(ValueError, match="ranges must be finite and positive"):
            beampattern(self.CFG, self.GRID, [1.0] * 4, LOSS, self.ANGLES, ranges)

    @pytest.mark.parametrize("bad_power", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_power_rejected(self, bad_power):
        powers = [1.0, bad_power, 0.0, 1.0]
        with pytest.raises(ValueError, match="powers must be finite and >= 0"):
            beampattern(self.CFG, self.GRID, powers, LOSS, self.ANGLES, self.RANGES)
        with pytest.raises(ValueError, match="power vector length must match"):
            beampattern(self.CFG, self.GRID, powers[:3], LOSS, self.ANGLES, self.RANGES)

    @pytest.mark.parametrize("bad_angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad_angle):
        # a NaN angle used to give a NaN energy, written as the -300 floor
        angles = np.array([bad_angle, 0.5])
        with pytest.raises(ValueError, match="angles must be finite"):
            beampattern(self.CFG, self.GRID, [1.0] * 4, LOSS, angles, self.RANGES)

    @pytest.mark.parametrize("bad_angle", [-0.5, 0.0, 2.0])
    def test_angle_outside_the_quadrant_rejected(self, bad_angle):
        # -0.5 rad used to mirror +0.5 rad, and 2.0 rad to get a value the
        # physics does not define
        angles = np.array([bad_angle, 0.5])
        with pytest.raises(ValueError, match=r"lie in \(0, pi/2\]"):
            beampattern(self.CFG, self.GRID, [1.0] * 4, LOSS, angles, self.RANGES)

    @pytest.mark.parametrize("powers", [[1.0] * 4, [0.0, 1.0, 0.0, 0.0], [0.0] * 4])
    def test_range_with_non_finite_gamma2_rejected(self, powers):
        # (1 / 1e-200)^2 overflows to inf, whatever the powers are
        ranges = np.array([5.0, 1e-200])
        with pytest.raises(ValueError, match="finite Gamma"):
            beampattern(self.CFG, self.GRID, powers, LOSS, self.ANGLES, ranges)

    @pytest.mark.parametrize("num_subbands", [40, 256])
    def test_matches_all_subband_reference_on_default_map(
        self, tmp_path, monkeypatch, num_subbands
    ):
        # the 900 x 201 map of the default scenario, seeds 0-9, with the
        # inputs the experiment passes; the export is skipped
        powered = []

        def both_maps(*args):
            got = beampattern(*args)
            assert got.shape == (900, 201)
            assert np.array_equal(got, reference_beampattern(*args))
            powered.append(np.count_nonzero(args[2]))
            return got

        monkeypatch.setattr(experiments, "beampattern", both_maps)
        monkeypatch.setattr(experiments, "export_beampattern_csv", lambda *args: None)
        for seed in range(10):
            config = experiments.ScenarioConfig(seed=seed, num_subbands=num_subbands)
            experiments.run_beampattern_experiment(config, tmp_path, 0.1, 0.1)
        assert len(powered) == 10
        assert 0 < min(powered) and max(powered) < num_subbands  # zeros were skipped

    @FUZZ
    @given(
        b=st.floats(min_value=0.3e-3, max_value=1.1e-3),
        n=st.integers(min_value=1, max_value=300),
        kind=st.sampled_from(["all zero", "one powered", "all powered", "mixed"]),
        data=st.data(),
    )
    def test_matches_all_subband_reference_with_zero_powers(self, b, n, kind, data):
        # b down to 0.3 mm puts the cutoff inside the band, so some powered
        # subbands have zero gain
        power = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
        if kind == "all zero":
            powers = np.zeros(n)
        elif kind == "one powered":
            powers = np.zeros(n)
            powers[data.draw(st.integers(0, n - 1))] = data.draw(power)
        elif kind == "all powered":
            powers = np.array(data.draw(st.lists(power, min_size=n, max_size=n)))
        else:
            entry = st.one_of(st.sampled_from([0.0, -0.0]), power)
            powers = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        config = LwaConfig(b, 20e-3)
        grid = FrequencyGrid(200e9, 800e9, n)
        angles = np.radians(np.arange(1.0, 90.0, 4.0))
        ranges = np.array([1e-3, 5.0, 12.5, 1e6])
        args = (config, grid, powers, LOSS, angles, ranges)
        assert np.array_equal(beampattern(*args), reference_beampattern(*args))

    def test_zero_power_hits_floor(self):
        m = beampattern(self.CFG, self.GRID, [0.0] * 4, LOSS, self.ANGLES, self.RANGES)
        assert np.all(m == -300.0)

    def test_single_subband_peaks_at_emission_angle(self):
        powers = [0.0, 0.0, 1.0, 0.0]
        m = beampattern(self.CFG, self.GRID, powers, LOSS, self.ANGLES, self.RANGES)
        peak_angle = self.ANGLES[np.argmax(m[:, 0])]
        want = hp_emission_angle(
            repr(self.CFG.plate_separation_b), repr(float(self.GRID.frequencies[2]))
        )
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
        want = math.log10(p_n * abs(channel[1, 0]) ** 2)
        assert m[0, 0] == pytest.approx(want, abs=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            beampattern(self.CFG, self.GRID, [1.0] * 4, LOSS, np.array([]), self.RANGES)

    def test_takes_lists(self):
        powers = [1.0, 0.0, 2.0, 0.5]
        m = beampattern(self.CFG, self.GRID, powers, LOSS, list(self.ANGLES), list(self.RANGES))
        want = beampattern(self.CFG, self.GRID, powers, LOSS, self.ANGLES, self.RANGES)
        assert np.array_equal(m, want)

    def test_fine_map_peak_is_one_map_and_its_masks(self):
        # the log is taken in place: no second map, only the einsum's and
        # the floor's masks beside it
        angles = np.radians(np.arange(1, 901) / 10.0)
        ranges = np.arange(50, 251) / 10.0
        args = (self.CFG, self.GRID, [1.0] * 4, LOSS, angles, ranges)
        one_map = angles.size * ranges.size * 8
        beampattern(*args)
        _, peak = traced_peak(beampattern, *args)
        assert peak <= 1.6 * one_map, f"peak {peak / one_map:.2f} maps"

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

    def test_csv_export_matches_reference_writer(self, tmp_path):
        angles = np.radians([0.1, 33.3333333333, 90.0])
        ranges = np.array([5.0, 1e-7, 12.3456789123])
        energy = np.array([
            [BEAMPATTERN_FLOOR, -0.0, 5e-324],
            [1e300, np.inf, np.nan],
            [-np.inf, 1e-300, 1.2e11],
        ])
        export_beampattern_csv(tmp_path / "new.csv", angles, ranges, energy)
        reference_export_beampattern_csv(tmp_path / "ref.csv", angles, ranges, energy)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_export_matches_reference_writer_on_default_map(self, tmp_path, monkeypatch):
        # the 900 x 201 map of the default scenario, seed 0, as the
        # experiment computes it
        def both_writers(path, angles, ranges, energy):
            export_beampattern_csv(path, angles, ranges, energy)
            reference_export_beampattern_csv(tmp_path / "ref.csv", angles, ranges, energy)

        monkeypatch.setattr(experiments, "export_beampattern_csv", both_writers)
        config = experiments.ScenarioConfig(seed=0)
        experiments.run_beampattern_experiment(config, tmp_path / "out", 0.1, 0.1)
        written = (tmp_path / "out" / "beampattern.csv").read_bytes()
        assert written.count(b"\n") == 1 + 900 * 201
        assert written == (tmp_path / "ref.csv").read_bytes()

    @FUZZ
    @given(
        angles=st.lists(st.floats(), max_size=6),
        ranges=st.lists(st.floats(), max_size=6),
        data=st.data(),
    )
    def test_csv_export_matches_reference_writer_on_any_floats(self, angles, ranges, data):
        special = st.sampled_from(
            [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]
        )
        entry = st.one_of(special, st.floats())
        energy = np.array(
            data.draw(st.lists(st.lists(entry, min_size=len(ranges), max_size=len(ranges)),
                               min_size=len(angles), max_size=len(angles))),
            dtype=float,
        ).reshape(len(angles), len(ranges))
        # np.degrees of an angle above 1.8e306 overflows to inf in both writers
        with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore"):
            new, ref = Path(tmp, "new.csv"), Path(tmp, "ref.csv")
            export_beampattern_csv(new, angles, ranges, energy)
            reference_export_beampattern_csv(ref, angles, ranges, energy)
            assert new.read_bytes() == ref.read_bytes()

    def test_csv_export_writes_an_empty_range_grid_as_the_header(self, tmp_path):
        export_beampattern_csv(tmp_path / "map.csv", [0.1, 0.2], [], np.zeros((2, 0)))
        assert (tmp_path / "map.csv").read_bytes() == b"angle_deg,range_m,log_energy\n"

    @pytest.mark.parametrize("shape", [(3, 4), (1, 2), (1, 4)])
    def test_csv_export_rejects_mismatched_map(self, tmp_path, shape):
        path = tmp_path / "map.csv"
        with pytest.raises(ValueError, match="does not match"):
            export_beampattern_csv(path, np.radians([10.0, 20.0]), [5.0, 10.0], np.zeros(shape))
        assert not path.exists()

    def test_bin_counting_near_angle(self):
        # a subband lies near an angle when its gain peaks within +/- 2 deg of
        # it on a fine angle sweep that ends at broadside
        angles = np.linspace(0.01, math.pi / 2, 9000)
        cfg = LwaConfig(1e-3, 20e-3)
        grid = FrequencyGrid(200e9, 800e9, 40)
        phi = hp_emission_angle("0.001", repr(float(grid.frequencies[10])))
        peaks = angles[np.argmax(diffraction_gain_grid(cfg, angles, grid.frequencies), axis=1)]
        assert np.count_nonzero(np.abs(peaks - phi) <= math.radians(2.0)) >= 1
        # the cutoff frequency radiates broadside, even where c/(2 b f) rounds above 1
        cfg = LwaConfig(0.0005375138883100129, 20e-3)
        freqs = np.array([cfg.cutoff_frequency, 2 * cfg.cutoff_frequency])
        peaks = angles[np.argmax(diffraction_gain_grid(cfg, angles, freqs), axis=1)]
        assert np.count_nonzero(np.abs(peaks - math.pi / 2) <= 1e-9) == 1


class TestValidation:
    def test_frequency_grid_invariants(self):
        # too narrow for 4 distinct centers, and an infinite band
        for f_low, f_high in [(1e11, np.nextafter(1e11, math.inf)), (1e11, math.inf)]:
            with pytest.raises(ValueError, match="finite and strictly increasing"):
                FrequencyGrid(f_low, f_high, 4)
        for f_low, f_high in [(0.0, 8e11), (8e11, 2e11), (5e11, 5e11), (math.nan, 8e11)]:
            with pytest.raises(ValueError, match="0 < f_low < f_high"):
                FrequencyGrid(f_low, f_high, 4)

    def test_user_set_invariants(self):
        for bad_range in (-1.0, 0.0):
            with pytest.raises(ValueError, match="ranges must be finite and positive"):
                UserSet(np.array([0.5]), np.array([bad_range]))
        with pytest.raises(ValueError):
            UserSet(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            UserSet(np.array([math.pi / 2 + 0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            UserSet(np.array([0.5, 0.6]), np.array([1.0]))

    @pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, "3", None, True])
    def test_subband_centers_needs_an_integer_count(self, n):
        with pytest.raises(ValueError, match="integer bin count"):
            FrequencyGrid(200e9, 800e9, n)

    def test_subband_centers_takes_numpy_integers(self):
        grid = FrequencyGrid(200e9, 800e9, np.int64(3))
        assert np.array_equal(grid.frequencies, [300e9, 500e9, 700e9])

    def test_noise_model(self):
        with pytest.raises(ValueError):
            NoiseModel(0.0)

    @pytest.mark.parametrize(
        "make, args",
        [
            (LwaConfig, (math.nan, 0.01)),
            (LwaConfig, (1e-3, math.nan)),
            (LwaConfig, (1e-3, math.inf)),
            (LwaConfig, (math.inf, 0.01)),
            (LwaConfig, (1e-3, np.array([0.01, math.nan])[:, None, None])),
            (LwaConfig, (np.array([1e-3, math.nan])[:, None, None], 0.01)),
            (LwaConfig, (1e-3, np.array([0.01, math.inf])[:, None, None])),
            (NoiseModel, (math.nan,)),
            (NoiseModel, (math.inf,)),
            (FrequencyGrid, (1e11, math.nan, 4)),
            (FrequencyGrid, (1e11, math.inf, 4)),
            (UserSet, ([0.5, math.nan], [10.0, 12.0])),
            (UserSet, ([0.5], [math.nan])),
            (UserSet, ([0.5], [math.inf])),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_non_finite_fields_rejected(self, make, args):
        with pytest.raises(ValueError, match="must"):
            make(*args)

    def test_inverse_range_loss(self):
        assert InverseRangeLoss().evaluate(2.0) == 0.5
        assert not hasattr(InverseRangeLoss(), "__dict__")  # slotted
        got = InverseRangeLoss().evaluate(np.array([[2.0, 4.0, 12.5]]))
        assert got.shape == (1, 3) and np.array_equal(got, [[0.5, 0.25, 0.08]])
