import math

import numpy as np
import pytest

from lwacomm.channel import (
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    build_channel,
)
from lwacomm.mimo import (
    MimoChannelTensor,
    UlaGeometry,
    ZeroChannel,
    build_mimo_channel,
    mimo_sum_rate,
    normalize_to_lwa,
)
from lwacomm.physics import LwaConfig, SPEED_OF_LIGHT

from oracles import simplex_grid_best_rate

NOISE = NoiseModel(1.0)
GRID = FrequencyGrid.subband_centers(200e9, 800e9, 4)
USERS = UserSet(np.array([0.4, 0.9]), np.array([12.0, 17.0]))
ULA8 = UlaGeometry(8, 500e9)


class TestGeometry:
    def test_positions_centered_and_spaced(self):
        pos = ULA8.element_positions
        assert pos.sum() == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(np.diff(pos), SPEED_OF_LIGHT / (2 * 500e9))

    def test_validation(self):
        with pytest.raises(ValueError):
            UlaGeometry(0, 500e9)
        with pytest.raises(ValueError):
            UlaGeometry(4, 0.0)


class TestBuildChannel:
    def test_single_element_is_range_loss(self):
        tensor = build_mimo_channel(UlaGeometry(1, 500e9), GRID, USERS)
        want = np.tile(1.0 / USERS.ranges_m, (GRID.num_subbands, 1))
        np.testing.assert_allclose(np.abs(tensor.entries[:, :, 0]), want, rtol=1e-12)

    def test_magnitude_frequency_independent(self):
        tensor = build_mimo_channel(ULA8, GRID, USERS)
        mags = np.abs(tensor.entries)
        for n in range(1, mags.shape[0]):
            np.testing.assert_allclose(mags[n], mags[0], rtol=1e-12)

    def test_far_field_phase_limit(self):
        # at rho = 1e4 * aperture the exact phases approach the planar model
        geometry = UlaGeometry(4, 500e9)
        rho = 1e4 * geometry.aperture_m
        phi = 0.7
        users = UserSet(np.array([phi]), np.array([rho]))
        tensor = build_mimo_channel(geometry, GRID, users)
        f = GRID.frequencies[0]
        phases = np.unwrap(np.angle(tensor.entries[0, 0, :]))
        planar = 2 * np.pi * f * geometry.element_positions * math.cos(phi) / SPEED_OF_LIGHT
        dphase = np.diff(phases)
        dplanar = np.diff(planar)
        np.testing.assert_allclose(dphase, dplanar, rtol=1e-2)

    def test_user_inside_array_rejected(self):
        geometry = UlaGeometry(64, 200e9)
        users = UserSet(np.array([0.5]), np.array([geometry.aperture_m / 4]))
        with pytest.raises(ValueError):
            build_mimo_channel(geometry, GRID, users)

    def test_singular_values_match_frobenius(self):
        tensor = build_mimo_channel(ULA8, GRID, USERS)
        svals = np.linalg.svd(tensor.entries, compute_uv=False)
        for n in range(GRID.num_subbands):
            frob2 = np.sum(np.abs(tensor.entries[n]) ** 2)
            assert np.sum(svals[n] ** 2) == pytest.approx(frob2, rel=1e-9)


def lwa_channel():
    return build_channel(LwaConfig(1e-3, 20e-3), GRID, USERS, InverseRangeLoss())


class TestNormalization:
    def test_equal_max_is_identity(self):
        target = lwa_channel()
        lwa_max = np.max(np.abs(target.entries))
        entries = np.full((2, 1, 1), lwa_max, dtype=complex)
        tensor = normalize_to_lwa(MimoChannelTensor(entries), target)
        assert tensor.normalization_factor == pytest.approx(1.0)
        np.testing.assert_allclose(tensor.entries, entries)

    def test_double_max_halves_entries(self):
        target = lwa_channel()
        lwa_max = np.max(np.abs(target.entries))
        entries = np.full((2, 1, 1), 2 * lwa_max, dtype=complex)
        tensor = normalize_to_lwa(MimoChannelTensor(entries), target)
        np.testing.assert_allclose(np.abs(tensor.entries), lwa_max, rtol=1e-12)

    def test_random_tensor_hits_target(self):
        rng = np.random.default_rng(9)
        target = lwa_channel()
        entries = rng.normal(size=(4, 2, 8)) + 1j * rng.normal(size=(4, 2, 8))
        tensor = normalize_to_lwa(MimoChannelTensor(entries), target)
        assert np.max(np.abs(tensor.entries)) == pytest.approx(
            np.max(np.abs(target.entries)), rel=1e-12
        )

    def test_idempotent(self):
        target = lwa_channel()
        tensor = build_mimo_channel(ULA8, GRID, USERS)
        once = normalize_to_lwa(tensor, target)
        twice = normalize_to_lwa(once, target)
        np.testing.assert_allclose(twice.entries, once.entries, rtol=1e-12)

    def test_zero_channel_raises(self):
        target = lwa_channel()
        with pytest.raises(ZeroChannel):
            normalize_to_lwa(MimoChannelTensor(np.zeros((1, 1, 1), complex)), target)


class TestSumRate:
    def test_scalar_channel_one_bit(self):
        tensor = MimoChannelTensor(np.ones((1, 1, 1), dtype=complex))
        assert mimo_sum_rate(tensor, 1.0, NOISE) == pytest.approx(1.0)

    def test_equal_rank_one_subbands_split_uniformly(self):
        # each subband is rank 1 with s^2 = 4; waterfilling splits P evenly,
        # so the rate has the closed form log2(1 + (P/N) * 4)
        n, p = 4, 2.0
        h = np.zeros((n, 2, 2), dtype=complex)
        for i in range(n):
            h[i] = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1, s1^2 = 4
        rate = mimo_sum_rate(MimoChannelTensor(h), p, NOISE)
        assert rate == pytest.approx(math.log2(1.0 + (p / n) * 4.0), rel=1e-9)

    def test_matches_simplex_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            entries = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
            tensor = MimoChannelTensor(entries)
            budget = 1.0
            got = mimo_sum_rate(tensor, budget, NOISE)
            pooled = (np.linalg.svd(entries, compute_uv=False) ** 2).ravel()
            best = simplex_grid_best_rate(pooled, budget, 1.0, 100) * pooled.size / 2
            assert got == pytest.approx(best, abs=1e-4)

    def test_budget_validation(self):
        tensor = MimoChannelTensor(np.ones((1, 1, 1), dtype=complex))
        with pytest.raises(ValueError):
            mimo_sum_rate(tensor, 0.0, NOISE)

    def test_non_finite_rate_raises(self):
        # s^2 = 1e400 overflows to inf, so the rate would be inf
        tensor = MimoChannelTensor(np.full((1, 1, 1), 1e200, dtype=complex))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            mimo_sum_rate(tensor, 1.0, NOISE)

    def test_monotone_in_elements_statistically(self):
        rng = np.random.default_rng(2024)
        grid = FrequencyGrid.subband_centers(200e9, 800e9, 8)
        target = build_channel(
            LwaConfig(1e-3, 20e-3),
            grid,
            UserSet(np.array([0.4, 0.9]), np.array([12.0, 17.0])),
            InverseRangeLoss(),
        )
        wins = 0
        trials = 50
        for _ in range(trials):
            users = UserSet(
                rng.uniform(math.radians(10), math.radians(55), 2),
                rng.uniform(10.0, 20.0, 2),
            )
            rates = []
            for m in (4, 8):
                tensor = build_mimo_channel(UlaGeometry(m, 500e9), grid, users)
                tensor = normalize_to_lwa(tensor, target)
                rates.append(mimo_sum_rate(tensor, 10.0, NOISE))
            if rates[1] >= rates[0] - 1e-12:
                wins += 1
        assert wins >= int(0.9 * trials)
