import math
import tracemalloc

import numpy as np
import pytest

from lwacomm.channel import (
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    build_channel,
)
from lwacomm import mimo
from lwacomm.experiments import ScenarioConfig, sample_users
from lwacomm.mimo import (
    MimoChannelTensor,
    UlaGeometry,
    ZeroChannel,
    build_mimo_channel,
    mimo_sum_rate,
    normalize_to_lwa,
)
from lwacomm.optimizer import SearchGrids, alternate_optimize
from lwacomm.physics import LwaConfig, SPEED_OF_LIGHT

from oracles import reference_mimo_entries, simplex_grid_best_rate, svd_mimo_rate

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

    # 2.5 elements would give 3 positions but an aperture of 1.5 spacings, a
    # NaN frequency NaN positions, and an infinite one 8 coincident elements
    @pytest.mark.parametrize(
        "args", [(2.5, 500e9), (True, 500e9), (8, math.nan), (8, math.inf)]
    )
    def test_non_integer_count_and_non_finite_frequency_rejected(self, args):
        with pytest.raises(ValueError, match="must be"):
            UlaGeometry(*args)

    def test_numpy_integer_count_accepted(self):
        assert UlaGeometry(np.int64(8), 500e9).element_positions.size == 8


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

    @pytest.mark.parametrize(
        "config",
        [ScenarioConfig(), ScenarioConfig(num_subbands=256, num_users=32, mimo_elements=256)],
        ids=["default", "wide-band"],
    )
    def test_entries_match_reference_bitwise(self, config):
        users = sample_users(config, 0)
        grid = config.frequency_grid()
        tensor = build_mimo_channel(config.ula(), grid, users)
        assert np.array_equal(tensor.entries, reference_mimo_entries(config.ula(), grid, users))

    def test_singular_values_match_frobenius(self):
        tensor = build_mimo_channel(ULA8, GRID, USERS)
        svals = np.linalg.svd(tensor.entries, compute_uv=False)
        for n in range(GRID.num_subbands):
            frob2 = np.sum(np.abs(tensor.entries[n]) ** 2)
            assert np.sum(svals[n] ** 2) == pytest.approx(frob2, rel=1e-9)


class RecordedBlocks:
    """An explicit tensor as a source of subband blocks that records which
    runs of subbands are read."""

    def __init__(self, entries):
        self.entries, self.shape, self.reads = entries, entries.shape, []

    def __getitem__(self, subbands):
        self.reads.append(subbands)
        return self.entries[subbands]


def lwa_channel():
    return build_channel(LwaConfig(1e-3, 20e-3), GRID, USERS, InverseRangeLoss())


def effective(tensor):
    return tensor.normalization_factor * tensor.entries


class TestNormalization:
    def test_equal_max_is_identity(self):
        target = lwa_channel()
        lwa_max = np.max(np.abs(target.entries))
        entries = np.full((2, 1, 1), lwa_max, dtype=complex)
        tensor = normalize_to_lwa(MimoChannelTensor(entries), target)
        assert tensor.normalization_factor == pytest.approx(1.0)
        np.testing.assert_allclose(effective(tensor), entries)

    def test_double_max_halves_entries(self):
        target = lwa_channel()
        lwa_max = np.max(np.abs(target.entries))
        entries = np.full((2, 1, 1), 2 * lwa_max, dtype=complex)
        tensor = normalize_to_lwa(MimoChannelTensor(entries), target)
        assert tensor.entries is entries
        np.testing.assert_allclose(np.abs(effective(tensor)), lwa_max, rtol=1e-12)

    def test_random_tensor_hits_target(self):
        rng = np.random.default_rng(9)
        target = lwa_channel()
        entries = rng.normal(size=(4, 2, 8)) + 1j * rng.normal(size=(4, 2, 8))
        tensor = normalize_to_lwa(MimoChannelTensor(entries), target)
        assert np.max(np.abs(effective(tensor))) == pytest.approx(
            np.max(np.abs(target.entries)), rel=1e-12
        )

    def test_idempotent(self):
        target = lwa_channel()
        tensor = build_mimo_channel(ULA8, GRID, USERS)
        once = normalize_to_lwa(tensor, target)
        twice = normalize_to_lwa(once, target)
        np.testing.assert_allclose(effective(twice), effective(once), rtol=1e-12)

    @pytest.mark.parametrize(
        "block_entries, shape",
        [(None, (40, 32, 256)), (3 * 2 * 8, (10, 2, 8))],
        ids=["default-blocks", "3-subband-blocks"],
    )
    def test_blockwise_peak_matches_full_max(self, block_entries, shape, monkeypatch):
        if block_entries is not None:
            monkeypatch.setattr(mimo, "GRAM_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(11)
        entries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        entries[-1, 1, 5] = 7.0 - 6.0j  # the largest tap, in the last block
        blocks = RecordedBlocks(entries)
        target = lwa_channel()
        tensor = normalize_to_lwa(MimoChannelTensor(blocks, 0.3), target)
        assert len(blocks.reads) >= 4
        assert [s.start for s in blocks.reads[1:]] == [s.stop for s in blocks.reads[:-1]]
        assert blocks.reads[0].start == 0 and blocks.reads[-1].stop >= shape[0]
        lwa_max = float(np.max(np.abs(target.entries)))
        want = 0.3 * (lwa_max / (0.3 * float(np.max(np.abs(entries)))))
        assert tensor.normalization_factor == want

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

    @pytest.mark.parametrize("sigma2", [1.0, 0.3])
    def test_single_antenna_matches_lwa_rate(self, sigma2):
        # K = M = 1: the MIMO pool is |h_n|^2, the gains of a one-point LWA
        # grid, so both systems waterfill the same gains and take one rate
        rng = np.random.default_rng(31)
        noise = NoiseModel(sigma2)
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        for _ in range(20):
            h = rng.normal(size=16) + 1j * rng.normal(size=16)
            budget = rng.uniform(0.5, 20.0)
            mimo_rate = mimo_sum_rate(MimoChannelTensor(h[:, None, None]), budget, noise)
            lwa = alternate_optimize(grids, (np.abs(h) ** 2)[None, None, :], budget, noise)
            assert math.isclose(mimo_rate, lwa.sum_rate, rel_tol=1e-14)

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


class TestSpectrumMemory:
    def test_build_normalize_rate_hold_no_tensor(self):
        # N x K x M = 256 x 32 x 256 complex entries would take 33.5 MB
        config = ScenarioConfig(num_subbands=256, num_users=32, mimo_elements=256)
        users = sample_users(config, 1)
        grid = config.frequency_grid()
        target = build_channel(LwaConfig(1e-3, 20e-3), grid, users, InverseRangeLoss())
        ula = config.ula()
        tracemalloc.start()
        try:
            tensor = normalize_to_lwa(build_mimo_channel(ula, grid, users), target)
            rate = mimo_sum_rate(tensor, config.power_budget, NOISE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rate > 0
        assert peak < 256 * 32 * 256 * 16 / 8, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("snr_db, svd_runs", [(20.0, 0), (100.0, 2)], ids=["gram", "svd"])
    def test_explicit_entries_rate_as_built(self, snr_db, svd_runs, svd_calls):
        config = ScenarioConfig(num_subbands=8, num_users=8, mimo_elements=8)
        users = sample_users(config, 0)
        grid = config.frequency_grid()
        target = build_channel(LwaConfig(1e-3, 14e-3), grid, users, InverseRangeLoss())
        built = build_mimo_channel(config.ula(), grid, users)
        entries = built.entries
        explicit = normalize_to_lwa(MimoChannelTensor(entries), target)
        assert explicit.entries is entries
        built = normalize_to_lwa(built, target)
        assert explicit.normalization_factor == built.normalization_factor
        budget = snr_budget(built, snr_db)
        assert mimo_sum_rate(explicit, budget, NOISE) == mimo_sum_rate(built, budget, NOISE)
        assert len(svd_calls) == svd_runs


def normalized_tensor(num_users, num_elements, seed=0):
    """A compare-mimo tensor: 8 subbands, normalized to a fixed LWA channel."""
    config = ScenarioConfig(num_subbands=8, num_users=num_users, mimo_elements=num_elements)
    users = sample_users(config, seed)
    grid = config.frequency_grid()
    tensor = build_mimo_channel(config.ula(), grid, users)
    return normalize_to_lwa(tensor, build_channel(LwaConfig(1e-3, 14e-3), grid, users, InverseRangeLoss()))


def snr_budget(tensor, snr_db):
    return 10.0 ** (snr_db / 10.0) * tensor.entries.shape[0] * NOISE.variance_sigma2


def oracle_rate(tensor, budget):
    return svd_mimo_rate(MimoChannelTensor(effective(tensor)), budget, NOISE)


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the np.linalg.svd calls made after the fixture is set up."""
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


# K < M, K = M, K > M, and a larger K < M
SHAPES = [(2, 8), (8, 8), (12, 4), (16, 64)]


class TestGramRate:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_svd_oracle(self, shape, svd_calls):
        for seed in (0, 1):
            tensor = normalized_tensor(*shape, seed)
            for snr_db in range(-10, 61, 10):
                budget = snr_budget(tensor, snr_db)
                want = oracle_rate(tensor, budget)
                del svd_calls[:]
                got = mimo_sum_rate(tensor, budget, NOISE)
                assert svd_calls == [], f"the SVD fallback ran at {snr_db} dB"
                assert math.isclose(got, want, rel_tol=1e-12), (seed, snr_db, got, want)

    @pytest.mark.parametrize("snr_db", [100.0, 200.0])
    @pytest.mark.parametrize("shape", SHAPES[1:], ids=str)
    def test_fallback_at_high_snr(self, shape, snr_db, svd_calls):
        tensor = normalized_tensor(*shape)
        budget = snr_budget(tensor, snr_db)
        want = oracle_rate(tensor, budget)
        del svd_calls[:]
        got = mimo_sum_rate(tensor, budget, NOISE)
        K, M = shape
        assert svd_calls == [(8, max(K, M), min(K, M))]  # tall orientation
        assert math.isclose(got, want, rel_tol=1e-9)

    @pytest.mark.parametrize("shape", [(2, 8), (12, 4)], ids=str)
    def test_all_zero_subband_block(self, shape, monkeypatch):
        tensor = normalized_tensor(*shape)
        K, M = shape
        monkeypatch.setattr(mimo, "GRAM_BLOCK_ENTRIES", 2 * K * M)  # 2 subbands a block
        entries = tensor.entries.copy()
        entries[2:4] = 0.0
        tensor = MimoChannelTensor(entries, tensor.normalization_factor)
        for snr_db in (-10.0, 30.0):
            budget = snr_budget(tensor, snr_db)
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                got = mimo_sum_rate(tensor, budget, NOISE)
            assert math.isclose(got, oracle_rate(tensor, budget), rel_tol=1e-12)

    @pytest.mark.parametrize("magnitude", [1e-170, 1e170])
    def test_gram_of_extreme_entries(self, magnitude):
        # the Gram of these entries would underflow or overflow unscaled
        tensor = normalized_tensor(8, 8)
        budget = snr_budget(tensor, 20.0)
        want = mimo_sum_rate(tensor, budget, NOISE)
        moved = MimoChannelTensor(tensor.entries * magnitude, tensor.normalization_factor / magnitude)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = mimo_sum_rate(moved, budget, NOISE)
        assert math.isclose(got, want, rel_tol=1e-12)
