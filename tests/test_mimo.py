import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lwacomm.channel import (
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    build_channel,
)
from lwacomm import mimo, physics
from lwacomm.experiments import ScenarioConfig, sample_users
from lwacomm.mimo import UlaGeometry, build_mimo_channel, mimo_sum_rate
from lwacomm.optimizer import AllGainsZero, SearchGrids, alternate_optimize
from lwacomm.physics import LwaConfig, SPEED_OF_LIGHT

from oracles import (
    reference_mimo_entries,
    reference_mimo_spectrum,
    simplex_grid_best_rate,
    svd_mimo_rate,
    traced_peak,
)

NOISE = NoiseModel(1.0)
GRID = FrequencyGrid(200e9, 800e9, 4)
USERS = UserSet(np.array([0.4, 0.9]), np.array([12.0, 17.0]))
ULA8 = UlaGeometry(8, 500e9)
CONFIGS = [ScenarioConfig(), ScenarioConfig(num_subbands=256, num_users=32, mimo_elements=256)]
CONFIG_IDS = ["default", "wide-band"]
EPS = np.finfo(float).eps
# How far the largest |entry| of a built spectrum, whose exact value is 1,
# may lie from 1: an anchor's magnitude errs by about 2.5 eps (the exp, the
# rounding of d_min / d and the product with it, abs), and each of the up
# to ANCHOR_STRIDE - 1 products with the step phasor by at most
# sqrt(5) eps / 2 plus the step's own magnitude error, about eps:
# 2.5 + 15 * 2.2, so about 36 eps.
PEAK_RTOL = 40 * EPS


def phase_bound(grid, dist):
    """4 * Phi_max * eps, Phi_max = 2 pi f_max d_max / c the largest phase."""
    phase_max = 2 * math.pi * grid.frequencies[-1] * dist.max() / SPEED_OF_LIGHT
    return 4 * phase_max * np.finfo(float).eps


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
        spectrum = build_mimo_channel(UlaGeometry(1, 500e9), GRID, USERS)
        ranges = USERS.ranges_m
        want = np.tile(ranges.min() / ranges, (GRID.num_subbands, 1))
        np.testing.assert_allclose(np.abs(spectrum.entries[:, :, 0]), want, rtol=1e-12)

    def test_magnitude_frequency_independent(self):
        spectrum = build_mimo_channel(ULA8, GRID, USERS)
        mags = np.abs(spectrum.entries)
        for n in range(1, mags.shape[0]):
            np.testing.assert_allclose(mags[n], mags[0], rtol=1e-12)

    def test_far_field_phase_limit(self):
        # at rho = 1e4 * aperture the exact phases approach the planar model
        geometry = UlaGeometry(4, 500e9)
        rho = 1e4 * geometry.aperture_m
        phi = 0.7
        users = UserSet(np.array([phi]), np.array([rho]))
        spectrum = build_mimo_channel(geometry, GRID, users)
        f = GRID.frequencies[0]
        phases = np.unwrap(np.angle(spectrum.entries[0, 0, :]))
        planar = 2 * np.pi * f * geometry.element_positions * math.cos(phi) / SPEED_OF_LIGHT
        dphase = np.diff(phases)
        dplanar = np.diff(planar)
        np.testing.assert_allclose(dphase, dplanar, rtol=1e-2)

    def test_user_inside_array_rejected(self):
        geometry = UlaGeometry(64, 200e9)
        users = UserSet(np.array([0.5]), np.array([geometry.aperture_m / 4]))
        with pytest.raises(ValueError):
            build_mimo_channel(geometry, GRID, users)

    def test_user_at_half_the_aperture_rejected(self):
        geometry = UlaGeometry(64, 200e9)
        users = UserSet(np.array([0.5]), np.array([geometry.aperture_m / 2]))
        with pytest.raises(ValueError, match="half the array aperture"):
            build_mimo_channel(geometry, GRID, users)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_entries_match_reference_within_phase_bound(self, config):
        # the bound TestEntryAccuracy checks both against the exact value
        users = sample_users(config, 0)
        grid = config.frequency_grid()
        spectrum = build_mimo_channel(config.ula(), grid, users)
        ref = reference_mimo_entries(config.ula(), grid, users)
        got = spectrum.entries
        bound = phase_bound(grid, spectrum.source.dist)
        assert np.all(np.abs(got - ref) <= bound * np.abs(ref))
        # the anchors are the direct exp itself
        stride = mimo.ANCHOR_STRIDE
        assert np.array_equal(got[::stride], ref[::stride])

    def test_singular_values_match_frobenius(self):
        spectrum = build_mimo_channel(ULA8, GRID, USERS)
        svals = np.linalg.svd(spectrum.entries, compute_uv=False)
        for n in range(GRID.num_subbands):
            frob2 = np.sum(np.abs(spectrum.entries[n]) ** 2)
            assert np.sum(svals[n] ** 2) == pytest.approx(frob2, rel=1e-9)


class TestLineOfSightSource:
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_any_run_of_subbands_gives_the_same_rows(self, config):
        users = sample_users(config, 1)
        source = build_mimo_channel(config.ula(), config.frequency_grid(), users).source
        whole = next(source.blocks(source.shape[0]))
        stride = mimo.ANCHOR_STRIDE
        # blocks of one row, of a few, past an anchor, and the whole band
        for size in (1, 3, stride + 2, whole.shape[0]):
            assert_blocks(source, whole, size)

    def test_spectrum_of_the_rows_equals_spectrum_of_the_source(self, monkeypatch):
        for config, trial in [(SMALL, 2), (CONFIGS[1], 1), (SQUARE, 1)]:
            users = sample_users(config, trial)
            n, K, M = config.num_subbands, config.num_users, config.mimo_elements
            for rows in (1, 3, mimo.ANCHOR_STRIDE, mimo.ANCHOR_STRIDE + 1, n):
                monkeypatch.setattr(mimo, "GRAM_BLOCK_ENTRIES", rows * K * M)
                built = build_mimo_channel(config.ula(), config.frequency_grid(), users)
                assert_spectrum_of_rows(built)
                assert_as_reference(built, reference_mimo_spectrum(built.entries))

    def test_spectrum_takes_one_exp_per_anchor(self, monkeypatch):
        # 3-subband blocks, so most blocks start between anchors
        monkeypatch.setattr(mimo, "GRAM_BLOCK_ENTRIES", 3 * 3 * 8)
        exp_rows = []
        phasor = physics._phasor

        def spy(x, out):
            exp_rows.append(np.shape(x))
            return phasor(x, out)

        # the anchors' name in mimo, and the step's in physics.phasor_rows
        monkeypatch.setattr(mimo, "_phasor", spy)
        monkeypatch.setattr(physics, "_phasor", spy)
        built = build_mimo_channel(SMALL.ula(), SMALL.frequency_grid(), sample_users(SMALL, 2))
        # the anchors, and the step row, each one K x M row
        assert exp_rows == [(SMALL.num_users, SMALL.mimo_elements)] * (
            math.ceil(SMALL.num_subbands / mimo.ANCHOR_STRIDE) + 1)
        monkeypatch.undo()
        assert_spectrum_of_rows(built)

    def test_consecutive_blocks_of_every_size_give_the_same_rows(self):
        source = small_source(3)
        whole = next(source.blocks(source.shape[0]))
        for size in range(1, 2 * mimo.ANCHOR_STRIDE + 2):
            assert_blocks(source, whole, size)

    def test_a_written_block_leaves_the_next_ones_unchanged(self):
        source = small_source(3)
        whole = next(source.blocks(source.shape[0]))
        for size in (1, 3, mimo.ANCHOR_STRIDE - 1):
            start = 0
            for block in source.blocks(size):
                assert np.array_equal(block, whole[start : start + len(block)]), (size, start)
                block[...] = 0.0  # the caller reuses the block before the next is read
                start += len(block)
            assert start == len(whole)

    def test_sources_read_alternately_keep_their_own_rows(self):
        sources = [small_source(3), small_source(4)]
        wholes = [next(source.blocks(source.shape[0])) for source in sources]
        assert not np.array_equal(*wholes)
        pairs = list(zip(*(source.blocks(3) for source in sources)))  # read in turn
        for blocks, whole in zip(zip(*pairs), wholes):
            assert np.array_equal(np.concatenate(blocks), whole)

    def test_single_subband_is_the_direct_exp(self):
        grid = FrequencyGrid(400e9, 500e9, 1)  # one subband, centered on 450 GHz
        spectrum = build_mimo_channel(ULA8, grid, USERS)
        assert spectrum.eigenvalues.shape == (1, 2)
        assert np.array_equal(spectrum.entries, reference_mimo_entries(ULA8, grid, USERS))

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(
        f_low=st.floats(1e3, 1e15),
        width=st.floats(1e-12, 1e3),
        n=st.integers(1, 5000),
    )
    # the domain's corners, each of which builds: one subband on the narrowest
    # band, the most subbands, and the highest band
    @example(f_low=1e3, width=1e-12, n=1)
    @example(f_low=200e9, width=3.0, n=5000)
    @example(f_low=1e15, width=1e3, n=40)
    def test_every_subband_centers_grid_builds(self, f_low, width, n):
        # the line of sight steps along the centers without checking them:
        # every grid that builds must pass the slit column's spacing check
        try:
            grid = FrequencyGrid(f_low, f_low * (1.0 + width), n)
        except ValueError:  # too narrow for n distinct centers
            return
        freqs = grid.frequencies
        assert physics.even_spacing(freqs) == (freqs[-1] - freqs[0]) / max(n - 1, 1)
        spectrum = build_mimo_channel(UlaGeometry(1, 500e9), grid, USERS)
        assert spectrum.eigenvalues.shape == (n, 1)


# 40 subbands (anchors at 0, 16 and 32), small enough to read row by row
SMALL = ScenarioConfig(num_subbands=40, num_users=3, mimo_elements=8)
# K = M: each Gram is taken on the unswapped side, H H^H
SQUARE = ScenarioConfig(num_subbands=40, num_users=8, mimo_elements=8)


def small_source(trial):
    """The line-of-sight source of SMALL's draw trial."""
    users = sample_users(SMALL, trial)
    return build_mimo_channel(SMALL.ula(), SMALL.frequency_grid(), users).source


def assert_blocks(source, whole, size):
    """source.blocks(size) are consecutive blocks of size rows (the last may
    be shorter) that give the rows of whole, one block of the whole band,
    bitwise."""
    blocks = list(source.blocks(size))
    assert all(len(block) == size for block in blocks[:-1]), size
    assert 0 < len(blocks[-1]) <= size, size
    assert np.array_equal(np.concatenate(blocks), whole), size


def gram_eigenvalues(rows):
    """The eigenvalues of each subband's Gram on its short side."""
    _, K, M = rows.shape
    wide = rows.swapaxes(-1, -2) if K > M else rows
    return np.linalg.eigvalsh(wide @ wide.conj().swapaxes(-1, -2))


def assert_spectrum_of_rows(built):
    """built's eigenvalues are those of its rows made as one block, bitwise,
    whatever block size it was read in, and its largest |entry| lies within
    PEAK_RTOL of 1."""
    source = built.source
    rows = next(source.blocks(source.shape[0]))
    assert np.array_equal(built.eigenvalues, gram_eigenvalues(rows))
    assert math.isclose(np.max(np.abs(rows)), 1.0, rel_tol=PEAK_RTOL)


def assert_as_reference(built, reference):
    """built's entries lie within PEAK_RTOL of the reference spectrum's, and
    its rates within TestGramRate's 1e-12."""
    np.testing.assert_allclose(built.entries, reference.entries, rtol=PEAK_RTOL, atol=0)
    target = lwa_peak()
    for snr_db in (-10.0, 20.0, 50.0):
        budget = snr_budget(built, snr_db)
        got = mimo_sum_rate(built, target, budget, NOISE)
        want = mimo_sum_rate(reference, target, budget, NOISE)
        assert math.isclose(got, want, rel_tol=1e-12), (snr_db, got, want)


def lwa_peak(grid=GRID, users=USERS, b=1e-3, L=20e-3):
    """The largest |entry| of an LWA channel, as paired_rates takes it."""
    channel = build_channel(LwaConfig(b, L), grid, users, InverseRangeLoss())
    return float(np.max(np.abs(channel)))


class TestEntryAccuracy:
    """Entries against d_min exp(-2j pi f d / c) / d at 40 digits, for the
    same float f, d and d_min: the recurrence's entries and the direct exp's
    (oracles.reference_mimo_entries) both lie within 4 * Phi_max * eps
    relative of it. The phase 2 pi f d / c reaches Phi_max ~ 3e5 rad on
    wide-band, so rounding its argument already costs the direct exp about
    Phi_max * eps; neither is bitwise exact, and this bound is what the
    other MIMO tests take as their tolerance."""

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_entries_within_phase_bound_of_exact(self, config):
        rng = np.random.default_rng(21)
        grid = config.frequency_grid()
        worst = {"recurrence": 0.0, "direct": 0.0}
        for trial in range(3):
            users = sample_users(config, trial)
            spectrum = build_mimo_channel(config.ula(), grid, users)
            dist = spectrum.source.dist
            d_min = mp.mpf(float(dist.min()))
            entries = {
                "recurrence": spectrum.entries,
                "direct": reference_mimo_entries(config.ula(), grid, users),
            }
            bound = phase_bound(grid, dist)
            picks = zip(*(rng.integers(0, size, 150) for size in entries["direct"].shape))
            with mp.workdps(40):
                for n, k, m in picks:
                    d = mp.mpf(float(dist[k, m]))
                    phase = -2 * mp.pi * mp.mpf(float(grid.frequencies[n])) * d / SPEED_OF_LIGHT
                    exact = d_min * mp.expj(phase) / d
                    for name, values in entries.items():
                        err = float(abs(mp.mpc(complex(values[n, k, m])) - exact) / abs(exact))
                        worst[name] = max(worst[name], err)
            assert max(worst.values()) <= bound, (worst, bound)


class TestNormalization:
    """The channel a rate reads is peak * spectrum.entries: the spectrum's
    entries have a largest |entry| of 1, and the LWA peak scales them."""

    def test_equal_max_is_identity(self):
        lwa_max = lwa_peak()
        entries = np.full((2, 1, 1), lwa_max, dtype=complex)
        spectrum = reference_mimo_spectrum(entries)
        np.testing.assert_allclose(lwa_max * spectrum.entries, entries, rtol=1e-15)

    def test_double_max_halves_entries(self):
        lwa_max = lwa_peak()
        entries = np.full((2, 1, 1), 2 * lwa_max, dtype=complex)
        spectrum = reference_mimo_spectrum(entries)
        np.testing.assert_allclose(np.abs(lwa_max * spectrum.entries), lwa_max, rtol=1e-12)

    def test_random_tensor_hits_target(self):
        rng = np.random.default_rng(9)
        lwa_max = lwa_peak()
        entries = rng.normal(size=(4, 2, 8)) + 1j * rng.normal(size=(4, 2, 8))
        spectrum = reference_mimo_spectrum(entries)
        assert np.max(np.abs(lwa_max * spectrum.entries)) == pytest.approx(lwa_max, rel=1e-12)

    def test_idempotent(self):
        lwa_max = lwa_peak()
        once = lwa_max * build_mimo_channel(ULA8, GRID, USERS).entries
        twice = lwa_max * reference_mimo_spectrum(once).entries
        np.testing.assert_allclose(twice, once, rtol=1e-12)

    @pytest.mark.parametrize(
        "block_entries, config",
        [(None, ScenarioConfig(num_subbands=40, num_users=32, mimo_elements=256)),
         (3 * 2 * 8, ScenarioConfig(num_subbands=10, num_users=2, mimo_elements=8))],
        ids=["default-blocks", "3-subband-blocks"],
    )
    def test_blockwise_peak_matches_full_max(self, block_entries, config, monkeypatch):
        if block_entries is not None:
            monkeypatch.setattr(mimo, "GRAM_BLOCK_ENTRIES", block_entries)
        reads = []  # the eigenvalues of each block's Grams, in the order read
        eigvalsh = np.linalg.eigvalsh

        def spy(grams):
            reads.append(eigvalsh(grams))
            return reads[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        spectrum = build_mimo_channel(config.ula(), config.frequency_grid(), sample_users(config, 4))
        assert len(reads) >= 4
        assert np.array_equal(np.concatenate(reads), spectrum.eigenvalues)
        largest = float(np.max(np.abs(spectrum.entries)))
        assert math.isclose(largest, 1.0, rel_tol=PEAK_RTOL)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_peak_is_the_largest_entry(self, config):
        # every entry has magnitude d_min/d_km, so the largest is 1, at d_min
        grid = config.frequency_grid()
        for trial in range(3):
            spectrum = build_mimo_channel(config.ula(), grid, sample_users(config, trial))
            magnitudes = np.abs(spectrum.entries)
            assert math.isclose(magnitudes.max(), 1.0, rel_tol=PEAK_RTOL), trial
            nearest = np.unravel_index(spectrum.source.dist.argmin(), spectrum.source.dist.shape)
            assert np.allclose(magnitudes[:, nearest[0], nearest[1]], 1.0, rtol=PEAK_RTOL, atol=0)

    def test_zero_channel_raises(self):
        spectrum = reference_mimo_spectrum(np.zeros((1, 1, 1), complex))
        with pytest.raises(AllGainsZero):
            mimo_sum_rate(spectrum, lwa_peak(), 1.0, NOISE)

    def test_zero_lwa_peak_raises(self):
        spectrum = reference_mimo_spectrum(np.ones((1, 1, 1), complex))
        with pytest.raises(AllGainsZero):
            mimo_sum_rate(spectrum, 0.0, 1.0, NOISE)


class TestSumRate:
    def test_scalar_channel_one_bit(self):
        spectrum = reference_mimo_spectrum(np.ones((1, 1, 1), dtype=complex))
        assert mimo_sum_rate(spectrum, 1.0, 1.0, NOISE) == pytest.approx(1.0)

    def test_equal_rank_one_subbands_split_uniformly(self):
        # each subband is rank 1 with s^2 = 4; waterfilling splits P evenly,
        # so the rate has the closed form log2(1 + (P/N) * 4)
        n, p = 4, 2.0
        h = np.zeros((n, 2, 2), dtype=complex)
        for i in range(n):
            h[i] = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1, s1^2 = 4
        rate = mimo_sum_rate(reference_mimo_spectrum(h), 1.0, p, NOISE)  # max |h| = 1
        assert rate == pytest.approx(math.log2(1.0 + (p / n) * 4.0), rel=1e-9)

    def test_matches_simplex_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            entries = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
            spectrum = reference_mimo_spectrum(entries)
            budget = 1.0
            got = mimo_sum_rate(spectrum, np.max(np.abs(entries)), budget, NOISE)
            pooled = (np.linalg.svd(entries, compute_uv=False) ** 2).ravel()
            best = simplex_grid_best_rate(pooled, budget, 1.0, 100) * pooled.size / 2
            assert got == pytest.approx(best, abs=1e-4)

    def test_budget_validation(self):
        spectrum = reference_mimo_spectrum(np.ones((1, 1, 1), dtype=complex))
        for budget in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="budget_P must be finite and > 0"):
                mimo_sum_rate(spectrum, 1.0, budget, NOISE)

    def test_nan_factor_rejected(self):
        # a NaN peak used to be reported as all subband gains being zero
        spectrum = reference_mimo_spectrum(np.ones((2, 1, 1), dtype=complex))
        with pytest.raises(ValueError, match="not NaN") as info:
            mimo_sum_rate(spectrum, math.nan, 1.0, NOISE)
        assert not isinstance(info.value, AllGainsZero)

    def test_non_finite_rate_raises(self):
        # s^2 = 1e400 overflows to inf, so the rate would be inf
        spectrum = reference_mimo_spectrum(np.full((1, 1, 1), 1e200, dtype=complex))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            mimo_sum_rate(spectrum, 1e200, 1.0, NOISE)

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
            spectrum = reference_mimo_spectrum(h[:, None, None])
            mimo_rate = mimo_sum_rate(spectrum, np.max(np.abs(h)), budget, noise)
            lwa = alternate_optimize(grids, (np.abs(h) ** 2)[None, None, :], budget, noise)
            assert math.isclose(mimo_rate, lwa.sum_rate, rel_tol=1e-14)

    def test_monotone_in_elements_statistically(self):
        rng = np.random.default_rng(2024)
        grid = FrequencyGrid(200e9, 800e9, 8)
        target = lwa_peak(grid, UserSet(np.array([0.4, 0.9]), np.array([12.0, 17.0])))
        wins = 0
        trials = 50
        for _ in range(trials):
            users = UserSet(
                rng.uniform(math.radians(10), math.radians(55), 2),
                rng.uniform(10.0, 20.0, 2),
            )
            rates = []
            for m in (4, 8):
                spectrum = build_mimo_channel(UlaGeometry(m, 500e9), grid, users)
                rates.append(mimo_sum_rate(spectrum, target, 10.0, NOISE))
            if rates[1] >= rates[0] - 1e-12:
                wins += 1
        assert wins >= int(0.9 * trials)


class TestSpectrumMemory:
    def test_build_normalize_rate_hold_no_tensor(self):
        # N x K x M = 256 x 32 x 256 complex entries would take 33.5 MB
        config = ScenarioConfig(num_subbands=256, num_users=32, mimo_elements=256)
        users = sample_users(config, 1)
        grid = config.frequency_grid()
        target = lwa_peak(grid, users)
        ula = config.ula()

        def build_and_rate():
            spectrum = build_mimo_channel(ula, grid, users)
            return mimo_sum_rate(spectrum, target, config.power_budget, NOISE)

        rate, peak = traced_peak(build_and_rate)
        assert rate > 0
        assert peak < 256 * 32 * 256 * 16 / 8, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("snr_db, svd_runs", [(20.0, 0), (100.0, 2)], ids=["gram", "svd"])
    def test_explicit_entries_rate_as_built(self, snr_db, svd_runs, svd_calls):
        config = ScenarioConfig(num_subbands=8, num_users=8, mimo_elements=8)
        users = sample_users(config, 0)
        grid = config.frequency_grid()
        target = lwa_peak(grid, users, L=14e-3)
        built = build_mimo_channel(config.ula(), grid, users)
        entries = built.entries
        explicit = reference_mimo_spectrum(entries)
        np.testing.assert_allclose(explicit.entries, entries, rtol=PEAK_RTOL, atol=0)
        budget = snr_budget(built, snr_db)
        assert math.isclose(
            mimo_sum_rate(explicit, target, budget, NOISE),
            mimo_sum_rate(built, target, budget, NOISE),
            rel_tol=1e-12,
        )
        assert len(svd_calls) == svd_runs


def normalized_spectrum(num_users, num_elements, seed=0):
    """A compare-mimo spectrum of 8 subbands and the peak of a fixed LWA
    channel that scales it."""
    config = ScenarioConfig(num_subbands=8, num_users=num_users, mimo_elements=num_elements)
    users = sample_users(config, seed)
    grid = config.frequency_grid()
    spectrum = build_mimo_channel(config.ula(), grid, users)
    return spectrum, lwa_peak(grid, users, L=14e-3)


def snr_budget(spectrum, snr_db):
    return 10.0 ** (snr_db / 10.0) * spectrum.eigenvalues.shape[0] * NOISE.variance_sigma2


def oracle_rate(spectrum, peak, budget):
    return svd_mimo_rate(peak * spectrum.entries, budget, NOISE)


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
            spectrum, peak = normalized_spectrum(*shape, seed)
            for snr_db in range(-10, 61, 10):
                budget = snr_budget(spectrum, snr_db)
                want = oracle_rate(spectrum, peak, budget)
                del svd_calls[:]
                got = mimo_sum_rate(spectrum, peak, budget, NOISE)
                assert svd_calls == [], f"the SVD fallback ran at {snr_db} dB"
                assert math.isclose(got, want, rel_tol=1e-12), (seed, snr_db, got, want)

    @pytest.mark.parametrize("snr_db", [100.0, 200.0])
    @pytest.mark.parametrize("shape", SHAPES[1:], ids=str)
    def test_fallback_at_high_snr(self, shape, snr_db, svd_calls):
        spectrum, peak = normalized_spectrum(*shape)
        budget = snr_budget(spectrum, snr_db)
        want = oracle_rate(spectrum, peak, budget)
        del svd_calls[:]
        got = mimo_sum_rate(spectrum, peak, budget, NOISE)
        K, M = shape
        assert svd_calls == [(8, max(K, M), min(K, M))]  # tall orientation
        assert math.isclose(got, want, rel_tol=1e-9)

    @pytest.mark.parametrize("shape", [(2, 8), (12, 4)], ids=str)
    def test_all_zero_subband_block(self, shape):
        spectrum, peak = normalized_spectrum(*shape)
        entries = spectrum.entries.copy()
        entries[2:4] = 0.0
        spectrum = reference_mimo_spectrum(entries)
        for snr_db in (-10.0, 30.0):
            budget = snr_budget(spectrum, snr_db)
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                got = mimo_sum_rate(spectrum, peak, budget, NOISE)
            assert math.isclose(got, oracle_rate(spectrum, peak, budget), rel_tol=1e-12)

    @pytest.mark.parametrize("magnitude", [1e-170, 1e170])
    def test_gram_of_extreme_entries(self, magnitude):
        # the Gram of these entries would underflow or overflow unscaled
        spectrum, peak = normalized_spectrum(8, 8)
        budget = snr_budget(spectrum, 20.0)
        want = mimo_sum_rate(spectrum, peak, budget, NOISE)
        moved = reference_mimo_spectrum(spectrum.entries * magnitude)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = mimo_sum_rate(moved, peak, budget, NOISE)
        assert math.isclose(got, want, rel_tol=1e-12)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_matches_svd_oracle_over_user_ranges(self, config):
        # from just above half the aperture to 1e150 m, and both at once:
        # unscaled, the Grams of the 1e150 m entries would fall to 1e-300
        # and their small eigenvalues to subnormals
        ula = config.ula()
        near = ula.aperture_m / 2 * (1 + 1e-9)
        rng = np.random.default_rng(26)
        K = config.num_users
        angles = rng.uniform(math.radians(5), math.radians(85), K)
        ranges = {
            "near": np.full(K, near) * (1 + rng.uniform(0, 1e-3, K)),
            "spread": np.geomspace(near, 1e150, K),
            "far": 1e150 * (1 - rng.uniform(0, 1e-3, K)),
        }
        grid = config.frequency_grid()
        target = lwa_peak()
        for name, rho in ranges.items():
            spectrum = build_mimo_channel(ula, grid, UserSet(angles, rho))
            for snr_db in (-10.0, 20.0, 50.0):
                budget = snr_budget(spectrum, snr_db)
                got = mimo_sum_rate(spectrum, target, budget, NOISE)
                # the far users' squared singular values, down to 1e-300, give
                # floors past the float range: modes the budget never reaches,
                # which waterfill leaves out
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    want = oracle_rate(spectrum, target, budget)
                assert math.isclose(got, want, rel_tol=1e-12), (name, snr_db, got, want)
