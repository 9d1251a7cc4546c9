import math

import numpy as np
import pytest

from lwacomm.channel import (
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    average_sum_rate,
    build_channel,
    geometry_gains_squared,
)
from lwacomm.optimizer import (
    AllGainsZero,
    PowerAllocation,
    SearchGrids,
    alternate_optimize,
    grid_search_geometry,
    waterfill,
)
from lwacomm.physics import LwaConfig, SPEED_OF_LIGHT

from oracles import simplex_grid_best_rate

NOISE = NoiseModel(1.0)
LOSS = InverseRangeLoss()


class TestWaterfill:
    def test_symmetric_split(self):
        alloc = waterfill([1.0, 1.0], 2.0, NOISE)
        np.testing.assert_allclose(alloc.powers, [1.0, 1.0], atol=1e-9)

    def test_weak_subband_starved(self):
        # water level 2 sits far below the 1e6 inverse gain of subband 2
        alloc = waterfill([1.0, 1e-6], 1.0, NOISE)
        np.testing.assert_allclose(alloc.powers, [1.0, 0.0], atol=1e-9)

    def test_two_channel_kkt_solution(self):
        # active-set closed form: 1/nu = (P + 1/4 + 1) / 2 = 1.125
        alloc = waterfill([4.0, 1.0], 1.0, NOISE)
        np.testing.assert_allclose(alloc.powers, [0.875, 0.125], atol=1e-9)

    def test_zero_gain_gets_exact_zero(self):
        alloc = waterfill([2.0, 0.0, 1.0], 3.0, NOISE)
        assert alloc.powers[1] == 0.0
        assert alloc.powers.sum() == pytest.approx(3.0, rel=1e-9)

    def test_all_gains_zero_raises(self):
        with pytest.raises(AllGainsZero):
            waterfill([0.0, 0.0], 1.0, NOISE)

    def test_budget_validation(self):
        for budget in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                waterfill([1.0], budget, NOISE)

    @pytest.mark.parametrize(
        "gains, expected",
        [([1e-20], [1.0]), ([1e-17, 1e-17], [0.5, 0.5])],
    )
    def test_budget_far_below_floors(self, gains, expected):
        # floors sigma^2/g of 1e17 and more: the budget of 1 is below their
        # ulp, so a water level formed as floor + power would lose it
        alloc = waterfill(gains, 1.0, NOISE)
        np.testing.assert_allclose(alloc.powers, expected, rtol=1e-12)

    def test_rounding_loss_raises(self):
        # MIMO pool of a config with range_max_m = 1e150: floors ~1e297 that
        # differ in their last bits, and a budget of 10
        mantissas = ["35", "35", "35", "35", "35", "34", "37", "3c"]
        gains = [float.fromhex(f"0x1.7babaef22d9{m}p-987") for m in mantissas]
        with pytest.raises(FloatingPointError):
            waterfill(gains, 10.0, NOISE)

    def test_budget_tight_random(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = rng.integers(1, 6)
            gains = rng.uniform(0.0, 4.0, n)
            gains[rng.integers(0, n)] = rng.uniform(0.5, 4.0)  # at least one positive
            budget = rng.uniform(0.1, 20.0)
            alloc = waterfill(gains, budget, NoiseModel(rng.uniform(0.2, 3.0)))
            assert alloc.powers.sum() == pytest.approx(budget, rel=1e-9)
            assert np.all(alloc.powers >= 0)
            assert np.all(alloc.powers[gains == 0] == 0)

    def test_beats_simplex_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            gains = rng.uniform(0.1, 5.0, n)
            budget = rng.uniform(0.5, 4.0)
            sigma2 = rng.uniform(0.5, 2.0)
            noise = NoiseModel(sigma2)
            alloc = waterfill(gains, budget, noise)
            got = math.fsum(
                np.log2(1.0 + alloc.powers * gains / sigma2)
            ) / n
            best_grid = simplex_grid_best_rate(gains, budget, sigma2, 1000)
            assert got >= best_grid - 1e-6
            assert got <= best_grid + 1e-3  # grid is only O(step^2) away


def make_draw(n_sub=4, users=None):
    grid = FrequencyGrid.subband_centers(200e9, 800e9, n_sub)
    if users is None:
        users = UserSet(np.array([0.35, 0.8]), np.array([10.0, 15.0]))
    return grid, users


def gains_for(grids, grid, users, loss=LOSS):
    return geometry_gains_squared(grids.b_grid, grids.L_grid, grid, users, loss)


def default_gains(grids, n_sub=4):
    return gains_for(grids, *make_draw(n_sub))


def bounded_grids(b_points, L_points):
    # b in [0.9, 1.1] mm, L in [10, 50] mm
    return SearchGrids(
        np.linspace(0.9e-3, 1.1e-3, b_points), np.linspace(10e-3, 50e-3, L_points)
    )


class TestGridSearch:
    def test_single_element_grid(self):
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        grid, users = make_draw()
        powers = PowerAllocation.uniform(4, 10.0)
        i, j, rate = grid_search_geometry(grids, powers, gains_for(grids, grid, users), NOISE)
        assert (i, j) == (0, 0)
        channel = build_channel(LwaConfig(1e-3, 20e-3), grid, users, LOSS)
        assert rate == pytest.approx(average_sum_rate(channel, powers.powers, NOISE))

    def test_peak_geometry_wins(self):
        # put one user exactly on the beam of subband 0 for b = 1.0 mm
        grid = FrequencyGrid.subband_centers(200e9, 800e9, 4)
        angle = math.asin(SPEED_OF_LIGHT / (2 * 1e-3 * grid.frequencies[0]))
        users = UserSet(np.array([angle]), np.array([10.0]))
        grids = bounded_grids(5, 5)
        powers = PowerAllocation.uniform(4, 10.0)
        i, j, rate = grid_search_geometry(grids, powers, gains_for(grids, grid, users), NOISE)
        # independent exhaustive re-evaluation
        rates = {}
        for bb in grids.b_grid:
            for LL in grids.L_grid:
                ch = build_channel(LwaConfig(bb, LL), grid, users, LOSS)
                rates[(bb, LL)] = average_sum_rate(ch, powers.powers, NOISE)
        assert rate == pytest.approx(max(rates.values()))
        assert rates[(grids.b_grid[i], grids.L_grid[j])] == pytest.approx(rate)

    def test_all_zero_tie_breaks_to_first_pair(self):
        # band entirely below cutoff for every candidate b: all gains zero
        grid = FrequencyGrid.subband_centers(50e9, 100e9, 3)
        users = UserSet(np.array([0.5]), np.array([10.0]))
        grids = bounded_grids(3, 3)
        powers = PowerAllocation.uniform(3, 10.0)
        i, j, rate = grid_search_geometry(grids, powers, gains_for(grids, grid, users), NOISE)
        assert (i, j) == (0, 0)
        assert rate == 0.0

    def test_argmax_invariant_under_common_gain_scaling(self):
        grid, users = make_draw(n_sub=6)
        grids = bounded_grids(4, 4)
        powers = PowerAllocation.uniform(6, 10.0)
        i1, j1, _ = grid_search_geometry(grids, powers, gains_for(grids, grid, users), NOISE)
        scaled = gains_for(grids, grid, users, InverseRangeLoss(2.5))
        i2, j2, _ = grid_search_geometry(grids, powers, scaled, NOISE)
        assert (i1, j1) == (i2, j2)

    def test_gains_must_match_grids(self):
        grids = bounded_grids(3, 2)
        gains = default_gains(bounded_grids(2, 3))
        with pytest.raises(ValueError):
            grid_search_geometry(grids, PowerAllocation.uniform(4, 10.0), gains, NOISE)


class TestAlternateOptimize:
    def test_single_geometry_equals_waterfill(self):
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        grid, users = make_draw()
        result = alternate_optimize(grids, gains_for(grids, grid, users), 10.0, NOISE, i_max=1)
        channel = build_channel(LwaConfig(1e-3, 20e-3), grid, users, LOSS)
        want = waterfill(channel.gains_squared, 10.0, NOISE)
        np.testing.assert_allclose(result.powers.powers, want.powers, rtol=1e-12)
        assert result.sum_rate == pytest.approx(
            average_sum_rate(channel, want.powers, NOISE)
        )

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(23)
        grids = bounded_grids(6, 6)
        for _ in range(10):
            users = UserSet(
                rng.uniform(math.radians(10), math.radians(55), 3),
                rng.uniform(10.0, 20.0, 3),
            )
            gains = gains_for(grids, *make_draw(8, users))
            result = alternate_optimize(grids, gains, 10.0, NOISE)
            rates = [rec.rate_bits for rec in result.trace]
            assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(rates, rates[1:]))

    @staticmethod
    def brute_force_best(grids, grid, users, budget):
        # exact waterfilling per candidate geometry, independent of the loop
        best = -1.0
        for b in grids.b_grid:
            for L in grids.L_grid:
                ch = build_channel(LwaConfig(b, L), grid, users, LOSS)
                alloc = waterfill(ch.gains_squared, budget, NOISE)
                best = max(best, average_sum_rate(ch, alloc.powers, NOISE))
        return best

    def test_never_exceeds_brute_force(self):
        rng = np.random.default_rng(41)
        grids = bounded_grids(2, 2)
        for _ in range(5):
            users = UserSet(
                rng.uniform(math.radians(10), math.radians(55), 2),
                rng.uniform(10.0, 20.0, 2),
            )
            grid, users = make_draw(4, users)
            result = alternate_optimize(grids, gains_for(grids, grid, users), 10.0, NOISE)
            best = self.brute_force_best(grids, grid, users, 10.0)
            assert result.sum_rate <= best + 1e-12

    def test_small_grid_matches_brute_force_instance(self):
        # frozen instance where the brute-force oracle confirms the fixed
        # point is the grid-global optimum (not true for every draw; the
        # alternation only guarantees monotone ascent)
        users = UserSet(
            np.array([0.923921449069441, 0.7776653787985954]),
            np.array([11.25970746788202, 18.26988085930745]),
        )
        grids = bounded_grids(2, 2)
        grid, users = make_draw(4, users)
        result = alternate_optimize(grids, gains_for(grids, grid, users), 10.0, NOISE)
        best = self.brute_force_best(grids, grid, users, 10.0)
        assert result.sum_rate == pytest.approx(best, abs=1e-9)
        assert result.sum_rate == pytest.approx(0.0012607481875529015, abs=1e-12)

    def test_early_exit_fixed_point(self):
        grids = bounded_grids(4, 4)
        gains = default_gains(grids, 6)
        result = alternate_optimize(grids, gains, 10.0, NOISE, i_max=50)
        assert len(result.trace) <= 50
        again = alternate_optimize(grids, gains, 10.0, NOISE, i_max=len(result.trace) + 1)
        assert again.chosen_b == result.chosen_b
        assert again.chosen_L == result.chosen_L
        np.testing.assert_array_equal(again.powers.powers, result.powers.powers)

    def test_stop_reason(self):
        # one geometry: iteration 2 repeats iteration 1 exactly
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        gains = default_gains(grids)
        capped = alternate_optimize(grids, gains, 10.0, NOISE, i_max=1)
        assert (len(capped.trace), capped.stop_reason) == (1, "i_max")
        converged = alternate_optimize(grids, gains, 10.0, NOISE, i_max=5)
        assert (len(converged.trace), converged.stop_reason) == (2, "fixed_point")

    def test_non_finite_rate_raises(self):
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        gains = np.array([[[np.inf, 1.0]]])
        with pytest.raises(FloatingPointError):
            alternate_optimize(grids, gains, 10.0, NOISE)

    def test_i_max_validation(self):
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        with pytest.raises(ValueError):
            alternate_optimize(grids, default_gains(grids), 10.0, NOISE, i_max=0)

    def test_chosen_values_on_grid(self):
        grids = bounded_grids(5, 7)
        result = alternate_optimize(grids, default_gains(grids), 10.0, NOISE)
        assert result.chosen_b in grids.b_grid
        assert result.chosen_L in grids.L_grid


class TestSerialization:
    def test_trace_csv_and_report(self):
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        result = alternate_optimize(grids, default_gains(grids), 10.0, NOISE)
        csv = result.trace_csv().splitlines()
        assert csv[0] == "iter,b_m,L_m,rate_bits"
        assert csv[1].startswith("1,0.001,0.02,")
        report = result.report_text()
        assert "chosen_b_m: 0.001" in report
        assert "sum_rate_bits:" in report
        assert report.endswith("iterations: 2\nstop_reason: fixed_point\n")


class TestPowerAllocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerAllocation(np.array([-0.1, 1.0]), 1.0)
        with pytest.raises(ValueError):
            PowerAllocation(np.array([0.6, 0.6]), 1.0)
        with pytest.raises(ValueError):
            PowerAllocation(np.array([0.5]), 0.0)

    def test_uniform(self):
        alloc = PowerAllocation.uniform(4, 10.0)
        np.testing.assert_allclose(alloc.powers, 2.5)

    def test_search_grid_validation(self):
        with pytest.raises(ValueError):
            SearchGrids(np.array([]), np.array([1e-2]))
