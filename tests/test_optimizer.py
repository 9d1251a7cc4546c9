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
    rate_bits,
)
from lwacomm import optimizer
from lwacomm.experiments import write_allocation
from lwacomm.optimizer import (
    BUDGET_RTOL,
    AllGainsZero,
    PowerAllocation,
    SearchGrids,
    alternate_optimize,
    grid_search_geometry,
    waterfill,
)
from lwacomm.physics import LwaConfig, SPEED_OF_LIGHT

from oracles import (
    channel_gains_squared,
    exact_waterfill,
    simplex_grid_best_rate,
    traced_peak,
)

NOISE = NoiseModel(1.0)
LOSS = InverseRangeLoss()


def gains_whose_floors_round_up(n):
    """n gains for NOISE: one of 1e300, whose floor 1/g is the smallest, and
    n - 1 with floors just above 0.5, ascending by 0.4 / n^2 so that a budget
    of 1 makes all n active. Each floor is nudged until adding it to the
    running sum of the floors before it rounds up by over 0.3 ulp."""
    gains = [1e300]
    total = 0.0
    for j in range(1, n):
        target = 0.5 + j * 0.4 / n**2
        for _ in range(64):
            floor = NOISE.variance_sigma2 / (1.0 / target)  # as waterfill forms it
            new = total + floor
            part = new - total
            error = (total - (new - part)) + (floor - part)  # exact sum - new
            if total == 0.0 or error < -0.3 * math.ulp(new):
                break
            target += math.ulp(new) / 7
        gains.append(1.0 / target)
        total = new
    return np.array(gains)


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
        # waterfill's own check, before any PowerAllocation is built
        for budget in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^budget_P must be finite"):
                waterfill([1.0], budget, NOISE)

    def test_nan_gain_rejected(self):
        # a NaN gain used to get zero power, as if it were zero
        with pytest.raises(ValueError, match="not NaN") as info:
            waterfill([math.nan, 1.0], 1.0, NOISE)
        assert not isinstance(info.value, AllGainsZero)

    @pytest.mark.parametrize(
        "gains, expected",
        [([1e-20], [1.0]), ([1e-17, 1e-17], [0.5, 0.5])],
    )
    def test_budget_far_below_floors(self, gains, expected):
        # floors sigma^2/g of 1e17 and more: the budget of 1 is below their
        # ulp, so a water level formed as floor + power would lose it
        alloc = waterfill(gains, 1.0, NOISE)
        np.testing.assert_allclose(alloc.powers, expected, rtol=1e-12)

    def test_floors_at_the_budget_are_left_out_of_the_count(self):
        # four floors exactly at the budget: k f_(k) - S_k rounds below it at
        # k = 4 and 5, so counting them would give K = 3 instead of 1
        gains = np.array([1.0] + [0.3848990962763607] * 4)
        budget = 1.0 / gains[1] - 1.0  # the shifted floor itself
        alloc = waterfill(gains, budget, NOISE)
        assert alloc.powers.tolist() == [budget, 0.0, 0.0, 0.0, 0.0]

    def test_rounding_of_floors_keeps_the_budget(self):
        # MIMO pool of a config with range_max_m = 1e150: floors ~1e297 that
        # differ in their last bits, and a budget of 10
        mantissas = ["35", "35", "35", "35", "35", "34", "37", "3c"]
        gains = [float.fromhex(f"0x1.7babaef22d9{m}p-987") for m in mantissas]
        alloc = waterfill(gains, 10.0, NOISE)
        assert np.all(alloc.powers >= 0)
        assert math.isclose(alloc.powers.sum(), 10.0, rel_tol=BUDGET_RTOL)
        expected = exact_waterfill(gains, 10.0, NOISE.variance_sigma2)
        np.testing.assert_allclose(alloc.powers, expected, rtol=1e-12)

    def test_running_sum_of_many_floors_rounding_up_raises(self):
        # every floor active, and the running sum S_K of the sorted floors
        # rounding up at each of its 10^4 additions: the powers sum to
        # P - sum(f) + S_K, which passes the budget P = 1 by more than
        # BUDGET_RTOL
        gains = gains_whose_floors_round_up(10_000)
        floors = np.sort(NOISE.variance_sigma2 / gains)
        floors -= floors[0]
        assert np.cumsum(floors)[-1] - math.fsum(floors) > BUDGET_RTOL
        with pytest.raises(FloatingPointError, match="rounding of the floors"):
            waterfill(gains, 1.0, NOISE)

    def test_overflowing_floor_gets_zero_power(self):
        # sigma^2/g of 1e-310, and 3 f_(3) of the 1e308 floor, pass the
        # float range: both modes are inactive, and neither may raise
        gains = [1e-310, 1e-308, 4.0, 1.0]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            alloc = waterfill(gains, 1.0, NOISE)
        assert alloc.powers[0] == alloc.powers[1] == 0.0
        np.testing.assert_allclose(alloc.powers, exact_waterfill(gains, 1.0, 1.0), rtol=1e-12)

    def test_every_floor_overflowing_raises(self):
        # positive gains all below sigma^2 / 1.8e308: no floor is a float
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match="overflows"):
                waterfill([1e-310, 0.0, 5e-324], 1.0, NOISE)
            with pytest.raises(FloatingPointError, match="overflows"):
                waterfill([1e-300], 1.0, NoiseModel(1e10))

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
    grid = FrequencyGrid(200e9, 800e9, n_sub)
    if users is None:
        users = UserSet(np.array([0.35, 0.8]), np.array([10.0, 15.0]))
    return grid, users


def gains_for(grids, grid, users):
    return geometry_gains_squared(grids.b_grid, grids.L_grid, grid, users, LOSS)


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
        assert grid_search_geometry(grids, powers, gains_for(grids, grid, users), NOISE) == (0, 0)

    def test_peak_geometry_wins(self):
        # put one user exactly on the beam of subband 0 for b = 1.0 mm
        grid = FrequencyGrid(200e9, 800e9, 4)
        angle = math.asin(SPEED_OF_LIGHT / (2 * 1e-3 * grid.frequencies[0]))
        users = UserSet(np.array([angle]), np.array([10.0]))
        grids = bounded_grids(5, 5)
        powers = PowerAllocation.uniform(4, 10.0)
        i, j = grid_search_geometry(grids, powers, gains_for(grids, grid, users), NOISE)
        # independent exhaustive re-evaluation
        rates = {}
        for bb in grids.b_grid:
            for LL in grids.L_grid:
                ch = build_channel(LwaConfig(bb, LL), grid, users, LOSS)
                rates[(bb, LL)] = average_sum_rate(ch, powers.powers, NOISE)
        assert rates[(grids.b_grid[i], grids.L_grid[j])] == pytest.approx(max(rates.values()))

    def test_all_zero_tie_breaks_to_first_pair(self):
        # band entirely below cutoff for every candidate b: all gains zero
        grid = FrequencyGrid(50e9, 100e9, 3)
        users = UserSet(np.array([0.5]), np.array([10.0]))
        grids = bounded_grids(3, 3)
        powers = PowerAllocation.uniform(3, 10.0)
        gains = gains_for(grids, grid, users)
        assert np.all(gains == 0.0)
        assert grid_search_geometry(grids, powers, gains, NOISE) == (0, 0)

    def test_gains_near_1e300_are_ranked(self):
        # log2(1 + x) is exactly 0 for both geometries; log1p tells them apart
        grids = SearchGrids(np.array([1e-3]), np.array([10e-3, 20e-3]))
        gains = np.array([[[1e-300, 2e-300, 1e-300], [2e-300, 2e-300, 3e-300]]])
        powers = PowerAllocation.uniform(3, 3.0)
        assert grid_search_geometry(grids, powers, gains, NOISE) == (0, 1)
        rate = rate_bits(powers.powers, gains[0, 1], NOISE, 3)
        assert math.isclose(rate, 7e-300 / 3 / math.log(2.0), rel_tol=1e-12)
        result = alternate_optimize(grids, gains, 3.0, NOISE)
        assert result.chosen_L == 20e-3
        assert math.isclose(result.sum_rate, 9e-300 / 3 / math.log(2.0), rel_tol=1e-12)

    def test_near_tie_is_ranked_by_rate_bits(self):
        # two slit lengths 1 ulp apart: the summed log1p key ranks the second
        # 1 ulp higher, while rate_bits ranks the first 1 ulp higher
        grids = SearchGrids(np.array([1e-3]), np.array([1e-3, np.nextafter(1e-3, 1.0)]))
        head = [0.06926679118988743, 0.058491311470005754]
        gains = np.array([[
            head + [0.046550225552241135, 0.03805343866561231],
            head + [0.046550225552241115, 0.03805343866561232],
        ]])
        powers = PowerAllocation.uniform(4, 1.0)
        rates = [rate_bits(powers.powers, g, NOISE, 4) for g in gains[0]]
        assert rates[0] > rates[1]
        assert grid_search_geometry(grids, powers, gains, NOISE) == (0, 0)

    def test_argmax_is_the_first_maximum_of_rate_bits(self):
        # geometries whose gains differ from a common row by a few ulps, where
        # the summed key and rate_bits can order them differently
        rng = np.random.default_rng(53)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            shape = (int(rng.integers(1, 4)), int(rng.integers(2, 6)))
            row = rng.uniform(1e-3, 1.0, n)
            gains = np.broadcast_to(row, (*shape, n)).copy()
            for _ in range(int(rng.integers(1, 4))):
                gains = np.nextafter(gains, rng.choice([0.0, 2.0], size=gains.shape))
            powers = PowerAllocation(rng.uniform(0.0, 2.0, n), 2.0 * n)
            grids = SearchGrids(np.ones(shape[0]), np.ones(shape[1]))
            rates = [rate_bits(powers.powers, g, NOISE, n) for g in gains.reshape(-1, n)]
            want = np.unravel_index(rates.index(max(rates)), shape)
            assert grid_search_geometry(grids, powers, gains, NOISE) == want

    def test_argmax_invariant_under_common_gain_scaling(self):
        grid, users = make_draw(n_sub=6)
        grids = bounded_grids(4, 4)
        powers = PowerAllocation.uniform(6, 10.0)
        first = grid_search_geometry(grids, powers, gains_for(grids, grid, users), NOISE)
        nearer = UserSet(users.angles_rad, users.ranges_m / 2.5)
        scaled = gains_for(grids, grid, nearer)
        assert grid_search_geometry(grids, powers, scaled, NOISE) == first

    def test_key_is_built_in_one_copy(self):
        # gains[..., on] is copied once and scaled and logged in place; the
        # rest is numpy's ufunc buffer, left out of the peak, and the
        # per-geometry sums
        gains = np.random.default_rng(3).uniform(0.0, 0.1, (21, 21, 40))
        grids, powers = bounded_grids(21, 21), PowerAllocation.uniform(40, 10.0)
        want = grid_search_geometry(grids, powers, gains, NOISE)
        got, peak = traced_peak(grid_search_geometry, grids, powers, gains, NOISE)
        keys = (peak - np.getbufsize() * gains.itemsize) / gains.nbytes
        assert got == want and keys <= 1.5, f"peak {keys:.2f} keys besides the ufunc buffer"

    def test_powers_weight_the_key(self):
        # weighted by the powers (10, 0.1), B = (1, 0.5) has the larger rate;
        # unweighted, A = (0.1, 10) has the larger sum of log1p(g)
        grids = SearchGrids(np.array([1e-3]), np.array([10e-3, 20e-3]))
        gains = np.array([[[0.1, 10.0], [1.0, 0.5]]])
        powers = PowerAllocation(np.array([10.0, 0.1]), 10.1)
        rates = [rate_bits(powers.powers, g, NOISE, 2) for g in gains[0]]
        assert rates[1] > rates[0]
        assert np.sum(np.log1p(gains[0, 0])) > np.sum(np.log1p(gains[0, 1]))
        assert grid_search_geometry(grids, powers, gains, NOISE) == (0, 1)

    # one infinite key has no near tie to re-rank, two do: both raise the
    # error rate_bits gives, before any re-ranking
    @pytest.mark.parametrize("infinite", [[1], [0, 2]], ids=["one", "two"])
    def test_an_infinite_best_key_raises(self, infinite):
        grids = SearchGrids(np.array([1e-3]), np.array([10e-3, 20e-3, 30e-3]))
        gains = np.ones((1, 3, 2))
        gains[0, infinite, 0] = np.inf
        powers = PowerAllocation.uniform(2, 10.0)
        with pytest.raises(FloatingPointError, match="^the sum rate is not finite: inf$"):
            grid_search_geometry(grids, powers, gains, NOISE)

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
        want = waterfill(channel_gains_squared(channel), 10.0, NOISE)
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
                alloc = waterfill(channel_gains_squared(ch), budget, NOISE)
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

    @pytest.mark.parametrize(
        "grids, i_max, stop_reason",
        [
            (SearchGrids(np.array([1e-3]), np.array([20e-3])), 1, "i_max"),
            (SearchGrids(np.array([1e-3]), np.array([20e-3])), 5, "fixed_point"),
            (bounded_grids(4, 4), 50, "fixed_point"),
        ],
    )
    def test_a_repeated_geometry_is_not_waterfilled_again(
        self, grids, i_max, stop_reason, monkeypatch
    ):
        # waterfilling is a pure function of gains[i, j]: the fixed point
        # records the previous allocation and rate, so iterations - 1 calls
        calls = []
        monkeypatch.setattr(
            optimizer, "waterfill", lambda *args: calls.append(args) or waterfill(*args)
        )
        result = alternate_optimize(grids, default_gains(grids, 6), 10.0, NOISE, i_max=i_max)
        assert result.stop_reason == stop_reason
        repeats = stop_reason == "fixed_point"
        assert len(calls) == len(result.trace) - repeats
        if repeats:
            assert result.trace[-1] == result.trace[-2]._replace(iteration=len(result.trace))

    def test_non_finite_rate_raises(self):
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        gains = np.array([[[np.inf, 1.0]]])
        with pytest.raises(FloatingPointError):
            alternate_optimize(grids, gains, 10.0, NOISE)

    def test_i_max_validation(self):
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        # 2.5 used to raise TypeError from range, and True to run once
        for i_max in (0, 2.5, True, "3"):
            with pytest.raises(ValueError, match="i_max must be an integer"):
                alternate_optimize(grids, default_gains(grids), 10.0, NOISE, i_max=i_max)

    def test_chosen_values_on_grid(self):
        grids = bounded_grids(5, 7)
        result = alternate_optimize(grids, default_gains(grids), 10.0, NOISE)
        assert result.chosen_b in grids.b_grid
        assert result.chosen_L in grids.L_grid


class TestSerialization:
    def test_trace_csv_and_report(self, tmp_path):
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        result = alternate_optimize(grids, default_gains(grids), 10.0, NOISE)
        write_allocation(result, tmp_path)
        csv = (tmp_path / "trace.csv").read_text().splitlines()
        assert csv[0] == "iter,b_m,L_m,rate_bits"
        assert csv[1].startswith("1,0.001,0.02,")
        report = (tmp_path / "allocation.txt").read_text()
        assert "chosen_b_m: 0.001" in report
        assert "sum_rate_bits:" in report
        assert report.endswith("iterations: 2\nstop_reason: fixed_point\n")

    def test_int_budget_printed_as_a_float(self, tmp_path):
        # the budget is a float field: an int one still prints through %.9g
        grids = SearchGrids(np.array([1e-3]), np.array([20e-3]))
        result = alternate_optimize(grids, default_gains(grids), 10**10, NOISE)
        write_allocation(result, tmp_path)
        assert "total_budget: 1e+10\n" in (tmp_path / "allocation.txt").read_text()


class TestPowerAllocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerAllocation(np.array([-0.1, 1.0]), 1.0)
        with pytest.raises(ValueError):
            PowerAllocation(np.array([0.6, 0.6]), 1.0)
        with pytest.raises(ValueError):
            PowerAllocation(np.array([0.5]), 0.0)
        with pytest.raises(ValueError, match="total_budget_P must be finite and > 0"):
            PowerAllocation(np.zeros(1), 0.0)
        # the rounding allowance includes its edge
        edge = 1.0 * (1.0 + BUDGET_RTOL)
        assert PowerAllocation(np.array([edge]), 1.0).powers[0] == edge

    @pytest.mark.parametrize(
        "powers, budget",
        [([1.0], math.nan), ([1.0], math.inf), ([math.nan, 1.0], 2.0)],
        ids=["nan-budget", "inf-budget", "nan-power"],
    )
    def test_non_finite_rejected(self, powers, budget):
        with pytest.raises(ValueError, match="must be finite"):
            PowerAllocation(np.array(powers), budget)

    def test_uniform(self):
        alloc = PowerAllocation.uniform(4, 10.0)
        np.testing.assert_allclose(alloc.powers, 2.5)
        tiny = np.finfo(float).smallest_normal  # the smallest share that is not subnormal
        assert PowerAllocation.uniform(1, tiny).powers[0] == tiny

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, "3"])
    def test_uniform_rejects_an_empty_count(self, n):
        # n = 0 used to raise ZeroDivisionError
        with pytest.raises(ValueError, match="at least one subband"):
            PowerAllocation.uniform(n, 1.0)

    @pytest.mark.parametrize("n, budget", [(40, 1e-320), (1, 1e-310), (3, 5e-324)])
    def test_uniform_rejects_a_subnormal_share(self, n, budget):
        # 40 shares of 2.5e-322 used to sum past the budget
        with pytest.raises(ValueError, match="subnormal share"):
            PowerAllocation.uniform(n, budget)
        assert PowerAllocation.uniform(n, n * 2.3e-308).powers.sum() > 0

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_uniform_rejects_a_budget_that_is_not_positive(self, budget):
        with pytest.raises(ValueError, match="total_budget_P must be finite and > 0"):
            PowerAllocation.uniform(4, budget)

    def test_search_grid_validation(self):
        with pytest.raises(ValueError):
            SearchGrids(np.array([]), np.array([1e-2]))
