"""Joint geometry and power optimization.

Alternates an exhaustive grid search over the antenna geometry (b, L) with
waterfilling of the spectral power budget, until a fixed point or the
iteration cap. The waterfilling step is globally optimal for a fixed
geometry, so the trace rate is non-decreasing.

Both steps read one (B, L, N) array of squared channel norms ||h_n||^2 over
the geometry grid (channel.geometry_gains_squared), built once per user
draw; the optimizer never builds a channel itself. The geometry step makes
one array of that size per call, its ranking key, and takes every step of
the key in place in it.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .channel import NoiseModel, rate_bits

BUDGET_RTOL = 1e-9  # rounding allowance on sum(powers) <= budget
# Relative gap, times N + 8, below which the geometry search ranks two keys
# by rate_bits: a sum of N non-negative terms errs by at most (N - 1) eps/2
# relative in any order, and rate_bits' three roundings (fsum, / ln 2, / N)
# can make rates up to about 6 eps apart equal.
NEAR_TIE_RTOL = 2.0 * np.finfo(float).eps


class AllGainsZero(ValueError):
    """No subband carries positive gain: waterfilling is undefined."""


class PowerAllocation:
    """Finite, non-negative per-subband powers under a finite total budget."""

    __slots__ = ("powers", "total_budget_P")

    def __init__(self, powers: np.ndarray, total_budget_P: float) -> None:
        self.powers = powers = np.asarray(powers, dtype=float)
        self.total_budget_P = total_budget_P
        if not 0 < total_budget_P < math.inf:  # NaN fails both
            raise ValueError("total_budget_P must be finite and > 0")
        if not np.all(np.isfinite(powers)) or np.any(powers < 0):
            raise ValueError("powers must be finite and non-negative")
        if powers.sum() > total_budget_P * (1.0 + BUDGET_RTOL):
            raise ValueError("powers exceed the total budget")

    @classmethod
    def uniform(cls, n: int, budget: float) -> "PowerAllocation":
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"need an integer count of at least one subband, got {n!r}")
        if budget > 0 and budget / n < np.finfo(float).smallest_normal:
            # a subnormal share rounds, and n shares may sum past the budget
            raise ValueError(f"budget / n = {budget / n!r} is a subnormal share")
        return cls(np.full(n, budget / n), budget)


class SearchGrids:
    """Uniform geometry search grids, endpoints included."""

    __slots__ = ("b_grid", "L_grid")

    def __init__(self, b_grid: np.ndarray, L_grid: np.ndarray) -> None:
        self.b_grid = np.asarray(b_grid, dtype=float)
        self.L_grid = np.asarray(L_grid, dtype=float)
        if self.b_grid.size == 0 or self.L_grid.size == 0:
            raise ValueError("grids must be non-empty")


class TraceRecord(NamedTuple):
    iteration: int
    b_m: float
    L_m: float
    rate_bits: float


class AllocationResult(NamedTuple):
    """Outcome of the alternating optimization.

    stop_reason is "fixed_point" when geometry and powers reproduced
    themselves, "i_max" when the iteration cap ended the loop.
    """

    chosen_b: float
    chosen_L: float
    powers: PowerAllocation
    sum_rate: float
    trace: tuple
    stop_reason: str


def waterfill(gains_squared, budget_P: float, noise: NoiseModel) -> PowerAllocation:
    """Waterfilling P_n = max(1/nu - sigma^2/g_n, 0) with sum P_n = budget.

    Exact water level (Palomar & Fonollosa, IEEE TSP 2005): with the floors
    f = sigma^2/g sorted ascending and S_k the sum of the first k, K =
    #{k : P > k f_(k) - S_k} subbands are active and P_n = max(P - (K f_n -
    S_K), 0) / K. That is the level (P + S_K)/K minus f_n, written so that a
    budget far below the floors is not lost in their rounding. Neither
    expression changes when every floor is shifted, so the floors are taken
    relative to the smallest: near it the differences are exact (Sterbenz),
    even for floors far above the budget that differ only in their last
    bits. A zero gain's floor is inf. Subbands whose floor is inf or whose
    shifted floor reaches the budget can never be active: they receive
    exactly zero power and are not sorted. Raises ValueError if a gain is negative or NaN,
    AllGainsZero when no gain is positive, and FloatingPointError when every
    positive gain's floor overflows or the rounding of the floors still puts
    the powers over the budget.
    """
    gains = np.asarray(gains_squared, dtype=float)
    if not 0 < budget_P < math.inf:
        raise ValueError("budget_P must be finite and > 0")
    if not np.all(gains >= 0):  # NaN fails it too
        raise ValueError("gains_squared must be >= 0, not NaN")
    if not np.any(gains > 0):
        raise AllGainsZero("all subband gains are zero")

    with np.errstate(divide="ignore", over="ignore"):  # 0 or past the float range: inf
        floors = noise.variance_sigma2 / gains
    lowest = floors.min()
    if lowest == math.inf:
        raise FloatingPointError("every positive gain's floor sigma^2/g overflows")
    floors -= lowest
    # a floor at or above the budget is never active (k f_(k) - S_k >= f_(k))
    below = floors < budget_P
    floors = floors[below]
    sorted_floors = np.sort(floors)
    cumulative = np.cumsum(sorted_floors)
    k = np.arange(1, floors.size + 1)
    K = np.count_nonzero(budget_P > k * sorted_floors - cumulative)
    powers = np.zeros_like(gains)
    powers[below] = np.maximum(budget_P - (K * floors - cumulative[K - 1]), 0.0) / K
    if powers.sum() > budget_P * (1.0 + BUDGET_RTOL):
        # the running sum of thousands of active floors, rounding one way
        raise FloatingPointError("waterfilling lost the budget to the rounding of the floors")
    return PowerAllocation(powers, budget_P)


def grid_search_geometry(
    grids: SearchGrids,
    fixed_powers: PowerAllocation,
    gains: np.ndarray,
    noise: NoiseModel,
):
    """Exhaustive argmax of the average sum-rate over the (b, L) grid.

    gains[i, j] holds ||h_n||^2 of geometry (grids.b_grid[i],
    grids.L_grid[j]). Returns the indices (i, j) of the geometry with the
    largest rate_bits. Ties break to the smallest b, then smallest L (the
    first maximum in b-major order), so the result is deterministic.
    Raises FloatingPointError, as rate_bits does, if the best key is not
    finite (an infinite gain).
    """
    if gains.shape[:2] != (grids.b_grid.size, grids.L_grid.size):
        raise ValueError(f"gains of shape {gains.shape} do not match the search grids")
    # ranking key: the rate times N ln 2, with log1p keeping per-subband
    # SNRs below eps apart, summed over the powered subbands only (an
    # unpowered one adds log1p(0) = +0). It is built in place in the one
    # copy gains[..., on]; g * (P/sigma^2) equals (P/sigma^2) * g bitwise.
    powers = fixed_powers.powers
    on = np.flatnonzero(powers)
    key = gains[..., on]
    key *= powers[on] / noise.variance_sigma2
    key = np.log1p(key, out=key).sum(axis=-1)
    best = int(np.argmax(key))
    if not math.isfinite(key.flat[best]):
        raise FloatingPointError(f"the sum rate is not finite: {key.flat[best]}")
    # The key's sum rounds otherwise than rate_bits' fsum, so the geometries
    # within NEAR_TIE_RTOL of the best key are ranked again by rate_bits.
    n = gains.shape[-1]
    near = np.flatnonzero(key >= key.flat[best] * (1.0 - NEAR_TIE_RTOL * (n + 8)))
    if near.size > 1:
        flat = gains.reshape(-1, n)
        rates = [rate_bits(powers, flat[c], noise, n) for c in near]
        best = int(near[rates.index(max(rates))])
    i, j = np.unravel_index(best, key.shape)
    return int(i), int(j)


def alternate_optimize(
    grids: SearchGrids,
    gains: np.ndarray,
    budget_P: float,
    noise: NoiseModel,
    i_max: int = 10,
) -> AllocationResult:
    """Alternating optimization: geometry grid search, then waterfilling.

    gains is the (B, L, N) array of squared channel norms over `grids`.
    Starts from the uniform allocation P/N and stops as soon as the
    geometry step returns the same (i, j) twice in a row, or after i_max
    iterations. Waterfilling is a pure function of gains[i, j], so a
    repeated geometry repeats the powers and the rate: the last iteration
    records them without waterfilling again. Raises FloatingPointError if a
    rate is not finite (for example from an infinite gain).
    """
    if isinstance(i_max, bool) or not isinstance(i_max, numbers.Integral) or i_max < 1:
        raise ValueError(f"i_max must be an integer >= 1, got {i_max!r}")
    n = gains.shape[-1]
    alloc = PowerAllocation.uniform(n, budget_P)

    trace = []
    prev = None
    stop_reason = "i_max"
    for it in range(1, i_max + 1):
        i, j = grid_search_geometry(grids, alloc, gains, noise)
        if prev == (i, j):
            trace.append(trace[-1]._replace(iteration=it))
            stop_reason = "fixed_point"
            break
        alloc = waterfill(gains[i, j], budget_P, noise)
        rate = rate_bits(alloc.powers, gains[i, j], noise, n)
        trace.append(TraceRecord(it, float(grids.b_grid[i]), float(grids.L_grid[j]), rate))
        prev = (i, j)

    last = trace[-1]
    return AllocationResult(last.b_m, last.L_m, alloc, last.rate_bits, tuple(trace), stop_reason)
