"""Joint geometry and power optimization.

Alternates an exhaustive grid search over the antenna geometry (b, L) with
waterfilling of the spectral power budget, until a fixed point or the
iteration cap. The waterfilling step is globally optimal for a fixed
geometry, so the trace rate is non-decreasing.

Both steps read one (B, L, N) array of squared channel norms ||h_n||^2 over
the geometry grid (channel.geometry_gains_squared), built once per user
draw; the optimizer never builds a channel itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseModel

BUDGET_RTOL = 1e-9  # rounding allowance on sum(powers) <= budget


class AllGainsZero(ValueError):
    """No subband carries positive gain: waterfilling is undefined."""


@dataclass(frozen=True)
class PowerAllocation:
    """Non-negative per-subband powers under a total budget."""

    powers: np.ndarray
    total_budget_P: float

    def __post_init__(self) -> None:
        powers = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "powers", powers)
        if self.total_budget_P <= 0:
            raise ValueError("total_budget_P must be > 0")
        if np.any(powers < 0):
            raise ValueError("powers must be non-negative")
        if powers.sum() > self.total_budget_P * (1.0 + BUDGET_RTOL):
            raise ValueError("powers exceed the total budget")

    @classmethod
    def uniform(cls, n: int, budget: float) -> "PowerAllocation":
        return cls(np.full(n, budget / n), budget)


@dataclass(frozen=True)
class SearchGrids:
    """Uniform geometry search grids, endpoints included."""

    b_grid: np.ndarray
    L_grid: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.b_grid, dtype=float)
        L = np.asarray(self.L_grid, dtype=float)
        object.__setattr__(self, "b_grid", b)
        object.__setattr__(self, "L_grid", L)
        if b.size == 0 or L.size == 0:
            raise ValueError("grids must be non-empty")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    b_m: float
    L_m: float
    rate_bits: float


@dataclass(frozen=True)
class AllocationResult:
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

    def trace_csv(self) -> str:
        lines = ["iter,b_m,L_m,rate_bits"]
        for rec in self.trace:
            lines.append(
                f"{rec.iteration},{rec.b_m:.9g},{rec.L_m:.9g},{rec.rate_bits:.9g}"
            )
        return "\n".join(lines) + "\n"

    def report_text(self) -> str:
        power_str = " ".join(f"{p:.9g}" for p in self.powers.powers)
        return (
            f"chosen_b_m: {self.chosen_b:.9g}\n"
            f"chosen_L_m: {self.chosen_L:.9g}\n"
            f"sum_rate_bits: {self.sum_rate:.9g}\n"
            f"total_budget: {self.powers.total_budget_P:.9g}\n"
            f"powers: {power_str}\n"
            f"iterations: {len(self.trace)}\n"
            f"stop_reason: {self.stop_reason}\n"
        )


def waterfill(gains_squared, budget_P: float, noise: NoiseModel) -> PowerAllocation:
    """Waterfilling P_n = max(1/nu - sigma^2/g_n, 0) with sum P_n = budget.

    Exact water level (Palomar & Fonollosa, IEEE TSP 2005): with the floors
    f = sigma^2/g sorted ascending and S_k the sum of the first k, K =
    #{k : P > k f_(k) - S_k} subbands are active and P_n = max(P - (K f_n -
    S_K), 0) / K. That is the level (P + S_K)/K minus f_n, written so that a
    budget far below the floors is not lost in their rounding. Zero-gain
    subbands receive exactly zero power. Raises AllGainsZero when no gain is
    positive, and FloatingPointError when the rounding of the floors puts
    the powers over the budget.
    """
    gains = np.asarray(gains_squared, dtype=float)
    if not 0 < budget_P < math.inf:
        raise ValueError("budget_P must be finite and > 0")
    if np.any(gains < 0):
        raise ValueError("gains_squared must be >= 0")
    positive = gains > 0
    if not np.any(positive):
        raise AllGainsZero("all subband gains are zero")

    floors = noise.variance_sigma2 / gains[positive]
    sorted_floors = np.sort(floors)
    cumulative = np.cumsum(sorted_floors)
    k = np.arange(1, floors.size + 1)
    K = np.count_nonzero(budget_P > k * sorted_floors - cumulative)
    powers = np.zeros_like(gains)
    powers[positive] = np.maximum(budget_P - (K * floors - cumulative[K - 1]), 0.0) / K
    if powers.sum() > budget_P * (1.0 + BUDGET_RTOL):
        # floors far above the budget and within rounding of each other
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
    grids.L_grid[j]). Returns the indices (i, j) of the best geometry and
    its rate. Ties break to the smallest b, then smallest L (the first
    maximum in b-major order), so the result is deterministic.
    """
    if gains.shape[:2] != (grids.b_grid.size, grids.L_grid.size):
        raise ValueError(f"gains of shape {gains.shape} do not match the search grids")
    rates = np.log2(1.0 + fixed_powers.powers / noise.variance_sigma2 * gains).sum(axis=-1)
    i, j = np.unravel_index(np.argmax(rates), rates.shape)
    return int(i), int(j), float(rates[i, j] / gains.shape[-1])


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
    repeated geometry repeats the powers too. Raises FloatingPointError if a
    rate or power is not finite (for example an infinite gain).
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    n = gains.shape[-1]
    alloc = PowerAllocation.uniform(n, budget_P)

    trace = []
    prev = None
    stop_reason = "i_max"
    for it in range(1, i_max + 1):
        i, j, _ = grid_search_geometry(grids, alloc, gains, noise)
        alloc = waterfill(gains[i, j], budget_P, noise)
        rates = np.log2(1.0 + alloc.powers / noise.variance_sigma2 * gains[i, j])
        trace.append(
            TraceRecord(it, float(grids.b_grid[i]), float(grids.L_grid[j]), math.fsum(rates) / n)
        )
        if prev == (i, j):
            stop_reason = "fixed_point"
            break
        prev = (i, j)

    last = trace[-1]
    rates_bits = [rec.rate_bits for rec in trace]
    if not (np.isfinite(rates_bits).all() and np.isfinite(alloc.powers).all()):
        raise FloatingPointError("the optimization produced a non-finite rate or power")
    return AllocationResult(last.b_m, last.L_m, alloc, last.rate_bits, tuple(trace), stop_reason)
