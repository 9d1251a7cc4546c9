"""Bitwise metamorphic relations of the LWA optimization, end to end.

A metamorphic relation checks that a defined change to the inputs changes
the outputs in a known way, with no recorded values (T. Y. Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM
Computing Surveys 51(1), 2018). Both relations here scale by a power of two
2^k, which every rounding step commutes with while its operands and result
stay normal floats. So each holds bitwise, from the gains array through the
geometry search and waterfilling to the rate, on the domain its test states:
every quantity it scales stays finite and not subnormal on both sides. A
refactor that changes how these quantities are rounded must still keep them.

The scenarios are the CLI fuzz's, trial 0's user draw; a scenario that
ScenarioConfig rejects, before or after the scaling (the subnormal-share
rule among others), is outside the domain. The derandomized draws move with
unrelated edits, so explicit examples pin a few cases.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from lwacomm import experiments
from lwacomm.channel import InverseRangeLoss, UserSet, geometry_gains_squared
from lwacomm.experiments import ConfigError, ScenarioConfig
from lwacomm.optimizer import AllGainsZero

from test_cli_fuzz import SMALL, scenarios

RELATION = settings(derandomize=True, deadline=None, database=None, max_examples=200)
POWERS_OF_TWO = st.integers(-12, 12)
NORMAL = np.finfo(float).smallest_normal
LARGEST = np.finfo(float).max


def normal(*arrays) -> bool:
    """Every non-zero entry is finite and not subnormal."""
    for values in arrays:
        values = np.abs(np.asarray(values, dtype=float))
        values = values[values != 0.0]
        if not np.all((values >= NORMAL) & (values <= LARGEST)):  # NaN fails
            return False
    return True


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def config_or_none(scenario, **changes):
    try:
        return replace(ScenarioConfig(**scenario), **changes)
    except ConfigError:
        return None


def optimize(config, users):
    """The optimization's result, or the type of the error it raised."""
    try:
        return experiments.optimize_scenario(config, users)
    except (AllGainsZero, FloatingPointError) as exc:
        return type(exc)


def gains(config, users):
    grids = config.search_grids()
    return geometry_gains_squared(
        grids.b_grid, grids.L_grid, config.frequency_grid(), users, InverseRangeLoss()
    )


def gains_per_user(config, users):
    """Every user's own (G Gamma)^2 over the search grid, the terms that
    geometry_gains_squared adds."""
    return [
        gains(config, UserSet(users.angles_rad[k:k + 1], users.ranges_m[k:k + 1]))
        for k in range(users.num_users)
    ]


def assert_same_choice(result, scaled):
    assert (scaled.chosen_b, scaled.chosen_L) == (result.chosen_b, result.chosen_L)
    assert bits(np.array(scaled.trace, dtype=float)) == bits(np.array(result.trace, dtype=float))
    assert bits(scaled.sum_rate) == bits(result.sum_rate)
    assert scaled.stop_reason == result.stop_reason


@RELATION
@given(scenario=scenarios(), k=POWERS_OF_TWO)
@example(scenario={}, k=-7)
@example(scenario={"seed": 3}, k=11)
@example(scenario=SMALL, k=3)
@example(scenario=dict(SMALL, power_budget=1e-300, noise_variance=5.0), k=-12)
def test_noise_and_budget_times_a_power_of_two(scenario, k):
    # sigma^2 and P times 2^k: the SNR P_n / sigma^2 and every rate keep
    # their bits, and the powers are exactly 2^k times the original's.
    # Domain: both scenarios valid, and sigma^2, the floors sigma^2 / g of
    # the positive gains and the powers normal on both sides
    config = config_or_none(scenario)
    assume(config is not None)
    scaled_config = config_or_none(
        scenario, noise_variance=config.noise_variance * 2.0 ** k,
        power_budget=config.power_budget * 2.0 ** k,
    )
    assume(scaled_config is not None)
    users = experiments.sample_users(config, 0)
    norms = gains(config, users)
    with np.errstate(over="ignore"):  # past the float range: outside the domain
        floors = np.float64(config.noise_variance) / norms[norms > 0]
        assume(normal(config.noise_variance, scaled_config.noise_variance,
                      floors, floors * 2.0 ** k))
    result = optimize(config, users)
    scaled = optimize(scaled_config, users)
    if isinstance(result, type):
        assert scaled is result
        return
    powers = result.powers.powers
    with np.errstate(over="ignore"):
        assume(normal(powers, powers * 2.0 ** k))
    assert_same_choice(result, scaled)
    assert bits(scaled.powers.powers) == bits(powers * 2.0 ** k)


@RELATION
@given(scenario=scenarios(), k=POWERS_OF_TWO)
@example(scenario={}, k=-7)
@example(scenario={"seed": 3}, k=11)
@example(scenario=SMALL, k=3)
@example(scenario=dict(SMALL, range_min_m=1e-150, range_max_m=1e-150), k=-12)
def test_ranges_times_a_power_of_two_noise_times_its_inverse_square(scenario, k):
    # every range times 2^k and sigma^2 times 2^-2k: Gamma = 1 m / rho
    # scales by 2^-k, every ||h_n||^2 by 2^-2k, and the SNRs, powers and
    # rates keep their bits. The LWA only: the MIMO phases depend on the
    # distances. Domain: both scenarios valid, and sigma^2, P / sigma^2 and
    # each user's (G Gamma)^2 normal on both sides
    config = config_or_none(scenario)
    assume(config is not None)
    scaled_config = config_or_none(scenario, noise_variance=config.noise_variance * 2.0 ** (-2 * k))
    assume(scaled_config is not None)
    users = experiments.sample_users(config, 0)
    sigma2, scaled_sigma2 = np.float64(config.noise_variance), scaled_config.noise_variance
    with np.errstate(over="ignore", divide="ignore"):  # outside the domain
        ranges = users.ranges_m * 2.0 ** k
        assume(normal(ranges, 1.0 / ranges, 1.0 / users.ranges_m))
        terms = gains_per_user(config, users)
        assume(normal(sigma2, scaled_sigma2, config.power_budget / sigma2,
                      config.power_budget / scaled_sigma2,
                      terms, np.multiply(terms, 2.0 ** (-2 * k))))
    scaled_users = UserSet(users.angles_rad, ranges)
    result = optimize(config, users)
    scaled = optimize(scaled_config, scaled_users)
    if isinstance(result, type):
        assert scaled is result
        return
    assert_same_choice(result, scaled)
    assert bits(scaled.powers.powers) == bits(result.powers.powers)
