"""Golden MIMO baseline rates, compared at a stated tolerance.

Each trial's geometry is the one the LWA optimizer chooses at the default
power budget. The MIMO channel is built for that trial's user draw,
held with a largest |entry| of 1, scaled by the LWA channel's largest
|entry| at that geometry, and rated at every budget of the trial's set:

- the default scenario, trials 0-19, at the nine points of the default SNR
  ladder and at 80 dB, where the SVD fallback of mimo_sum_rate runs;
- the wide-band benchmark scenario (N=256, K=32, M=256 on a 7x7 grid),
  trials 1-3, at the default budget and at 70 dB, where the fallback runs.

golden_mimo.json holds each normalization factor and rate as float hex,
recorded when the entries came from one direct exp each, unscaled, and the
factor scaled them from their largest |entry| 1/d_min to the LWA peak: so
the factor is lwa_peak * d_min, d_min the nearest element-to-user distance. They now come from
a phasor recurrence whose entries lie within 4 * Phi_max * eps relative of
the exact value, as the direct exp's do (Phi_max = 2 pi f_max d_max / c, the
largest phase; tests/test_mimo.py::TestEntryAccuracy checks both against
mpmath). Neither is bitwise the exact value, so the factors are compared to
FACTOR_RTOL and the rates to RATE_RTOL relative. The fallback counts are
compared exactly. Record it again (only when a change of MIMO outputs is intended) with

    PYTHONPATH=src python tests/test_golden_mimo.py
"""

import json
import math
from pathlib import Path

import numpy as np

from lwacomm.channel import InverseRangeLoss, build_channel
from lwacomm.cli import DEFAULT_SNR_LADDER_DB
from lwacomm.experiments import ScenarioConfig, optimize_scenario, sample_users
from lwacomm.mimo import build_mimo_channel, mimo_sum_rate
from lwacomm.physics import LwaConfig

GOLDEN_PATH = Path(__file__).with_name("golden_mimo.json")
WIDE_BAND = ScenarioConfig(
    num_subbands=256, num_users=32, mimo_elements=256, b_grid_points=7, slit_grid_points=7
)
# The factor is a product of the LWA peak and d_min, which only the rounding
# of the peak entry moved. The rates move further: the Gram eigenvalues near the resolution
# floor, and at the fallback point the SVD of nearly rank-deficient
# subbands, amplify the entries' 1e-10 relative differences.
FACTOR_RTOL = 1e-14
RATE_RTOL = 1e-10
# (name, config, trials, SNR points in dB); None is the config's own budget
CASES = [
    ("default", ScenarioConfig(), range(20), [*DEFAULT_SNR_LADDER_DB, 80.0]),
    ("wide-band", WIDE_BAND, range(1, 4), [None, 70.0]),
]


def budget_of(config: ScenarioConfig, snr_db) -> float:
    if snr_db is None:
        return config.power_budget
    return 10.0 ** (snr_db / 10.0) * config.num_subbands * config.noise_variance


def snapshot(config: ScenarioConfig, trial: int, snr_points) -> dict:
    users = sample_users(config, trial)
    result = optimize_scenario(config, users)
    grid = config.frequency_grid()
    lwa = build_channel(
        LwaConfig(result.chosen_b, result.chosen_L), grid, users, InverseRangeLoss()
    )
    spectrum = build_mimo_channel(config.ula(), grid, users)
    lwa_peak = float(np.max(np.abs(lwa)))
    noise = config.noise()
    return {
        "trial": trial,
        "factor": float(lwa_peak * spectrum.source.dist.min()).hex(),
        "rates": [
            mimo_sum_rate(spectrum, lwa_peak, budget_of(config, snr_db), noise).hex()
            for snr_db in snr_points
        ],
    }


def record() -> dict:
    return {
        name: {
            "snr_db": snr_points,
            "trials": [snapshot(config, trial, snr_points) for trial in trials],
        }
        for name, config, trials, snr_points in CASES
    }


def test_mimo_rates_match_golden(monkeypatch):
    svd_inputs = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        svd_inputs.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    golden = json.loads(GOLDEN_PATH.read_text())
    fallbacks = {}
    for name, config, trials, snr_points in CASES:
        assert golden[name]["snr_db"] == snr_points
        want = golden[name]["trials"]
        assert [entry["trial"] for entry in want] == list(trials)
        for entry in want:
            got = snapshot(config, entry["trial"], snr_points)
            where = (name, entry["trial"])
            assert math.isclose(
                float.fromhex(got["factor"]), float.fromhex(entry["factor"]), rel_tol=FACTOR_RTOL
            ), where
            assert len(got["rates"]) == len(entry["rates"]), where
            for rate, golden_rate in zip(got["rates"], entry["rates"]):
                assert math.isclose(
                    float.fromhex(rate), float.fromhex(golden_rate), rel_tol=RATE_RTOL
                ), (*where, rate, golden_rate)
        fallbacks[name] = len(svd_inputs)
        del svd_inputs[:]
    # the highest point reaches the fallback wherever an eigenvalue is unresolved
    assert fallbacks == {"default": 15, "wide-band": 3}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
