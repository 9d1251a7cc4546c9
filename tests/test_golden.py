"""Golden snapshot of the default scenario, seeds 0-49.

For each seed the first trial's user draw is optimized and the chosen
(b, L), the sum rate and the trace length are compared with
golden_default.json by exact equality, so a refactor of the optimizer's
hot path must reproduce the recorded outputs bit for bit.

Record the file again (only when a change of outputs is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from lwacomm.experiments import ScenarioConfig, optimize_scenario, sample_users

GOLDEN_PATH = Path(__file__).with_name("golden_default.json")
SEEDS = range(50)


def snapshot(seed: int) -> dict:
    cfg = ScenarioConfig(seed=seed)
    result = optimize_scenario(cfg, sample_users(cfg, 0))
    return {
        "seed": seed,
        "b_m": result.chosen_b,
        "L_m": result.chosen_L,
        "sum_rate": result.sum_rate,
        "iterations": len(result.trace),
    }


def test_default_scenarios_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert [entry["seed"] for entry in golden] == list(SEEDS)
    mismatches = [
        (want, got) for want, got in zip(golden, map(snapshot, SEEDS)) if got != want
    ]
    assert not mismatches, mismatches[:3]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps([snapshot(s) for s in SEEDS], indent=1) + "\n")
