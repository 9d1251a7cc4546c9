"""Fuzz the CLI over a bounded scenario domain: every run exits 0, 2 or 3,
and a run that exits 0 writes only finite numbers."""

import math
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from lwacomm.cli import main

# a scenario inside each field's physical range, then up to two float fields
# replaced by any finite float, so that both the validation paths and the
# numerical paths get exercised
FLOAT_FIELDS = [
    "f_low_hz", "f_high_hz", "angle_min_deg", "angle_max_deg", "range_min_m",
    "range_max_m", "power_budget", "noise_variance", "b_min_m", "b_max_m",
    "slit_min_m", "slit_max_m", "mimo_ref_frequency_hz",
]


@st.composite
def scenarios(draw):
    def interval(lo, hi):
        return sorted(draw(st.floats(min_value=lo, max_value=hi)) for _ in range(2))

    scenario = dict(zip(("f_low_hz", "f_high_hz"), interval(50e9, 900e9)))
    scenario.update(zip(("angle_min_deg", "angle_max_deg"), interval(1.0, 90.0)))
    scenario.update(zip(("range_min_m", "range_max_m"), interval(0.5, 30.0)))
    scenario.update(zip(("b_min_m", "b_max_m"), interval(0.1e-3, 3e-3)))
    scenario.update(zip(("slit_min_m", "slit_max_m"), interval(1e-3, 100e-3)))
    scenario.update(
        power_budget=draw(st.floats(min_value=1e-3, max_value=1e3)),
        noise_variance=draw(st.floats(min_value=1e-3, max_value=10.0)),
        mimo_ref_frequency_hz=draw(st.floats(min_value=0.0, max_value=900e9)),
        num_subbands=draw(st.integers(1, 8)),
        num_users=draw(st.integers(1, 4)),
        b_grid_points=draw(st.integers(1, 3)),
        slit_grid_points=draw(st.integers(1, 3)),
        max_iterations=draw(st.integers(1, 4)),
        mimo_elements=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        trials=1,
    )
    scenario.update(draw(st.dictionaries(
        st.sampled_from(FLOAT_FIELDS),
        st.floats(allow_nan=False, allow_infinity=False),
        max_size=2,
    )))
    return scenario


COMMANDS = st.sampled_from(["optimize", "beampattern", "sweep-snr", "compare-mimo"])
SNR_DB = st.one_of(st.floats(min_value=-40.0, max_value=40.0), st.floats())


def written_numbers(out: Path):
    for path in out.iterdir():
        for token in re.split(r"[\s,:]+", path.read_text()):
            try:
                yield path.name, token, float(token)
            except ValueError:
                pass


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(scenario=scenarios(), command=COMMANDS, snr_db=SNR_DB)
def test_exit_codes_and_finite_outputs(scenario, command, snr_db):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.cfg"
        cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in scenario.items()))
        out = Path(tmp) / "out"
        argv = [command, "--config", str(cfg), "--out", str(out), "--quiet"]
        if command == "sweep-snr":
            argv += [f"--snr-db={snr_db!r}"]
        code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            for name, token, value in written_numbers(out):
                assert math.isfinite(value), (name, token)
