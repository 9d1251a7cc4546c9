import math

import pytest

from lwacomm.cli import main

FAST_CFG = """
num_subbands = 8
b_grid_points = 3
slit_grid_points = 3
seed = 42
trials = 2
"""


def write_cfg(tmp_path, text=FAST_CFG):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


def test_optimize_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "allocation.txt").exists()
    assert (out / "trace.csv").read_text().startswith("iter,b_m,L_m,rate_bits")
    assert "rate=" in capsys.readouterr().out


def test_quiet_suppresses_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_beampattern_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "bp"
    assert main(["beampattern", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header = (out / "beampattern.csv").read_text().splitlines()[0]
    assert header == "angle_deg,range_m,log_energy"


def test_sweep_snr_csv(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sw"
    code = main(
        ["sweep-snr", "--config", cfg, "--out", str(out), "--quiet",
         "--snr-db", "0", "10", "--trials", "1"]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "snr_db,mean_lwa,std_lwa,mean_mimo,std_mimo,trials"
    assert len(lines) == 3


def test_compare_mimo_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare-mimo", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "compare.txt").read_text()
    assert "lwa_rate_bits:" in text and "mimo_rate_bits:" in text


def test_seed_override_changes_result(tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert main(["optimize", "--config", cfg, "--out", str(out), "--seed", seed, "--quiet"]) == 0
        outs.append((out / "allocation.txt").read_text())
    assert outs[0] != outs[1]


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "no_such_key = 1\n")
    assert main(["optimize", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_finite_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_CFG + "power_budget = inf\n")
    assert main(["compare-mimo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_tiny_budget_is_allocated(tmp_path):
    # floors sigma^2/g far above the budget must not swallow it
    cfg = write_cfg(tmp_path, FAST_CFG + "power_budget = 1e-18\n")
    out = tmp_path / "tiny"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = (out / "allocation.txt").read_text()
    powers = next(line for line in report.splitlines() if line.startswith("powers:"))
    total = sum(float(p) for p in powers.split()[1:])
    assert math.isclose(total, 1e-18, rel_tol=1e-7)


def test_missing_config_file_exits_2(tmp_path):
    assert main(["optimize", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # band entirely below the waveguide cutoff for every candidate b:
    # every channel gain is zero and waterfilling is undefined
    cfg = write_cfg(
        tmp_path,
        "f_low_hz = 50e9\nf_high_hz = 100e9\nnum_subbands = 4\n"
        "b_grid_points = 2\nslit_grid_points = 2\n",
    )
    assert main(["optimize", "--config", cfg, "--quiet"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ranges of 1e-200 m make the path-loss gain squared overflow
TINY_RANGE_CFG = FAST_CFG + "range_min_m = 1e-200\nrange_max_m = 1e-200\n"


@pytest.mark.parametrize(
    "command, extra, report",
    [
        ("optimize", "", "allocation.txt"),  # used to write sum_rate_bits: inf
        ("compare-mimo", "mimo_elements = 1\n", "compare.txt"),  # used to raise LinAlgError
    ],
)
def test_overflow_exits_3_before_writing(tmp_path, capsys, command, extra, report):
    cfg = write_cfg(tmp_path, TINY_RANGE_CFG + extra)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (out / report).exists()


@pytest.mark.parametrize("f_ref", ["-5", "1e-300"])
def test_bad_mimo_config_exits_2(tmp_path, capsys, f_ref):
    cfg = write_cfg(tmp_path, FAST_CFG + f"mimo_ref_frequency_hz = {f_ref}\n")
    assert main(["compare-mimo", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
    assert "config error" in capsys.readouterr().err
    # optimize does not use the ULA and still runs the config
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


@pytest.mark.parametrize("snr_db", ["nan", "inf", "4000", "-4000"])
def test_bad_snr_point_exits_2(tmp_path, capsys, snr_db):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sw"
    code = main(
        ["sweep-snr", "--config", cfg, "--out", str(out), "--quiet",
         "--trials", "1", "--snr-db", "0", snr_db]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
