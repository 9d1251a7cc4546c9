import math

import pytest

from lwacomm import cli
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


# 1e-320 / 40 is subnormal and its 40 rounded shares sum past the budget,
# which PowerAllocation.uniform rejected with a traceback (exit 1)
SUBNORMAL_SHARE_CFG = "num_subbands = 40\nb_grid_points = 3\nslit_grid_points = 3\n"


@pytest.mark.parametrize("command", ["optimize", "compare-mimo", "beampattern"])
def test_budget_with_a_subnormal_share_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SUBNORMAL_SHARE_CFG + "power_budget = 1e-320\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "subnormal share" in capsys.readouterr().err


def test_budget_with_the_smallest_normal_share_runs(tmp_path):
    budget = 40 * 2.2250738585072014e-308  # the smallest normal float per subband
    cfg = write_cfg(tmp_path, SUBNORMAL_SHARE_CFG + f"power_budget = {budget!r}\n")
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_floors_equal_within_rounding_are_allocated(tmp_path):
    # users out to 1e150 m give a MIMO pool of floors ~1e297 that differ in
    # their last bits; waterfilling used to overshoot the budget (exit 3)
    cfg = write_cfg(tmp_path, FAST_CFG + "range_max_m = 1e150\n")
    out = tmp_path / "far"
    assert main(["compare-mimo", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = (out / "compare.txt").read_text().splitlines()
    rates = [float(line.split(":")[1]) for line in report if "_rate_bits:" in line]
    assert len(rates) == 2
    assert all(math.isfinite(rate) and rate >= 0 for rate in rates)


@pytest.mark.parametrize("command", ["optimize", "compare-mimo"])
@pytest.mark.parametrize("rho", ["1e153", "1e154"])
def test_far_users_are_allocated(tmp_path, command, rho):
    # floors sigma^2/g near 1e306 (1e153 m), or past the float range for the
    # weakest modes (1e154 m): used to overflow in waterfill (exit 3)
    cfg = write_cfg(tmp_path, FAST_CFG + f"range_min_m = {rho}\nrange_max_m = {rho}\n")
    out = tmp_path / "far"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = "allocation.txt" if command == "optimize" else "compare.txt"
    rates = [
        float(line.split(":")[1])
        for line in (out / report).read_text().splitlines()
        if "rate_bits:" in line
    ]
    assert rates and all(math.isfinite(rate) and rate > 0 for rate in rates)


@pytest.mark.parametrize("command", ["optimize", "compare-mimo"])
def test_every_floor_overflowing_exits_3(tmp_path, capsys, command):
    # at 1e156 m every positive gain lies below sigma^2 / 1.8e308
    cfg = write_cfg(tmp_path, FAST_CFG + "range_min_m = 1e156\nrange_max_m = 1e156\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert "numerical failure: every positive gain's floor" in capsys.readouterr().err


def test_repeated_key_exits_2(tmp_path, capsys):
    # the last seed used to win, and the run exited 0
    cfg = write_cfg(tmp_path, FAST_CFG + "seed = 4\n")
    first = FAST_CFG.splitlines().index("seed = 42") + 1
    second = len(FAST_CFG.splitlines()) + 1
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{cfg}:{second}: key 'seed' repeats line {first}" in err


def test_config_too_large_to_allocate_exits_2(tmp_path, capsys):
    # the (B, L, N) gains array would take 291 TiB, beyond any address
    # space, so numpy fails at once; the MemoryError used to exit 1
    cfg = write_cfg(tmp_path, "b_grid_points = 1000000\nslit_grid_points = 1000000\n")
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate 291. TiB")


def test_missing_config_file_exits_2(tmp_path):
    assert main(["optimize", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    # a UTF-16 byte-order mark used to raise UnicodeDecodeError (exit 1)
    path = tmp_path / "scenario.cfg"
    path.write_bytes(b"\xff\xfe" + FAST_CFG.encode("utf-16-le"))
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err


@pytest.mark.parametrize("command", ["optimize", "beampattern", "sweep-snr", "compare-mimo"])
def test_unusable_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # --out naming an existing file used to raise FileExistsError (exit 1),
    # and later exited 2 only after the whole computation had run
    def never_called(*args, **kwargs):
        raise AssertionError("the command computed before checking --out")

    for name in ("optimize_scenario", "run_beampattern_experiment", "run_snr_sweep", "paired_rates"):
        monkeypatch.setattr(cli, name, never_called)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "taken"
    out.write_text("")
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "output error" in capsys.readouterr().err
    assert out.read_text() == ""


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


@pytest.mark.parametrize("command", ["optimize", "beampattern", "compare-mimo"])
def test_trials_flag_only_on_sweep(tmp_path, capsys, command):
    # these commands draw trial 0 only, so a trial count would have no effect
    with pytest.raises(SystemExit) as exc:
        main([command, "--trials", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_sweep_trials_override_is_validated(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    args = ["sweep-snr", "--config", cfg, "--out", str(tmp_path / "sw"), "--trials", "0"]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err


def test_optimize_and_beampattern_write_the_same_allocation(tmp_path):
    cfg = write_cfg(tmp_path)
    for command in ("optimize", "beampattern"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command), "--quiet"]) == 0
    for name in ("allocation.txt", "trace.csv"):
        written = [(tmp_path / command / name).read_bytes() for command in ("optimize", "beampattern")]
        assert written[0] == written[1]


def test_parser_keeps_no_state_between_calls(tmp_path):
    # main() parses with one parser built at import: a flag given in one call
    # must not carry into the next, nor may a call change the default ladder
    ladder = list(cli.DEFAULT_SNR_LADDER_DB)
    cfg = write_cfg(tmp_path, FAST_CFG.replace("trials = 2", "trials = 3"))
    for name, extra, trials in [("first", ["--trials", "2"], "2"), ("second", [], "3")]:
        out = tmp_path / name
        assert main(["sweep-snr", "--config", cfg, "--out", str(out), "--quiet", *extra]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == ladder
        assert {row.split(",")[-1] for row in rows} == {trials}
    assert cli.DEFAULT_SNR_LADDER_DB == ladder
