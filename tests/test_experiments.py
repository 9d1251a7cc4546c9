import math
from dataclasses import fields, replace

import numpy as np
import pytest

from lwacomm import experiments
from lwacomm.channel import InverseRangeLoss, average_sum_rate, build_channel
from lwacomm.experiments import (
    ConfigError,
    ScenarioConfig,
    SweepPoint,
    load_config,
    optimize_scenario,
    paired_rates,
    run_beampattern_experiment,
    run_snr_sweep,
    sample_users,
    write_csv,
)
from lwacomm.physics import LwaConfig

# small scenario keeping the Monte-Carlo tests quick
FAST = ScenarioConfig(
    num_subbands=8,
    b_grid_points=4,
    slit_grid_points=4,
    seed=42,
    trials=3,
)


class TestSampleUsers:
    def test_degenerate_interval(self):
        cfg = replace(FAST, angle_min_deg=15.0, angle_max_deg=15.0)
        users = sample_users(cfg, 0)
        np.testing.assert_array_equal(users.angles_rad, math.radians(15.0))

    def test_deterministic(self):
        a = sample_users(FAST, 3)
        b = sample_users(FAST, 3)
        np.testing.assert_array_equal(a.angles_rad, b.angles_rad)
        np.testing.assert_array_equal(a.ranges_m, b.ranges_m)

    def test_trials_are_independent_streams(self):
        a = sample_users(FAST, 0)
        b = sample_users(FAST, 1)
        assert not np.array_equal(a.angles_rad, b.angles_rad)

    def test_seed_changes_draw(self):
        a = sample_users(FAST, 0)
        b = sample_users(replace(FAST, seed=43), 0)
        assert not np.array_equal(a.angles_rad, b.angles_rad)

    def test_mean_angle_law_of_large_numbers(self):
        cfg = replace(FAST, num_users=100_000)
        users = sample_users(cfg, 0)
        mean_deg = math.degrees(float(users.angles_rad.mean()))
        assert abs(mean_deg - 32.5) < 0.5


class TestConfig:
    def test_defaults_mirror_reference_setup(self):
        cfg = ScenarioConfig()
        assert (cfg.f_low_hz, cfg.f_high_hz) == (200e9, 800e9)
        assert (cfg.num_subbands, cfg.num_users, cfg.trials) == (40, 4, 20)
        assert (cfg.power_budget, cfg.noise_variance) == (10.0, 1.0)
        assert (cfg.b_min_m, cfg.b_max_m) == (0.9e-3, 1.1e-3)
        assert (cfg.slit_min_m, cfg.slit_max_m) == (10e-3, 50e-3)
        assert (cfg.angle_min_deg, cfg.angle_max_deg) == (10.0, 55.0)
        assert (cfg.range_min_m, cfg.range_max_m) == (10.0, 20.0)

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# comment\n"
            "num_subbands = 16\n"
            "seed = 7\n"
            "power_budget = 2.5\n"
        )
        cfg = load_config(path)
        assert cfg.num_subbands == 16
        assert cfg.seed == 7
        assert cfg.power_budget == 2.5
        assert cfg.num_users == 4  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("num_subands = 16\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("num_subbands = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        # the last of a repeated key used to win without a word
        path = tmp_path / "scenario.cfg"
        path.write_text("seed = 3\n# a comment\nnum_users = 2\nseed = 4\n")
        with pytest.raises(ConfigError, match=r":4: key 'seed' repeats line 1$"):
            load_config(path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f_low_hz": 9e11, "f_high_hz": 8e11},
            {"angle_min_deg": 0.0},
            {"angle_max_deg": 95.0},
            {"power_budget": 0.0},
            {"trials": 0},
            {"b_min_m": 2e-3, "b_max_m": 1e-3},
            {"slit_min_m": 5e-2, "slit_max_m": 1e-2},
            {"power_budget": math.inf},
            {"mimo_ref_frequency_hz": math.nan},
            {"range_max_m": math.inf},
            {"power_budget": np.float32("inf")},  # not a float: used to pass
            {"noise_variance": np.float32("nan")},
            {"f_low_hz": 1e11, "f_high_hz": 100000000000.00002},  # no 40 distinct centers
            {"angle_min_deg": 5e-324, "angle_max_deg": 5e-324},  # 0 rad
            {"b_grid_points": 0},
            {"slit_grid_points": 0},
            {"max_iterations": 0},
            {"mimo_elements": 0},
            {"seed": -1},
            {"seed": 2 ** 64},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize(
        "name",
        ["num_subbands", "num_users", "b_grid_points", "slit_grid_points",
         "max_iterations", "mimo_elements", "seed", "trials"],
    )
    def test_int_fields_reject_non_integers(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            ScenarioConfig(**{name: value})

    # True used to pass as 1.0; a string or a complex raised TypeError
    @pytest.mark.parametrize("value", [True, "10", 1 + 0j])
    @pytest.mark.parametrize(
        "name",
        [f.name for f in fields(ScenarioConfig) if f.type in ("float", float)],
    )
    def test_float_fields_reject_non_reals(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
            ScenarioConfig(**{name: value})

    def test_float_fields_accept_ints_and_numpy_floats(self):
        config = ScenarioConfig(power_budget=5, noise_variance=np.float64(0.5))
        assert (config.power_budget, config.noise_variance) == (5, 0.5)

    # a negative reference frequency, and one so low that the ULA's aperture
    # is wider than the users' range
    @pytest.mark.parametrize("f_ref", [-5.0, 1e-300])
    def test_ula_invariants(self, f_ref):
        config = ScenarioConfig(mimo_ref_frequency_hz=f_ref)  # optimize still accepts it
        with pytest.raises(ConfigError):
            config.ula()


class TestBeampatternExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = run_beampattern_experiment(FAST, out1, angle_step_deg=2.0, range_step_m=2.0)
        r2 = run_beampattern_experiment(FAST, out2, angle_step_deg=2.0, range_step_m=2.0)
        for name in ("beampattern.csv", "users.csv", "allocation.txt", "trace.csv"):
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert r1.sum_rate == r2.sum_rate

    def test_single_on_peak_user_map_maximum(self, tmp_path):
        cfg = replace(
            FAST,
            num_users=1,
            angle_min_deg=30.0,
            angle_max_deg=30.0,
            range_min_m=10.0,
            range_max_m=10.0,
        )
        run_beampattern_experiment(cfg, tmp_path, angle_step_deg=0.5, range_step_m=2.0)
        rows = (tmp_path / "beampattern.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        # best angle at the smallest range slice
        near = data[data[:, 1] == data[:, 1].min()]
        best_angle = near[np.argmax(near[:, 2]), 0]
        assert abs(best_angle - 30.0) <= 1.5

    # a step of 0 used to raise ZeroDivisionError, a NaN step numpy's
    # "arange: cannot compute length", True to run as 1 and "0.5" to raise
    # TypeError from math.isfinite
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, True, "0.5"])
    @pytest.mark.parametrize("name", ["angle_step_deg", "range_step_m"])
    def test_non_positive_or_non_finite_step_rejected(self, tmp_path, name, bad):
        steps = {"angle_step_deg": 5.0, "range_step_m": 5.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            run_beampattern_experiment(FAST, tmp_path / "out", **steps)
        assert not (tmp_path / "out").exists()

    def test_angle_step_past_90_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="angle_step_deg must be at most 90"):
            run_beampattern_experiment(FAST, tmp_path / "out", 90.5, 5.0)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "step, rows, last_deg",
        # 0.7 deg used to end at 90.3 deg, and 0.2 deg one ulp past pi/2
        # after np.radians
        [(0.7, 128, 89.6), (0.2, 450, 90.0)],
    )
    def test_angle_grid_stays_in_the_quadrant(self, monkeypatch, tmp_path, step, rows, last_deg):
        grids = []
        monkeypatch.setattr(
            experiments, "export_beampattern_csv", lambda path, angles, *_: grids.append(angles)
        )
        run_beampattern_experiment(FAST, tmp_path, step, 20.0)
        (angles,) = grids
        assert angles.size == rows and np.all(np.diff(angles) > 0)
        assert angles[0] > 0 and angles[-1] <= math.pi / 2
        assert math.degrees(angles[-1]) == pytest.approx(last_deg, rel=1e-12)
        if last_deg == 90.0:
            assert angles[-1] == math.pi / 2

    def test_users_csv_contents(self, tmp_path):
        cfg = replace(FAST, num_users=2)
        run_beampattern_experiment(cfg, tmp_path, angle_step_deg=5.0, range_step_m=5.0)
        lines = (tmp_path / "users.csv").read_text().splitlines()
        assert lines[0] == "angle_deg,range_m"
        assert len(lines) == 3


class TestSnrSweep:
    def test_single_point_equals_direct_invocation(self):
        sweep = run_snr_sweep(replace(FAST, trials=1), [0.0])
        budget = 1.0 * FAST.num_subbands * FAST.noise_variance
        lwa, mimo, _ = paired_rates(replace(FAST, trials=1), 0, budget)
        point = sweep.points[0]
        assert point.mean_lwa == pytest.approx(lwa)
        assert point.mean_mimo == pytest.approx(mimo)
        assert point.std_lwa == 0.0

    def test_rates_monotone_per_trial(self):
        ladder = [-5.0, 5.0, 15.0]
        for trial in range(2):
            prev_lwa = prev_mimo = -1.0
            for snr_db in ladder:
                budget = 10 ** (snr_db / 10) * FAST.num_subbands
                lwa, mimo, _ = paired_rates(FAST, trial, budget)
                assert lwa >= prev_lwa and mimo >= prev_mimo
                prev_lwa, prev_mimo = lwa, mimo

    def test_vanishing_power_vanishing_rate(self):
        lwa, mimo, _ = paired_rates(FAST, 0, 1e-12)
        assert lwa < 1e-6 and mimo < 1e-6

    def test_csv_format(self, tmp_path):
        sweep = run_snr_sweep(replace(FAST, trials=2), [0.0, 10.0])
        write_csv(tmp_path / "sweep.csv", ",".join(SweepPoint._fields), sweep.points)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "snr_db,mean_lwa,std_lwa,mean_mimo,std_mimo,trials"
        assert len(lines) == 3
        assert lines[1].endswith(",2")

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            run_snr_sweep(FAST, [])

    def test_pairing_uses_identical_users(self):
        # both pipelines inside a trial consume the same draw, so the trial
        # draw must be reproducible irrespective of prior calls
        users_before = sample_users(FAST, 1)
        paired_rates(FAST, 0, 5.0)
        users_after = sample_users(FAST, 1)
        np.testing.assert_array_equal(users_before.angles_rad, users_after.angles_rad)


class TestOptimizeScenario:
    def test_respects_bounds(self):
        users = sample_users(FAST, 0)
        result = optimize_scenario(FAST, users)
        assert FAST.b_min_m <= result.chosen_b <= FAST.b_max_m
        assert FAST.slit_min_m <= result.chosen_L <= FAST.slit_max_m
        assert result.powers.powers.sum() == pytest.approx(FAST.power_budget, rel=1e-9)

    def test_budget_with_a_subnormal_share_is_rejected(self):
        # only ScenarioConfig.power_budget was checked; a budget passed here
        # reached PowerAllocation, whose rounded shares summed past it
        config = ScenarioConfig()
        with pytest.raises(ValueError, match="subnormal share"):
            optimize_scenario(config, sample_users(config, 0), 1e-320)

    @pytest.mark.parametrize("num_users", [4, 9, 32])
    def test_sum_rate_equals_the_chosen_channels_rate(self, num_users):
        # the optimizer takes ||h_n||^2 from the gains array, the reference
        # from the per-point channel; both add the users in the same order
        for seed in range(5):
            cfg = replace(FAST, num_users=num_users, b_grid_points=5, slit_grid_points=5, seed=seed)
            users = sample_users(cfg, 0)
            result = optimize_scenario(cfg, users)
            point = build_channel(
                LwaConfig(result.chosen_b, result.chosen_L),
                cfg.frequency_grid(),
                users,
                InverseRangeLoss(),
            )
            want = average_sum_rate(point, result.powers.powers, cfg.noise())
            assert result.sum_rate == want, seed
