"""Command-line experiment runner.

Subcommands: optimize, beampattern, sweep-snr, compare-mimo. Exit codes:
0 success, 2 config validation failure, 3 numerical failure. A numpy
overflow, division by zero or invalid operation during a command is a
numerical failure, not a warning.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .experiments import (
    ConfigError,
    ScenarioConfig,
    load_config,
    optimize_scenario,
    paired_rates,
    run_beampattern_experiment,
    run_snr_sweep,
    sample_users,
)
from .mimo import ZeroChannel
from .optimizer import AllGainsZero

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_SNR_LADDER_DB = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario config file (key=value lines)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout summary")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lwacomm", description="LWA-aided THz downlink simulator and optimizer"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("optimize", "optimize one scenario and write the allocation report"),
        ("beampattern", "optimize one scenario and export the energy map CSV"),
        ("sweep-snr", "sum-rate vs SNR sweep, LWA against the MIMO baseline"),
        ("compare-mimo", "single-trial paired LWA/MIMO rate report"),
    ]:
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        if name == "sweep-snr":
            p.add_argument(
                "--snr-db",
                type=float,
                nargs="+",
                default=DEFAULT_SNR_LADDER_DB,
                help="SNR points in dB",
            )
    return parser


def _load_scenario(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    return replace(config, **overrides) if overrides else config


def _cmd_optimize(args, config: ScenarioConfig) -> None:
    users = sample_users(config, 0)
    result = optimize_scenario(config, users)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "allocation.txt"), "w") as fh:
        fh.write(result.report_text())
    with open(os.path.join(args.out, "trace.csv"), "w", newline="") as fh:
        fh.write(result.trace_csv())
    if not args.quiet:
        print(
            f"optimized b={result.chosen_b * 1e3:.4f} mm "
            f"L={result.chosen_L * 1e3:.4f} mm "
            f"rate={result.sum_rate:.6f} bits"
        )


def _cmd_beampattern(args, config: ScenarioConfig) -> None:
    result = run_beampattern_experiment(config, args.out)
    if not args.quiet:
        print(
            f"beampattern written to {args.out} "
            f"(rate={result.sum_rate:.6f} bits)"
        )


def _cmd_sweep(args, config: ScenarioConfig) -> None:
    sweep = run_snr_sweep(config, args.snr_db)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write(sweep.to_csv())
    if not args.quiet:
        for p in sweep.points:
            print(
                f"snr={p.snr_db:+.1f} dB  lwa={p.mean_lwa:.4f}  "
                f"mimo={p.mean_mimo:.4f} bits ({p.trials} trials)"
            )


def _cmd_compare(args, config: ScenarioConfig) -> None:
    lwa_rate, mimo_rate, result = paired_rates(config, 0, config.power_budget)
    os.makedirs(args.out, exist_ok=True)
    report = (
        f"lwa_rate_bits: {lwa_rate:.9g}\n"
        f"mimo_rate_bits: {mimo_rate:.9g}\n"
        f"chosen_b_m: {result.chosen_b:.9g}\n"
        f"chosen_L_m: {result.chosen_L:.9g}\n"
    )
    with open(os.path.join(args.out, "compare.txt"), "w") as fh:
        fh.write(report)
    if not args.quiet:
        print(report, end="")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_scenario(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {
        "optimize": _cmd_optimize,
        "beampattern": _cmd_beampattern,
        "sweep-snr": _cmd_sweep,
        "compare-mimo": _cmd_compare,
    }[args.command]
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            handler(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AllGainsZero, ZeroChannel, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
