"""Traced run: spans around the package's public functions.

The tracer rebinds each function in the modules that call it, for the
duration of one traced op, and restores the originals afterwards; nothing
under src/ changes. A span records its name, start, end, parent and op
index; spans stay in memory and are written out when the run ends. Self
time is a span's duration minus the time its child spans cover, minus the
time the tracer spent in its own counters below it.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from array import array
from collections import Counter
from pathlib import Path

from lwacomm import channel, cli, experiments, mimo, optimizer

OP_SPAN = "op"

# span name -> (module, attribute) pairs that call sites resolve at call time
BINDINGS = {
    "physics.gain_grid": [(channel, "diffraction_gain_grid")],
    "channel.build": [(optimizer, "build_channel"), (experiments, "build_channel")],
    "channel.rate": [(optimizer, "average_sum_rate")],
    "channel.beampattern": [(experiments, "beampattern")],
    "channel.export": [(experiments, "export_beampattern_csv")],
    "optimizer.alternate": [(experiments, "alternate_optimize")],
    "optimizer.geometry_step": [(optimizer, "grid_search_geometry")],
    "optimizer.waterfill": [(optimizer, "waterfill"), (mimo, "waterfill")],
    "mimo.build": [(experiments, "build_mimo_channel")],
    "mimo.normalize": [(experiments, "normalize_to_lwa")],
    "mimo.rate": [(experiments, "mimo_sum_rate")],
    "experiments.sample_users": [(cli, "sample_users"), (experiments, "sample_users")],
    "experiments.optimize_scenario": [(cli, "optimize_scenario"), (experiments, "optimize_scenario")],
    "experiments.paired_rates": [(cli, "paired_rates"), (experiments, "paired_rates")],
    "experiments.sweep": [(cli, "run_snr_sweep"), (experiments, "run_snr_sweep")],
    "experiments.beampattern_experiment": [
        (cli, "run_beampattern_experiment"),
        (experiments, "run_beampattern_experiment"),
    ],
    "cli.main": [(cli, "main")],
}

# (metric, unit, better); every count and time is a mean per traced op
PER_LAYER = [
    ("physics.gain_grid.calls", "calls/op", "lower"),
    ("physics.gain_grid.self_s", "s/op", "lower"),
    ("physics.gain_grid.entries", "entries/op", "lower"),
    ("channel.build.calls", "calls/op", "lower"),
    ("channel.build.self_s", "s/op", "lower"),
    ("channel.build.useful_ratio", "ratio", "higher"),
    ("channel.rate.calls", "calls/op", "lower"),
    ("channel.rate.self_s", "s/op", "lower"),
    ("channel.beampattern.self_s", "s/op", "lower"),
    ("channel.export.self_s", "s/op", "lower"),
    ("channel.export.bytes", "bytes/op", "lower"),
    ("channel.warnings", "warnings/op", "lower"),
    ("optimizer.alternate.calls", "calls/op", "lower"),
    ("optimizer.alternate.self_s", "s/op", "lower"),
    ("optimizer.geometry_step.calls", "calls/op", "lower"),
    ("optimizer.geometry_step.self_s", "s/op", "lower"),
    ("optimizer.grid_points", "points/op", "lower"),
    ("optimizer.iterations", "iter/call", "lower"),
    ("optimizer.capped_ratio", "ratio", "lower"),
    ("optimizer.step_useful_ratio", "ratio", "higher"),
    ("optimizer.waterfill.calls", "calls/op", "lower"),
    ("optimizer.waterfill.self_s", "s/op", "lower"),
    ("optimizer.waterfill.entries", "entries/op", "lower"),
    ("mimo.build.calls", "calls/op", "lower"),
    ("mimo.build.self_s", "s/op", "lower"),
    ("mimo.build.entries", "entries/op", "lower"),
    ("mimo.normalize.self_s", "s/op", "lower"),
    ("mimo.rate.calls", "calls/op", "lower"),
    ("mimo.rate.self_s", "s/op", "lower"),
    ("experiments.sample_users.self_s", "s/op", "lower"),
    ("experiments.optimize_scenario.self_s", "s/op", "lower"),
    ("experiments.paired_rates.self_s", "s/op", "lower"),
    ("experiments.sweep.self_s", "s/op", "lower"),
    ("experiments.beampattern_experiment.self_s", "s/op", "lower"),
    ("experiments.draw_reuse", "calls/draw", "lower"),
    ("cli.main.calls", "calls/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("cli.nonzero_exits", "exits/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _draw_key(users) -> tuple:
    return (users.angles_rad.tobytes(), users.ranges_m.tobytes())


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hook_s = array("d")  # tracer counter time spent directly below each span
        self._stack = []
        self._op_index = -1
        self._saved = []
        self.counts = Counter()
        self._builds = set()
        self._draws = set()
        self._observers = {
            "physics.gain_grid": self._on_gain_grid,
            "channel.build": self._on_build,
            "channel.export": self._on_export,
            "optimizer.alternate": self._on_alternate,
            "optimizer.geometry_step": self._on_geometry_step,
            "optimizer.waterfill": self._on_waterfill,
            "mimo.build": self._on_mimo_build,
            "experiments.optimize_scenario": self._on_optimize_scenario,
            "cli.main": self._on_cli_main,
        }
        self.missing = [
            f"{module.__name__}.{attr}"
            for bindings in BINDINGS.values()
            for module, attr in bindings
            if not hasattr(module, attr)
        ]

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_index)
        self.hook_s.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                t0 = time.perf_counter()
                observe(args, kwargs, result)
                if self._stack:
                    self.hook_s[self._stack[-1]] += time.perf_counter() - t0
            return result

        return traced

    def begin_op(self) -> None:
        """Install the wrappers, start recording warnings, open the op's root span."""
        self._op_index += 1
        self._builds.clear()
        self._warnings = warnings.catch_warnings(record=True)
        self._caught = self._warnings.__enter__()
        warnings.simplefilter("always")
        for name, bindings in BINDINGS.items():
            for module, attr in bindings:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
        self._root = self._open(OP_SPAN)

    def end_op(self) -> None:
        """Close the root span and restore the original functions."""
        self._close(self._root)
        self.counts["channel.build.distinct"] += len(self._builds)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._warnings.__exit__(None, None, None)
        self.counts["channel.warnings"] += sum(
            1 for w in self._caught if Path(w.filename).parts[-2:] == ("lwacomm", "channel.py")
        )

    # -- counters ------------------------------------------------------------

    def _on_gain_grid(self, args, kwargs, gains):
        self.counts["physics.gain_grid.entries"] += gains.size

    def _on_build(self, args, kwargs, channel_matrix):
        config, grid, users = args[:3]
        self._builds.add(
            (config.plate_separation_b, config.slit_length_L, grid.frequencies.tobytes())
            + _draw_key(users)
        )

    def _on_export(self, args, kwargs, _):
        self.counts["channel.export.bytes"] += os.path.getsize(args[0])

    def _on_alternate(self, args, kwargs, result):
        i_max = kwargs.get("i_max", args[4] if len(args) > 4 else 10)  # 10: the default
        trace = [(r.b_m, r.L_m, r.rate_bits) for r in result.trace]
        self.counts["optimizer.iterations"] += len(trace)
        self.counts["optimizer.capped"] += len(trace) >= i_max
        self.counts["optimizer.useful_steps"] += 1 + sum(
            prev != cur for prev, cur in zip(trace, trace[1:])
        )

    def _on_geometry_step(self, args, kwargs, _):
        grids = args[0]
        self.counts["optimizer.grid_points"] += grids.b_grid.size * grids.L_grid.size

    def _on_waterfill(self, args, kwargs, _):
        self.counts["optimizer.waterfill.entries"] += len(args[0])

    def _on_mimo_build(self, args, kwargs, tensor):
        self.counts["mimo.build.entries"] += tensor.entries.size

    def _on_optimize_scenario(self, args, kwargs, _):
        self._draws.add((self._op_index,) + _draw_key(args[1]))

    def _on_cli_main(self, args, kwargs, exit_code):
        self.counts["cli.nonzero_exits"] += exit_code != 0

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple:
        """Per span name: (calls, total self seconds); plus total root op seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = list(self.hook_s)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - covered[i]
        op_total = math.fsum(dur[i] for i in range(n) if self.parent[i] < 0)
        return calls, self_s, op_total

    def metrics(self, ops: int, overhead_ratio: float, calls, self_s) -> dict:
        """Per-layer metrics, as means per traced op, from self_times()' calls and self_s."""
        c = self.counts
        alt_calls = calls["optimizer.alternate"]

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "physics.gain_grid.entries": c["physics.gain_grid.entries"] / ops,
            "channel.build.useful_ratio": ratio(c["channel.build.distinct"], calls["channel.build"]),
            "channel.export.bytes": c["channel.export.bytes"] / ops,
            "channel.warnings": c["channel.warnings"] / ops,
            "optimizer.grid_points": c["optimizer.grid_points"] / ops,
            "optimizer.iterations": ratio(c["optimizer.iterations"], alt_calls),
            "optimizer.capped_ratio": ratio(c["optimizer.capped"], alt_calls),
            "optimizer.step_useful_ratio": ratio(c["optimizer.useful_steps"], c["optimizer.iterations"]),
            "optimizer.waterfill.entries": c["optimizer.waterfill.entries"] / ops,
            "mimo.build.entries": c["mimo.build.entries"] / ops,
            "experiments.draw_reuse": ratio(calls["experiments.optimize_scenario"], len(self._draws)),
            "cli.nonzero_exits": c["cli.nonzero_exits"] / ops,
            "trace.overhead_ratio": overhead_ratio,
        }
        for metric, _, _ in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[span] / ops
            elif kind == "self_s":
                values[metric] = self_s[span] / ops
        return values

    def write(self, path, env: dict) -> None:
        spans = {
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with open(path, "w") as fh:
            json.dump({"env": env, "names": self.names, "spans": spans}, fh)
