"""The benchmark tracer's function bindings still resolve.

perfbench/tracing.py rebinds package functions by (module, attribute) name;
a binding whose attribute is gone only prints "trace: ... not found" at run
time, and its layer drops out of the traced run. This test fails instead.
The two optimizer bindings are stale: the optimizer reads one gains array
and calls neither function. So is the experiments binding of
normalize_to_lwa: the MIMO channel is held with a largest |entry| of 1 and
the LWA peak scales it inside mimo_sum_rate, so there is no normalization
step to wrap. They go when the tracer's bindings are updated.
"""

import importlib.util
from pathlib import Path

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_only_the_stale_optimizer_bindings_are_missing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == [
        "lwacomm.optimizer.build_channel",
        "lwacomm.optimizer.average_sum_rate",
        "lwacomm.experiments.normalize_to_lwa",
    ]
