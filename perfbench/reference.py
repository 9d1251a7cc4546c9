"""A fixed reference task that gauges how fast the host runs at the moment.

The shared host's speed drifts by up to a quarter within minutes, and the
program's op times drift with it. The benchmark times this task between ops
and scales every end-to-end timing by NOMINAL_S / (its median time in the
run), so a timing reads as it would on a host where the task takes
NOMINAL_S. The task never calls lwacomm: a change to the program cannot
move it. Its parts mirror what the workloads spend time on: float
formatting into text, small real and complex numpy operations driven from
a Python loop, and a dense SVD.
"""

from __future__ import annotations

import io
import statistics
import time

import numpy as np

NOMINAL_S = 0.012  # its median on the 2-vCPU KVM host the bounds were set on
SHARE = 0.10  # reference time kept at this share of the measured op time

_rng = np.random.default_rng(20231208)
_VALUES = _rng.random(2000) * 100.0
_SMALL = _rng.random((8, 40))
_SQUARE = _rng.random((96, 96))
_PHASES = _rng.random((40, 4)) + 1j * _rng.random((40, 4))


def reference_s() -> float:
    """Wall time of one run of the reference task."""
    t0 = time.perf_counter()
    buf = io.StringIO()
    for v in _VALUES:
        buf.write(f"{v:.9g},{v * 0.5:.9g}\n")
    acc = 0.0
    for k in range(200):
        acc += float(np.sum(np.abs(_SMALL * k) ** 2))
    for k in range(150):
        gains = np.exp(1j * k * _PHASES.real) * _PHASES
        acc += float(np.log2(1.0 + np.abs(gains) ** 2).sum())
    np.linalg.svd(_SQUARE)
    return time.perf_counter() - t0


class HostSpeed:
    """Reference times gathered through a run, interleaved with its ops."""

    def __init__(self, warmup: int = 5):
        for _ in range(warmup):
            reference_s()
        self.samples: list = []
        self.spent = 0.0

    def sample(self) -> None:
        t = reference_s()
        self.samples.append(t)
        self.spent += t

    def keep_up(self, measured_s: float) -> None:
        """Sample until the reference time reaches SHARE of measured_s (at least once)."""
        self.sample()
        while self.spent < SHARE * measured_s:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured in this run into nominal-host time."""
        return NOMINAL_S / statistics.median(self.samples)
