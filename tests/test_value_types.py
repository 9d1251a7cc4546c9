"""Every public value type builds by position and by keyword under its field
names, and gives each field back as an attribute. FrequencyGrid is built
from its band and subband count and gives back the centers it holds."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import lwacomm
from lwacomm.channel import FrequencyGrid, InverseRangeLoss, NoiseModel, UserSet
from lwacomm.experiments import ScenarioConfig, SweepPoint, SweepResult
from lwacomm.mimo import MimoSpectrum, UlaGeometry, _LineOfSight
from lwacomm.optimizer import AllocationResult, PowerAllocation, SearchGrids, TraceRecord
from lwacomm.physics import LwaConfig

# the fields of the types that are not built from their own fields
HELD = {FrequencyGrid: {"frequencies": np.array([3e11, 5e11])}}
ALLOCATION = PowerAllocation(np.array([0.25, 0.75]), 1.0)
TRACE = (TraceRecord(1, 1e-3, 0.02, 1.5), TraceRecord(2, 1e-3, 0.02, 1.5))
SWEEP_POINT = SweepPoint(0.0, 1.5, 0.25, 3.0, 0.5, 4)

# (type, its arguments in order with a valid value each: its fields, but
# for the types in HELD)
VALUE_TYPES = [
    (LwaConfig, {"plate_separation_b": 1e-3, "slit_length_L": 0.02}),
    (FrequencyGrid, {"f_low": 2e11, "f_high": 6e11, "n": 2}),
    (UserSet, {"angles_rad": np.array([0.4, 0.9]), "ranges_m": np.array([12.0, 17.0])}),
    (NoiseModel, {"variance_sigma2": 0.5}),
    (InverseRangeLoss, {}),
    (PowerAllocation, {"powers": np.array([0.25, 0.75]), "total_budget_P": 1.0}),
    (SearchGrids, {"b_grid": np.array([0.9e-3, 1e-3]), "L_grid": np.array([0.02])}),
    (TraceRecord, {"iteration": 2, "b_m": 1e-3, "L_m": 0.02, "rate_bits": 1.5}),
    (
        AllocationResult,
        {
            "chosen_b": 1e-3,
            "chosen_L": 0.02,
            "powers": ALLOCATION,
            "sum_rate": 1.5,
            "trace": TRACE,
            "stop_reason": "fixed_point",
        },
    ),
    (UlaGeometry, {"num_elements_M": 8, "reference_frequency_hz": 5e11}),
    (
        MimoSpectrum,
        {
            "eigenvalues": np.ones((2, 1)),
            "source": _LineOfSight(np.full((1, 1), 0.5), np.array([3e11, 5e11])),
        },
    ),
    (
        SweepPoint,
        {"snr_db": 0.0, "mean_lwa": 1.5, "std_lwa": 0.25, "mean_mimo": 3.0,
         "std_mimo": 0.5, "trials": 4},
    ),
    (SweepResult, {"points": (SWEEP_POINT,)}),
    (
        ScenarioConfig,
        {
            "f_low_hz": 250e9,
            "f_high_hz": 750e9,
            "num_subbands": 8,
            "num_users": 3,
            "angle_min_deg": 15.0,
            "angle_max_deg": 50.0,
            "range_min_m": 11.0,
            "range_max_m": 19.0,
            "power_budget": 5.0,
            "noise_variance": 0.5,
            "b_min_m": 0.95e-3,
            "b_max_m": 1.05e-3,
            "slit_min_m": 15e-3,
            "slit_max_m": 45e-3,
            "b_grid_points": 5,
            "slit_grid_points": 6,
            "max_iterations": 7,
            "mimo_elements": 4,
            "mimo_ref_frequency_hz": 600e9,
            "seed": 9,
            "trials": 3,
        },
    ),
]


@pytest.mark.parametrize("how", ["position", "keyword"])
@pytest.mark.parametrize("cls, values", VALUE_TYPES, ids=[cls.__name__ for cls, _ in VALUE_TYPES])
def test_builds_and_reads_back_every_field(cls, values, how):
    obj = cls(*values.values()) if how == "position" else cls(**values)
    for name, value in HELD.get(cls, values).items():
        got = getattr(obj, name)
        assert got is value or np.array_equal(got, value), name


def test_scenario_config_is_the_only_dataclass():
    # ScenarioConfig is the one type callers copy with dataclasses.replace and
    # compare by value. A frozen dataclass execs about six generated methods
    # on every import, about 0.9 ms per class (Python 3.11, Intel Xeon), so
    # the others are plain classes with __slots__ or NamedTuples.
    found = set()
    for info in pkgutil.iter_modules(lwacomm.__path__):
        module = importlib.import_module(f"lwacomm.{info.name}")
        found.update(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        )
    assert found == {ScenarioConfig}
