"""Leaky-wave antenna aided wideband THz downlink: physics, channel model,
joint geometry/power optimization, and a fully digital MIMO baseline."""

from .physics import SPEED_OF_LIGHT, LwaConfig
from .channel import (
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    average_sum_rate,
    beampattern,
    build_channel,
    rate_bits,
)
from .optimizer import (
    AllGainsZero,
    AllocationResult,
    PowerAllocation,
    SearchGrids,
    alternate_optimize,
    grid_search_geometry,
    waterfill,
)
from .mimo import (
    UlaGeometry,
    build_mimo_channel,
    mimo_sum_rate,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    SweepResult,
    run_beampattern_experiment,
    run_snr_sweep,
    sample_users,
)
