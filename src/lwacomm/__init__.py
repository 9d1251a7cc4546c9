"""Leaky-wave antenna aided wideband THz downlink: physics, channel model,
joint geometry/power optimization, and a fully digital MIMO baseline."""

from .physics import (
    SPEED_OF_LIGHT,
    CutoffViolation,
    LwaConfig,
    beam_peak_frequency,
    diffraction_gain,
    emission_angle,
)
from .channel import (
    ChannelMatrix,
    FrequencyGrid,
    InverseRangeLoss,
    NoiseModel,
    UserSet,
    average_sum_rate,
    beampattern,
    build_channel,
    subband_rate,
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
    MimoChannelTensor,
    UlaGeometry,
    ZeroChannel,
    build_mimo_channel,
    mimo_sum_rate,
    normalize_to_lwa,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    SweepResult,
    run_beampattern_experiment,
    run_snr_sweep,
    sample_users,
)
