"""Downlink multicell MU-MIMO cooperative transmission under limited feedback.

Simulation and analysis of zero-forcing joint transmission from cooperating
base stations when each mobile feeds back quantized channel directions:
per-cell and global codebook quantization, closed-form rate-loss bounds, and
reproducible Monte Carlo throughput experiments.
"""

from .channel import (
    ChannelRealization,
    Geometry,
    LargeScaleMap,
    assemble_global,
    build_large_scale,
    realize_channels,
    receive_snr_db,
    sample_small_scale,
    single_cell,
    two_cell_line,
)
from .errors import (
    CompsimError,
    ConfigurationError,
    DomainError,
    EstimationError,
    ScenarioError,
    TrainingError,
)
from .precoding import instantaneous_rate, sinr, zf_precoder
from .quantization import (
    Codebook,
    FeedbackConfig,
    FeedbackReport,
    global_feedback,
    per_cell_feedback,
    quantize_many,
    random_codebook,
    train_lloyd,
)
from .scheduling import PairingPolicy, quantized_correlation, select_pairing
from .bounds import (
    RateLossParams,
    rate_loss_bound_general,
    rate_loss_montecarlo,
    verify_appendix,
)
from .montecarlo import RunResult, run, run_cdf
from .scenario import Scenario, parse, preset, serialize

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "Codebook",
    "CompsimError",
    "ConfigurationError",
    "DomainError",
    "EstimationError",
    "FeedbackConfig",
    "FeedbackReport",
    "Geometry",
    "LargeScaleMap",
    "PairingPolicy",
    "RateLossParams",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "TrainingError",
    "assemble_global",
    "build_large_scale",
    "global_feedback",
    "instantaneous_rate",
    "parse",
    "per_cell_feedback",
    "preset",
    "quantize_many",
    "quantized_correlation",
    "random_codebook",
    "rate_loss_bound_general",
    "rate_loss_montecarlo",
    "realize_channels",
    "receive_snr_db",
    "run",
    "run_cdf",
    "sample_small_scale",
    "select_pairing",
    "serialize",
    "single_cell",
    "sinr",
    "train_lloyd",
    "two_cell_line",
    "verify_appendix",
    "zf_precoder",
]
