"""Subspace-tracking channel estimation for clustered mmWave MIMO links."""

from .channel import (
    ArrayConfig,
    ChannelParams,
    ChannelRealization,
    RayParams,
    assemble_channel,
    dominant_svd,
    sample_channel,
    steering_vector,
)
from .evaluation import MetricConfig, dpsk_ser_trial, normalized_correlation, spectral_efficiency
from .harness import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    config_digest,
    emit_csv,
    load_config,
    resolved_text,
    run_experiment,
)
from .protocol import (
    EstimatedBeamformers,
    HybridFrontEnd,
    ProtocolConfig,
    TrackerSpec,
    build_rf_grid,
    make_front_end,
    run_phase_a,
    run_phase_b,
    run_protocol,
)
from .tracking import OojaTracker, PastdTracker, extract_basis, init_from_samples, tracker_run

__all__ = [
    "ArrayConfig",
    "ChannelParams",
    "ChannelRealization",
    "ConfigError",
    "EstimatedBeamformers",
    "ExperimentConfig",
    "HybridFrontEnd",
    "MetricConfig",
    "OojaTracker",
    "PastdTracker",
    "ProtocolConfig",
    "RayParams",
    "TrackerSpec",
    "TrialRecord",
    "assemble_channel",
    "build_rf_grid",
    "config_digest",
    "dominant_svd",
    "dpsk_ser_trial",
    "emit_csv",
    "extract_basis",
    "init_from_samples",
    "load_config",
    "make_front_end",
    "normalized_correlation",
    "resolved_text",
    "run_experiment",
    "run_phase_a",
    "run_phase_b",
    "run_protocol",
    "sample_channel",
    "spectral_efficiency",
    "steering_vector",
    "tracker_run",
]

__version__ = "0.1.0"
