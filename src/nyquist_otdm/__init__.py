"""Electrically sampled Nyquist-pulse optical time-division multiplexing.

Builds aggregate signals from periodic sinc-pulse sequences, generates the
matching flat 3-, 5- and 7-line frequency combs with a dual-drive Mach-Zehnder
modulator, and demultiplexes every branch back out by modulation plus narrow
lowpass detection.  Includes a fiber/noise link model, QPSK and 16QAM mapping
with EVM/Q/BER metrics, and a JSON-driven scenario runner.
"""

from .core import (
    ChannelPlan,
    Signal,
    TimeGrid,
    delay_signal,
    spectrum,
)
from .demux import demultiplex
from .link import (
    SPEED_OF_LIGHT,
    FiberSpec,
    NoiseSpec,
    add_noise,
    compensate_dispersion,
    dispersion_phase,
    phase_noise,
    propagate,
)
from .modem import (
    HD_FEC_BER_LIMIT,
    BerCount,
    Constellation,
    EvmResult,
    MetricsReport,
    QFactorResult,
    ber_count,
    ber_estimate,
    ber_estimate_log10,
    below_hdfec_limit,
    evm,
    format_metrics_table,
    q_factor,
    qam_demap,
    qam_map,
)
from .mzm import (
    CombReport,
    DrivePlan,
    DriveTone,
    FlatCombCalibration,
    MzmParams,
    arm_amplitude,
    calibrate_flat_comb,
    comb_report,
    eo_response,
    format_comb_table,
    modulate,
    push_pull_plan,
)
from .nyquist import (
    multiplex_branch_signals,
    nyquist_interpolate,
    otdm_multiplex,
    raised_cosine_shape,
    sample_symbols,
)
from .scenario import (
    ConfigError,
    ReportBundle,
    Scenario,
    load_config,
    parse_scenario,
    run_scenario,
    sweep,
    write_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "TimeGrid", "Signal", "ChannelPlan", "spectrum",
    "delay_signal",
    # nyquist
    "nyquist_interpolate", "raised_cosine_shape",
    "sample_symbols", "multiplex_branch_signals", "otdm_multiplex",
    # mzm
    "MzmParams", "DriveTone", "DrivePlan", "CombReport",
    "FlatCombCalibration", "arm_amplitude", "eo_response", "modulate",
    "push_pull_plan", "comb_report", "calibrate_flat_comb",
    "format_comb_table",
    # demux
    "demultiplex",
    # link
    "SPEED_OF_LIGHT", "FiberSpec", "NoiseSpec", "propagate",
    "compensate_dispersion", "dispersion_phase", "add_noise",
    "phase_noise",
    # modem
    "Constellation", "qam_map", "qam_demap", "evm",
    "EvmResult", "q_factor", "QFactorResult", "ber_estimate",
    "ber_estimate_log10", "ber_count", "BerCount", "below_hdfec_limit",
    "HD_FEC_BER_LIMIT", "MetricsReport", "format_metrics_table",
    # scenario
    "Scenario", "ConfigError", "load_config", "parse_scenario",
    "run_scenario", "sweep", "ReportBundle", "write_bundle",
]
