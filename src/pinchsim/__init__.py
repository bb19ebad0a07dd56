"""Fairness-oriented design of a NOMA downlink served by pinching antennas.

Movable antennas tap a lossy waveguide and serve superposition-coded users
through soft-blockage line-of-sight channels under a bounded relative
channel-estimate error.  The package models the link, evaluates worst-case
SINRs with an error-safe decoding order, and jointly optimizes antenna
positions and power fractions for the max-min SINR objective with a
projected, penalty-augmented particle swarm.
"""

from .channel import (ChannelSet, apply_csi_error, blockage_factor,
                      compute_channels, effective_channel, link_gains,
                      min_obstacle_distance, waveguide_attenuation)
from .config import (ConfigError, ExperimentSettings, PsoParams, RunConfig,
                     SystemConfig, load_run_config, run_config_from_dict)
from .experiments import (SCHEMES, ConvergenceTraces, SweepRecord,
                          aggregate_mean_db, convergence_trace, run_scheme,
                          score_candidate, sweep_epsilon, sweep_users)
from .kernels import swarm_fitness
from .noma import (DecodingOrder, RobustGains, conservative_order,
                   conservative_sinr, min_sinr, order_violations,
                   robust_gains, sic_decode_sinr, true_sinr)
from .pso import (PsoResult, draw_theta, optimize, project_positions,
                  project_simplex, split_theta)
from .scenario import Scenario, generate_scenario, uniform_layout

__version__ = "0.1.0"

__all__ = [
    "ChannelSet", "ConfigError", "ConvergenceTraces", "DecodingOrder",
    "ExperimentSettings", "PsoParams", "PsoResult", "RobustGains",
    "RunConfig", "SCHEMES", "Scenario", "SweepRecord", "SystemConfig",
    "aggregate_mean_db", "apply_csi_error", "blockage_factor",
    "compute_channels", "conservative_order", "conservative_sinr",
    "convergence_trace", "draw_theta", "effective_channel",
    "generate_scenario", "link_gains", "load_run_config",
    "min_obstacle_distance", "min_sinr", "optimize", "order_violations",
    "project_positions", "project_simplex", "robust_gains",
    "run_config_from_dict", "run_scheme", "score_candidate",
    "sic_decode_sinr", "split_theta", "swarm_fitness", "sweep_epsilon",
    "sweep_users", "true_sinr", "uniform_layout", "waveguide_attenuation",
]
