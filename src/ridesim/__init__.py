"""Data-driven ride-hailing marketplace simulator.

Demand, trip geometry and driver decisions are all learned from a trip log:
empirical distributions reproduce where and when rides are requested, and a
distributional Q-network first imitates the logged accept/reject behavior,
then refines it against the simulated marketplace economics.
"""

__version__ = "0.1.0"

from .agent import CategoricalQAgent, FeatureScales, ReplayBuffer
from .distributions import (EmpiricalDistribution, TimeProfile, fit_empirical,
                            fit_time_profile, inverse_sample,
                            probabilistic_round)
from .ingest import TripRecord, clean, extract_demonstrations, read_trip_log
from .metrics import (acceptance_by_distance, acceptance_by_hour,
                      bootstrap_mean_diff, daily_counts, delta_percent,
                      pearson)
from .ridegen import GridSpec, Ride, generate_rides
from .sim import (Action, Fleet, PlatformParams, SimConfig, Trajectory,
                  Transition, run_episode)
from .synth import SyntheticLogSpec, generate_synthetic_log
from .training import BcConfig, RlConfig, train_bc, train_rl

__all__ = [
    "__version__",
    "Action", "BcConfig", "CategoricalQAgent", "Fleet",
    "EmpiricalDistribution", "FeatureScales", "GridSpec", "PlatformParams",
    "ReplayBuffer", "Ride", "RlConfig", "SimConfig", "SyntheticLogSpec",
    "TimeProfile", "Trajectory", "Transition",
    "TripRecord", "acceptance_by_distance", "acceptance_by_hour",
    "bootstrap_mean_diff", "clean", "daily_counts", "delta_percent",
    "extract_demonstrations", "fit_empirical", "fit_time_profile",
    "generate_rides", "generate_synthetic_log", "inverse_sample", "pearson",
    "probabilistic_round", "read_trip_log", "run_episode", "train_bc",
    "train_rl",
]
