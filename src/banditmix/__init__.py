"""Adaptive data-mixture scheduling with a bandit policy and a synthetic trainer.

The package centers on a scheduling loop that treats each source dataset as
a bandit arm: sampling probabilities come from a prior-scaled Boltzmann
distribution over smoothed look-ahead rewards, blended with a uniform floor.
A deterministic simulated training world, baseline policies, JSONL run
traces, and a CLI experiment runner round out the toolkit.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .mixture import (
    BanditConfig,
    Batch,
    MixtureDistribution,
    mixture_probs,
    prior_scaled_probs,
    sample_batch,
)
from .policies import PolicyKind
from .registry import ArmRegistry, builtin_registry, make_tulu_registry
from .rewards import Learner, ema_update, lookahead_round
from .runner import RunResult, compare_experiments, run_experiment, sweep_experiments
from .simworld import LrSchedule, SimWorld, WorldParams, build_world
from .trace import (
    RunSummary,
    TraceWriter,
    export_plot_data,
    iter_trace,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "ArmRegistry",
    "BanditConfig",
    "Batch",
    "ConfigError",
    "ExperimentConfig",
    "Learner",
    "LrSchedule",
    "MixtureDistribution",
    "PolicyKind",
    "RunResult",
    "RunSummary",
    "SimWorld",
    "TraceWriter",
    "WorldParams",
    "build_world",
    "builtin_registry",
    "compare_experiments",
    "ema_update",
    "export_plot_data",
    "iter_trace",
    "load_config",
    "lookahead_round",
    "make_tulu_registry",
    "mixture_probs",
    "prior_scaled_probs",
    "run_experiment",
    "sample_batch",
    "summarize",
    "sweep_experiments",
    "__version__",
]
