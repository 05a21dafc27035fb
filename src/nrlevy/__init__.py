"""Simulation and verification toolkit for step-reinforced random walks and
noise-reinforced Levy processes on the unit time interval."""

from .errors import (
    ConfigError,
    DomainError,
    InadmissibleError,
    NrlevyError,
    NumericalError,
    UnsupportedFamilyError,
)
from .rng import RngStream
from .yule_simon import (
    MemoryParameter,
    ys_cross_moment,
    ys_mean,
    ys_pmf,
    ys_sample,
)
from .levy_model import (
    FiniteAtomic,
    IsotropicStable,
    LevyTriplet,
    RadialDensity,
    ZeroJumps,
    bg_index,
    characteristic_exponent,
    increment_sample,
    is_admissible,
    thin,
)
from .step_reinforced import (
    ReinforcedWalk,
    ReinforcementRecord,
    elephant_walk,
    reinforce,
    skeleton_reinforced_walk,
)
from .noise_reinforced import (
    CfQuery,
    NrlpConfig,
    check_additivity,
    check_stability,
    reinforced_cf,
    reinforced_cf_exact,
    truncation_budget,
)
from .diagnostics import (
    ConvergenceReport,
    EcfEstimate,
    PathFunctional,
    empirical_cf,
    ks_distance,
    prop8_experiment,
    supercritical_experiment,
    theorem1_experiment,
)

__all__ = [
    "CfQuery",
    "ConfigError",
    "ConvergenceReport",
    "DomainError",
    "EcfEstimate",
    "FiniteAtomic",
    "InadmissibleError",
    "IsotropicStable",
    "LevyTriplet",
    "MemoryParameter",
    "NrlevyError",
    "NrlpConfig",
    "NumericalError",
    "PathFunctional",
    "RadialDensity",
    "ReinforcedWalk",
    "ReinforcementRecord",
    "RngStream",
    "UnsupportedFamilyError",
    "ZeroJumps",
    "bg_index",
    "characteristic_exponent",
    "check_additivity",
    "check_stability",
    "elephant_walk",
    "empirical_cf",
    "increment_sample",
    "is_admissible",
    "ks_distance",
    "prop8_experiment",
    "reinforce",
    "reinforced_cf",
    "reinforced_cf_exact",
    "skeleton_reinforced_walk",
    "supercritical_experiment",
    "theorem1_experiment",
    "thin",
    "truncation_budget",
    "ys_cross_moment",
    "ys_mean",
    "ys_pmf",
    "ys_sample",
]

__version__ = "0.1.0"
