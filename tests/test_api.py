"""The package's public surface: every exported name, and nothing more."""

import nrlevy

PUBLIC = [
    "CfQuery", "ConfigError", "ConvergenceReport", "DomainError", "EcfEstimate",
    "FiniteAtomic", "InadmissibleError", "IsotropicStable", "LevyTriplet",
    "MemoryParameter", "NrlevyError", "NrlpConfig", "NumericalError", "PathFunctional",
    "RadialDensity", "ReinforcedWalk", "ReinforcementRecord", "RngStream",
    "UnsupportedFamilyError", "ZeroJumps", "bg_index", "characteristic_exponent",
    "check_additivity", "check_stability", "elephant_walk", "empirical_cf",
    "increment_sample", "is_admissible", "ks_distance", "prop8_experiment", "reinforce",
    "reinforced_cf", "reinforced_cf_exact", "skeleton_reinforced_walk",
    "supercritical_experiment", "theorem1_experiment", "thin", "truncation_budget",
    "ys_cross_moment", "ys_mean", "ys_pmf", "ys_sample",
]


def test_public_surface():
    assert len(PUBLIC) == 42
    assert sorted(nrlevy.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(nrlevy, name) is not None
