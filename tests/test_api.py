"""The package's public surface: every exported name, and nothing more."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrlevy

pytestmark = pytest.mark.bytes

PUBLIC = [
    "CfQuery", "ConfigError", "ConvergenceReport", "DomainError", "EcfEstimate",
    "FiniteAtomic", "InadmissibleError", "IsotropicStable", "LevyTriplet",
    "MemoryParameter", "NrlevyError", "NrlpConfig", "NumericalError", "PathFunctional",
    "RadialDensity", "ReinforcedWalk", "RngStream",
    "UnsupportedFamilyError", "ZeroJumps", "bg_index", "characteristic_exponent",
    "check_additivity", "check_stability", "elephant_walk", "empirical_cf",
    "increment_sample", "is_admissible", "ks_distance", "prop8_experiment", "reinforce",
    "reinforced_cf", "reinforced_cf_exact", "skeleton_reinforced_walk",
    "supercritical_experiment", "theorem1_experiment", "thin", "truncation_budget",
    "ys_cross_moment", "ys_mean", "ys_pmf", "ys_sample",
]


def test_public_surface():
    assert len(PUBLIC) == 41
    assert sorted(nrlevy.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(nrlevy, name) is not None


def test_cli_import_leaves_out_scipy_integrate():
    # Only RadialDensity integrates, and scipy.integrate loads scipy.optimize
    # and scipy.linalg with it; a run without that family never imports them.
    src = str(Path(nrlevy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, nrlevy.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
