"""Cross-validation of the stable mark-mixture sampler.

The mixture route must agree with three independent references: the exact
stable marginals (Cauchy case), Monte Carlo moments of the mark law, and the
epsilon-truncated Poisson series sampler.
"""

import math

import numpy as np
import pytest
from scipy.stats import cauchy as cauchy_dist
from scipy.stats import ks_2samp

from nrlevy.diagnostics import ks_distance
from nrlevy.errors import UnsupportedFamilyError
from nrlevy.levy_model import LevyTriplet, symmetric_stable_std
from nrlevy.noise_reinforced import NrlpConfig, nrlp_marginals, reinforced_cf_exact, CfQuery
from nrlevy.rng import RngStream
from nrlevy.spectral import (
    DIR_BINS, EXACT_MAX, build_stable_mixture, stable_mixture_for, stable_nrlp_marginals,
)
from nrlevy.yule_simon import MemoryParameter, ys_joint_values


@pytest.fixture(scope="module")
def cauchy_cfg():
    return NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.5), 1e-4, np.array([0.5, 1.0]))


@pytest.fixture(scope="module")
def cauchy_mixture(cauchy_cfg):
    return stable_mixture_for(cauchy_cfg)


class TestMixtureTable:
    def test_single_time_collapses_to_one_bin(self):
        mix = build_stable_mixture(1.0, 0.5, 2.0, [1.0])
        assert mix.weights.size == 1
        # gamma = scale_nu * E[Y(1)^alpha] = 0.5 * rho/(rho-1) = 1 for alpha=1
        assert mix.weights[0] == pytest.approx(1.0, rel=1e-6)

    def test_exponent_matches_mark_moments(self, cauchy_mixture):
        # Independent route: Monte Carlo E|theta . (Y(t1), Y(t2))| over the
        # bridge sampler, times the thinned scale.
        gen = RngStream(501).generator()
        marks = ys_joint_values(2.0, np.array([0.5, 1.0]), gen, 1_000_000)
        for theta in ([1.0, 1.0], [2.0, -1.0], [-0.7, 1.3], [0.0, 1.0]):
            w = marks @ np.asarray(theta)
            mc = 0.5 * np.abs(w).mean()
            se = 0.5 * np.abs(w).std() / math.sqrt(w.size)
            assert cauchy_mixture.exponent(np.asarray(theta))[0] == pytest.approx(
                mc, abs=4 * se + 1e-4
            )

    def test_rejects_long_grids(self):
        with pytest.raises(UnsupportedFamilyError):
            build_stable_mixture(1.5, 0.5, 2.0, [0.3, 0.6, 1.0])

    def test_weights_positive(self, cauchy_mixture):
        assert np.all(cauchy_mixture.weights > 0)
        norms = np.linalg.norm(cauchy_mixture.directions, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)


# Exponent of the table before collinear singleton cells were merged (817
# bins), at 1.3 * (cos a, sin a) for a = i * pi / 24, i = 0..23, with the tail
# bin's weight from the Hurwitz-zeta moment (it moved by -7.9e-8 relative).
UNMERGED_EXPONENT = [
    1.80733876410019, 2.3299470702892098, 2.8492838756399252, 3.334277875312513,
    3.760818301170771, 4.1089761549520105, 4.362997710238922, 4.511586494666726,
    4.5481766596787825, 4.471106574334826, 4.283656995825209, 3.993943193613559,
    3.6146677954587005, 3.16275860121356, 2.6589399440074675, 2.1273322500298786,
    1.5952919226594173, 1.094127404657849, 0.6648283276660333, 0.39316166250728163,
    0.3763825142143148, 0.580325859177701, 0.91590961588388, 1.335288096981098,
]


@pytest.mark.bytes
class TestMixtureBins:
    """One bin per direction among the exact cells, unit directions, and the
    same exponent as the table that kept every exact cell apart."""

    @pytest.fixture(scope="class")
    def mix(self):
        return build_stable_mixture(1.5, 0.5, 2.0, [0.5, 1.0])

    def test_bin_count(self, mix):
        # Reduced pairs (j, k) with 0 <= j <= k <= EXACT_MAX, k >= 1.
        singletons = {(j // math.gcd(j, k), k // math.gcd(j, k))
                      for k in range(1, EXACT_MAX + 1) for j in range(k + 1)}
        assert len(singletons) == 325
        assert mix.weights.size == 582 == len(singletons) + DIR_BINS + 1
        assert mix.directions.shape == (582, 2)
        assert np.all(mix.weights > 0)

    def test_unit_directions(self, mix):
        norms = np.linalg.norm(mix.directions, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-14)

    def test_singleton_directions_not_collinear(self, mix):
        # The singleton bins come first.  Two unit vectors along distinct
        # reduced pairs with entries <= 32 have |cross product| >= 1/(2 * 32^2).
        u = mix.directions[:325]
        cross = np.abs(np.outer(u[:, 0], u[:, 1]) - np.outer(u[:, 1], u[:, 0]))
        np.fill_diagonal(cross, 1.0)
        assert cross.min() > 1e-4

    def test_exponent_matches_unmerged_table(self, mix):
        a = np.arange(24) * math.pi / 24
        thetas = 1.3 * np.stack([np.cos(a), np.sin(a)], axis=1)
        np.testing.assert_allclose(mix.exponent(thetas), UNMERGED_EXPONENT, rtol=1e-12, atol=0)


class TestMixtureSampling:
    @pytest.mark.bytes
    def test_sample_is_the_per_bin_sum(self):
        # sum_b gamma_b^(1/alpha) d_b S_b, bin by bin, from the same draws.
        mix = build_stable_mixture(1.5, 0.5, 2.0, [0.5, 1.0])
        got = mix.sample(np.random.default_rng(45), 300)
        draws = symmetric_stable_std(1.5, np.random.default_rng(45), (300, mix.weights.size))
        want, bound = np.zeros((300, 2)), np.zeros((300, 2))
        for b in range(mix.weights.size):
            term = mix.weights[b] ** (1 / 1.5) * mix.directions[b] * draws[:, b, None]
            want += term
            bound += np.abs(term)
        assert np.all(np.abs(got - want) <= 1e-12 * bound)

    def test_cauchy_marginals(self, cauchy_cfg, cauchy_mixture):
        vals = stable_nrlp_marginals(cauchy_cfg, RngStream(502), 60_000, mixture=cauchy_mixture)
        assert ks_distance(vals[:, 0, 0], cauchy_dist(scale=0.5).cdf) < 0.012
        assert ks_distance(vals[:, 1, 0], cauchy_dist(scale=1.0).cdf) < 0.012

    def test_joint_ecf_matches_exponent(self, cauchy_cfg, cauchy_mixture):
        vals = stable_nrlp_marginals(cauchy_cfg, RngStream(503), 60_000, mixture=cauchy_mixture)
        for theta in ([1.0, 1.0], [2.0, -1.0]):
            ecf = np.exp(1j * vals[:, :, 0] @ np.asarray(theta)).mean()
            target = math.exp(-cauchy_mixture.exponent(np.asarray(theta))[0])
            assert abs(ecf - target) < 5 / math.sqrt(60_000)

    def test_matches_series_sampler(self, cauchy_cfg):
        # Def-2 route at a cutoff where its truncation bias is negligible.
        mix_vals = stable_nrlp_marginals(cauchy_cfg, RngStream(504), 30_000)
        series_vals = nrlp_marginals(cauchy_cfg, RngStream(505), 30_000)
        for g in (0, 1):
            stat = ks_2samp(mix_vals[:, g, 0], series_vals[:, g, 0]).statistic
            assert stat < 0.015

    def test_alpha_15_against_exact_cf(self):
        cfg = NrlpConfig(LevyTriplet.stable(1.5), MemoryParameter(0.5), 1e-4,
                         np.array([0.5, 1.0]))
        vals = stable_nrlp_marginals(cfg, RngStream(506), 60_000)
        for t_idx, t in ((0, 0.5), (1, 1.0)):
            for th in (0.5, 1.0):
                ecf = np.exp(1j * th * vals[:, t_idx, 0]).mean()
                target = reinforced_cf_exact(
                    cfg.triplet, cfg.p, CfQuery(np.array([th]), np.array([t]))
                )
                assert abs(ecf - target) < 5 / math.sqrt(60_000)

    def test_alpha_15_series_cross_check(self):
        # The series sampler at a feasible cutoff agrees with the mixture
        # within its (small) truncation bias plus Monte Carlo noise.
        cfg_series = NrlpConfig(LevyTriplet.stable(1.5), MemoryParameter(0.5), 1e-3,
                                np.array([0.5, 1.0]))
        series_vals = nrlp_marginals(cfg_series, RngStream(507), 10_000)
        mix_vals = stable_nrlp_marginals(cfg_series, RngStream(508), 10_000)
        stat = ks_2samp(series_vals[:, 1, 0], mix_vals[:, 1, 0]).statistic
        assert stat < 0.03

    def test_gaussian_and_drift_parts_added(self):
        trip = LevyTriplet(1, np.array([[1.0]]), [2.0], LevyTriplet.stable(0.8).jump_measure)
        cfg = NrlpConfig(trip, MemoryParameter(0.25), 1e-3, np.array([1.0]))
        vals = stable_nrlp_marginals(cfg, RngStream(509), 50_000)
        q = CfQuery(np.array([0.7]), np.array([1.0]))
        target = reinforced_cf_exact(trip, cfg.p, q)
        ecf = np.exp(1j * 0.7 * vals[:, 0, 0]).mean()
        assert abs(ecf - target) < 5 / math.sqrt(50_000)
