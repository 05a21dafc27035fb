"""Cross-validation of the stable mark-mixture sampler.

The mixture route must agree with three independent references: the exact
stable marginals (Cauchy case), Monte Carlo moments of the mark law, and the
epsilon-truncated Poisson series sampler.
"""

import hashlib
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


def table_sha256(*arrays: np.ndarray) -> str:
    """sha256 over the bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.bytes
@pytest.mark.parametrize("alpha, scale, rho, times, digest", [
    (1.5, 0.5, 2.0, [0.5, 1.0], "20f0f1b8f15fcc4fb38ae7a67758e5dd50ea6d9a29f02f87eb79e79c0fe19e89"),
    (1.0, 0.5, 2.0, [0.3, 1.0], "2a18ae2f06f8f85d57353cb87b7c054f9f69d0647f3fbb1a55bb99b53879c721"),
    (0.5, 0.1, 10 / 9, [0.5, 1.0], "5997b82d59aebc0ac9358ca4f6996813e456a9d13b7f0ba353ab13dcc9ac091e"),
    (1.9, 0.49, 1 / 0.51, [0.2, 0.9], "0ec430919f7d35fe70f8b50fd9e90576e68692b988a603d517198741cbde98b3"),
    (1.2, 0.2, 1.25, [0.7, 1.0], "23a5c71f85963cff8e02e345ae4c2388332d7159abffbb2190ba95fff58499dd"),
    (1.0, 0.7, 10 / 3, [0.5, 1.0], "82d83768768b3a2ea95de1a8035cf1a9c29de71284a1235b5d7e099320763887"),
    (1.5, 0.5, 2.0, [0.01, 1.0], "ff927c747f2fb4748186749aa5f4dc96404f629e176fcd7739041dd0dda4613e"),
    (1.5, 0.5, 2.0, [0.99, 1.0], "099b83a8fa621e252d4fa33918054e5d14ec5f0d1e81154ff19a23de2ce590dc"),
], ids=lambda v: v[:8] if isinstance(v, str) else None)
def test_table_bytes(alpha, scale, rho, times, digest):
    # sha256 of the weights, then the directions, of tables whose bins all
    # weigh more than 0; a faster enumeration of the cells must keep them.
    mix = build_stable_mixture(alpha, scale, rho, times)
    assert table_sha256(mix.weights, mix.directions) == digest


@pytest.mark.bytes
@pytest.mark.parametrize("t1, bins, digest", [
    (1e-300, 3, "39b0350c486af1317562949ee642662ec06fef36e7f890e2105f1d6ac33a9013"),
    (1e-40, 325, "b9f941389f78ab6d857ba74a0d180e42267f767feab4b7da2244743575e2b43e"),
], ids=lambda v: v[:8] if isinstance(v, str) else None)
def test_bins_whose_cells_underflow_are_dropped(t1, bins, digest):
    # At these grids most singleton directions hold only cells that
    # underflow to 0.0; the digests are those of the table that kept them
    # as bins of weight 0, with those bins removed.
    mix = build_stable_mixture(1.5, 0.5, 2.0, [t1, 1.0])
    assert np.all(mix.weights > 0.0) and mix.weights.size == bins
    assert table_sha256(mix.weights, mix.directions) == digest


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
