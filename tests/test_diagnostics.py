"""Statistical machinery: ECFs, KS distances, and the experiment drivers."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest, norm

from nrlevy import diagnostics
from nrlevy.diagnostics import (
    ConvergenceReport,
    PathFunctional,
    default_theorem1_queries,
    empirical_cf,
    ks_distance,
    prop8_experiment,
    supercritical_experiment,
    terminal_ecf_schedule,
    theorem1_experiment,
)
from nrlevy.errors import DomainError
from nrlevy.levy_model import LevyTriplet
from nrlevy.noise_reinforced import CfQuery, reinforced_cf_exact
from nrlevy.rng import RngStream, iter_blocks
from nrlevy.step_reinforced import simon_terminal_counts
from nrlevy.yule_simon import ys_pmf


class TestEmpiricalCf:
    def test_constant_zero_samples(self):
        est = empirical_cf(np.zeros((50, 1)), [1.0], [CfQuery(np.array([2.0]), np.array([1.0]))])
        assert est.estimates[0] == 1.0

    def test_gaussian_value(self):
        z = RngStream(601).generator().standard_normal((200_000, 1))
        est = empirical_cf(z, [1.0], [CfQuery(np.array([1.0]), np.array([1.0]))])
        assert abs(est.estimates[0]) == pytest.approx(math.exp(-0.5), abs=4 * est.stderr)

    def test_modulus_bound(self):
        gen = RngStream(602).generator()
        vals = gen.standard_normal((5_000, 2))
        queries = [CfQuery(np.array([a, b]), np.array([0.5, 1.0]))
                   for a in (-2.0, 0.5, 3.0) for b in (-1.0, 2.0)]
        est = empirical_cf(vals, [0.5, 1.0], queries)
        assert np.all(np.abs(est.estimates) <= 1.0 + 3 * est.stderr)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            empirical_cf(np.zeros((0, 1)), [1.0], [CfQuery(np.array([1.0]), np.array([1.0]))])

    def test_missing_grid_time_rejected(self):
        with pytest.raises(DomainError):
            empirical_cf(np.zeros((5, 1)), [1.0], [CfQuery(np.array([1.0]), np.array([0.7]))])


class TestKsDistance:
    def test_against_scipy(self):
        x = RngStream(603).generator().standard_normal(50_000)
        assert ks_distance(x, norm.cdf) == pytest.approx(kstest(x, norm.cdf).statistic, abs=1e-12)

    def test_point_mass(self):
        c = 0.3
        stat = ks_distance(np.full(17, c), norm.cdf)
        assert stat == pytest.approx(max(norm.cdf(c), 1 - norm.cdf(c)), abs=1e-12)

    def test_self_consistency_scale(self):
        from scipy.stats import cauchy as cauchy_dist

        x = cauchy_dist(scale=0.5).rvs(size=100_000, random_state=604)
        assert ks_distance(x, cauchy_dist(scale=0.5).cdf) < 0.01

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            ks_distance(np.empty(0), norm.cdf)


class TestTheorem1:
    def test_pure_drift_machine_zero(self):
        # With query times hitting exact lattice points both sides are the
        # same deterministic value.
        rep = theorem1_experiment(
            LevyTriplet.pure_drift([0.8]), 0.5, None, [100, 1000], 50, RngStream(605)
        )
        assert np.all(rep.distances < 1e-12)

    def test_brownian_converges(self):
        rep = theorem1_experiment(
            LevyTriplet.brownian(), 0.3, None, [50, 500, 5000], 2_000, RngStream(606),
            threads=2,
        )
        assert rep.decreasing
        assert rep.final_ok
        assert rep.passed

    def test_continuity_in_small_p(self):
        # Near p = 0 the reinforced cf is close to the plain Levy cf, and the
        # skeleton at moderate n is already near both.
        p = 0.01
        queries = default_theorem1_queries()
        rep = theorem1_experiment(
            LevyTriplet.brownian(), p, queries, [200, 2000], 4_000, RngStream(607),
            threads=2,
        )
        assert rep.distances[-1] < 0.05
        for q in queries:
            reinforced = reinforced_cf_exact(LevyTriplet.brownian(), p, q)
            plain = np.exp(
                -sum(0.5 * th**2 * t for th, t in zip(q.thetas[:, 0], q.times))
                - 0.0j
            )
            # plain Levy fdd cf of (B(t1), B(t2)) with t1 < t2:
            t1, t2 = q.times
            th1, th2 = q.thetas[:, 0]
            plain = np.exp(-0.5 * (th1**2 * t1 + th2**2 * t2 + 2 * th1 * th2 * t1))
            assert abs(reinforced - plain) < 0.05

    def test_schedule_must_increase(self):
        with pytest.raises(DomainError):
            theorem1_experiment(
                LevyTriplet.brownian(), 0.3, None, [100, 100], 50, RngStream(1)
            )


class TestSupercritical:
    def test_misuse_rejected(self):
        with pytest.raises(DomainError):
            supercritical_experiment(1.5, 0.5, 1.0, [10, 100], 100, RngStream(1))
        with pytest.raises(DomainError):
            supercritical_experiment(1.5, 0.8, 0.0, [10, 100], 100, RngStream(1))

    def test_blowup_detected(self):
        rep = supercritical_experiment(
            1.5, 0.8, 1.0, [100, 1000], 10_000, RngStream(608), threads=2
        )
        assert rep.distances[-1] < 0.1
        assert rep.passed

    def test_contrast_separation(self):
        # The admissible run stabilizes well above the supercritical one.
        sup = supercritical_experiment(
            1.5, 0.8, 1.0, [100, 1000], 10_000, RngStream(609), threads=2
        )
        adm, se = terminal_ecf_schedule(
            LevyTriplet.stable(1.5), 0.5, 1.0, [100, 1000], 10_000, RngStream(610),
            threads=2,
        )
        pooled = math.sqrt(se[-1] ** 2 + sup.stderr[-1] ** 2)
        assert adm[-1] - sup.distances[-1] > 5 * pooled


class TestProp8:
    def test_terminal_indicators(self):
        funcs = [PathFunctional.terminal_equals(k) for k in (1, 2, 3)]
        rep = prop8_experiment(0.5, [20_000], funcs, 16, RngStream(611), mc_replicas=400_000)
        for fi, k in enumerate((1, 2, 3)):
            assert rep.references[fi] == pytest.approx(0.5 * ys_pmf(k, 2.0), abs=0.002)
            assert abs(rep.z_scores[0, fi]) < 4.0

    def test_terminal_at_least_matches_survival(self):
        funcs = [PathFunctional.terminal_at_least(1)]
        rep = prop8_experiment(0.4, [10_000], funcs, 8, RngStream(612), mc_replicas=200_000)
        # (1 - p) P(Y(1) >= 1) = 1 - p
        assert rep.references[0] == pytest.approx(0.6, abs=0.01)
        assert rep.estimates[0, 0] == pytest.approx(0.6, abs=0.01)

    def test_functional_must_vanish_at_zero(self):
        bad = PathFunctional("const", terminal=lambda c: np.ones_like(c, dtype=float))
        with pytest.raises(DomainError):
            prop8_experiment(0.5, [100], [bad], 2, RngStream(1))

    @pytest.mark.bytes
    def test_histogram_route_matches_counts_route(self):
        # Each replica's average read off its histogram of counts equals the
        # mean of F over its (n,) counts, bit for bit; two blocks here.
        n, replicas, p = 2_000, 300, 0.5
        funcs = [PathFunctional.terminal_equals(1), PathFunctional.terminal_at_least(3)]
        rep = prop8_experiment(p, [n], funcs, replicas, RngStream(613), mc_replicas=1_000)
        per_real = np.empty((replicas, len(funcs)))
        blocks = iter_blocks(RngStream(613).substream(0), replicas, diagnostics.PROP8_BLOCK_SIZE)
        for gen, start, count in blocks:
            counts = simon_terminal_counts(n, p, gen, count)
            for fi, f in enumerate(funcs):
                per_real[start : start + count, fi] = f.terminal(counts).mean(axis=1)
        assert np.array_equal(rep.estimates[0], per_real.mean(axis=0))
        assert np.array_equal(rep.stderr[0], per_real.std(axis=0, ddof=1) / math.sqrt(replicas))

    @pytest.mark.bytes
    def test_block_working_set(self):
        # One block holds the kernel's int32 origins and counts, 8 n R bytes;
        # the functionals read histograms, not an (R, n) float array beside
        # the counts (3.25 x 4 n R bytes when they did).
        n, replicas = 20_000, diagnostics.PROP8_BLOCK_SIZE
        funcs = [PathFunctional.terminal_equals(1), PathFunctional.terminal_at_least(2)]
        tracemalloc.start()
        try:
            prop8_experiment(0.5, [n], funcs, replicas, RngStream(614), mc_replicas=1_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n * replicas


@pytest.mark.bytes
class TestReportInvariants:
    def test_distances_nonnegative_enforced(self):
        with pytest.raises(DomainError):
            ConvergenceReport("x", (1, 2), np.array([[-0.1], [0.0]]), np.zeros(2), 0.1)

    @pytest.mark.parametrize("distances, stderr, flags", [
        ([0.30, 0.20, 0.05], [0.01, 0.01, 0.01], (True, True, True)),
        # 0.02 < 0.025 inverts, but both sit below 3 * 0.01: noise, not a trend.
        ([0.30, 0.02, 0.025], [0.01, 0.01, 0.01], (True, False, True)),
        # 0.04 < 0.05 inverts above the 3 * 0.01 floor.
        ([0.30, 0.04, 0.05], [0.01, 0.01, 0.01], (False, False, True)),
        ([0.30, 0.20, 0.10], [0.01, 0.01, 0.01], (True, True, False)),
    ], ids=["strict-decrease", "inversion-below-floor", "inversion-above-floor",
            "final-at-threshold"])
    def test_verdict_derived_from_distances(self, distances, stderr, flags):
        # Two queries: the report's distance is the larger one per mesh point.
        per_query = np.column_stack([distances, np.asarray(distances) / 2])
        rep = ConvergenceReport("x", (10, 20, 40), per_query, np.asarray(stderr), 0.1)
        assert np.array_equal(rep.distances, distances)
        assert rep.final_distance == distances[-1]
        assert (rep.decreasing, rep.strictly_decreasing, rep.final_ok) == flags
        assert rep.passed == (flags[0] and flags[2])

    @pytest.mark.parametrize("experiment", [
        lambda: theorem1_experiment(
            LevyTriplet.brownian(), 0.3, None, [100, 100], 50, RngStream(1)
        ),
        lambda: supercritical_experiment(1.5, 0.8, 1.0, [100, 50], 50, RngStream(1)),
    ], ids=["theorem1", "supercritical"])
    def test_bad_mesh_rejected_before_any_draw(self, monkeypatch, experiment):
        def no_draws(*args, **kwargs):
            raise AssertionError("a skeleton block was drawn")

        monkeypatch.setattr(diagnostics, "reinforced_prefix_sums", no_draws)
        with pytest.raises(DomainError, match="mesh"):
            experiment()
