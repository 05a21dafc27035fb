"""Reinforced-process construction, sampling, and characteristic functions."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import cauchy as cauchy_dist
from scipy.stats import ks_2samp, spearmanr

from nrlevy import levy_model, noise_reinforced
from nrlevy.diagnostics import empirical_cf, ks_distance
from nrlevy.errors import ConfigError, DomainError, InadmissibleError, NrlevyError, UnsupportedFamilyError
from nrlevy.levy_model import FiniteAtomic, IsotropicStable, LevyTriplet, RadialDensity
from nrlevy.noise_reinforced import (
    CfQuery,
    NrlpConfig,
    _running_mean_diverges,
    check_additivity,
    check_stability,
    nrbm_covariance,
    nrbm_sample_many,
    nrlp_marginals,
    reinforced_cf,
    reinforced_cf_exact,
    reinforced_cf_values,
    truncation_budget,
)
from nrlevy.rng import BLOCK_SIZE, RngStream
from nrlevy.spectral import build_stable_mixture
from nrlevy.yule_simon import (
    MemoryParameter,
    _abs_moment_sum,
    ys_head_table,
    ys_joint_values,
    ys_process_values,
    ys_sample,
)


class TestNrbm:
    def test_variance_at_one(self):
        vals = nrbm_sample_many(0.25, [1.0], 1, RngStream(401).generator(), 100_000)
        var = vals[:, 0, 0].var()
        se = 2.0 * math.sqrt(2.0 / 100_000)
        assert abs(var - 2.0) < 3 * se

    def test_covariance_grid(self):
        grid = np.array([0.25, 0.5, 0.75, 1.0])
        vals = nrbm_sample_many(0.25, grid, 1, RngStream(402).generator(), 100_000)[:, :, 0]
        emp = np.cov(vals.T)
        theo = nrbm_covariance(0.25, grid)
        for i in range(4):
            for j in range(4):
                se = math.sqrt((theo[i, i] * theo[j, j] + theo[i, j] ** 2) / 100_000)
                assert abs(emp[i, j] - theo[i, j]) < 3.5 * se

    def test_variance_vanishes_at_zero(self):
        vals = nrbm_sample_many(0.3, [1e-6, 1.0], 1, RngStream(403).generator(), 50_000)
        assert vals[:, 0, 0].var() < 1e-5

    def test_small_p_is_brownian(self):
        grid = np.array([0.4, 1.0])
        theo = nrbm_covariance(1e-9, grid)
        np.testing.assert_allclose(theo, np.array([[0.4, 0.4], [0.4, 1.0]]), rtol=1e-6)

    def test_leading_zero_time(self):
        with pytest.raises(DomainError):
            nrbm_sample_many(0.25, [0.0, 0.5, 1.0], 2, RngStream(404).generator(), 1)

    def test_rejects_large_p(self):
        with pytest.raises(InadmissibleError):
            nrbm_sample_many(0.5, [1.0], 1, RngStream(1).generator(), 1)

    def test_coordinates_independent(self):
        vals = nrbm_sample_many(0.25, [1.0], 2, RngStream(405).generator(), 100_000)
        corr = np.corrcoef(vals[:, 0, 0], vals[:, 0, 1])[0, 1]
        assert abs(corr) < 0.015


class TestConfig:
    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleError):
            NrlpConfig(LevyTriplet.brownian(), MemoryParameter(0.6))

    def test_rejects_bad_eps_and_grid(self):
        trip = LevyTriplet.cauchy()
        with pytest.raises(ConfigError):
            NrlpConfig(trip, MemoryParameter(0.5), truncation_eps=0.0)
        with pytest.raises(DomainError):
            NrlpConfig(trip, MemoryParameter(0.5), grid=np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            NrlpConfig(trip, MemoryParameter(0.5), grid=np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            NrlpConfig(trip, MemoryParameter(0.5), grid=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("build", [
        lambda: NrlpConfig(LevyTriplet.cauchy(), 0.5, grid=np.array([0.5, np.nan])),
        lambda: NrlpConfig(LevyTriplet.cauchy(), 0.5, grid=np.array([np.nan])),
        lambda: CfQuery(np.array([1.0]), np.array([np.nan])),
        lambda: ys_process_values(2.0, [0.5, np.nan], RngStream(1).generator(), 10),
        lambda: LevyTriplet(1, drift=[np.nan]),
        lambda: FiniteAtomic(np.array([[np.nan]]), np.array([1.0])),
        lambda: FiniteAtomic(np.array([[1.0]]), np.array([np.nan])),
        lambda: FiniteAtomic(np.array([[1.0]]), np.array([np.inf])),
    ], ids=["grid-nan", "grid-only-nan", "query-time-nan", "mark-time-nan", "drift-nan",
            "atom-position-nan", "atom-mass-nan", "atom-mass-inf"])
    def test_rejects_non_finite(self, build):
        # Range checks written as `x < lo or x > hi` let NaN through.
        with pytest.raises(NrlevyError):
            build()


@pytest.mark.bytes
class TestTimeContract:
    # Every process starts at 0, so library grids and query times lie in
    # (0, 1]; only the CLI writes t = 0 rows.
    @pytest.mark.parametrize("build", [
        lambda: NrlpConfig(LevyTriplet.cauchy(), 0.5, grid=np.array([0.0, 1.0])),
        lambda: CfQuery(np.array([1.0]), np.array([0.0])),
        lambda: nrbm_sample_many(0.25, [0.0, 1.0], 1, RngStream(1).generator(), 1),
        lambda: build_stable_mixture(1.5, 0.5, 2.0, [0.0, 1.0]),
    ], ids=["config-grid", "query-time", "nrbm-grid", "mixture-grid"])
    def test_rejects_time_zero(self, build):
        with pytest.raises(DomainError):
            build()


def zero_fraction_se(cfg: NrlpConfig, rng: RngStream, replicas: int) -> tuple[float, float]:
    """Share of sampled X(1) equal to 0, and its standard error.

    Y(1) >= 1 for every mark, so with positive atoms X(1) = 0 exactly when
    the block sampler drew no atom: the share estimates exp(-atom rate).
    """
    zero = nrlp_marginals(cfg, rng, replicas)[:, -1, 0] == 0.0
    return zero.mean(), math.sqrt(zero.mean() * (1.0 - zero.mean()) / replicas)


class TestAtoms:
    def test_atomic_count_matches_mass(self):
        trip = LevyTriplet.compound_poisson([[1.5]], [2.0])
        cfg = NrlpConfig(trip, MemoryParameter(0.5), 0.5, np.array([1.0]))
        # thinned mass is (1 - p) * 2 = 1
        assert cfg.thinned.tail_mass(cfg.truncation_eps, 1) == 1.0
        share, se = zero_fraction_se(cfg, RngStream(406), 3_000)
        assert share == pytest.approx(math.exp(-1.0), abs=3 * se)

    def test_thinning_direction(self):
        trip = LevyTriplet.compound_poisson([[1.5]], [2.0])
        for i, (p, mass) in enumerate(((0.2, 1.6), (0.8, 0.4))):
            cfg = NrlpConfig(trip, MemoryParameter(p), 0.5, np.array([1.0]))
            assert cfg.thinned.tail_mass(cfg.truncation_eps, 1) == pytest.approx(mass, rel=1e-12)
            share, se = zero_fraction_se(cfg, RngStream(407, i), 2_000)
            assert share == pytest.approx(math.exp(-mass), abs=3 * se)

    def test_marks_independent_of_jump_sizes(self):
        # The block sampler draws all jump sizes, then all marks, from one
        # generator; the two must come out independent.
        cfg = NrlpConfig(LevyTriplet.stable(1.5), MemoryParameter(0.5), 0.05, np.array([1.0]))
        gen = RngStream(408).generator()
        sizes = np.abs(cfg.thinned.sample_tail(cfg.truncation_eps, 1, gen, 100_000)[:, 0])
        terminals = ys_joint_values(cfg.rho, cfg.grid, gen, 100_000)[:, 0]
        # Rank-based to tame the heavy tail of |x|.
        assert abs(spearmanr(sizes, terminals).statistic) < 0.01

    def test_atom_jumps_above_cutoff(self):
        cfg = NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.5), 0.3, np.array([1.0]))
        jumps = cfg.thinned.sample_tail(0.3, 1, RngStream(409).generator(), 10_000)
        assert np.all(np.abs(jumps[:, 0]) >= 0.3)


class TestNrlpSampling:
    def test_pure_drift_path(self):
        cfg = NrlpConfig(LevyTriplet.pure_drift([2.0]), MemoryParameter(0.5),
                         grid=np.array([0.5, 1.0]))
        vals = nrlp_marginals(cfg, RngStream(410), 1)
        np.testing.assert_allclose(vals[:, :, 0], [[1.0, 2.0]])

    def test_cauchy_fixed_point_moderate_scale(self):
        cfg = NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.5), 1e-3,
                         np.array([0.5, 1.0]))
        vals = nrlp_marginals(cfg, RngStream(412), 30_000)
        assert ks_distance(vals[:, 0, 0], cauchy_dist(scale=0.5).cdf) < 0.02
        assert ks_distance(vals[:, 1, 0], cauchy_dist(scale=1.0).cdf) < 0.02

    def test_truncation_refinement_stability(self):
        # Admissible configs are Cauchy-stable under cutoff refinement.
        base = dict(grid=np.array([1.0]))
        a = nrlp_marginals(
            NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.5), 1e-3, **base),
            RngStream(413), 30_000,
        )[:, 0, 0]
        b = nrlp_marginals(
            NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.5), 1e-4, **base),
            RngStream(414), 30_000,
        )[:, 0, 0]
        assert ks_2samp(a, b).statistic < 0.015

    def test_compensated_band_is_centered(self):
        # Symmetric measure: the small-jump band has mean zero at every time.
        cfg = NrlpConfig(LevyTriplet.stable(1.5), MemoryParameter(0.5), 1e-2,
                         np.array([0.5, 1.0]))
        vals = nrlp_marginals(cfg, RngStream(415), 50_000)[:, :, 0]
        se = vals.std(axis=0) / math.sqrt(vals.shape[0])
        assert np.all(np.abs(vals.mean(axis=0)) < 3 * se)

    def test_asymmetric_atomic_compensation(self):
        # One-sided small atoms: the compensated sampler still centers the band.
        trip = LevyTriplet.compound_poisson([[0.5]], [4.0])
        cfg = NrlpConfig(trip, MemoryParameter(0.5), 0.1, np.array([0.5, 1.0]))
        vals = nrlp_marginals(cfg, RngStream(416), 50_000)[:, :, 0]
        se = vals.std(axis=0) / math.sqrt(vals.shape[0])
        assert np.all(np.abs(vals.mean(axis=0)) < 3.5 * se)

    def test_block_sampler_matches_event_based_series(self):
        # nrlp_marginals bridges marks at the grid; the reference sums the
        # same Poisson series with marks read off event-based mark paths.
        # Cauchy jumps are symmetric, so no compensation drift enters.
        cfg = NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.5), 1e-2,
                         np.array([1.0]))
        gen = RngStream(430).generator()
        counts = gen.poisson(cfg.thinned.tail_mass(cfg.truncation_eps, 1), size=3_000)
        total = int(counts.sum())
        jumps = cfg.thinned.sample_tail(cfg.truncation_eps, 1, gen, total)[:, 0]
        marks = ys_process_values(cfg.rho, cfg.grid, gen, total)[:, 0]
        series = np.bincount(np.repeat(np.arange(3_000), counts), weights=marks * jumps,
                             minlength=3_000)
        batched = nrlp_marginals(cfg, RngStream(431), 30_000)[:, 0, 0]
        assert ks_2samp(series, batched).statistic < 0.035

    def test_coordinate_independence(self):
        # Axis-supported jumps plus diagonal Gaussian part: the joint ECF
        # factorizes into the product of marginal ECFs.
        trip = LevyTriplet(
            2,
            np.eye(2),
            None,
            FiniteAtomic(np.array([[1.5, 0.0], [0.0, 1.5], [-1.5, 0.0], [0.0, -1.5]]),
                         np.array([0.4, 0.4, 0.4, 0.4])),
        )
        cfg = NrlpConfig(trip, MemoryParameter(0.3), 0.5, np.array([1.0]))
        vals = nrlp_marginals(cfg, RngStream(417), 100_000)
        th = np.array([0.8, -0.6])
        joint = np.exp(1j * vals[:, 0, :] @ th).mean()
        prod = (np.exp(1j * th[0] * vals[:, 0, 0]).mean()
                * np.exp(1j * th[1] * vals[:, 0, 1]).mean())
        assert abs(joint - prod) < 5 / math.sqrt(100_000)


def _replay_block(cfg: NrlpConfig, seed: int, replicas: int, chunk: int | None,
                  segments: bool = True):
    """The documented block draw order, with replica ids from np.repeat.

    Normals, then every replica's atom count, then per chunk of ``chunk``
    atoms (all atoms at once for None) the jump sizes and the marks.  Each
    replica's sum over a chunk is ``np.add.reduceat`` over the runs of equal
    ids (the documented sum), or with ``segments=False`` a sequential
    ``np.bincount``.  Returns the block's values, the replica id of each
    atom and, per (replica, time, coordinate), the sum of the absolute
    terms.
    """
    gen = np.random.default_rng(seed)
    trip, grid, d = cfg.triplet, cfg.grid, cfg.triplet.dim
    values = np.zeros((replicas, grid.size, d)) + np.outer(grid, trip.drift)[None]
    bhat = nrbm_sample_many(cfg.p, grid, d, gen, replicas)
    values += np.einsum("rgd,ed->rge", bhat, trip.gaussian_factor)
    counts = gen.poisson(cfg.thinned.tail_mass(cfg.truncation_eps, d), size=replicas)
    ids = np.repeat(np.arange(replicas), counts)
    magnitude = np.zeros_like(values)
    chunk = chunk or ids.size
    for a in range(0, ids.size, chunk):
        n = min(chunk, ids.size - a)
        jumps = cfg.thinned.sample_tail(cfg.truncation_eps, d, gen, n)
        marks = ys_joint_values(cfg.rho, grid, gen, n).astype(float)
        chunk_ids = ids[a : a + n]
        runs = np.flatnonzero(np.diff(chunk_ids, prepend=-1))
        for g in range(grid.size):
            for e in range(d):
                terms = marks[:, g] * jumps[:, e]
                if segments:
                    values[chunk_ids[runs], g, e] += np.add.reduceat(terms, runs)
                else:
                    values[:, g, e] += np.bincount(chunk_ids, weights=terms, minlength=replicas)
                magnitude[:, g, e] += np.bincount(chunk_ids, weights=np.abs(terms), minlength=replicas)
    return values, ids, magnitude


@pytest.mark.bytes
class TestChunkedBlock:
    # Gaussian, drift and symmetric stable jumps (no compensation drift) in
    # d = 2; about 5.6 atoms per replica.
    CFG = NrlpConfig(LevyTriplet(2, np.eye(2), np.array([0.3, -0.2]), IsotropicStable(1.5)),
                     MemoryParameter(0.3), 0.2, np.array([0.5, 1.0]))

    def test_chunks_replay_the_documented_order(self, monkeypatch):
        # Chunks of 7 atoms split many replicas' atoms across two chunks.
        monkeypatch.setattr(noise_reinforced, "ATOM_CHUNK", 7)
        got = noise_reinforced._nrlp_block(self.CFG, np.random.default_rng(440), 40,
                                            noise_reinforced._series_jumps)
        want, ids, _ = _replay_block(self.CFG, 440, 40, 7)
        assert np.sum(ids[6:-1:7] == ids[7::7]) >= 10  # replicas cut by a chunk edge
        np.testing.assert_array_equal(got, want)

    def test_one_chunk_block_equals_one_shot_series(self):
        got = noise_reinforced._nrlp_block(self.CFG, np.random.default_rng(441), 300,
                                            noise_reinforced._series_jumps)
        want, ids, _ = _replay_block(self.CFG, 441, 300, None)
        assert ids.size <= noise_reinforced.ATOM_CHUNK
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_edges_inside_empty_replicas(self, monkeypatch, chunk):
        # About 0.14 atoms per replica: most replicas draw none, so chunk
        # edges fall between replicas with runs of empty ones between them.
        cfg = NrlpConfig(LevyTriplet(2, np.eye(2), np.array([0.3, -0.2]), IsotropicStable(1.5, 0.1)),
                         MemoryParameter(0.3), 0.5, np.array([0.5, 1.0]))
        monkeypatch.setattr(noise_reinforced, "ATOM_CHUNK", chunk)
        got = noise_reinforced._nrlp_block(cfg, np.random.default_rng(444), 600,
                                            noise_reinforced._series_jumps)
        want, ids, _ = _replay_block(cfg, 444, 600, chunk)
        assert np.unique(ids).size < 120  # most of the 600 replicas hold no atom
        assert ids[0] > 0 and ids[-1] < 599  # empty replicas before the first chunk and after the last
        assert np.sum(np.diff(ids)[chunk - 1 :: chunk] > 1) >= 5  # empty replicas across chunk edges
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sparse, chunk", [(False, 7), (False, None), (True, 1), (True, 7)])
    def test_segment_sums_within_rounding_of_sequential_sums(self, monkeypatch, sparse, chunk):
        # The sequential bincount sum that the segment sums replaced differs
        # by rounding only: two sums of k terms each lie within (k - 1) u of
        # the exact sum in units of the absolute terms, u = 2^-53, and each
        # addition into a value rounds once more.
        cfg = self.CFG if not sparse else NrlpConfig(
            LevyTriplet(2, np.eye(2), np.array([0.3, -0.2]), IsotropicStable(1.5, 0.1)),
            MemoryParameter(0.3), 0.5, np.array([0.5, 1.0]))
        replicas = 300 if not sparse else 600
        if chunk is not None:
            monkeypatch.setattr(noise_reinforced, "ATOM_CHUNK", chunk)
        got = noise_reinforced._nrlp_block(cfg, np.random.default_rng(445), replicas,
                                            noise_reinforced._series_jumps)
        want, ids, magnitude = _replay_block(cfg, 445, replicas, chunk, segments=False)
        k = np.bincount(ids).max()
        u = 2.0**-53
        tol = 2 * k * u * (magnitude + np.abs(want))
        assert np.all(np.abs(got - want) <= tol)

    def test_block_working_set(self):
        # After the chunk workspace and the values, one series call holds at
        # most two chunk-sized arrays: a chunk's alias columns, or its
        # radii.  At 3 blocks of about 5 chunks of 2^17 atoms, the parent of
        # the workspace peaked at 10.6 x 8 ATOM_CHUNK bytes.
        cfg = NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.5), 5e-4, np.array([0.5, 1.0]))
        replicas, n, m, d = 3 * BLOCK_SIZE, noise_reinforced.ATOM_CHUNK, 2, 1
        assert cfg.thinned.tail_mass(cfg.truncation_eps, d) * BLOCK_SIZE > 3 * n
        ys_head_table(cfg.rho, cfg.grid)
        workspace = 8 * n * (d + m + 4) + n  # jumps, marks, products, alias test
        values = 8 * m * d * (replicas + BLOCK_SIZE)  # the result and one block's values
        tracemalloc.start()
        try:
            nrlp_marginals(cfg, RngStream(446), replicas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workspace + values + 2 * n * 8

    def test_threads_do_not_change_marginals(self, monkeypatch):
        # 2500 replicas: blocks of 1024, 1024 and a partial 452, each drawn
        # in several chunks.
        monkeypatch.setattr(noise_reinforced, "ATOM_CHUNK", 2048)
        one = nrlp_marginals(self.CFG, RngStream(442), 2500)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside each block
        try:
            three = nrlp_marginals(self.CFG, RngStream(442), 2500, threads=3)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(one, three)

    def test_radial_table_built_once_per_block(self, monkeypatch):
        monkeypatch.setattr(noise_reinforced, "ATOM_CHUNK", 16)
        radial = RadialDensity(lambda r: np.exp(-np.asarray(r)) * np.asarray(r) ** -1.5,
                               bg_hint=0.5)
        cfg = NrlpConfig(LevyTriplet(1, None, None, radial), MemoryParameter(0.5), 0.05,
                         np.array([1.0]))
        levy_model._radial_tail_table.cache_clear()
        nrlp_marginals(cfg, RngStream(443), 200)
        info = levy_model._radial_tail_table.cache_info()
        assert info.misses == 1 and info.hits >= 10


class TestTheoreticalCf:
    def test_brownian_single_time(self):
        est = reinforced_cf(LevyTriplet.brownian(), 0.25,
                            CfQuery(np.array([1.0]), np.array([1.0])),
                            400_000, RngStream(418).generator())
        assert est.value == pytest.approx(math.exp(-1.0 / (2 * 0.5)), abs=4 * est.value_se + 1e-3)
        assert not est.diverged

    def test_cauchy_modulus(self):
        for t, th in ((1.0, 1.0), (0.5, 2.0)):
            est = reinforced_cf(LevyTriplet.cauchy(), 0.5,
                                CfQuery(np.array([th]), np.array([t])),
                                400_000, RngStream(419).generator())
            assert abs(est.value) == pytest.approx(math.exp(-t * th), abs=0.004)

    def test_zero_query_is_one(self):
        est = reinforced_cf(LevyTriplet.cauchy(), 0.5,
                            CfQuery(np.array([0.0]), np.array([1.0])),
                            1_000, RngStream(420).generator())
        assert est.value == 1.0

    def test_repeated_times_merge(self):
        q_split = CfQuery(np.array([0.4, 0.6]), np.array([1.0, 1.0]))
        q_merged = CfQuery(np.array([1.0]), np.array([1.0]))
        a = reinforced_cf_exact(LevyTriplet.brownian(), 0.25, q_split)
        b = reinforced_cf_exact(LevyTriplet.brownian(), 0.25, q_merged)
        assert a == pytest.approx(b, rel=1e-12)

    def test_head_cells_are_summed_exactly(self):
        # On one or two times only the tail cell (mass 2.2e-5 here) is
        # estimated, so the stated se falls far below that of plain Monte
        # Carlo over as many whole mark draws, and still covers the error.
        trip, n = LevyTriplet.stable(1.5), 200_000
        query = CfQuery(np.array([1.0]), np.array([1.0]))
        exact = reinforced_cf_exact(trip, 0.5, query)
        est = reinforced_cf(trip, 0.5, query, n, RngStream(430).generator())
        marks = ys_joint_values(2.0, [1.0], RngStream(431).generator(), n)[:, 0]
        plain_se = abs(exact) * 0.5 * (marks**1.5).std() / math.sqrt(n)
        assert est.value_se < 0.2 * plain_se
        assert abs(est.value - exact) < 5 * est.value_se

    def test_divergence_flag_when_supercritical(self):
        est = reinforced_cf(LevyTriplet.stable(1.5), 0.8,
                            CfQuery(np.array([1.0]), np.array([1.0])),
                            400_000, RngStream(421).generator())
        assert est.diverged

    def test_tied_tail_reads_as_convergent_without_warning(self):
        # A finite-atomic exponent takes few values, so the Hill top-k can
        # tie: a zero mean log-spacing is an infinite tail index.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _running_mean_diverges(np.r_[np.zeros(500), np.ones(1500)])

    def test_exact_vs_mc(self):
        query = CfQuery(np.array([0.6, 0.8]), np.array([0.5, 1.0]))
        exact = reinforced_cf_exact(LevyTriplet.brownian(), 0.3, query)
        mc = reinforced_cf(LevyTriplet.brownian(), 0.3, query, 2_000_000,
                           RngStream(422).generator())
        # second-moment MC converges slowly (heavy tails); generous band
        assert abs(exact - mc.value) < 10 * mc.value_se + 0.01
        exact_c = reinforced_cf_exact(LevyTriplet.cauchy(), 0.5, query)
        mc_c = reinforced_cf(LevyTriplet.cauchy(), 0.5, query, 2_000_000,
                             RngStream(423).generator())
        assert abs(exact_c - mc_c.value) < 6 * mc_c.value_se + 2e-3

    def test_exact_unsupported_cases(self):
        with pytest.raises(UnsupportedFamilyError):
            reinforced_cf_exact(LevyTriplet.stable(1.5), 0.5,
                                CfQuery(np.array([0.5, 1.0]), np.array([0.5, 1.0])))
        with pytest.raises(UnsupportedFamilyError):
            reinforced_cf_exact(LevyTriplet.compound_poisson([[1.0]], [1.0]), 0.5,
                                CfQuery(np.array([1.0]), np.array([1.0])))

    def test_cf_values_routes(self):
        trip = LevyTriplet.stable(1.5)
        single = CfQuery(np.array([1.0]), np.array([1.0]))
        pair = CfQuery(np.array([0.5, 1.0]), np.array([0.5, 1.0]))  # no closed form
        rng = RngStream(424)

        def mc(qi, query):
            return reinforced_cf(trip, 0.5, query, 1_000, rng.substream(1000 + qi).generator()).value

        auto = reinforced_cf_values(trip, 0.5, [single, pair], "auto", 1_000, rng)
        assert auto.tolist() == [reinforced_cf_exact(trip, 0.5, single), mc(1, pair)]
        forced = reinforced_cf_values(trip, 0.5, [single, pair], "mc", 1_000, rng)
        assert forced.tolist() == [mc(0, single), mc(1, pair)]
        with pytest.raises(UnsupportedFamilyError):
            reinforced_cf_values(trip, 0.5, [single, pair], "exact", 1_000, rng)
        with pytest.raises(ConfigError):
            reinforced_cf_values(trip, 0.5, [single], "bogus", 1_000, rng)

    def test_cf_theory_pass_sums_once(self):
        # 20 single-time stable queries at two times share one moment order.
        queries = [
            CfQuery(np.asarray([th]), np.asarray([t]))
            for t in (0.5, 1.0) for th in np.linspace(0.1, 2.0, 10)
        ]
        _abs_moment_sum.cache_clear()
        reinforced_cf_values(LevyTriplet.stable(1.5), 0.5, queries, "exact", 1, RngStream(1))
        info = _abs_moment_sum.cache_info()
        assert (info.misses, info.hits) == (1, 19)


class TestProperties:
    def test_additivity_pure_drifts(self):
        # Pure drifts satisfy additivity identically; with independent Monte
        # Carlo runs on each side the discrepancy is pure phase noise.
        rep = check_additivity(
            LevyTriplet.pure_drift([1.0]), LevyTriplet.pure_drift([-0.3]), 0.5,
            CfQuery(np.array([0.9]), np.array([1.0])), RngStream(425), mc_replicas=200_000,
        )
        assert abs(rep.combined.value) == pytest.approx(1.0, abs=1e-12)
        assert rep.discrepancy < 4 * rep.pooled_se
        assert rep.discrepancy < 0.01

    def test_additivity_with_zero_triplet(self):
        rep = check_additivity(
            LevyTriplet.cauchy(), LevyTriplet(1), 0.5,
            CfQuery(np.array([1.0]), np.array([1.0])), RngStream(426), mc_replicas=100_000,
        )
        # the zero part contributes cf 1, so the product is the single cf
        assert rep.parts[1].value == pytest.approx(1.0)
        assert rep.discrepancy < 4 * rep.pooled_se + 1e-3

    def test_additivity_brownian_cauchy(self):
        rep = check_additivity(
            LevyTriplet.brownian(), LevyTriplet.cauchy(), 0.3,
            CfQuery(np.array([0.6, 0.8]), np.array([0.5, 1.0])), RngStream(427),
            mc_replicas=400_000,
        )
        assert rep.discrepancy < 3 * rep.pooled_se + 3e-3

    def test_stability_trivial_scale(self):
        rep = check_stability(1.5, 0.5, CfQuery(np.array([1.0]), np.array([1.0])),
                              RngStream(428), scales=(1.0,), mc_replicas=100_000)
        assert rep.ratios[0] == pytest.approx(1.0, rel=0.05)

    def test_stability_gaussian(self):
        rep = check_stability(2.0, 0.25, CfQuery(np.array([0.5]), np.array([1.0])),
                              RngStream(429), scales=(2.0,), mc_replicas=400_000)
        assert rep.ratios[0] == pytest.approx(4.0, rel=0.05)

    def test_stability_rejects_supercritical(self):
        with pytest.raises(InadmissibleError):
            check_stability(1.5, 0.8, CfQuery(np.array([1.0]), np.array([1.0])),
                            RngStream(1))


class TestBudget:
    def test_budget_monotone_in_cutoff(self):
        trip = LevyTriplet.cauchy()
        budgets = [
            truncation_budget(NrlpConfig(trip, MemoryParameter(0.5), eps, np.array([1.0])))
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert budgets[0] > budgets[1] > budgets[2] > 0

    @pytest.mark.bytes
    def test_budget_bounds_the_dropped_part(self):
        # One atom at delta below the cutoff, thinned mass 0.01: the dropped
        # part is R = delta * (sum of N marks Y_i - m), N ~ Poisson(0.01),
        # drawn exactly.  Near q = 1 the compensator -delta * m dominates
        # E|R|^q, which a bound without von Bahr-Esseen's factor 2 misses.
        delta, p, mass, replicas = 1e-3, 0.25, 0.01, 2_000_000
        trip = LevyTriplet.compound_poisson([[delta]], [mass / (1.0 - p)])
        cfg = NrlpConfig(trip, MemoryParameter(p), 1e-2, np.array([1.0]))
        gen = RngStream(450).generator()
        counts = gen.poisson(mass, size=replicas)
        marks = ys_sample(cfg.rho, gen, int(counts.sum()))
        sums = np.bincount(np.repeat(np.arange(replicas), counts), weights=marks, minlength=replicas)
        r = delta * (sums - mass * cfg.rho / (cfg.rho - 1.0))
        for q in (1.02, 1.2, 1.5, 2.0):
            assert np.mean(np.abs(r) ** q) <= truncation_budget(cfg, q)

    @pytest.mark.bytes
    def test_budget_order_is_capped_at_two(self):
        # rho = 4 gives E[Y^2.5] < inf, but von Bahr-Esseen holds only up to q = 2.
        cfg = NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.25), 1e-4, np.array([1.0]))
        assert truncation_budget(cfg, 2.0) > 0
        with pytest.raises(DomainError):
            truncation_budget(cfg, 2.5)

    def test_zero_cutoff_keeps_every_atom_of_a_finite_measure(self):
        # One atom at 0.3 below the old fixed cutoff 0.5: that cutoff dropped
        # it, so every sampled X(1) was 0 and the budget was about 0.44.
        trip = LevyTriplet.compound_poisson([[0.3]], [2.0])
        cfg = NrlpConfig(trip, MemoryParameter(0.3), 0.0, np.array([1.0]))
        assert truncation_budget(cfg) == 0.0
        replicas = 20_000
        x = nrlp_marginals(cfg, RngStream(431), replicas)[:, :, 0]
        query = CfQuery(np.array([1.0]), np.array([1.0]))
        theory = reinforced_cf(trip, 0.3, query, 400_000, RngStream(432).generator())
        ecf = empirical_cf(x, cfg.grid, [query]).estimates[0]
        assert abs(theory.value - 1.0) > 0.1
        assert abs(ecf - theory.value) < 4.0 / math.sqrt(replicas) + 4.0 * theory.value_se

    def test_zero_cutoff_only_for_finite_measures(self):
        for trip in (LevyTriplet.compound_poisson([[0.3]], [2.0]), LevyTriplet.brownian()):
            assert NrlpConfig(trip, MemoryParameter(0.3), 0.0).truncation_eps == 0.0
        with pytest.raises(ConfigError):
            NrlpConfig(LevyTriplet.cauchy(), MemoryParameter(0.3), 0.0)

    def test_budget_and_cutoff_share_one_moment_grid(self):
        trip = LevyTriplet.cauchy()
        _abs_moment_sum.cache_clear()
        for eps in (1e-2, 1e-3):
            truncation_budget(NrlpConfig(trip, MemoryParameter(0.5), eps, np.array([1.0])))
        info = _abs_moment_sum.cache_info()
        assert (info.misses, info.hits) == (12, 12)
