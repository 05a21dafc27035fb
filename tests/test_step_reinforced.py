"""Reinforcement-dynamics invariants and couplings."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlevy import diagnostics, step_reinforced
from nrlevy.errors import DomainError
from nrlevy.levy_model import LevyTriplet, increment_sample
from nrlevy.noise_reinforced import CfQuery
from nrlevy.rng import BLOCK_SIZE, RngStream, iter_blocks
from nrlevy.step_reinforced import (
    SOURCE_CHUNK,
    _genealogy_chunks,
    _walk_memory,
    elephant_endpoints,
    elephant_walk,
    reinforce,
    reinforced_prefix_sums,
    simon_origins,
    simon_terminal_counts,
    skeleton_reinforced_walk,
)
from nrlevy.yule_simon import ys_pmf


def repeat_sources(n, replicas, p, gen, on_chunk=None):
    """The whole genealogy of R walks of length n as (n, R) ``fresh`` and
    ``sources`` arrays, concatenated from copies of the chunks of
    _genealogy_chunks.  ``on_chunk(start, fresh rows)`` runs as each chunk
    is drawn, before the next one."""
    fresh, sources = [], []
    for start, fr, src in _genealogy_chunks(n, replicas, _walk_memory(n, p), gen):
        if on_chunk is not None:
            on_chunk(start, fr)
        fresh.append(fr.copy())
        sources.append(src.copy())
    return np.concatenate(fresh), np.concatenate(sources)


def follow_sources(values, sources):
    """Resolve a genealogy in place: for i = 1..n-1 in turn, row i of
    ``values`` becomes ``values.flat[sources[i]]``."""
    take = values.reshape(-1).take
    for src, row in zip(sources[1:], values[1:]):
        take(src, out=row)
    return values


def oracle_origins(n, replicas, p, gen):
    """Originating row of every slot of :func:`repeat_sources`'s draw,
    resolved one row at a time by :func:`follow_sources` on flat indices
    (a fresh slot holds its own index), in the sources' dtype."""
    _, sources = repeat_sources(n, replicas, p, gen)
    flat = np.arange(n * replicas, dtype=sources.dtype).reshape(n, replicas)
    return follow_sources(flat, sources) // replicas


def counter_events(walk, j):
    """Sorted steps k at which base step j (1-based) was (re)used, read from
    the (j, k) rows of ``walk.counters()``."""
    rows = walk.counters()
    return rows[rows[:, 0] == j, 1]


def terminal_counts(walk):
    """N_j(n) for j = 1..n: how many steps use each base step."""
    return np.bincount(walk.origins, minlength=len(walk.origins))


def replay_genealogy(fresh, sources):
    """Originating slot of every slot of a :func:`repeat_sources` draw,
    replayed one step at a time."""
    n, replicas = fresh.shape
    origins = np.tile(np.arange(n)[:, None], (1, replicas))
    for r in range(replicas):
        for i in range(1, n):
            if not fresh[i, r]:
                slot, col = divmod(int(sources[i, r]), replicas)
                assert col == r and 0 <= slot < i
                origins[i, r] = origins[slot, r]
    return origins


class TestReinforce:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        p=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_counting_identity(self, n, p, seed):
        gen = RngStream(seed).generator()
        walk = reinforce(gen.standard_normal(n), p, gen)
        counts = terminal_counts(walk)
        assert counts.sum() == n
        # prefix identity: sum_j N_j(k) = k for every k
        for k in (1, n // 2 + 1, n):
            total = sum(
                np.searchsorted(counter_events(walk, j), k, side="right")
                for j in range(1, n + 1)
            )
            assert total == k
        # one 1-based (j, k) row per step, sorted by j, then k, as Python ints
        rows = walk.counters().tolist()
        assert rows == sorted([int(o) + 1, k] for k, o in enumerate(walk.origins, start=1))
        assert all(type(v) is int for row in rows for v in row)

    def test_occurrence_structure(self):
        gen = RngStream(301).generator()
        walk = reinforce(gen.standard_normal(300), 0.5, gen)
        for j in range(1, 301):
            events = counter_events(walk, j)
            if walk.origins[j - 1] != j - 1:
                assert events.size == 0  # repeated step: its own word never used
            if events.size:
                assert events[0] >= j  # N_j(k) = 0 before step j
                assert np.all(np.diff(events) > 0)  # unit jumps

    def test_memoryless_coupling(self):
        gen = RngStream(302).generator()
        steps = gen.standard_normal(50)
        walk = reinforce(steps, 1e-15, gen)
        np.testing.assert_allclose(walk.partial_sums[1:].ravel(), np.cumsum(steps))

    def test_perfect_memory_coupling(self):
        gen = RngStream(303).generator()
        steps = np.arange(1.0, 21.0)
        walk = reinforce(steps, 1 - 1e-15, gen)
        assert walk.partial_sums[-1] == pytest.approx(20 * steps[0])

    def test_marks_distinguish_equal_values(self):
        # +-1 steps collide in value; counters must track base indices.
        gen = RngStream(304).generator()
        walk = reinforce(np.ones(100), 0.7, gen)
        assert terminal_counts(walk).sum() == 100

    def test_empty_steps_rejected(self):
        with pytest.raises(DomainError):
            reinforce(np.empty(0), 0.5, RngStream(1).generator())

    def test_increment_comes_from_an_updated_counter(self):
        gen = RngStream(305).generator()
        steps = gen.standard_normal(40)
        walk = reinforce(steps, 0.5, gen)
        sums = walk.partial_sums
        for k in range(1, 41):
            j = walk.origins[k - 1] + 1
            assert sums[k] - sums[k - 1] == pytest.approx(steps[j - 1])
            assert k in counter_events(walk, j)


class TestEmpiricalFunctional:
    def test_indicator_matches_thinned_pmf(self):
        # (1/n) sum_j 1{N_j(n) = k} tends to (1 - p) P(Y(1) = k), Y(1) ~ YS(1/p).
        gen = RngStream(308).generator()
        walk = reinforce(gen.standard_normal(40_000), 0.5, gen)
        for k in (1, 2, 3):
            est = (terminal_counts(walk) == k).mean()
            target = 0.5 * ys_pmf(k, 2.0)
            se = math.sqrt(target * (1 - target) / 40_000)
            assert abs(est - target) < 4 * se


class TestElephant:
    def test_bounded_by_k(self):
        walk = elephant_walk(500, 0.4, RngStream(310).generator())
        assert walk.base_steps.shape == (500, 1)
        sums = walk.partial_sums[:, 0]
        ks = np.arange(501)
        assert np.all(np.abs(sums) <= ks)
        assert np.all(np.abs(np.diff(sums)) == 1)

    def test_diffusive_variance(self):
        ends = elephant_endpoints(2_000, 0.25, RngStream(311).generator(), 40_000)
        var = (ends / math.sqrt(2_000)).var()
        assert var == pytest.approx(2.0, rel=0.05)

    def test_small_memory_is_simple_walk(self):
        ends = elephant_endpoints(2_000, 0.01, RngStream(312).generator(), 20_000)
        var = (ends / math.sqrt(2_000)).var()
        assert var == pytest.approx(1.0, rel=0.06)

    def test_walk_and_endpoint_laws_agree(self):
        # The genealogy-based walk and the Markov-chain endpoints describe the
        # same law; compare terminal variances.
        n, p, reps = 300, 0.25, 4_000
        gen = RngStream(313).generator()
        walk_ends = np.array([elephant_walk(n, p, gen).partial_sums[-1, 0] for _ in range(reps)])
        chain_ends = elephant_endpoints(n, p, RngStream(314).generator(), reps)
        assert walk_ends.var() == pytest.approx(chain_ends.var(), rel=0.1)


class TestSkeleton:
    def test_pure_drift_is_exact(self):
        walk = skeleton_reinforced_walk(LevyTriplet.pure_drift([3.0]), 100, 0.5, RngStream(315).generator())
        assert walk.partial_sums[-1, 0] == pytest.approx(3.0, rel=1e-12)

    def test_brownian_centered(self):
        # Brownian increments over 1/100: step sd 0.1.
        qs = reinforced_prefix_sums(
            np.empty((100, 20_000)), LevyTriplet.brownian(), 0.3, RngStream(316).generator(), [50, 100]
        )
        se = qs.std(axis=0) / math.sqrt(20_000)
        assert np.all(np.abs(qs.mean(axis=0)) < 4 * se)


@pytest.mark.bytes
class TestBatchKernels:
    @pytest.mark.parametrize("n, replicas, p", [(1, 3, 0.5), (7, 5, 0.5), (60, 8, 0.9), (40, 6, 0.05)])
    def test_prefix_sums_match_reinforce_rule(self, n, replicas, p):
        # Replay the pre-drawn genealogy through the rule origins[i] =
        # origins[slot], one replica at a time; the origins kernel, the
        # skeleton prefix sums, the occupation counts and a single walk must
        # all match the replay.
        # Each block here is one chunk: the kernel draws its uniforms, then
        # the increments of its fresh slots.
        triplet = LevyTriplet.brownian()
        gen = RngStream(321).generator()
        fresh, sources = repeat_sources(n, replicas, p, gen)
        steps = np.zeros((n, replicas))
        steps[fresh] = increment_sample(triplet, 1.0 / n, gen, size=int(fresh.sum()))[:, 0]
        ks = [0, 1, n // 2, n]
        got = reinforced_prefix_sums(np.empty((n, replicas)), triplet, p, RngStream(321).generator(), ks)
        assert fresh[0].all()
        assert np.array_equal(fresh, sources == np.arange(n * replicas).reshape(n, replicas))
        origins = replay_genealogy(fresh, sources)
        resolved = simon_origins(n, p, RngStream(321).generator(), replicas)
        assert resolved.dtype == np.int32
        assert np.array_equal(resolved, origins)
        for r in range(replicas):
            sums = np.concatenate([[0.0], np.cumsum(steps[origins[:, r], r])])
            assert np.array_equal(got[r], sums[ks])
        counts = simon_terminal_counts(n, p, RngStream(321).generator(), replicas)
        assert counts.dtype == np.int32
        assert np.array_equal(counts, [np.bincount(o, minlength=n) for o in origins.T])
        # A single walk is the one-replica draw from the same seed.
        one_fresh, one_sources = repeat_sources(n, 1, p, RngStream(321).generator())
        origins = replay_genealogy(one_fresh, one_sources)
        walk = reinforce(np.zeros(n), p, RngStream(321).generator())
        assert np.array_equal(walk.origins == np.arange(n), one_fresh[:, 0])
        assert np.array_equal(walk.origins, origins[:, 0])

    @pytest.mark.parametrize("n, replicas, p", [
        (200, 1000, 0.5),
        (70_000, 1, 0.5),
        (4, SOURCE_CHUNK + 5, 0.5),
        (1000, 300, 1e-12),
        (1000, 300, 0.99),
        (100_000, 2, 0.5),
    ], ids=["partial-last-chunk", "one-replica", "row-per-chunk", "tiny-p", "p-near-one", "two-replicas"])
    def test_chunked_genealogy_matches_one_shot(self, n, replicas, p):
        # One-shot oracle: all n * R uniforms from one draw, clamped before
        # the cast.  The chunked kernel must give the same genealogy and
        # leave the generator at the same point of its stream.
        gen = RngStream(326).generator()
        u = gen.random((n, replicas))
        u[0] = 1.0
        fresh = u >= p
        rows = np.arange(n)[:, None]
        slots = np.minimum(u * (rows / p), rows - 1).astype(np.intp)
        expected = np.where(fresh, rows, slots) * replicas + np.arange(replicas)
        chunked = RngStream(326).generator()
        got_fresh, got = repeat_sources(n, replicas, p, chunked)
        assert np.array_equal(got_fresh, fresh)
        assert np.array_equal(got, expected)
        assert got.dtype == np.int32
        assert chunked.random() == gen.random()

    @pytest.mark.parametrize("n, replicas, p", [
        (70_000, 1, 0.999),
        (1000, 300, 0.99),
        (100_000, 2, 0.5),
        (6, SOURCE_CHUNK + 3, 0.5),
        (1, 4, 0.5),
    ], ids=["one-replica-across-chunks", "p-near-one", "two-replicas", "row-per-chunk", "one-row"])
    def test_origins_match_per_row_oracle(self, n, replicas, p):
        # Several chunks (but for the one row), with chains of repeats
        # inside a chunk and across chunk edges: the 70,000-row walk crosses
        # the 2**16-row edge with deep chains.  A single walk is column 0.
        ref, gen = RngStream(335).generator(), RngStream(335).generator()
        want = oracle_origins(n, replicas, p, ref)
        got = simon_origins(n, p, gen, replicas)
        assert got.dtype == want.dtype == np.int32
        assert got.tobytes() == want.tobytes()
        assert gen.random() == ref.random()
        if replicas == 1:
            walk = reinforce(np.zeros(n), p, RngStream(335).generator())
            assert np.array_equal(walk.origins, want[:, 0])

    def test_block_path_reads_only_earlier_slots(self):
        # Repeated slots hold 0 until gathered, so reading a slot >= i would
        # move S-hat(n) of a pure drift away from the drift.
        query = CfQuery(np.asarray([1.0]), np.asarray([1.0]))
        estimates, _ = diagnostics._mesh_ecf(
            LevyTriplet.pure_drift([3.0]), 0.9, [query], [500], 1500, RngStream(322), 2
        )
        assert abs(estimates[0, 0] - np.exp(3.0j)) < 1e-12

    def test_block_path_draws_fresh_slots_only(self, monkeypatch):
        sizes = []  # one list of increment_sample sizes per block

        def block(*args):
            sizes.append([])
            return reinforced_prefix_sums(*args)

        def recording(triplet, dt, rng, size=None):
            sizes[-1].append(size)
            return increment_sample(triplet, dt, rng, size=size)

        monkeypatch.setattr(diagnostics, "reinforced_prefix_sums", block)
        monkeypatch.setattr(step_reinforced, "increment_sample", recording)
        triplet, n, p, replicas, rng = LevyTriplet.stable(1.5), 300, 0.8, 1500, RngStream(323)
        query = CfQuery(np.asarray([1.0]), np.asarray([1.0]))
        diagnostics._mesh_ecf(triplet, p, [query], [n], replicas, rng, 1)
        expected = [
            int(one_shot_draw(triplet, n, count, p, gen)[0].sum())
            for gen, _, count in iter_blocks(rng.substream(0), replicas)
        ]
        assert [sum(block_sizes) for block_sizes in sizes] == expected
        assert sum(expected) < 0.25 * n * replicas

    def test_kernel_rejects_empty_walks(self):
        with pytest.raises(DomainError):
            simon_origins(0, 0.5, RngStream(324).generator(), 4)
        with pytest.raises(DomainError):
            reinforced_prefix_sums(
                np.zeros((0, 4)), LevyTriplet.brownian(), 0.5, RngStream(324).generator(), [0]
            )

    @pytest.mark.parametrize("triplet, ks", [
        (LevyTriplet.brownian(), [-1]), (LevyTriplet.brownian(), [11]), (LevyTriplet.brownian(2), [10]),
    ], ids=["negative-prefix", "prefix-past-n", "two-dimensional"])
    def test_kernel_rejects_before_any_draw(self, triplet, ks):
        gen = RngStream(328).generator()
        with pytest.raises(DomainError):
            reinforced_prefix_sums(np.empty((10, 4)), triplet, 0.5, gen, ks)
        assert gen.random() == RngStream(328).generator().random()

    def test_tiny_memory_casts_without_overflow(self):
        # (u / p) * i exceeds the integer range for fresh slots when p is
        # tiny, so the clamp to i - 1 has to come before the cast.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh, _ = repeat_sources(100_000, 2, 1e-15, RngStream(325).generator())
            origins = simon_origins(100_000, 1e-15, RngStream(325).generator(), 2)
        assert fresh.all()
        assert np.array_equal(origins, np.arange(100_000)[:, None].repeat(2, axis=1))

    def test_counts_working_set(self):
        # The counts hold their int32 origins and int32 counts, 8 n R bytes:
        # the peak read 5.00 x 4 n R bytes while a view of the last genealogy
        # chunk kept the origins alive beside their intp copy for bincount.
        n, replicas = 20_000, 256
        tracemalloc.start()
        try:
            simon_terminal_counts(n, 0.5, RngStream(329).generator(), replicas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.2 * 4 * n * replicas

    def test_terminal_counts_identity_and_law(self):
        counts = simon_terminal_counts(5_000, 0.5, RngStream(318).generator(), 20)
        assert np.all(counts.sum(axis=1) == 5_000)
        frac1 = (counts == 1).mean(axis=1).mean()
        assert frac1 == pytest.approx(0.5 * ys_pmf(1, 2.0), abs=0.01)

    def test_moment_growth_bound(self):
        # E[N_j(n)^gamma (j/n)] stays bounded in n for gamma < 1/p: the
        # log-mean trend across decades must be flat.
        p, gamma = 0.5, 1.5
        means = []
        ns = [100, 1_000, 10_000]
        for i, n in enumerate(ns):
            counts = simon_terminal_counts(n, p, RngStream(319).generator(i), 200)
            j_frac = (np.arange(1, n + 1) / n)[None, :]
            means.append(float((counts.astype(float) ** gamma * j_frac).mean()))
        slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
        assert abs(slope) < 0.05

    def test_pair_chaos(self):
        # Occupation counters of two uniformly chosen distinct words are
        # asymptotically independent: indicator correlations stay near 0,
        # both unconditionally and conditionally on both words being fresh
        # (conditioning makes the level-1 indicator degenerate, so the
        # conditional check starts at level 2).
        n, reps, blocks = 1_000, 100_000, 5
        rng = RngStream(320)
        rows = []
        for b in range(blocks):
            counts = simon_terminal_counts(n, 0.5, rng.generator(b), reps // blocks)
            gen = rng.generator(100 + b)
            u = gen.integers(0, n, size=reps // blocks)
            v = (u + 1 + gen.integers(0, n - 1, size=reps // blocks)) % n
            idx = np.arange(reps // blocks)
            rows.append(np.stack([counts[idx, u], counts[idx, v]], axis=1))
        pairs = np.concatenate(rows)
        for m in (1, 2, 3):
            corr = np.corrcoef((pairs[:, 0] >= m), (pairs[:, 1] >= m))[0, 1]
            assert abs(corr) < 0.02
        fresh = pairs[(pairs > 0).all(axis=1)]
        for m in (2, 3):
            corr = np.corrcoef((fresh[:, 0] >= m), (fresh[:, 1] >= m))[0, 1]
            assert abs(corr) < 0.02


def one_shot_draw(triplet, n, replicas, p, gen):
    """The skeleton block's draws with the whole genealogy held at once:
    the (n, R) arrays of :func:`repeat_sources`, and each chunk's fresh
    increments, drawn as that chunk is drawn, scattered into a zero-filled
    (n, R) array of steps."""
    steps = np.zeros((n, replicas))

    def draw_fresh(start, fr):
        rows = steps[start : start + len(fr)]
        rows[fr] = increment_sample(triplet, 1.0 / n, gen, size=int(fr.sum()))[:, 0]

    fresh, sources = repeat_sources(n, replicas, p, gen, draw_fresh)
    return fresh, sources, steps


def one_shot_block(triplet, n, replicas, p, gen, ks):
    """The skeleton block from :func:`one_shot_draw`: follow_sources and one
    cumsum over all rows."""
    _, sources, steps = one_shot_draw(triplet, n, replicas, p, gen)
    follow_sources(steps, sources)
    np.cumsum(steps, axis=0, out=steps)
    ks = np.asarray(ks)
    return np.where(ks > 0, steps[ks - 1].T, 0.0)


@pytest.mark.bytes
class TestStreamedBlock:
    # 300 replicas make chunks of 218 rows: 333 lies inside the second chunk,
    # 436 on the edge of the second and third, 218 and 219 on the last row of
    # the first chunk and the first row of the second, and row 1000 ends a
    # partial fifth chunk.  Two replicas make chunks of 32,768 rows.
    shapes = pytest.mark.parametrize("n, replicas, p, ks", [
        (1000, 300, 0.8, [0, 333, 436, 1000]),
        (1000, 300, 1e-12, [0, 1, 333, 1000]),
        (1000, 300, 0.99, [0, 218, 333, 1000]),
        (1000, 300, 0.5, [219, 218, 1000]),
        (300, 1, 0.5, [0, 1, 150, 300]),
        (70_000, 1, 0.5, [0, 65_536, 65_537, 70_000]),
        (1000, 2, 0.8, [1000, 437, 0, 437, 219]),
        (70_000, 2, 0.5, [70_000, 32_769, 0, 32_768, 32_769, 1]),
        (50, 0, 0.5, [0, 25, 50]),
        (6, SOURCE_CHUNK + 3, 0.5, [0, 1, 3, 6]),
    ], ids=["chunk-middle-and-edge", "tiny-p", "p-near-one", "chunk-last-and-first-rows",
            "one-replica", "one-replica-partial-last-chunk", "two-replicas-unsorted-repeats",
            "two-replicas-across-chunks", "zero-replicas", "row-per-chunk"])

    @shapes
    def test_matches_one_shot_block(self, n, replicas, p, ks):
        # The same draws in the same order: equal bytes, and the generator
        # left at the same point of its stream.
        triplet = LevyTriplet.stable(1.5)
        ref, gen = RngStream(331).generator(), RngStream(331).generator()
        want = one_shot_block(triplet, n, replicas, p, ref, ks)
        got = reinforced_prefix_sums(np.empty((n, replicas)), triplet, p, gen, ks)
        assert got.shape == (replicas, len(ks))
        assert got.tobytes() == want.tobytes()
        assert gen.random() == ref.random()

    @shapes
    def test_reads_no_slot_before_writing_it(self, n, replicas, p, ks):
        # A reused steps buffer holds an earlier block's values: a NaN in
        # any slot read before the call writes it would reach the sums.
        triplet = LevyTriplet.stable(1.5)
        want = reinforced_prefix_sums(np.zeros((n, replicas)), triplet, p, RngStream(331).generator(), ks)
        stale = np.full((n, replicas), np.nan)
        got = reinforced_prefix_sums(stale, triplet, p, RngStream(331).generator(), ks)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_mesh_blocks_match_fresh_arrays(self, threads):
        # 3077 replicas are blocks of 1024, 1024, 1024 and 5, so a thread
        # runs blocks of two sizes, at two mesh points.  Each must give the
        # bytes of its own fresh (n, count) array.
        triplet, p, mesh, replicas, rng = LevyTriplet.stable(1.5), 0.8, (50, 300), 3077, RngStream(336)
        query = CfQuery(np.asarray([1.0, 2.0]), np.asarray([0.5, 1.0]))
        got, _ = diagnostics._mesh_ecf(triplet, p, [query], mesh, replicas, rng, threads)
        for i, n in enumerate(mesh):
            sums = np.concatenate([
                reinforced_prefix_sums(np.empty((n, count)), triplet, p, gen, [n // 2, n])
                for gen, _, count in iter_blocks(rng.substream(i), replicas)
            ])
            assert sums.shape == (replicas, 2)
            want = diagnostics.empirical_cf(sums, [0.5, 1.0], [query]).estimates
            assert got[i].tobytes() == want.tobytes()

    def test_block_working_set(self):
        # The block holds one (n, R) float array and one chunk: no (n, R)
        # bool or int genealogy array and no array of all its fresh
        # increments beside it.  At the workload's p = 0.8 the peak read
        # 2.27 x 8 n R bytes while the whole genealogy was held, and 1.29
        # while the fresh increments were drawn in one piece.
        n, replicas = 2_000, 1024
        query = CfQuery(np.asarray([1.0]), np.asarray([1.0]))
        tracemalloc.start()
        try:
            diagnostics._mesh_ecf(
                LevyTriplet.stable(1.5), 0.8, [query], [n], replicas, RngStream(334), 1
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * n * replicas

    def test_block_working_set_two_threads(self):
        # Two pool threads, each at most one block's (n, R) steps and one
        # chunk at a time, over 4 blocks per mesh point: a thread's steps
        # must not outlive its pool, nor pile up over the blocks it runs.
        mesh, replicas = (500, 2000), 4 * BLOCK_SIZE
        query = CfQuery(np.asarray([1.0]), np.asarray([1.0]))
        tracemalloc.start()
        try:
            diagnostics._mesh_ecf(
                LevyTriplet.stable(1.5), 0.8, [query], mesh, replicas, RngStream(337), 2
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 1.2 * 8 * mesh[-1] * BLOCK_SIZE


@pytest.mark.bytes
class TestZeroReplicas:
    @pytest.mark.parametrize("n", [1, 50])
    def test_empty_genealogy_and_counts(self, n):
        gen = RngStream(327).generator()
        fresh, sources = repeat_sources(n, 0, 0.5, gen)
        assert fresh.shape == sources.shape == (n, 0)
        assert (fresh.dtype, sources.dtype) == (np.bool_, np.int32)
        origins = simon_origins(n, 0.5, gen, 0)
        assert origins.shape == (n, 0) and origins.dtype == np.int32
        counts = simon_terminal_counts(n, 0.5, gen, 0)
        assert counts.shape == (0, n) and counts.dtype == np.int32
        assert gen.random() == RngStream(327).generator().random()
