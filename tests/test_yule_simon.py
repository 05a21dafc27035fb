"""Law and moment checks for the Yule-Simon distribution and process."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn
from scipy.special import betainc, betaln, gammaln
from scipy.stats import chisquare

from nrlevy import yule_simon
from nrlevy.errors import DomainError
from nrlevy.rng import RngStream
from nrlevy.yule_simon import (
    HEAD_MAX,
    MemoryParameter,
    as_memory,
    ys_abs_moment,
    ys_cross_moment,
    ys_head_table,
    ys_joint_values,
    ys_mean,
    ys_pair_cells,
    ys_pmf,
    ys_process_values,
    ys_sample,
)


def tv_distance(draws: np.ndarray, rho: float) -> float:
    """Total variation between an empirical law on {1,2,...} and the pmf."""
    counts = np.bincount(draws)
    emp = counts[1:] / draws.size
    k = np.arange(1, counts.size)
    pmf = ys_pmf(k, rho)
    return 0.5 * float(np.abs(emp - pmf).sum()) + 0.5 * float(1.0 - pmf.sum())


class TestPmf:
    def test_exact_value_k1_rho2(self):
        # rho * B(1, rho+1) with B(1, 3) = 1/3
        assert ys_pmf(1, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_large_rho_limit(self):
        # B(1, rho+1) = 1/(rho+1), so the mass at 1 tends to 1
        assert ys_pmf(1, 1e9) == pytest.approx(1.0, abs=1e-8)

    def test_tail_asymptotics(self):
        # pmf(k) ~ rho * Gamma(rho+1) k^-(rho+1); at rho=2, k=1e4 the ratio
        # is 1/((1+1/k)(1+2/k)), within 1% of 1.
        k = 10**4
        ratio = ys_pmf(k, 2.0) / (2.0 * math.gamma(3.0) * k**-3.0)
        assert abs(ratio - 1.0) < 0.01
        assert ratio == pytest.approx(1.0 / ((1 + 1 / k) * (1 + 2 / k)), rel=1e-10)

    def test_normalization_with_exact_tail(self):
        # At rho=2 the tail telescopes: sum_{k>K} pmf = 2/((K+1)(K+2)).
        big_k = 10**5
        head = ys_pmf(np.arange(1, big_k + 1), 2.0).sum()
        tail = 2.0 / ((big_k + 1) * (big_k + 2))
        assert abs(head - (1.0 - tail)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=500),
        rho=st.floats(min_value=0.2, max_value=12.0),
    )
    def test_matches_beta_function(self, k, rho):
        assert ys_pmf(k, rho) == pytest.approx(rho * beta_fn(k, rho + 1.0), rel=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ys_pmf(0, 2.0)
        with pytest.raises(DomainError):
            ys_pmf(1, 0.0)
        with pytest.raises(DomainError):
            ys_pmf(1.5, 2.0)


class TestSampler:
    def test_support_and_law(self):
        draws = ys_sample(2.0, RngStream(101).generator(), size=200_000)
        assert draws.min() >= 1
        assert tv_distance(draws, 2.0) < 0.005

    def test_mean_rho4(self):
        draws = ys_sample(4.0, RngStream(102).generator(), size=500_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 4.0 / 3.0) < 3 * se

    def test_rejects_rho_at_most_one(self):
        with pytest.raises(DomainError):
            ys_sample(1.0, RngStream(1).generator())

    @pytest.mark.bytes
    def test_takes_a_generator_not_a_stream(self):
        # A stream would restart at every call and repeat its draws.
        with pytest.raises(AttributeError):
            ys_sample(2.0, RngStream(1), 5)

    def test_moment_threshold(self):
        # Moments of order q < rho stabilize; q > rho keeps growing with the
        # sample size (infinite moment). Compare running means over prefixes.
        draws = ys_sample(2.0, RngStream(103).generator(), size=400_000).astype(float)
        sizes = np.array([10_000, 40_000, 160_000, 400_000])
        low = [np.mean(draws[:n] ** 1.5) for n in sizes]
        high = [np.mean(draws[:n] ** 2.5) for n in sizes]
        slope_low = np.polyfit(np.log(sizes), np.log(low), 1)[0]
        slope_high = np.polyfit(np.log(sizes), np.log(high), 1)[0]
        assert abs(slope_low) < 0.08
        assert slope_high > 0.15


class TestCountingPath:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_monotone_on_sampled_paths(self, seed):
        vals = ys_process_values(2.0, np.linspace(0.0, 1.0, 23)[1:], RngStream(seed).generator(), 1)
        assert np.all(np.diff(vals, axis=1) >= 0)
        assert np.all(vals >= 0)


class TestProcess:
    def test_single_path_structure(self):
        vals = ys_process_values(3.0, np.linspace(0.0, 1.0, 101)[1:], RngStream(104).generator(), 1)
        assert np.all(np.diff(vals, axis=1) >= 0)
        assert np.all(vals >= 0)
        assert np.all(vals[:, -1] >= 1)  # the first jump time is uniform on (0, 1)

    def test_large_rho_overflow_is_silent(self):
        # At rho = 1000, exp(rho E / m) overflows for about half the paths at
        # m = 1: the jump time is then +inf, past 1, so the path stops there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = ys_process_values(1000.0, [0.5, 1.0], RngStream(113).generator(), 1000)
        assert vals.min() >= 0 and vals[:, 1].min() >= 1

    def test_positivity_probability(self):
        vals = ys_process_values(2.0, [0.3], RngStream(105).generator(), 100_000)
        frac = (vals[:, 0] >= 1).mean()
        se = math.sqrt(0.3 * 0.7 / 100_000)
        assert abs(frac - 0.3) < 3 * se

    def test_conditional_terminal_law(self):
        vals = ys_process_values(2.0, [1.0], RngStream(106).generator(), 100_000)[:, 0]
        assert vals.min() >= 1  # positivity holds surely at t = 1
        assert tv_distance(vals, 2.0) < 0.01

    def test_event_and_bridge_samplers_agree(self):
        times = [0.25, 0.6, 1.0]
        ev = ys_process_values(2.0, times, RngStream(107).generator(), 100_000)
        br = ys_joint_values(2.0, times, RngStream(108).generator(), 100_000)
        for g in range(3):
            # pooled two-sample TV over a common support cut
            kmax = 30
            e = np.bincount(np.minimum(ev[:, g], kmax), minlength=kmax + 1) / ev.shape[0]
            b = np.bincount(np.minimum(br[:, g], kmax), minlength=kmax + 1) / br.shape[0]
            assert 0.5 * np.abs(e - b).sum() < 0.01

    def test_self_similarity(self):
        # Conditionally on Y(t) >= 1, s -> Y(s t) is again the same process:
        # its positivity probability at s is s and its conditional terminal
        # law matches the unconditional one at time 1.
        t, s = 0.8, 0.5
        vals = ys_process_values(2.0, [s * t, t], RngStream(109).generator(), 200_000)
        positive = vals[:, 1] >= 1
        frac = (vals[positive, 0] >= 1).mean()
        se = math.sqrt(s * (1 - s) / positive.sum())
        assert abs(frac - s) < 3.5 * se
        assert tv_distance(vals[positive, 1], 2.0) < 0.01

    def test_conditioned_process_matches_plain_sampler(self):
        # Two-sample chi-square on pooled bins: process values at t given
        # positivity against direct Yule-Simon draws.
        from scipy.stats import chi2_contingency

        gen = RngStream(112).generator()
        vals = ys_process_values(2.0, [0.3, 0.7], gen, 100_000)
        direct = ys_sample(2.0, gen, size=100_000)
        for g in (0, 1):
            conditioned = vals[vals[:, g] >= 1, g]
            kmax = 12
            a = np.bincount(np.minimum(conditioned, kmax), minlength=kmax + 1)[1:]
            b = np.bincount(np.minimum(direct, kmax), minlength=kmax + 1)[1:]
            _, pvalue, _, _ = chi2_contingency(np.stack([a, b]))
            assert pvalue > 0.01

    def test_bridge_marginals_match_pmf(self):
        vals = ys_joint_values(2.0, [0.4, 1.0], RngStream(110).generator(), 100_000)
        frac0 = (vals[:, 0] >= 1).mean()
        assert abs(frac0 - 0.4) < 3 * math.sqrt(0.4 * 0.6 / 100_000)
        assert tv_distance(vals[:, 1], 2.0) < 0.01


def _masked_bridge(rho: float, times, gen: np.random.Generator, replicas: int) -> np.ndarray:
    """The draws of ``ys_joint_values`` written with boolean masks over all
    paths and fancy indexing into the head's alias table: an independent
    statement of its draw order."""
    times = np.asarray(times, dtype=float)
    head = ys_head_table(rho, times)
    h = len(head.times)
    col = gen.integers(0, head.alias.size, size=replicas, dtype=np.int32)
    test = gen.random(replicas)
    cell = np.where(test < head.threshold[col], col, head.alias[col])
    out = np.zeros((replicas, times.size), dtype=np.int64)
    out[:, :h] = head.values[:, cell].T
    tail = cell == head.tail
    if np.any(tail):
        w = gen.beta(rho, HEAD_MAX + 1.0, size=tail.sum())
        last = HEAD_MAX + gen.geometric(w)
        out[tail, h - 1] = last
        if h == 2:
            q = (times[0] / times[1]) ** (1.0 / rho)
            early = w <= q
            first = np.zeros(w.size, dtype=np.int64)
            first[early] = 1 + gen.binomial(last[early] - 1, (q - w[early]) / (1.0 - w[early]))
            out[tail, 0] = first
    state = out[:, h - 1].copy()
    started = state > 0
    u = np.ones(replicas)
    if times.size > h:
        u[~started] = 1.0 - (1.0 - times[h - 1]) * gen.random((~started).sum())
    for g in range(h, times.size):
        t_prev, t = times[g - 1], times[g]
        fresh = ~started & (u <= t)
        if np.any(fresh):
            state[fresh] = gen.geometric((u[fresh] / t) ** (1.0 / rho))
        cont = started
        if np.any(cont):
            q = (t_prev / t) ** (1.0 / rho)
            state[cont] += gen.negative_binomial(state[cont], q)
        started |= fresh
        out[:, g] = np.where(started, state, 0)
    return out


def pair_cells(rho: float, t1: float, t2: float):
    """(j, k, P(Y(t1) = j, Y(t2) = k)) over every cell with 1 <= k <= HEAD_MAX,
    in row order (j ascending, then k)."""
    return tuple(np.concatenate(c) for c in zip(*ys_pair_cells(rho, t1, t2, HEAD_MAX)))


def pair_chi2_pvalue(pairs: np.ndarray, rho: float, t1: float, t2: float) -> float:
    """Chi-square p-value of sampled (Y(t1), Y(t2)) pairs against the exact
    cells: cells with an expected count of at least 10 are bins of their own,
    the rest (tail included) one pooled bin."""
    n = pairs.shape[0]
    j, k, cells = pair_cells(rho, t1, t2)
    j, k = np.append(0, j), np.append(0, k)  # (0, 0) first, then row order
    mass = np.append(1.0 - t2, cells)
    expected = n * mass
    own = expected >= 10.0
    codes = j[own] * (HEAD_MAX + 1) + k[own]  # ascending
    drawn = np.where(pairs[:, 1] <= HEAD_MAX, pairs[:, 0] * (HEAD_MAX + 1) + pairs[:, 1], -1)
    pos = np.minimum(np.searchsorted(codes, drawn), codes.size - 1)
    hit = codes[pos] == drawn
    observed = np.bincount(pos[hit], minlength=codes.size)
    f_obs = np.append(observed, n - observed.sum())
    f_exp = np.append(expected[own], n - expected[own].sum())
    return chisquare(f_obs, f_exp).pvalue


def full_triangle(rho: float, t1: float, t2: float, kmax: int) -> np.ndarray:
    """Every cell P(Y(t1) = j, Y(t2) = k), 0 <= j <= k <= kmax and k >= 1,
    evaluated afresh from the two cell formulas, flat in row order: row 0
    (k = 1..kmax), then row j (k = j..kmax), one row at a time."""
    q = (t1 / t2) ** (1.0 / rho)
    lgamma = gammaln(np.arange(kmax + 2, dtype=float))
    pmf = np.append(0.0, ys_pmf(np.arange(1, kmax + 1), rho))
    k = np.arange(1, kmax + 1)
    rows = [t2 * pmf[k] * (1.0 - betainc(rho + 1.0, k.astype(float), q))]
    for j in range(1, kmax + 1):
        k = np.arange(j, kmax + 1)
        nb = k - j
        log_nb = lgamma[k] - lgamma[j] - lgamma[nb + 1] + j * np.log(q) + nb * np.log1p(-q)
        rows.append(t1 * pmf[j] * np.exp(log_nb))
    return np.concatenate(rows)


def triangle_index(j: np.ndarray, k: np.ndarray, kmax: int) -> np.ndarray:
    """Position of cell (j, k) in :func:`full_triangle`'s flat order."""
    start = kmax + (j - 1) * (kmax + 1) - (j - 1) * j // 2  # rows 0..j-1 come first
    return np.where(j == 0, k - 1, start + k - j)


class TestAliasHead:
    """The head's alias table draws the exact cells; the tail and the later
    grid times follow the process law.  Seeds, sizes and thresholds are fixed."""

    @pytest.mark.parametrize("rho, t1, t2", [(2.0, 0.5, 1.0), (1.25, 0.3, 0.7), (3.3, 0.2, 0.9)])
    def test_pair_pmf_is_a_law(self, rho, t1, t2):
        j, k, cells = pair_cells(rho, t1, t2)
        tail = t2 * math.exp(math.log(rho) + betaln(rho, HEAD_MAX + 1.0))
        assert abs(cells.sum() + (1.0 - t2) + tail - 1.0) < 1e-12
        rows = np.bincount(k, weights=cells)[1:]  # P(Y(t2) = k)
        kk = np.arange(1, HEAD_MAX + 1)
        np.testing.assert_allclose(rows, t2 * ys_pmf(kk, rho), rtol=1e-12)

    def test_pair_pmf_rejects_bad_cells(self):
        # The enumerator builds only valid cells; it checks rho and the times,
        # which must stay apart once q = (t1/t2)^(1/rho) is rounded.
        for rho, t1, t2 in ((2.0, 0.5, 0.5), (2.0, 0.7, 0.5), (2.0, 0.0, 0.5), (2.0, 0.5, 1.5),
                            (1.0, 0.5, 1.0), (2.0, 1.0 - 2.0**-53, 1.0)):
            with pytest.raises(DomainError):
                list(ys_pair_cells(rho, t1, t2, HEAD_MAX))

    @pytest.mark.bytes
    def test_pair_cells_layout_and_chunks(self, monkeypatch):
        # Row order is the upper triangle's without (0, 0), and chunks of
        # whole rows give the bytes of one chunk.
        j, k, mass = pair_cells(2.0, 0.3, 0.8)
        tj, tk = np.triu_indices(HEAD_MAX + 1)
        np.testing.assert_array_equal(j, tj[1:])
        np.testing.assert_array_equal(k, tk[1:])
        monkeypatch.setattr(yule_simon, "TABLE_CHUNK", 1000)
        chunks = list(ys_pair_cells(2.0, 0.3, 0.8, HEAD_MAX))
        assert len(chunks) > 3 and not chunks[0][0].any()  # row 0, then whole rows
        assert all(c[1][0] == c[0][0] and c[1][-1] == HEAD_MAX for c in chunks[1:])
        for got, want in zip(zip(*chunks), (j, k, mass)):
            np.testing.assert_array_equal(np.concatenate(got), want)

    @pytest.mark.bytes
    @pytest.mark.parametrize("rho, t1, t2, kmax", [
        (2.0, 0.5, 1.0, 4000), (2.0, 0.01, 1.0, 4000), (1.25, 0.99, 1.0, 4000),
        (2.0, 1e-40, 1.0, 4000), (1.0001, 0.5, 1.0, 4000), (50.0, 0.1, 0.2, 4000),
        (3.3, 0.999, 1.0, HEAD_MAX), (2000.0, 0.5, 1.0, HEAD_MAX),
    ])
    def test_pair_cells_against_full_triangle(self, rho, t1, t2, kmax):
        # Every cell the enumeration leaves out is exactly 0.0, every cell it
        # gives is bitwise the full triangle's, in row order, row 0 whole and
        # each later row one run of consecutive k.
        full = full_triangle(rho, t1, t2, kmax)
        kept = np.zeros(full.size, dtype=bool)
        chunks = list(ys_pair_cells(rho, t1, t2, kmax))
        np.testing.assert_array_equal(chunks[0][1], np.arange(1, kmax + 1))
        last = -1
        for j, k, cells in chunks:
            idx = triangle_index(j, k, kmax)
            assert np.all(np.diff(idx, prepend=last) > 0)
            same_row = np.diff(j) == 0
            assert np.all(np.diff(k)[same_row] == 1)
            np.testing.assert_array_equal(cells.view(np.uint64), full[idx].view(np.uint64))
            kept[idx] = True
            last = idx[-1] if idx.size else last
        full[kept] = 0.0
        assert np.count_nonzero(full) == 0

    def test_tail_cell_kept_when_its_mass_underflows(self):
        # At rho = 2000 the tail's mass t rho B(rho, HEAD_MAX + 1) is 0.
        for times in ([0.5, 1.0], [0.7]):
            head = ys_head_table(2000.0, times)
            assert head.mass[head.tail] == 0.0
            np.testing.assert_array_equal(head.values[:, head.tail], 0)

    def test_tables_are_cached_and_read_only(self):
        a = ys_head_table(2.0, [0.2, 0.5])
        assert ys_head_table(2.0, np.array([0.2, 0.5, 0.9])) is a  # the head is the first two times
        assert a.values.shape == (2, a.alias.size) and a.tail == a.alias.size - 1
        for arr in (a.threshold, a.alias, a.values):
            assert not arr.flags.writeable

    @pytest.mark.bytes
    @pytest.mark.parametrize("rho, times, digest", [
        (2.0, [0.5, 1.0], "1362d4634997df2aa51901f8936fe35308659dffb78268a273741c3840609dea"),
        (1.25, [0.99, 1.0], "14d5321cac2ead039155a99700aab6dc7462cd2d66a730271567fdb13bfb11c4"),
        (3.3, [0.999, 1.0], "00f47525ec19fed38c7cfcb7f6d9e6dcfbeb76e78ab49ec79e8dc9f6fb1bcb96"),
        (2000.0, [0.5, 1.0], "eabfdebbbc6fbbb7067f66f540b2e8ad069ed5e7bf2b7a6fc8a5351bf7bc19a3"),
        (1.01, [0.01, 1.0], "3cde41aa2710b4f552e016aba9536c1cd77e9a9efa727e3872640af121c2a47c"),
        (50.0, [0.1, 0.2], "b04ee391a02ee57db7705317dcabe9399fd846b88a05369e64c70e965e17daf2"),
    ], ids=lambda v: v[:8] if isinstance(v, str) else None)
    def test_table_bytes(self, rho, times, digest):
        # sha256 of the mass, thresholds, aliases and values, in that order.
        head = ys_head_table(rho, times)
        h = hashlib.sha256()
        for a in (head.mass, head.threshold, head.alias, head.values):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("rho, times", [(2.0, [0.45, 1.0]), (1.01, [1e-9, 1.0]), (50.0, [0.3]),
                                            (1.11, [0.6, 0.8]), (3.3, [0.999, 1.0])])
    def test_alias_columns_hold_each_cells_mass(self, rho, times):
        # Cell c's probability is its own column's threshold plus what the
        # columns aliased to it give up, over the column count.
        head = ys_head_table(rho, times)
        implied = head.threshold.copy()
        np.add.at(implied, head.alias, 1.0 - head.threshold)
        assert head.threshold.min() >= 0.0 and head.threshold.max() <= 1.0
        assert np.abs(implied / implied.size - head.mass / head.mass.sum()).max() < 1e-13
        assert np.all(head.mass > 0.0)  # cells of zero mass are left out

    @pytest.mark.parametrize("mass", [[1.0, 0.0, 0.0, 3.0], [2.0, 2.0, 0.0, 0.0], [1.0] * 7, [0.3]])
    def test_alias_table_edge_laws(self, mass):
        # Donors with no excess, ties at the mean and a single cell.
        threshold, alias = yule_simon._alias_table(np.asarray(mass))
        implied = threshold.copy()
        np.add.at(implied, alias, 1.0 - threshold)
        np.testing.assert_allclose(implied / len(mass), np.asarray(mass) / sum(mass), atol=1e-15)

    @pytest.mark.parametrize("rho, t1, t2, seed", [(2.0, 0.5, 1.0, 120), (1.25, 0.3, 0.7, 121),
                                                   (3.3, 0.4, 0.9, 122), (1.11, 0.6, 0.8, 123)])
    def test_head_cells_match_exact_law(self, rho, t1, t2, seed):
        pairs = ys_joint_values(rho, [t1, t2], RngStream(seed).generator(), 1_000_000)
        assert pair_chi2_pvalue(pairs, rho, t1, t2) > 1e-3

    def test_one_point_head_matches_pmf(self):
        t, n = 0.7, 1_000_000
        vals = ys_joint_values(2.0, [t], RngStream(124).generator(), n)[:, 0]
        k = np.arange(1, HEAD_MAX + 1)
        expected = n * np.concatenate([[1.0 - t], t * ys_pmf(k, 2.0)])
        own = expected >= 10.0
        observed = np.bincount(vals[vals <= HEAD_MAX], minlength=HEAD_MAX + 1)[own]
        f_obs = np.append(observed, n - observed.sum())
        f_exp = np.append(expected[own], n - expected[own].sum())
        assert chisquare(f_obs, f_exp).pvalue > 1e-3

    def test_tail_matches_event_sampler(self):
        # At rho = 1.11 about 1,500 of 10^6 paths pass HEAD_MAX by t2 = 0.8.
        # Nearly all of them have started by t1 = 0.3; at t1 = 0.002 about a
        # third start later, so both branches of the tail's Y(t1) are drawn.
        # One event-sampler run reads its paths at all three times.
        from scipy.stats import ks_2samp

        rho, t2, n = 1.11, 0.8, 1_000_000
        event = ys_process_values(rho, [0.002, 0.3, t2], RngStream(126).generator(), n)
        exact = t2 * math.exp(math.log(rho) + betaln(rho, HEAD_MAX + 1.0))
        se = math.sqrt(exact * (1.0 - exact) / n)
        for g, t1, seed in ((1, 0.3, 125), (0, 0.002, 127)):
            joint = ys_joint_values(rho, [t1, t2], RngStream(seed).generator(), n)
            tails = [vals[vals[:, 1] > HEAD_MAX] for vals in (joint, event[:, [g, 2]])]
            for tail in tails:
                assert abs(tail.shape[0] / n - exact) < 4 * se
            # Within the tail: the laws of Y(t2), of Y(t1), and of Y(t1)/Y(t2).
            assert ks_2samp(tails[0][:, 1], tails[1][:, 1]).pvalue > 1e-3
            assert ks_2samp(tails[0][:, 0], tails[1][:, 0]).pvalue > 1e-3
            ratio = [tail[:, 0] / tail[:, 1] for tail in tails]
            assert ks_2samp(*ratio).pvalue > 1e-3

    def test_three_point_grid_pairs_match_exact_law(self):
        # The third time comes from the forward bridge: the start times of
        # the paths empty at t2 and the negative-binomial increments.
        rho, times = 2.0, [0.2, 0.5, 0.9]
        vals = ys_joint_values(rho, times, RngStream(129).generator(), 1_000_000)
        assert pair_chi2_pvalue(vals[:, [1, 2]], rho, 0.5, 0.9) > 1e-3
        assert pair_chi2_pvalue(vals[:, [0, 2]], rho, 0.2, 0.9) > 1e-3


@pytest.mark.bytes
class TestBridgeBytes:
    GRIDS = ([1.0], [0.3], [0.999, 1.0], [1e-9, 1.0], [0.2, 0.5, 0.9],
             [0.1, 0.25, 0.5, 0.75], [0.05, 0.2, 0.4, 0.8, 1.0])

    @pytest.mark.parametrize("replicas", [0, 1, 2, 17, 5000])
    @pytest.mark.parametrize("rho", [1.01, 2.0, 50.0])
    def test_matches_masked_loop(self, rho, replicas):
        for seed in range(3):
            for times in self.GRIDS:
                gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = ys_joint_values(rho, times, gen, replicas)
                want = _masked_bridge(rho, times, ref, replicas)
                assert got.shape == (replicas, len(times))
                assert got.dtype == want.dtype == np.int64
                np.testing.assert_array_equal(got, want)
                assert gen.random() == ref.random()  # the same number of bits consumed


    @pytest.mark.parametrize("times", [[0.7], [0.3, 1.0], [0.2, 0.5, 0.9]])
    def test_out_form_matches_the_allocating_draw(self, times):
        # A garbage-filled out and scratch: every row is overwritten, the
        # rows past the head included, whose unstarted paths hold 0.
        rho, replicas = 1.5, 5000
        gen, ref = np.random.default_rng(125), np.random.default_rng(125)
        out = np.full((len(times), replicas), -7, dtype=np.int64)
        scratch = yule_simon.AliasScratch(replicas + 3)
        for a in (scratch.uniforms, scratch.thresholds):
            a.fill(np.nan)
        scratch.aliases.fill(-1)
        scratch.mask.fill(True)
        got = ys_joint_values(rho, times, gen, replicas, out=out, scratch=scratch)
        want = ys_joint_values(rho, times, ref, replicas)
        assert np.shares_memory(got, out) and got.shape == (replicas, len(times))
        np.testing.assert_array_equal(got, want)
        assert np.any(want == 0) and np.all(out >= 0)
        assert gen.random() == ref.random()


class TestMoments:
    def test_mean_values(self):
        assert ys_mean(1.0, 4.0) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert ys_mean(0.5, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_cross_moment_values(self):
        assert ys_cross_moment(1.0, 1.0, 4.0) == pytest.approx(8.0 / 3.0, rel=1e-14)
        # symmetric in its time arguments (swapped internally)
        assert ys_cross_moment(1.0, 0.5, 4.0) == ys_cross_moment(0.5, 1.0, 4.0)

    @pytest.mark.bytes
    def test_pinned_values_at_positive_times(self):
        # Exact bytes of both helpers, down to a time near the underflow edge.
        assert ys_mean(0.25, 4.0) == 0.3333333333333333
        assert ys_mean(1e-300, 3.0) == 1.5e-300
        assert ys_cross_moment(0.5, 1.0, 4.0) == 1.5856094866702946
        assert ys_cross_moment(0.1, 0.7, 4.0) == 0.4337537497860762
        assert ys_cross_moment(1e-300, 1.0, 3.0) == 4.4999999999997705e-200
        assert ys_cross_moment(1.0, 1.0, 2.5) == 8.333333333333334

    @pytest.mark.bytes
    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_times_outside_the_contract(self, t):
        # Times lie in (0, 1], as for check_times: every process starts at 0.
        with pytest.raises(DomainError):
            ys_mean(t, 4.0)
        with pytest.raises(DomainError):
            ys_cross_moment(t, 0.7, 4.0)
        with pytest.raises(DomainError):
            ys_cross_moment(0.7, t, 4.0)

    def test_cross_moment_monte_carlo(self):
        vals = ys_process_values(4.0, [0.5, 1.0], RngStream(111).generator(), 400_000)
        prod = vals[:, 0].astype(float) * vals[:, 1].astype(float)
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - ys_cross_moment(0.5, 1.0, 4.0)) < 3 * se

    def test_abs_moment_kmin_drops_the_head(self):
        rho, q, t, kmin = 2.0, 1.5, 0.5, 40
        k = np.arange(1, kmin + 1)
        head = t * float(np.sum(k**q * ys_pmf(k, rho)))
        assert ys_abs_moment(q, rho, t, kmin=kmin) == pytest.approx(
            ys_abs_moment(q, rho, t) - head, rel=1e-12
        )

    def test_abs_moment_past_gamma_overflow(self):
        # Gamma(201) overflows a float; the head alone then carries the sum.
        k = np.arange(1, 1001)
        direct = float(np.sum(k**1.5 * ys_pmf(k, 200.0)))
        assert ys_abs_moment(1.5, 200.0) == pytest.approx(direct, rel=1e-12)

    # (q, rho, kmin, E[Y(1)^q; Y(1) > kmin]) at 40 digits, rounded to a float:
    # an exact head up to max(kmin, 40 (rho+1)^2, 2000) plus 24 terms of the
    # Hurwitz-zeta tail, computed offline; doubling the head moved none of
    # them by 1e-35.  The first six are the 40-digit references that
    # ROADMAP.md gives for the moment, which the floats match to their 15
    # printed digits.
    MOMENT_REFERENCES = (
        (1.5, 2.0, 0, 4.877343781941655),
        (1.99, 2.0, 0, 394.3904954988193),
        (1.2, 1.25, 0, 27.42030057036601),
        (1.249, 1.25, 0, 1415.2743342485405),
        (1.5, 2.0, 4000, 0.12645159541902387),
        (1.0, 2.0, 4000, 0.0009995002498750624),
        (1.0, 1.01, 0, 100.99999999999991),
        (1.009, 1.01, 0, 1013.8727520526603),
        (0.5, 1.01, 40, 0.2986439864703004),
        (9.9, 10.0, 0, 232873946.64858496),
        (9.99, 10.0, 40, 3462955094.2728224),
        (9.0, 10.0, 4000, 9008.832421659334),
        (49.5, 50.0, 0, 7.623941919174477e64),
        (49.9, 50.0, 4000, 6.457947646590502e66),
        (1.5, 50.0, 40, 4.521349912646488e-24),
        (1.9, 2.5, 40, 1.4446680580172893),
        (0.3, 0.5, 0, 2.298259686538983),
        (1.5, 100.0, 0, 1.0185794868728688),
        (1.5, 2000.0, 0, 1.0009149408743057),
    )

    @pytest.mark.parametrize("q, rho, kmin, expected", MOMENT_REFERENCES)
    def test_abs_moment_matches_pinned_references(self, q, rho, kmin, expected):
        assert ys_abs_moment(q, rho, kmin=kmin) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.bytes
    def test_abs_moment_allocates_a_short_head(self):
        yule_simon._abs_moment_sum.cache_clear()
        tracemalloc.start()
        ys_abs_moment(1.5, 2.0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.bytes
    def test_abs_moment_rejects_what_it_cannot_bound(self):
        # Orders close to a large rho need a head past MOMENT_HEAD_MAX terms
        # or k^q beyond the float range, and a kmin far past rho a tail
        # factor below it; every order below 2 is covered.
        for q, rho, kmin in ((99.0, 100.0, 0), (200.0, 300.0, 0), (1999.0, 2000.0, 0), (10.0, 100.0, 30000)):
            with pytest.raises(DomainError):
                ys_abs_moment(q, rho, kmin=kmin)
        for rho in (1.01, 3.0, 40.0, 127.0, 128.0, 700.0, 2000.0, 1e5):
            for kmin in (0, 4000):
                assert 0.0 <= ys_abs_moment(min(1.99, rho / 2.0), rho, kmin=kmin) < math.inf

    def test_abs_moment_is_linear_in_t(self):
        for q, rho, t in ((1.5, 2.0, 0.5), (0.7, 3.0, 0.3), (1.9, 2.5, 1.0)):
            assert ys_abs_moment(q, rho, t) == t * ys_abs_moment(q, rho)
            assert ys_abs_moment(q, rho, t, kmin=40) == t * ys_abs_moment(q, rho, kmin=40)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ys_mean(0.5, 1.0)
        with pytest.raises(DomainError):
            ys_cross_moment(0.2, 0.5, 2.0)


class TestMemoryParameter:
    def test_rho_is_reciprocal(self):
        mp = MemoryParameter(0.25)
        assert mp.rho == 4.0

    @settings(max_examples=30, deadline=None)
    @given(p=st.floats(min_value=1e-6, max_value=1 - 1e-9))
    def test_rho_exceeds_one(self, p):
        assert MemoryParameter(p).rho > 1.0

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                MemoryParameter(bad)
            with pytest.raises(DomainError):
                as_memory(bad)

    def test_as_memory_passes_parameters_through(self):
        mp = MemoryParameter(0.25)
        assert as_memory(mp) is mp
        assert as_memory(0.25) == mp
