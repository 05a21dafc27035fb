"""Yule-Simon distribution and the Yule-Simon counting process on [0, 1].

The distribution is the heavy-tailed law ``rho * B(k, rho + 1)`` on
{1, 2, ...}; the process is a time-inhomogeneous pure-birth counting process
whose value at time t is 0 with probability 1 - t and, conditionally on being
positive, Yule-Simon distributed.  Both process samplers are exact and read
many independent paths at a grid of times, and each is the other's
cross-check: :func:`ys_process_values` follows each path's jump times, and
:func:`ys_joint_values` draws the first one or two grid times (the head)
with one lookup per path in a cached Walker alias table over the exact
joint cells up to ``HEAD_MAX`` = 300, resolves the rare tail paths by an
exact conditional draw, and bridges forward with negative-binomial
increments to any later grid time.  :func:`ys_pair_cells` enumerates the
exact two-time cells for both mark tables, this alias head and the stable
mixture of :mod:`nrlevy.spectral`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bernoulli, betainc, betaln, gammaln, zeta

from .errors import DomainError, NumericalError

MAX_JUMPS_PER_PATH = 10**7


@dataclass(frozen=True)
class MemoryParameter:
    """Reinforcement probability p in (0, 1); rho = 1/p drives the marked laws."""

    p: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"memory parameter must lie in (0, 1), got {self.p}")

    @property
    def rho(self) -> float:
        return 1.0 / self.p


def as_memory(p: MemoryParameter | float) -> MemoryParameter:
    """``p`` as a validated MemoryParameter."""
    return p if isinstance(p, MemoryParameter) else MemoryParameter(float(p))


def _check_rho(rho: float, minimum: float = 1.0) -> float:
    rho = float(rho)
    if not rho > minimum:
        raise DomainError(f"rho must exceed {minimum}, got {rho}")
    return rho


def ys_pmf(k, rho: float):
    """Probability of value k under the Yule-Simon law with parameter rho.

    Computed as exp(log rho + log B(k, rho + 1)) through log-gamma so that
    very large k does not overflow.  Vectorized in k.
    """
    if not float(rho) > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    k_arr = np.asarray(k)
    if not np.issubdtype(k_arr.dtype, np.integer):
        raise DomainError("k must be integer-valued")
    if np.any(k_arr < 1):
        raise DomainError("k must be >= 1")
    out = np.exp(np.log(rho) + betaln(k_arr.astype(float), rho + 1.0))
    return out if k_arr.ndim else float(out)


def ys_sample(rho: float, gen: np.random.Generator, size=None):
    """Draw from the Yule-Simon law via its geometric-mixture representation.

    An exponential variable E with rate rho mixes a geometric variable with
    success probability exp(-E); the marginal is exactly the Yule-Simon law.
    Both are drawn from ``gen``, which advances.
    """
    rho = _check_rho(rho)
    e = gen.exponential(scale=1.0 / rho, size=size)
    draws = gen.geometric(np.exp(-e))
    return draws if size is not None else int(draws)


def ys_mean(t: float, rho: float) -> float:
    """Expected process value at time t in (0, 1]: rho * t / (rho - 1)."""
    rho = _check_rho(rho)
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    return rho * t / (rho - 1.0)


def ys_cross_moment(s: float, t: float, rho: float) -> float:
    """E[Y(s) Y(t)] = rho^2 / ((rho-1)(rho-2)) * s * (t/s)^(1/rho) for 0 < s <= t <= 1.

    Arguments given out of order are swapped (the product is symmetric).
    Requires rho > 2; below that the second moment is infinite.
    """
    rho = _check_rho(rho, minimum=2.0)
    if s > t:
        s, t = t, s
    if not (0.0 < s and t <= 1.0):
        raise DomainError(f"times must lie in (0, 1], got {s} and {t}")
    c = rho * rho / ((rho - 1.0) * (rho - 2.0))
    # s * (t/s)^(1/rho) written as s^(1-1/rho) * t^(1/rho); exponent 1-1/rho > 0.
    return c * s ** (1.0 - 1.0 / rho) * t ** (1.0 / rho)


MOMENT_HEAD_MAX = 1 << 16
"""Most exact terms :func:`ys_abs_moment` sums before its tail."""

MOMENT_TAIL_TERMS = 10
"""Terms of the asymptotic expansion in the tail of :func:`ys_abs_moment`."""


def ys_abs_moment(q: float, rho: float, t: float = 1.0, kmin: int = 0) -> float:
    """E[Y(t)^q; Y(t) > kmin] for 0 < q < rho: an exact head plus a Hurwitz-zeta tail.

    With the default ``kmin = 0`` this is the full moment E[Y(t)^q], the sum
    of k^q rho B(k, rho+1) over k > kmin.  The terms up to K are summed
    exactly, with the pmf from its ratio recursion.  The rest comes from
    Gamma(k)/Gamma(k+rho+1) = k^-(rho+1) sum_j c_j k^-j, whose terms are
    Hurwitz zeta functions; ``MOMENT_TAIL_TERMS`` of them reach double
    precision once K >= 4 (rho+1)^2.  Where a bound on the terms past a
    smaller K lies below 2^-64 of the first term (large rho), the head
    stops there and the tail is dropped.  Against 40-digit references the
    relative error is below 1e-13; a pmf value below the normal float range
    adds an absolute error under K^(q+1) 2^-1074, below 1e-300 for q < 2.
    A head longer than ``MOMENT_HEAD_MAX`` terms, one whose k^q would pass
    e^700, or a tail factor that underflows raises DomainError: that takes
    q close to rho > 127, large q or a kmin far past rho, never an order
    below 2 with kmin <= 4000.
    """
    rho = _check_rho(rho, minimum=0.0)
    if not (0.0 < q < rho and 1.0 + (rho - q) > 1.0):
        raise DomainError(f"moment order must lie in (0, rho), got q={q}")
    return t * _abs_moment_sum(q, rho, kmin)


@functools.lru_cache(maxsize=64)
def _abs_moment_sum(q: float, rho: float, kmin: int) -> float:
    """E[Y(1)^q; Y(1) > kmin], cached."""
    a, d = rho + 1.0, rho - q
    start = max(kmin, math.ceil(4.0 * a * a), 128)
    # Term k is t_k = k^q rho Gamma(rho+1) Gamma(k)/Gamma(k+a).  For k > K,
    # t_k <= t_K (1 + a/K)^q ((K+a)/(k+a))^(a-q), so the terms past K sum to
    # at most t_K (1 + a/K)^q (K+a)/d.  Try the head ends K = kmin + 2^i.
    ends = kmin + 2.0 ** np.arange(MOMENT_HEAD_MAX.bit_length())
    log_t = q * np.log(ends) + betaln(ends, a)
    log_bound = log_t + q * np.log1p(a / ends) + np.log(ends + a) - math.log(d)
    done = np.flatnonzero((log_bound < log_t[0] - 64.0 * math.log(2.0)) & (ends < start))
    K = int(ends[done[0]]) if done.size else start
    head = 0.0
    if K > kmin:
        if K > MOMENT_HEAD_MAX or q * math.log(K) > 700.0:
            raise DomainError(f"E[Y^q] at q={q}, rho={rho}, kmin={kmin} needs more than "
                              f"{MOMENT_HEAD_MAX} exact terms or k^q past the float range")
        k = np.arange(1.0, K + 1.0)
        pmf = k / (k + a)  # pmf(k+1) / pmf(k)
        pmf[1:] = pmf[:-1]
        pmf[0] = rho / a
        np.cumprod(pmf, out=pmf)
        head = float(np.sum(k[kmin:] ** q * pmf[kmin:]))
    if done.size:
        return head
    n = K + 1.0
    s = 1.0 + d + np.arange(MOMENT_TAIL_TERMS + 1)
    z = zeta(s, n)
    # The leading part n^-d / d of zeta(1+d, n) from d itself: 1 + d may round.
    z[0] += n**-d / d - n ** (1.0 - s[0]) / (s[0] - 1.0)
    tail = float(np.sum(_tail_coefficients(a) * z))
    if not tail >= 2.0**-969:  # normal, with 53 bits to spare for its smaller terms
        raise DomainError(f"E[Y^q] at q={q}, rho={rho}, kmin={kmin}: the tail underflows")
    return head + math.exp(math.log(rho) + math.lgamma(a) + math.log(tail))


def _tail_coefficients(a: float) -> np.ndarray:
    """c_0..c_J of Gamma(x)/Gamma(x+a) ~ x^-a sum_j c_j x^-j, J = ``MOMENT_TAIL_TERMS``.

    The Stirling series gives log Gamma(x) - log Gamma(x+a) ~ -a log x +
    sum_m e_m x^-m with e_m = (-1)^m (B_{m+1}(a) - B_{m+1}) / (m (m+1)), from
    Bernoulli polynomials; the c_j are the coefficients of its exponential,
    c_j = (1/j) sum_{m<=j} m e_m c_{j-m}.
    """
    terms = MOMENT_TAIL_TERMS
    b = bernoulli(terms + 1)
    e = [0.0] + [
        (-1) ** m * sum(math.comb(m + 1, i) * b[i] * a ** (m + 1 - i) for i in range(m + 1)) / (m * (m + 1))
        for m in range(1, terms + 1)
    ]
    c = [1.0]
    for j in range(1, terms + 1):
        c.append(sum(m * e[m] * c[j - m] for m in range(1, j + 1)) / j)
    return np.asarray(c)


# ---------------------------------------------------------------------------
# Process samplers
# ---------------------------------------------------------------------------


def ys_process_values(
    rho: float,
    times,
    gen: np.random.Generator,
    replicas: int,
) -> np.ndarray:
    """Values of ``replicas`` independent event-based paths at sorted grid times.

    Jump times follow one recursion: the first, T_1, is uniform on (0, 1),
    and a standard Yule process run in logarithmic time gives
    T_{m+1} = T_m * exp(rho * E_m / m) with E_m standard exponential.  A path
    stops at its first jump time beyond 1; a jump at exactly 1 counts.
    Iteration m advances every path that still has T_m inside [0, 1]; past
    ``MAX_JUMPS_PER_PATH`` iterations it raises NumericalError.  Draws from
    ``gen``; returns an int64 array of shape (replicas, len(times)).
    """
    rho = _check_rho(rho)
    times = check_times(times)
    counts = np.zeros((replicas, times.size), dtype=np.int64)
    t = gen.uniform(size=replicas)
    idx = np.arange(replicas)
    m = 1
    while idx.size:
        counts[idx] += t[idx, None] <= times[None, :]
        if m > MAX_JUMPS_PER_PATH:
            raise NumericalError("jump-count safety cap exceeded; suspect a bad RNG state")
        t[idx] *= np.exp(rho * gen.exponential(size=idx.size) / m)
        keep = t[idx] <= 1.0
        idx = idx[keep]
        m += 1
    return counts


HEAD_MAX = 300
"""Largest value at the head's last time that the alias table of
:func:`ys_joint_values` holds as a cell of its own; larger values share the
table's one tail cell, which an exact conditional draw resolves."""


TABLE_CHUNK = 1 << 16
"""Cells per chunk of whole rows in :func:`ys_pair_cells`."""


def ys_pair_cells(rho: float, t1: float, t2: float, kmax: int):
    """Yield the exact cells (j, k, P(Y(t1) = j, Y(t2) = k)) as arrays, for
    0 < t1 < t2 <= 1 and 1 <= k <= ``kmax``: the one enumeration of both mark
    tables, the alias head of :func:`ys_joint_values` and the stable mixture
    (:mod:`nrlevy.spectral`).

    Cells come in row order (j ascending, then k >= max(j, 1)): row j = 0
    first, then chunks of whole rows of about ``TABLE_CHUNK`` cells; the
    chunk size never changes a cell's value.  With q = (t1/t2)^(1/rho), a
    path that starts in (t1, t2] has j = 0 and the cell
    t2 pmf(k) (1 - I_q(rho + 1, k)), I the regularized incomplete beta
    function; one that has started by t1 has the cell t1 pmf(j) NB(k - j; j, q),
    a negative-binomial increment.  The log-gamma and pmf values are read
    from tables cached per (rho, kmax).
    """
    rho = _check_rho(rho)
    if not 0.0 < t1 < t2 <= 1.0:
        raise DomainError(f"times must satisfy 0 < t1 < t2 <= 1, got {t1} and {t2}")
    q = (t1 / t2) ** (1.0 / rho)
    k = np.arange(1, kmax + 1)
    j = np.zeros_like(k)
    lgamma, pmf = _pair_tables(rho, kmax)
    yield j, k, t2 * pmf[k] * (1.0 - betainc(rho + 1.0, k.astype(float), q))
    rows = np.arange(1, kmax + 1)
    lengths = kmax + 1 - rows
    ends = np.cumsum(lengths)
    cuts = np.searchsorted(ends, np.arange(TABLE_CHUNK, ends[-1], TABLE_CHUNK)) + 1
    bounds = np.unique(np.concatenate([[0], cuts, [rows.size]]))
    for a, b in zip(bounds[:-1], bounds[1:]):
        n = lengths[a:b]
        first = ends[a:b] - n  # index of each row's first cell, k = j
        j = np.repeat(rows[a:b], n)
        k = j + np.arange(first[0], ends[b - 1]) - np.repeat(first, n)
        nb = k - j
        log_nb = lgamma[k] - lgamma[j] - lgamma[nb + 1] + j * np.log(q) + nb * np.log1p(-q)
        yield j, k, t1 * pmf[j] * np.exp(log_nb)


@functools.lru_cache(maxsize=8)
def _pair_tables(rho: float, top: int) -> tuple[np.ndarray, np.ndarray]:
    """log Gamma(n) for n <= top + 1 and pmf(n) for n <= top (pmf(0) = 0), read-only."""
    lgamma = gammaln(np.arange(top + 2, dtype=float))
    pmf = np.zeros(top + 1)
    pmf[1:] = ys_pmf(np.arange(1, top + 1), rho)
    lgamma.flags.writeable = pmf.flags.writeable = False
    return lgamma, pmf


class AliasScratch:
    """Arrays for the alias test of :meth:`MarkHead.draw` on up to ``size``
    paths, reusable from one draw to the next."""

    def __init__(self, size: int) -> None:
        self.uniforms = np.empty(size)
        self.thresholds = np.empty(size)
        self.aliases = np.empty(size, dtype=np.intp)
        self.mask = np.empty(size, dtype=bool)


@dataclass(frozen=True)
class MarkHead:
    """Walker's alias table over the mark cells at the first one or two grid
    times (the head), with read-only arrays.

    ``values[g]`` is each cell's mark value at head time g and ``mass`` its
    exact probability.  Column c keeps its own cell when a uniform falls
    below ``threshold[c]`` and gives ``alias[c]`` otherwise.  The last
    cell, ``tail``, stands for every path whose value at the head's last
    time exceeds ``HEAD_MAX``; :meth:`draw_tail` draws those paths' values.
    """

    rho: float
    times: tuple[float, ...]
    mass: np.ndarray
    threshold: np.ndarray
    alias: np.ndarray
    values: np.ndarray

    @property
    def tail(self) -> int:
        return self.mass.size - 1

    def draw(self, gen: np.random.Generator, size: int, scratch: AliasScratch) -> np.ndarray:
        """intp cell ids: a uniform column, then a uniform alias test, per path.

        The column array is the one new array; the test's uniforms, the
        columns' thresholds and aliases and the mask of columns that give
        their alias go into ``scratch``.  intp ids index ``take`` without a
        converted copy, and ``gen.integers`` draws the same columns for
        intp as for int32 from the same bits.
        """
        cells = gen.integers(0, self.alias.size, size=size, dtype=np.intp)
        uniforms = gen.random(out=scratch.uniforms[:size])
        thresholds = self.threshold.take(cells, out=scratch.thresholds[:size], mode="clip")
        swap = np.greater_equal(uniforms, thresholds, out=scratch.mask[:size])
        np.copyto(cells, self.alias.take(cells, out=scratch.aliases[:size], mode="clip"), where=swap)
        return cells

    def draw_tail(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """Head values (len(times), size) of paths drawn given the tail cell.

        W = (U/t_h)^(1/rho) given Y(t_h) > HEAD_MAX is Beta(rho, HEAD_MAX + 1),
        and Y(t_h) = HEAD_MAX + Geom(W) by memorylessness.  On a two-time
        head, with q = (t_1/t_2)^(1/rho), Y(t_1) = 0 if W > q (the path
        starts after t_1) and otherwise 1 + Binomial(Y(t_2) - 1,
        (q - W)/(1 - W)).  Draws the betas, the geometrics, then the binomials.
        """
        w = gen.beta(self.rho, HEAD_MAX + 1.0, size=size)
        last = HEAD_MAX + gen.geometric(w)
        if len(self.times) == 1:
            return last[None, :]
        q = (self.times[0] / self.times[1]) ** (1.0 / self.rho)
        early = np.flatnonzero(w <= q)
        first = np.zeros(size, dtype=np.int64)
        we = w[early]
        first[early] = 1 + gen.binomial(last[early] - 1, (q - we) / (1.0 - we))
        return np.stack([first, last])


def ys_head_table(rho: float, times) -> MarkHead:
    """The alias table of :func:`ys_joint_values` for the first one or two of
    ``times``, built once per (rho, head times) and then cached."""
    times = check_times(times)
    return _head_table(_check_rho(rho), *map(float, times[:2]))


@functools.lru_cache(maxsize=16)
def _head_table(rho: float, *head: float) -> MarkHead:
    """Cells with a value of at most ``HEAD_MAX`` at the head's last time t,
    the empty path (mass 1 - t) first, and one tail cell last (mass
    t rho B(rho, HEAD_MAX + 1) = t P(Y(1) > HEAD_MAX)); the other cells of
    zero mass (1 - t at t = 1, or an underflow) are left out, so the tail
    cell stays the last column even when its own mass underflows."""
    t = head[-1]
    if len(head) == 1:
        values = np.arange(HEAD_MAX + 1)[None, :]
        mass = np.concatenate([[1.0 - t], t * ys_pmf(values[0, 1:], rho)])
    else:
        j, k, mass = (np.concatenate(c) for c in zip(*ys_pair_cells(rho, head[0], t, HEAD_MAX)))
        values = np.stack([np.append(0, j), np.append(0, k)])
        mass = np.append(1.0 - t, mass)
    values = np.concatenate([values, np.zeros((len(head), 1), dtype=values.dtype)], axis=1)
    mass = np.append(mass, t * math.exp(math.log(rho) + betaln(rho, HEAD_MAX + 1.0)))
    kept = mass > 0.0
    kept[-1] = True
    mass = mass[kept]
    threshold, alias = _alias_table(mass)
    values = np.ascontiguousarray(values[:, kept], dtype=np.int64)
    for a in (mass, threshold, alias, values):
        a.flags.writeable = False
    return MarkHead(rho, head, mass, threshold, alias, values)


def _alias_table(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table for the law proportional to ``mass``: thresholds
    (float64) and aliases (intp), one column per cell.

    The cells below the mean mass (donees) lie on one line by cumulative
    deficit, those at or above it (donors) on another by cumulative excess,
    and both lines have the same length.  A donee keeps its own mass and
    takes its alias from the donor whose excess covers the start of its
    deficit; each donor but the last gives up, beyond its excess, what the
    last donee it serves still lacks at the end of that excess, and takes
    the next donor as its alias for that part.  This is Vose's construction
    (IEEE Trans. Softw. Eng. 17, 1991) in one vectorized pass: every column
    holds mass 1/n and each cell gets its exact share, up to rounding.
    """
    n = mass.size
    scaled = mass * (n / mass.sum())
    donor = scaled >= 1.0
    donor[np.argmax(scaled)] = True  # even if rounding leaves every cell below 1
    small, large = np.flatnonzero(~donor), np.flatnonzero(donor)
    deficit = np.cumsum(1.0 - scaled[small])  # where each donee's deficit ends
    excess = np.cumsum(scaled[large] - 1.0)  # where each donor's excess ends
    threshold = np.ones(n)
    alias = np.arange(n, dtype=np.intp)
    threshold[small] = scaled[small]
    starts = np.concatenate([[0.0], deficit])  # where each donee starts, then the line's end
    alias[small] = large[np.minimum(np.searchsorted(excess, starts[:-1], side="right"), large.size - 1)]
    served = np.searchsorted(starts[:-1], excess[:-1])  # donees that start before a donor's end
    threshold[large[:-1]] = 1.0 - np.maximum(starts[served] - excess[:-1], 0.0)
    alias[large[:-1]] = large[1:]
    return threshold, alias


def ys_joint_values(
    rho: float,
    times,
    gen: np.random.Generator,
    replicas: int,
    out: np.ndarray | None = None,
    scratch: AliasScratch | None = None,
) -> np.ndarray:
    """Joint law of (Y(t_1), ..., Y(t_m)) for ``replicas`` independent paths.

    Equivalent in law to reading :func:`ys_process_values` at the grid, but
    O(len(times)) per path.  This is the fast inner loop for Monte Carlo
    over marks; the event-based sampler above is its independent cross-check.

    The head, the first one or two grid times, takes one lookup per path in
    the cached alias table of :func:`ys_head_table`, whose cells are the
    exact joint law (:func:`ys_pair_cells`) of the values with at most
    ``HEAD_MAX`` = 300 at the head's last time t_h.  The paths in the tail
    cell are drawn exactly (:meth:`MarkHead.draw_tail`): W = (U/t_h)^(1/rho)
    given Y(t_h) > HEAD_MAX is Beta(rho, HEAD_MAX + 1), then
    Y(t_h) = HEAD_MAX + Geom(W) by memorylessness, and on a two-time head,
    with q = (t_1/t_2)^(1/rho), Y(t_1) = 0 if W > q and otherwise
    1 + Binomial(Y(t_2) - 1, (q - W)/(1 - W)).  Later grid times are
    bridged forward: a path that has not started by t_h starts at a uniform
    time U in (t_h, 1], its first positive value is geometric with success
    probability (U/t)^(1/rho), and between grid times the birth process
    branches, giving a negative-binomial increment.

    The draws from ``gen`` are the cells (a column from ``gen.integers``,
    then a uniform alias test, per path), then for the tail paths their
    beta, geometric and (two-time head) binomial values, then the start
    times U of the unstarted paths, then per later grid time the geometric
    values of the paths that start there and the negative-binomial
    increments of the earlier ones, in path order.  The int64 result of
    shape (replicas, len(times)) is the transpose of a C-ordered
    (len(times), replicas) array, so each time's column is contiguous:
    of ``out`` when given (whatever it held is overwritten), else of a new
    one.  ``scratch``, an :class:`AliasScratch` for at least ``replicas``
    paths, holds the alias test's arrays (a new one when None).  Neither
    changes a draw.
    """
    rho = _check_rho(rho)
    times = check_times(times)
    head = _head_table(rho, *map(float, times[:2]))
    h = len(head.times)
    out = np.empty((times.size, replicas), dtype=np.int64) if out is None else out
    scratch = AliasScratch(replicas) if scratch is None else scratch
    cells = head.draw(gen, replicas, scratch)
    for values, row in zip(head.values, out):
        values.take(cells, out=row, mode="clip")
    tail = np.flatnonzero(np.equal(cells, head.tail, out=scratch.mask[:replicas]))
    del cells
    out[h:] = 0  # the bridge writes only the paths that have started
    if tail.size:
        out[:h, tail] = head.draw_tail(gen, tail.size)
    if times.size > h:
        _bridge(rho, times, h, gen, out)
    return out.T


def _bridge(rho: float, times: np.ndarray, h: int, gen: np.random.Generator, out: np.ndarray) -> None:
    """Rows h, h+1, ... of ``out`` bridged forward from row h - 1.

    Only the paths that have started are kept, as an ascending index array
    and a contiguous array of their values, so the negative binomial runs on
    the state without a gather.
    """
    t = times[h - 1]
    last = out[h - 1]
    wait = np.flatnonzero(last == 0)  # paths that start after t
    u = 1.0 - (1.0 - t) * gen.random(wait.size)  # their start times, uniform on (t, 1]
    idx = np.flatnonzero(last)  # started paths, ascending
    state = last[idx]  # their values
    for g in range(h, times.size):
        t_prev, t = t, times[g]
        row = out[g]
        starts = u <= t
        new = wait[starts]
        if new.size:
            row[new] = gen.geometric((u[starts] / t) ** (1.0 / rho))
        if idx.size:
            state += gen.negative_binomial(state, (t_prev / t) ** (1.0 / rho))
            row[idx] = state
        if new.size and g + 1 < times.size:
            idx = np.flatnonzero(row)
            state = row[idx]
            wait, u = wait[~starts], u[~starts]


def check_times(times) -> np.ndarray:
    """``times`` as a float array, strictly increasing within (0, 1]: every process starts at 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a nonempty 1-d array")
    if not (np.all((times > 0) & (times <= 1)) and np.all(np.diff(times) > 0)):
        raise DomainError("times must be strictly increasing within (0, 1]")
    return times
