"""Noise-reinforced Levy processes.

Construction on [0, 1]: drift, plus a reinforced Brownian component (exact
Gaussian sampling from its covariance), plus a Poisson series of jumps marked
with independent Yule-Simon counting processes.  Both samplers of the process
share one block plan, :func:`map_nrlp_blocks`, and differ only in its jump
part: the series here drops jumps with norm below a truncation level and
compensates the remaining small-jump sum by its mean; :mod:`nrlevy.spectral`
draws the stable mark mixture.  The module also evaluates the
multidimensional characteristic function by Monte Carlo over mark paths.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, InadmissibleError, NumericalError, UnsupportedFamilyError
from .levy_model import (
    IsotropicStable,
    JumpMeasure,
    LevyTriplet,
    ZeroJumps,
    _replica_dot,
    add_triplets,
    bg_index,
    characteristic_exponent,
    is_admissible,
    thin,
)
from .rng import RngStream, iter_blocks, map_blocks
from .yule_simon import (
    AliasScratch,
    MemoryParameter,
    as_memory,
    check_times,
    ys_abs_moment,
    ys_cross_moment,
    ys_head_table,
    ys_joint_values,
    ys_mean,
)

# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CfQuery:
    """A finite-dimensional cf query: angles theta_j attached to times t_j.

    ``thetas`` has shape (k,) in dimension 1 or (k, d); the times lie in
    (0, 1], and repeated times are merged additively on the internal grid.
    """

    thetas: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=float)
        times = np.asarray(self.times, dtype=float)
        if thetas.ndim == 1:
            thetas = thetas[:, None]
        if times.ndim != 1 or times.size != thetas.shape[0]:
            raise DomainError("one time per theta required")
        if not np.all((times > 0) & (times <= 1)):
            raise DomainError("query times must lie in (0, 1]")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "times", times)

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]

    def on_grid(self, grid_times: np.ndarray) -> np.ndarray:
        """Thetas aligned to a sorted time grid, summing duplicates."""
        grid_times = np.asarray(grid_times, dtype=float)
        out = np.zeros((grid_times.size, self.dim))
        for theta, t in zip(self.thetas, self.times):
            idx = np.searchsorted(grid_times, t)
            if idx == grid_times.size or grid_times[idx] != t:
                raise DomainError(f"query time {t} missing from the sampling grid")
            out[idx] += theta
        return out


def query_grid_times(queries: Sequence[CfQuery]) -> np.ndarray:
    """Sorted union of query times."""
    return np.unique(np.concatenate([q.times for q in queries]))


@dataclass(frozen=True)
class NrlpConfig:
    """A noise-reinforced Levy process ready for sampling.

    Admissibility (p * beta < 1) is enforced at construction; ``grid`` is the
    output time grid within (0, 1] and ``truncation_eps`` the small-jump
    cutoff of the Poisson series (0 keeps every atom of a finite jump measure).
    """

    triplet: LevyTriplet
    p: MemoryParameter
    truncation_eps: float = 1e-4
    grid: np.ndarray = field(default_factory=lambda: np.array([0.5, 1.0]))

    def __post_init__(self) -> None:
        p = as_memory(self.p)
        object.__setattr__(self, "p", p)
        if not is_admissible(p, self.triplet):
            raise InadmissibleError(
                f"p * beta = {p.p * bg_index(self.triplet):.4g} >= 1: "
                "no noise-reinforced process exists for these characteristics"
            )
        finite = self.triplet.jump_measure.finite
        if not (0.0 < self.truncation_eps < 1.0 or (finite and self.truncation_eps == 0.0)):
            raise ConfigError(
                "truncation_eps must lie in (0, 1); 0 (no cutoff) is allowed for "
                "finite jump measures"
            )
        object.__setattr__(self, "grid", check_times(self.grid))

    @property
    def rho(self) -> float:
        return self.p.rho

    @property
    def thinned(self) -> JumpMeasure:
        return thin(self.triplet, self.p)


# ---------------------------------------------------------------------------
# Noise-reinforced Brownian motion
# ---------------------------------------------------------------------------


def nrbm_covariance(p: float, times: np.ndarray) -> np.ndarray:
    """Cov(s, t) = t^p s^(1-p) / (1 - 2p) for s <= t, on the given grid."""
    t = np.asarray(times, dtype=float)
    hi = np.maximum.outer(t, t)
    lo = np.minimum.outer(t, t)
    return hi**p * lo ** (1.0 - p) / (1.0 - 2.0 * p)


def _nrbm_factor(p: float, times: np.ndarray) -> np.ndarray:
    cov = nrbm_covariance(p, times)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * float(np.max(np.diag(cov)))
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "reinforced-Brownian covariance is not positive definite even "
                "after jitter; check the grid for duplicate times"
            ) from exc


def nrbm_sample_many(
    p: MemoryParameter | float,
    grid,
    d: int,
    gen: np.random.Generator,
    replicas: int,
) -> np.ndarray:
    """Exact draws of reinforced Brownian motion, shape (replicas, len(grid), d).

    Coordinates are independent; each is Gaussian on the grid with the
    reinforced covariance, sampled through a Cholesky factor of the grid
    covariance matrix from normals drawn from ``gen``.
    """
    pv = as_memory(p).p
    if not pv < 0.5:
        raise InadmissibleError(f"reinforced Brownian motion requires p < 1/2, got {pv}")
    factor = _nrbm_factor(pv, check_times(grid))
    z = gen.standard_normal((replicas, factor.shape[0], d))
    return np.einsum("gh,rhd->rgd", factor, z)


# ---------------------------------------------------------------------------
# Sampling the marked Poisson measure and the process
# ---------------------------------------------------------------------------


ATOM_CHUNK = 1 << 17
"""Atoms per chunk of a series block.

A block's jumps and marks are drawn and reduced one chunk at a time, into
a :class:`ChunkWorkspace` of this many atoms, which bounds a block's
working set whatever the cutoff; a block with at most this many atoms
draws in one chunk.
"""


class ChunkWorkspace:
    """The arrays one thread reuses for every chunk of the series blocks it
    runs, for chunks of up to ``atoms`` atoms on a grid of ``m`` times in
    dimension ``d``: the jumps, the marks, their products and the alias
    test's scratch (:class:`nrlevy.yule_simon.AliasScratch`)."""

    def __init__(self, atoms: int, m: int, d: int) -> None:
        self.jumps = np.empty(atoms * d)
        self.marks = np.empty(atoms * m, dtype=np.int64)
        self.products = np.empty(atoms)
        self.alias = AliasScratch(atoms)


def nrlp_marginals(
    config: NrlpConfig, rng: RngStream, replicas: int, threads: int = 1
) -> np.ndarray:
    """Values of many independent paths on the grid, shape (replicas, m, d).

    The blocks of :func:`map_nrlp_blocks` with the Poisson-series jump part:
    after its reinforced-Brownian normals, a block draws the Poisson atom
    counts of every replica, then for each chunk of at most ``ATOM_CHUNK``
    atoms (taken in replica order) their jump sizes and mark values.  The
    marks' alias table (:func:`nrlevy.yule_simon.ys_head_table`) is built
    here, once, before any block runs.  Each thread sizes one
    :class:`ChunkWorkspace` from ``ATOM_CHUNK`` at its first block of this
    call and reuses it for every chunk of every block it runs, so that
    after its first chunk a thread allocates per chunk, for
    one-dimensional stable jumps on one or two times, only the alias
    columns (``gen.integers`` has no ``out=``), the radii and arrays of
    one entry per replica of the block.
    """
    ys_head_table(config.rho, config.grid)
    local = threading.local()

    def jumps(_config: NrlpConfig, gen: np.random.Generator, values: np.ndarray) -> None:
        if not hasattr(local, "work"):
            local.work = ChunkWorkspace(ATOM_CHUNK, config.grid.size, config.triplet.dim)
        _series_jumps(config, gen, values, local.work)

    return map_nrlp_blocks(config, rng, replicas, threads, jumps)


def map_nrlp_blocks(
    config: NrlpConfig, rng: RngStream, replicas: int, threads: int, jumps: Callable
) -> np.ndarray:
    """The block plan of both samplers of the process, shape (replicas, m, d).

    Each block of :func:`nrlevy.rng.iter_blocks` draws from its own
    generator and fills only its own rows through :func:`_nrlp_block`, whose
    ``jumps(config, gen, values)`` adds the jump part in place to the block's
    values.  Blocks run on ``threads`` threads; no draw depends on
    ``threads``, so neither does the result.
    """
    out = np.empty((replicas, config.grid.size, config.triplet.dim))

    def block(gen: np.random.Generator, start: int, count: int) -> None:
        out[start : start + count] = _nrlp_block(config, gen, count, jumps)

    map_blocks(block, list(iter_blocks(rng, replicas)), threads)
    return out


def _series_jumps(
    config: NrlpConfig, gen: np.random.Generator, values: np.ndarray, work: ChunkWorkspace | None = None
) -> None:
    """The Poisson series of marked jumps above the cutoff, chunk by chunk,
    through ``work`` (a fresh workspace for this block when None).

    Atoms come in replica order, so a chunk's atoms of one replica are one
    segment of it; each replica's sum x Y(t) over its segment is one
    ``np.add.reduceat`` (a pairwise sum) over the nonempty segments.
    """
    replicas, m, d = values.shape
    nu = config.thinned
    lam = nu.tail_mass(config.truncation_eps, d)
    ends = np.cumsum(gen.poisson(lam, size=replicas))
    total = int(ends[-1])
    work = ChunkWorkspace(min(ATOM_CHUNK, total), m, d) if work is None else work
    for a in range(0, total, ATOM_CHUNK):
        n = min(ATOM_CHUNK, total - a)
        # Replicas first..last hold atoms a..a+n-1; those between may hold none.
        first, last = np.searchsorted(ends, [a, a + n - 1], side="right")
        stops = np.minimum(ends[first : last + 1], a + n) - a  # where each segment ends
        starts = np.concatenate([[0], stops[:-1]])
        held = np.flatnonzero(stops > starts)
        rows, starts = first + held, starts[held]
        jumps = nu.sample_tail(config.truncation_eps, d, gen, n, out=work.jumps[: n * d].reshape(n, d))
        marks = work.marks[: m * n].reshape(m, n)
        ys_joint_values(config.rho, config.grid, gen, n, out=marks, scratch=work.alias)
        products = work.products[:n]
        for g in range(m):
            for e in range(d):
                np.multiply(marks[g], jumps[:, e], out=products)
                values[rows, g, e] += np.add.reduceat(products, starts)


def _nrlp_block(
    config: NrlpConfig, gen: np.random.Generator, replicas: int, jumps: Callable
) -> np.ndarray:
    """One block of replicas: drift, reinforced-Brownian part and compensation,
    then ``jumps``, all drawn from ``gen``."""
    triplet = config.triplet
    grid = config.grid
    values = np.zeros((replicas, grid.size, triplet.dim))
    values += np.outer(grid, triplet.drift)[None, :, :]
    if triplet.has_gaussian:
        bhat = nrbm_sample_many(config.p, grid, triplet.dim, gen, replicas)
        values += np.einsum("rgd,ed->rge", bhat, triplet.gaussian_factor)
    # The 1/(1-p) mean of the mark cancels the thinning of the compensated
    # band, so its drift is read off the unthinned measure.
    comp = triplet.jump_measure.band_mean(config.truncation_eps, triplet.dim)
    values -= np.outer(grid, comp)[None, :, :]
    jumps(config, gen, values)
    return values


# ---------------------------------------------------------------------------
# Truncation error budget
# ---------------------------------------------------------------------------


def truncation_budget(config: NrlpConfig, q: float | None = None) -> float:
    """Certified bound on E|R|^q, R the dropped small-jump martingale tail.

    R is the compensated Poisson integral of x Y(1) over {|x| < eps} against
    the thinned measure, each atom carrying its own mark Y.  For
    1 <= q <= 2, von Bahr and Esseen's inequality E|sum_i X_i|^q <=
    2 sum_i E|X_i|^q for independent centred X_i, applied to ever finer
    pieces of that integral, bounds E|R|^q in each coordinate by
    2 E[Y(1)^q] * integral of |x|^q over {|x| < eps} against the thinned
    measure.  The order q must lie in (max(beta, 1), 2] and below rho, where
    E[Y(1)^q] is finite.  When q is omitted the bound is minimized over 12
    orders inside (max(beta, 1), min(rho, 2)).
    """
    rho = config.rho
    lo, hi = max(config.triplet.jump_measure.index, 1.0), min(rho, 2.0)
    if lo + 1e-9 >= hi:
        raise DomainError("no admissible moment order: beta >= rho")
    orders = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 12)
    best = math.inf
    for qq in orders if q is None else [q]:
        if not (lo < qq <= 2.0 and qq < rho):
            raise DomainError(f"budget order must lie in ({lo}, 2] and below rho = {rho}, got {qq}")
        val = 2.0 * ys_abs_moment(qq, rho) * config.thinned.small_ball_moment(
            qq, config.truncation_eps, config.triplet.dim
        )
        best = min(best, val)
    return best


# ---------------------------------------------------------------------------
# Characteristic functions (Monte Carlo over mark paths)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CfEstimate:
    """Monte Carlo estimate of the reinforced cf at one query."""

    value: complex
    value_se: float
    diverged: bool


def reinforced_cf(
    triplet: LevyTriplet,
    p: MemoryParameter | float,
    query: CfQuery,
    mc_replicas: int,
    gen: np.random.Generator,
) -> CfEstimate:
    """exp(-(1-p) E[Psi(sum_j Y(t_j) theta_j)]), with the tail of the marks
    by Monte Carlo.

    On a grid of one or two query times the expectation splits over the
    cells of the marks' alias head (:func:`nrlevy.yule_simon.ys_head_table`):
    the cells whose value at the last time is at most ``HEAD_MAX`` are
    summed exactly with their probabilities, and only the tail cell's
    conditional expectation is estimated, from ``mc_replicas`` exact tail
    draws (:meth:`~nrlevy.yule_simon.MarkHead.draw_tail`) from ``gen``.  On
    longer grids the whole expectation is estimated from ``mc_replicas``
    joint mark draws.  The standard error is that of the estimated part,
    and a running-mean heuristic over its draws flags divergence (the
    expected signal when p * beta'' > 1).
    """
    pv = as_memory(p)
    if query.dim != triplet.dim:
        raise DomainError("query dimension does not match the triplet")
    grid = query_grid_times([query])
    thetas = query.on_grid(grid)  # (m, d)
    if grid.size <= 2:
        head = ys_head_table(pv.rho, grid)
        cells = head.values[:, : head.tail].T  # (cells, m)
        body = characteristic_exponent(triplet, _replica_dot(cells, thetas))
        exact, weight = _replica_dot(body, head.mass[: head.tail]), head.mass[head.tail]
        marks = head.draw_tail(gen, mc_replicas).T  # (R, m)
    else:
        exact, weight = 0.0, 1.0
        marks = ys_joint_values(pv.rho, grid, gen, mc_replicas)  # (R, m)
    psi = characteristic_exponent(triplet, _replica_dot(marks, thetas))
    mean = complex(exact + weight * psi.mean())
    se = weight * math.sqrt((psi.real.var() + psi.imag.var()) / mc_replicas)
    keep = 1.0 - pv.p
    value = np.exp(-keep * mean)
    diverged = _running_mean_diverges(psi.real)
    return CfEstimate(
        value=complex(value),
        value_se=abs(value) * keep * se,
        diverged=diverged,
    )


def reinforced_cf_exact(
    triplet: LevyTriplet,
    p: MemoryParameter | float,
    query: CfQuery,
) -> complex:
    """Closed-form reinforced cf where the mark moments are available.

    Covers Gaussian-plus-drift triplets in any dimension (the quadratic part
    reduces to first and second mark moments), and additionally isotropic
    stable jumps in dimension 1 when the query involves a single time, or
    same-signed angles with unit index.  Raises
    UnsupportedFamilyError outside this domain; the Monte Carlo estimator
    :func:`reinforced_cf` has no such restriction.
    """
    pv = as_memory(p)
    rho = pv.rho
    if query.dim != triplet.dim:
        raise DomainError("query dimension does not match the triplet")
    grid = query_grid_times([query])
    thetas = query.on_grid(grid)  # (m, d)
    total = 0j
    if triplet.has_gaussian:
        cov = triplet.gaussian_factor @ triplet.gaussian_factor.T
        quad_part = 0.0
        for g, tg in enumerate(grid):
            for h, th in enumerate(grid):
                quad_part += ys_cross_moment(tg, th, rho) * float(thetas[g] @ cov @ thetas[h])
        total += 0.5 * quad_part
    if triplet.drift.any():
        total -= 1j * sum(
            float(triplet.drift @ thetas[g]) * ys_mean(t, rho) for g, t in enumerate(grid)
        )
    jm = triplet.jump_measure
    if isinstance(jm, IsotropicStable):
        if triplet.dim != 1:
            raise UnsupportedFamilyError("exact stable cf restricted to dimension 1")
        th = thetas[:, 0]
        if grid.size == 1:
            total += jm.scale * abs(th[0]) ** jm.alpha * ys_abs_moment(jm.alpha, rho, grid[0])
        elif jm.alpha == 1.0 and (np.all(th >= 0) or np.all(th <= 0)):
            total += jm.scale * sum(abs(t) * ys_mean(tg, rho) for t, tg in zip(th, grid))
        else:
            raise UnsupportedFamilyError(
                "exact stable cf needs a single query time, or unit index with "
                "same-signed angles"
            )
    elif not isinstance(jm, ZeroJumps):
        raise UnsupportedFamilyError(
            f"no closed-form reinforced cf for {type(jm).__name__} jumps"
        )
    return complex(np.exp(-(1.0 - pv.p) * total))


THEORIES = ("auto", "exact", "mc")


def reinforced_cf_values(
    triplet: LevyTriplet,
    p: MemoryParameter | float,
    queries: Sequence[CfQuery],
    theory: str,
    mc_replicas: int,
    rng: RngStream,
) -> np.ndarray:
    """Reinforced cf at each query, by the route ``theory`` names.

    "exact" uses :func:`reinforced_cf_exact` and raises where it has no
    closed form; "mc" uses :func:`reinforced_cf` with ``mc_replicas`` mark
    draws; "auto" takes the closed form where it exists and Monte Carlo
    elsewhere.  The Monte Carlo value of query qi draws from
    ``rng.substream(1000 + qi)``.
    """
    if theory not in THEORIES:
        raise ConfigError(f"unknown theory {theory!r}; choose from {THEORIES}")
    pv = as_memory(p)
    values = np.empty(len(queries), dtype=complex)
    for qi, query in enumerate(queries):
        if theory != "mc":
            try:
                values[qi] = reinforced_cf_exact(triplet, pv, query)
                continue
            except UnsupportedFamilyError:
                if theory == "exact":
                    raise
        gen = rng.substream(1000 + qi).generator()
        values[qi] = reinforced_cf(triplet, pv, query, mc_replicas, gen).value
    return values


DIVERGENCE_RATIO = 1.5
"""Growth factor of doubling-size running means that :func:`_running_mean_diverges` flags."""


def _running_mean_diverges(values: np.ndarray) -> bool:
    """Infinite-mean alarm for the inner expectation.

    Two complementary signals, either of which trips the flag: running means
    over doubling sample sizes that each grow by over ``DIVERGENCE_RATIO``, and
    a Hill estimate of the tail index of the positive part whose two-sigma
    upper confidence bound falls at or below 1 (the mean exists iff the tail
    index exceeds 1).  The ratio rule alone misses divergent cases whose
    sample mean is dominated by one early huge draw.
    """
    n = values.size
    if n < 64:
        return False
    m1 = values[: n // 4].mean()
    m2 = values[: n // 2].mean()
    m3 = values.mean()
    if m1 > 0 and m2 > 0 and (m2 / m1 > DIVERGENCE_RATIO) and (m3 / m2 > DIVERGENCE_RATIO):
        return True
    positive = values[values > 0]
    k = max(20, int(math.sqrt(positive.size))) if positive.size else 0
    if k and positive.size > 2 * k:
        top = np.sort(positive)[-k:]
        # Hill index = 1 / mean log-spacing; tied top values (a mean of 0)
        # read as an infinite index, so compare without dividing.
        if 1.0 + 2.0 / math.sqrt(k) <= np.mean(np.log(top / top[0])):
            return True
    return False


@dataclass(frozen=True)
class AdditivityReport:
    """Comparison of the summed-characteristics cf with the product of parts."""

    combined: CfEstimate
    parts: tuple[CfEstimate, CfEstimate]
    discrepancy: float
    pooled_se: float

    @property
    def within(self) -> float:
        """Discrepancy in units of the pooled standard error."""
        return self.discrepancy / self.pooled_se if self.pooled_se > 0 else math.inf


def check_additivity(
    triplet1: LevyTriplet,
    triplet2: LevyTriplet,
    p: MemoryParameter | float,
    query: CfQuery,
    rng: RngStream,
    mc_replicas: int = 10**6,
) -> AdditivityReport:
    """Independent-sum property: cf of summed characteristics vs cf product.

    The three cf estimates use independent Monte Carlo streams so the
    discrepancy is a genuine statistical comparison, not an identity.
    """
    pv = as_memory(p)
    for t in (triplet1, triplet2):
        if not is_admissible(pv, t):
            raise InadmissibleError("both triplets must be admissible for p")
    combined = reinforced_cf(add_triplets(triplet1, triplet2), pv, query, mc_replicas, rng.generator(0))
    part1 = reinforced_cf(triplet1, pv, query, mc_replicas, rng.generator(1))
    part2 = reinforced_cf(triplet2, pv, query, mc_replicas, rng.generator(2))
    product = part1.value * part2.value
    disc = abs(combined.value - product)
    pooled = math.sqrt(
        combined.value_se**2
        + (abs(part2.value) * part1.value_se) ** 2
        + (abs(part1.value) * part2.value_se) ** 2
    )
    return AdditivityReport(combined, (part1, part2), disc, pooled)


@dataclass(frozen=True)
class StabilityReport:
    """Scaling check of the reinforced cf for a stable exponent."""

    scales: np.ndarray
    ratios: np.ndarray  # log|cf(c theta)| / log|cf(theta)|
    expected: np.ndarray  # c^alpha
    base: CfEstimate
    scaled: tuple[CfEstimate, ...]


def check_stability(
    alpha: float,
    p: MemoryParameter | float,
    query: CfQuery,
    rng: RngStream,
    scales: Sequence[float] = (0.5, 2.0, 4.0),
    mc_replicas: int = 10**6,
) -> StabilityReport:
    """log-modulus scaling of the reinforced stable cf: ratio c^alpha.

    Both sides are independent Monte Carlo runs; requires alpha * p < 1.
    """
    pv = as_memory(p)
    if alpha * pv.p >= 1.0:
        raise InadmissibleError(f"alpha * p = {alpha * pv.p:.4g} >= 1 is not admissible")
    triplet = LevyTriplet.stable(alpha) if alpha < 2.0 else LevyTriplet.brownian()
    base = reinforced_cf(triplet, pv, query, mc_replicas, rng.generator(0))
    scaled = []
    ratios = []
    for i, c in enumerate(scales):
        scaled_query = CfQuery(c * query.thetas, query.times)
        est = reinforced_cf(triplet, pv, scaled_query, mc_replicas, rng.generator(1 + i))
        scaled.append(est)
        ratios.append(math.log(abs(est.value)) / math.log(abs(base.value)))
    scales_arr = np.asarray(scales, dtype=float)
    return StabilityReport(
        scales_arr, np.asarray(ratios), scales_arr**alpha, base, tuple(scaled)
    )
