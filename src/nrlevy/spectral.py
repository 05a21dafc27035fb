"""Exact mixture sampler for reinforced symmetric-stable jump sums.

Group the atoms of the marked Poisson measure by the integer vector of mark
values on the output grid.  For a symmetric stable jump measure, the summed
jump sizes within one group form a symmetric alpha-stable variable whose
scale is the group probability times the measure scale, so the whole jump
part of the reinforced process on an m-point grid is

    sum over mark vectors v of  v * Z_v,   Z_v ~ SaS(P(v) * scale),

with independent Z_v.  The mixture is evaluated by enumerating mark vectors
exactly up to a bound, collapsing larger vectors radially (exact, by
stability) within narrow direction bins, and closing the far tail with its
limiting direction.  This avoids the epsilon-truncated series entirely: its
cost is independent of the small-jump activity, which makes indices close to
the critical one tractable.

The mixture replaces only the jump part of the process: the block plan, the
drift, the reinforced-Brownian part and the thread pool are those of the
series sampler (:func:`nrlevy.noise_reinforced.map_nrlp_blocks`).
:func:`mixture_covers` states its domain, one-dimensional isotropic stable
jumps on one or two positive grid times; the series sampler covers the rest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .errors import DomainError, UnsupportedFamilyError
from .levy_model import IsotropicStable, LevyTriplet, symmetric_stable_std
from .noise_reinforced import NrlpConfig, map_nrlp_blocks
from .rng import BLOCK_SIZE, RngStream
from .yule_simon import ys_abs_moment, ys_pmf

EXACT_MAX = 32
"""Mark vectors with terminal value up to this become singleton bins."""

ENUM_MAX = 4000
"""Mark vectors with terminal value up to this are enumerated."""

DIR_BINS = 256
"""Direction bins for the enumerated vectors beyond ``EXACT_MAX``."""


@dataclass(frozen=True)
class StableMarkMixture:
    """Precomputed direction/weight table for the reinforced stable jump part.

    ``directions`` has shape (bins, m) and ``weights`` the per-bin stable
    scales gamma_b; a sample of the jump part at the grid times is
    sum_b gamma_b^(1/alpha) * directions[b] * S_b with S_b independent
    standard symmetric alpha-stable draws.
    """

    alpha: float
    times: np.ndarray
    directions: np.ndarray
    weights: np.ndarray

    def sample(
        self,
        gen: np.random.Generator,
        replicas: int,
        buffers: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Jump part at the grid times, (replicas, m).

        ``buffers`` are passed to :func:`symmetric_stable_std` (two flat
        float64 arrays of at least ``replicas * bins`` elements) and hold the
        per-bin draws.
        """
        s = symmetric_stable_std(self.alpha, gen, (replicas, self.weights.size), buffers)
        s *= self.weights ** (1.0 / self.alpha)
        return s @ self.directions

    def exponent(self, thetas: np.ndarray) -> np.ndarray:
        """Jump-part exponent sum_b gamma_b |theta . w_b|^alpha, batched."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        dots = np.abs(thetas @ self.directions.T)
        return dots**self.alpha @ self.weights


def build_stable_mixture(
    alpha: float,
    scale_nu: float,
    rho: float,
    times,
) -> StableMarkMixture:
    """Tabulate the mark-vector mixture on a one- or two-point grid.

    Vectors with terminal value <= ``EXACT_MAX`` become singleton bins (their
    stable collapse is exact); terminal values up to ``ENUM_MAX`` are grouped
    into ``DIR_BINS`` direction bins with mass-weighted representative
    directions; beyond that the mixture is closed with the limiting direction
    profile, whose weight comes from the exact marginal tail.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0) or np.any(np.diff(times) <= 0) or times[-1] > 1:
        raise DomainError("grid times must be strictly increasing in (0, 1]")
    if not 0.0 < alpha < rho:
        raise DomainError("stable mixture needs alpha < rho (admissibility)")
    if times.size == 1:
        gamma_total = scale_nu * ys_abs_moment(alpha, rho, float(times[0]))
        return StableMarkMixture(
            alpha, times, np.ones((1, 1)), np.asarray([gamma_total])
        )
    if times.size != 2:
        raise UnsupportedFamilyError(
            "stable mixture sampling is tabulated for grids of one or two times; "
            "use the series sampler for longer grids"
        )
    t1, t2 = float(times[0]), float(times[1])
    q = (t1 / t2) ** (1.0 / rho)
    log_q, log_1mq = np.log(q), np.log1p(-q)

    dirs: list[np.ndarray] = []
    weights: list[float] = []
    bin_gamma = np.zeros(DIR_BINS)
    bin_dir = np.zeros((DIR_BINS, 2))

    k_all = np.arange(1, ENUM_MAX + 1)
    for j in range(0, ENUM_MAX + 1):
        if j == 0:
            k = k_all
            prob = t2 * ys_pmf(k, rho) * (
                1.0 - betainc(rho + 1.0, k.astype(float), q)
            )
        else:
            k = np.arange(j, ENUM_MAX + 1)
            nb = k - j
            log_nb = (
                gammaln(k.astype(float))
                - gammaln(float(j))
                - gammaln(nb.astype(float) + 1.0)
                + j * log_q
                + nb * log_1mq
            )
            prob = t1 * ys_pmf(j, rho) * np.exp(log_nb)
        norms = np.hypot(float(j), k.astype(float))
        gamma_cells = scale_nu * prob * norms**alpha
        u = np.stack([np.full(k.size, float(j)) / norms, k / norms], axis=1)
        exact = k <= EXACT_MAX
        for idx in np.flatnonzero(exact):
            dirs.append(u[idx])
            weights.append(float(gamma_cells[idx]))
        rest = ~exact
        if np.any(rest):
            phi = np.full(k.size, float(j)) / k  # ratio in [0, 1]
            bins = np.minimum((phi[rest] * DIR_BINS).astype(int), DIR_BINS - 1)
            np.add.at(bin_gamma, bins, gamma_cells[rest])
            np.add.at(bin_dir, bins, gamma_cells[rest, None] * u[rest])

    used = bin_gamma > 0
    bin_dirs = bin_dir[used] / bin_gamma[used, None]

    tail_gamma = scale_nu * (1.0 + q * q) ** (alpha / 2.0) * ys_abs_moment(
        alpha, rho, t2, kmin=ENUM_MAX
    )
    tail_dir = np.asarray([q, 1.0]) / np.hypot(q, 1.0)

    directions = np.vstack([np.asarray(dirs), bin_dirs, tail_dir[None, :]])
    gamma = np.concatenate([np.asarray(weights), bin_gamma[used], [tail_gamma]])
    return StableMarkMixture(alpha, times, directions, gamma)


def mixture_covers(triplet: LevyTriplet, grid) -> bool:
    """Whether the mark mixture can be the jump part of this triplet on this
    grid: one-dimensional isotropic stable jumps on one or two positive times."""
    positive = sum(t > 0 for t in grid)
    return (isinstance(triplet.jump_measure, IsotropicStable) and triplet.dim == 1
            and 1 <= positive <= 2)


def stable_mixture_for(config: NrlpConfig) -> StableMarkMixture:
    """Mixture table for the jump part of a stable-jump configuration."""
    if not mixture_covers(config.triplet, config.grid):
        raise UnsupportedFamilyError("the mixture sampler covers one-dimensional "
                                     "isotropic stable jumps on one or two positive times")
    nu = config.thinned
    return build_stable_mixture(nu.alpha, nu.scale, config.rho, config.grid[config.grid > 0])


def stable_nrlp_marginals(
    config: NrlpConfig,
    rng: RngStream,
    replicas: int,
    mixture: StableMarkMixture | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Marginals of the reinforced process via the mark mixture, (R, m, 1).

    Law-equivalent to :func:`nrlevy.noise_reinforced.nrlp_marginals` with the
    truncation removed; cost per replica is the number of mixture bins.  The
    mixture is the jump part of :func:`nrlevy.noise_reinforced.map_nrlp_blocks`,
    whose result does not depend on ``threads``.  Each thread allocates its two
    (block, bins) draw buffers once and reuses them for every block it runs.
    """
    if mixture is None:
        mixture = stable_mixture_for(config)
    draws = min(replicas, BLOCK_SIZE) * mixture.weights.size
    local = threading.local()

    def jumps(_config: NrlpConfig, gen: np.random.Generator, values: np.ndarray) -> None:
        if not hasattr(local, "buffers"):
            local.buffers = (np.empty(draws), np.empty(draws))
        values[:, :, 0] += mixture.sample(gen, values.shape[0], local.buffers)

    return map_nrlp_blocks(config, rng, replicas, threads, jumps)
