"""Mark-mixture sampler for reinforced symmetric-stable jump sums.

Group the atoms of the marked Poisson measure by the integer vector of mark
values on the output grid.  For a symmetric stable jump measure, the summed
jump sizes within one group form a symmetric alpha-stable variable whose
scale is the group probability times the measure scale, so the whole jump
part of the reinforced process on an m-point grid is

    sum over mark vectors v of  v * Z_v,   Z_v ~ SaS(P(v) * scale),

with independent Z_v.  On a two-point grid the table has three parts:

- Vectors with terminal value up to ``EXACT_MAX`` are exact.  Vectors that
  share a direction (the same reduced pair (j/g, k/g), g = gcd(j, k)) merge
  into one bin with their summed scale, which is exact by stability:
  sum_i gamma_i^(1/alpha) u S_i has the law of (sum_i gamma_i)^(1/alpha) u S.
- Vectors with terminal value up to ``ENUM_MAX`` are enumerated exactly, but
  each of ``DIR_BINS`` narrow direction bins replaces its vectors'
  directions by their mass-weighted mean direction.  This is an
  approximation: the vectors in one bin are not collinear.
- The far tail is closed with its limiting direction and its exact weight.

That makes 582 bins (325 singleton directions, 256 direction bins and the
tail), fewer where a bin's cells all underflow to weight 0 and the bin is
dropped; a one-point grid needs one bin.  The exact cells come from
:func:`nrlevy.yule_simon.ys_pair_cells`, which the series marks' alias head
reads too and which skips the cells that are exactly 0.0; this module only
bins them.  This avoids the epsilon-truncated
series entirely: its cost is independent of the small-jump activity, which
makes indices close to the critical one tractable.

The mixture replaces only the jump part of the process: the block plan, the
drift, the reinforced-Brownian part and the thread pool are those of the
series sampler (:func:`nrlevy.noise_reinforced.map_nrlp_blocks`).
:func:`mixture_covers` states its domain, one-dimensional isotropic stable
jumps on one or two grid times; the series sampler covers the rest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedFamilyError
from .levy_model import IsotropicStable, LevyTriplet, _replica_dot, symmetric_stable_std
from .noise_reinforced import NrlpConfig, map_nrlp_blocks
from .rng import BLOCK_SIZE, RngStream
from .yule_simon import check_times, ys_abs_moment, ys_pair_cells

EXACT_MAX = 32
"""Mark vectors with terminal value up to this become exact bins, one per direction."""

ENUM_MAX = 4000
"""Mark vectors with terminal value up to this are enumerated."""

DIR_BINS = 256
"""Direction bins for the enumerated vectors beyond ``EXACT_MAX``."""


@dataclass(frozen=True)
class StableMarkMixture:
    """Precomputed direction/weight table for the reinforced stable jump part.

    ``directions`` has shape (bins, m) with unit rows and ``weights`` the
    per-bin stable scales gamma_b; a sample of the jump part at the grid times is
    sum_b gamma_b^(1/alpha) * directions[b] * S_b with S_b independent
    standard symmetric alpha-stable draws.
    """

    alpha: float
    directions: np.ndarray
    weights: np.ndarray

    def sample(
        self,
        gen: np.random.Generator,
        replicas: int,
        buffer: np.ndarray | None = None,
    ) -> np.ndarray:
        """Jump part at the grid times, (replicas, m).

        ``buffer`` is passed to :func:`symmetric_stable_std` (one flat
        float64 array of at least ``replicas * bins`` elements) and holds the
        per-bin draws.  The scales gamma_b^(1/alpha) are folded into the
        directions once per call, so the draws are not rescaled, and the
        (replicas, bins) by (bins, m) product runs in numpy's own loops, not
        in threaded BLAS, whose idle workers would spin against the block
        pool (``levy_model._replica_dot``).
        """
        scaled = self.weights[:, None] ** (1.0 / self.alpha) * self.directions
        s = symmetric_stable_std(self.alpha, gen, (replicas, self.weights.size), buffer)
        return _replica_dot(s, scaled)

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

    Vectors with terminal value <= ``EXACT_MAX`` become one bin per direction,
    with the summed scale of the vectors that share it (exact, by stability).
    The exact cells with terminal values up to ``ENUM_MAX``
    (:func:`nrlevy.yule_simon.ys_pair_cells`) are grouped into ``DIR_BINS``
    direction bins, each with its mass-weighted mean direction (an
    approximation); beyond that the mixture is closed with the limiting
    direction profile, whose weight comes from the exact marginal tail.
    Every direction has unit norm.  The bins are the singleton directions
    (ordered by reduced pair), the direction bins and the tail: at most 582
    bins on a two-point grid, one on a one-point grid.  A bin of weight 0
    (all its cells underflow, as at t1/t2 = 1e-40) is dropped.
    """
    times = check_times(times)
    if not 0.0 < alpha < rho:
        raise DomainError("stable mixture needs alpha < rho (admissibility)")
    if times.size == 1:
        gamma_total = scale_nu * ys_abs_moment(alpha, rho, float(times[0]))
        return StableMarkMixture(alpha, np.ones((1, 1)), np.asarray([gamma_total]))
    if times.size != 2:
        raise UnsupportedFamilyError(
            "stable mixture sampling is tabulated for grids of one or two times; "
            "use the series sampler for longer grids"
        )
    t1, t2 = float(times[0]), float(times[1])
    q = (t1 / t2) ** (1.0 / rho)

    singles: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    bin_gamma = np.zeros(DIR_BINS)
    bin_dir = np.zeros((2, DIR_BINS))
    for j, k, prob in ys_pair_cells(rho, t1, t2, ENUM_MAX):
        if k.min() <= EXACT_MAX:  # a row's window need not start at k = j
            exact = k <= EXACT_MAX
            singles.append((j[exact], k[exact], prob[exact]))
            rest = ~exact
            j, k, prob = j[rest], k[rest], prob[rest]
        # gamma = scale_nu * prob * |v|^alpha and gamma * v / |v| per cell,
        # the same operations in place: fewer chunk-sized temporaries.
        j, k = j.astype(float), k.astype(float)
        norms = np.hypot(j, k)
        gamma_cells = norms**alpha
        prob *= scale_nu
        gamma_cells *= prob
        bins = np.minimum((j / k * DIR_BINS).astype(int), DIR_BINS - 1)
        np.add.at(bin_gamma, bins, gamma_cells)
        for axis, v in enumerate((j, k)):
            v /= norms
            v *= gamma_cells
            np.add.at(bin_dir[axis], bins, v)

    # One bin per direction among the singletons, keyed by the reduced pair.
    j, k, prob = (np.concatenate(c) for c in zip(*singles))
    gamma_cells = scale_nu * prob * np.hypot(j.astype(float), k.astype(float))**alpha
    g = np.gcd(j, k)
    keys, which = np.unique(j // g * (EXACT_MAX + 1) + k // g, return_inverse=True)
    single_gamma = np.bincount(which, weights=gamma_cells)
    single_dirs = np.stack(np.divmod(keys, EXACT_MAX + 1), axis=1).astype(float)
    single_dirs /= np.hypot(single_dirs[:, 0], single_dirs[:, 1])[:, None]

    # Mass-weighted mean direction d_b of each bin, stored as the unit vector
    # d_b / |d_b| with weight gamma_b |d_b|^alpha: the same stable variable.
    used = bin_gamma > 0
    bin_dirs = bin_dir[:, used].T / bin_gamma[used, None]
    bin_norms = np.hypot(bin_dirs[:, 0], bin_dirs[:, 1])
    bin_dirs /= bin_norms[:, None]

    tail_gamma = scale_nu * (1.0 + q * q) ** (alpha / 2.0) * ys_abs_moment(
        alpha, rho, t2, kmin=ENUM_MAX
    )
    tail_dir = np.asarray([q, 1.0]) / np.hypot(q, 1.0)

    directions = np.vstack([single_dirs, bin_dirs, tail_dir[None, :]])
    gamma = np.concatenate([single_gamma, bin_gamma[used] * bin_norms**alpha, [tail_gamma]])
    kept = gamma > 0.0  # a bin whose cells all underflow would cost draws for nothing
    return StableMarkMixture(alpha, directions[kept], gamma[kept])


def mixture_covers(triplet: LevyTriplet, grid) -> bool:
    """Whether the mark mixture can be the jump part of this triplet on this
    grid: one-dimensional isotropic stable jumps on one or two grid times."""
    return (isinstance(triplet.jump_measure, IsotropicStable) and triplet.dim == 1
            and 1 <= len(grid) <= 2)


def stable_mixture_for(config: NrlpConfig) -> StableMarkMixture:
    """Mixture table for the jump part of a stable-jump configuration."""
    if not mixture_covers(config.triplet, config.grid):
        raise UnsupportedFamilyError("the mixture sampler covers one-dimensional "
                                     "isotropic stable jumps on one or two grid times")
    nu = config.thinned
    return build_stable_mixture(nu.alpha, nu.scale, config.rho, config.grid)


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
    whose result does not depend on ``threads``.  Each thread allocates one
    (block, bins) draw buffer once and reuses it for every block it runs.
    """
    if mixture is None:
        mixture = stable_mixture_for(config)
    draws = min(replicas, BLOCK_SIZE) * mixture.weights.size
    local = threading.local()

    def jumps(_config: NrlpConfig, gen: np.random.Generator, values: np.ndarray) -> None:
        if not hasattr(local, "buffer"):
            local.buffer = np.empty(draws)
        values[:, :, 0] += mixture.sample(gen, values.shape[0], local.buffer)

    return map_nrlp_blocks(config, rng, replicas, threads, jumps)
