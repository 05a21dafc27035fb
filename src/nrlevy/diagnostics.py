"""Finite-sample checks of the limit theorems.

Empirical characteristic functions, Kolmogorov-Smirnov distances, the
skeleton-convergence experiment (reinforced skeleton walks against the
reinforced-process cf as the mesh shrinks), the supercritical blow-up
experiment, and the occupation-statistics experiment for Simon's dynamics.

All experiments consume replicas in fixed-size blocks with one RNG stream per
block and reduce in block order, so reports are bitwise reproducible for any
worker count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, UnsupportedFamilyError
from .levy_model import LevyTriplet
from .noise_reinforced import CfQuery, query_grid_times, reinforced_cf_values
from .rng import BLOCK_SIZE, RngStream, iter_blocks
from .rng import map_blocks as _map_blocks  # perfbench/tracing.py probes this name
from .step_reinforced import reinforced_prefix_sums, simon_terminal_counts
from .yule_simon import MemoryParameter, as_memory, ys_process_values

TOLERANCE_MULT = 4.0
"""Default verdict tolerance, in Monte Carlo standard errors."""

PROP8_BLOCK_SIZE = 256
"""Replicas per block of Simon's dynamics in :func:`prop8_experiment`.

Smaller than ``rng.BLOCK_SIZE``: a block holds its int32 word origins and
counts, 8 n block bytes (205 MB at the acceptance suite's n = 1e5).  The
functionals then read each replica's histogram of counts, not the counts.
"""

# ---------------------------------------------------------------------------
# Empirical characteristic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EcfEstimate:
    """ECF values for a batch of queries sharing one sampling grid."""

    estimates: np.ndarray  # complex, one per query
    stderr: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimates", np.asarray(self.estimates, dtype=complex))


def empirical_cf(
    values: np.ndarray,
    grid_times,
    queries: Sequence[CfQuery],
) -> EcfEstimate:
    """Average of exp(i sum_j theta_j . X(t_j)) over sample paths.

    ``values`` holds the paths at ``grid_times``: shape (replicas, m) for
    scalar processes or (replicas, m, d).  Every query time must appear in
    the grid.  The reported stderr is the universal 1/sqrt(replicas) bound.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[:, :, None]
    if values.shape[0] == 0:
        raise DomainError("samples must be nonempty")
    grid_times = np.asarray(grid_times, dtype=float)
    estimates = np.empty(len(queries), dtype=complex)
    for qi, query in enumerate(queries):
        thetas = query.on_grid(grid_times)  # (m, d)
        phase = np.einsum("rgd,gd->r", values, thetas)
        estimates[qi] = np.exp(1j * phase).mean()
    return EcfEstimate(estimates, 1.0 / math.sqrt(values.shape[0]))


def ks_distance(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against a reference cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise DomainError("samples must be nonempty")
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


# ---------------------------------------------------------------------------
# Convergence reports
# ---------------------------------------------------------------------------

NOISE_MULT = 3.0
"""Noise floor of the ``decreasing`` trend flag, in Monte Carlo standard errors."""


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-mesh distances of a convergence (or blow-up) experiment, and its verdict.

    ``passed`` needs ``decreasing`` and ``final_ok`` (final distance below
    ``threshold``).  ``decreasing`` tolerates an inversion between values both
    below ``NOISE_MULT`` standard errors, which are indistinguishable from the
    limit; ``strictly_decreasing`` is the raw ordering.
    """

    experiment: str
    mesh_schedule: tuple[int, ...]
    per_query: np.ndarray  # (len(schedule), n_queries); |ECF| for blow-up runs
    stderr: np.ndarray  # per-n Monte Carlo noise scale
    threshold: float
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.per_query) < 0):
            raise DomainError("distances must be nonnegative")
        _check_mesh(self.mesh_schedule)

    @property
    def distances(self) -> np.ndarray:  # per-n sup over the queries
        return self.per_query.max(axis=1)

    @property
    def strictly_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.distances) < 0))

    @property
    def decreasing(self) -> bool:
        d, se = self.distances, self.stderr
        floor = NOISE_MULT * np.maximum(se[:-1], se[1:])
        return bool(np.all((d[1:] < d[:-1]) | (np.maximum(d[:-1], d[1:]) < floor)))

    @property
    def final_distance(self) -> float:
        return float(self.distances[-1])

    @property
    def final_ok(self) -> bool:
        return self.final_distance < self.threshold

    @property
    def passed(self) -> bool:
        return self.decreasing and self.final_ok


def _check_mesh(mesh_schedule: Sequence[int]) -> tuple[int, ...]:
    """The mesh as a tuple of ints; it must be strictly increasing from n >= 1."""
    mesh = tuple(int(n) for n in mesh_schedule)
    if not mesh or mesh[0] < 1 or any(b <= a for a, b in zip(mesh, mesh[1:])):
        raise DomainError(f"mesh schedule must be strictly increasing from n >= 1, got {mesh}")
    return mesh


def default_theorem1_queries() -> list[CfQuery]:
    """Two-time queries at t = (0.5, 1): each angle pair from (0.5, 1, 2)."""
    thetas, times = (0.5, 1.0, 2.0), np.asarray([0.5, 1.0])
    return [CfQuery(np.asarray([th1, th2]), times) for th1 in thetas for th2 in thetas]


def _mesh_ecf(
    triplet: LevyTriplet,
    p: MemoryParameter | float,
    queries: Sequence[CfQuery],
    mesh: Sequence[int],
    replicas: int,
    rng: RngStream,
    threads: int,
) -> tuple[np.ndarray, np.ndarray]:
    """ECFs of the reinforced skeleton walk at floor(n t), per mesh point n and query.

    Returns the complex estimates, shape (len(mesh), len(queries)), and their
    stderr per mesh point.  d = 1 and the mesh are checked before any draw.
    Streams: mesh point i splits ``rng.substream(i)`` into replica blocks
    with :func:`nrlevy.rng.iter_blocks`, and each block is one call of
    :func:`nrlevy.step_reinforced.reinforced_prefix_sums` on its generator,
    which draws each chunk's genealogy uniforms and then its fresh
    increments.  Each thread that runs blocks allocates one flat steps
    array of mesh[-1] * min(R, BLOCK_SIZE) floats at its first block and
    passes every block a contiguous (n, count) view of it, which the block
    writes before it reads; so a thread holds one such array and one chunk.
    """
    if triplet.dim != 1:
        raise UnsupportedFamilyError("skeleton experiments are implemented for d = 1")
    mesh = _check_mesh(mesh)
    grid_times = query_grid_times(queries)
    estimates = np.empty((len(mesh), len(queries)), dtype=complex)
    stderr = np.empty(len(mesh))
    slots = mesh[-1] * min(replicas, BLOCK_SIZE)
    local = threading.local()
    for i, n in enumerate(mesh):
        ks = np.floor(n * grid_times + 1e-9).astype(np.int64)

        def block(gen: np.random.Generator, start: int, count: int) -> np.ndarray:
            if not hasattr(local, "steps"):
                local.steps = np.empty(slots)
            steps = local.steps[: n * count].reshape(n, count)
            return reinforced_prefix_sums(steps, triplet, p, gen, ks)

        blocks = list(iter_blocks(rng.substream(i), replicas))
        sums = np.concatenate(_map_blocks(block, blocks, threads))
        ecf = empirical_cf(sums, grid_times, queries)
        estimates[i] = ecf.estimates
        stderr[i] = ecf.stderr
    return estimates, stderr


def theorem1_experiment(
    triplet: LevyTriplet,
    p: MemoryParameter | float,
    queries: Sequence[CfQuery] | None,
    mesh_schedule: Sequence[int],
    replicas: int,
    rng: RngStream,
    *,
    theory: str = "auto",
    theory_mc_replicas: int = 2_000_000,
    tolerance_mult: float = TOLERANCE_MULT,
    threads: int = 1,
) -> ConvergenceReport:
    """Distance of skeleton-walk ECFs to the reinforced-process cf, per mesh.

    For each n the reinforced skeleton walk is sampled ``replicas`` times and
    its finite-dimensional ECF compared with the reinforced cf; the verdict
    (see :class:`ConvergenceReport`) requires decreasing sup distances and a
    final distance below ``tolerance_mult / sqrt(replicas)``.  ``theory``
    picks the cf evaluation (see
    :func:`nrlevy.noise_reinforced.reinforced_cf_values`): "exact" (closed
    form families only), "mc", or "auto".  Streams: mesh point i uses
    ``rng.substream(i)`` (see :func:`_mesh_ecf`); the mc theory route uses
    ``rng.substream(1000 + query_index)``.
    """
    pv = as_memory(p)
    queries = default_theorem1_queries() if queries is None else queries
    mesh = _check_mesh(mesh_schedule)
    theory_vals = reinforced_cf_values(triplet, pv, queries, theory, theory_mc_replicas, rng)
    estimates, stderr = _mesh_ecf(triplet, pv, queries, mesh, replicas, rng, threads)
    return ConvergenceReport(
        experiment="theorem1",
        mesh_schedule=mesh,
        per_query=np.abs(estimates - theory_vals),
        stderr=stderr,
        threshold=tolerance_mult / math.sqrt(replicas),
        params={"p": pv.p, "replicas": replicas, "theory": theory},
    )


def supercritical_experiment(
    alpha: float,
    p: MemoryParameter | float,
    theta: float,
    mesh_schedule: Sequence[int],
    replicas: int,
    rng: RngStream,
    *,
    final_threshold: float = 0.1,
    threads: int = 1,
) -> ConvergenceReport:
    """|ECF| of the terminal reinforced skeleton value for a unit-scale stable walk.

    Requires alpha * p > 1 (supercritical); the verdict (see
    :class:`ConvergenceReport`) asks for decreasing |ECF(S-hat(n))| at the
    given nonzero angle and a final value below ``final_threshold``.
    Admissible parameters are rejected: run :func:`theorem1_experiment` or
    :func:`terminal_ecf_schedule` for those.
    """
    pv = as_memory(p)
    if alpha * pv.p <= 1.0:
        raise DomainError(
            f"supercritical experiment requires alpha * p > 1, got {alpha * pv.p:.4g}"
        )
    if theta == 0.0:
        raise DomainError("theta must be nonzero (the ECF at 0 is identically 1)")
    values, stderr = terminal_ecf_schedule(
        LevyTriplet.stable(alpha), pv, theta, mesh_schedule, replicas, rng, threads=threads
    )
    return ConvergenceReport(
        experiment="supercritical",
        mesh_schedule=tuple(int(n) for n in mesh_schedule),
        per_query=values[:, None],
        stderr=stderr,
        threshold=final_threshold,
        params={"alpha": alpha, "p": pv.p, "theta": theta, "replicas": replicas},
    )


def terminal_ecf_schedule(
    triplet: LevyTriplet,
    p: MemoryParameter | float,
    theta: float,
    mesh_schedule: Sequence[int],
    replicas: int,
    rng: RngStream,
    *,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """|ECF(S-hat(n))| across a mesh schedule (contrast runs for any regime)."""
    query = CfQuery(np.asarray([float(theta)]), np.asarray([1.0]))
    estimates, stderr = _mesh_ecf(
        triplet, as_memory(p), [query], mesh_schedule, replicas, rng, threads
    )
    # Builtin abs per value: numpy's vectorised complex abs can differ by an ulp.
    return np.asarray([abs(z) for z in estimates[:, 0]]), stderr


# ---------------------------------------------------------------------------
# Occupation-statistics experiment (Simon dynamics vs the mark law)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathFunctional:
    """A functional F of counting paths that depends only on their terminal value.

    ``terminal`` applies F elementwise to an integer array of terminal
    counts.  F must vanish on the zero path.  :func:`prop8_experiment`
    applies it to the values 0, 1, ..., max of a block's counts and weights
    each value by its count in a replica's histogram.
    """

    name: str
    terminal: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def terminal_equals(k: int) -> "PathFunctional":
        return PathFunctional(f"terminal=={k}", lambda counts: (counts == k).astype(float))

    @staticmethod
    def terminal_at_least(k: int) -> "PathFunctional":
        return PathFunctional(f"terminal>={k}", lambda counts: (counts >= k).astype(float))


@dataclass(frozen=True)
class Prop8Report:
    """Occupation averages of Simon's dynamics against the mark-law limit."""

    n_schedule: tuple[int, ...]
    functional_names: tuple[str, ...]
    estimates: np.ndarray  # (len(schedule), n_functionals)
    stderr: np.ndarray
    references: np.ndarray  # (n_functionals,)  (1 - p) E[F(Y)]
    reference_se: np.ndarray

    @property
    def pooled_se(self) -> np.ndarray:
        """Standard error of each estimate minus its reference."""
        return np.sqrt(self.stderr**2 + self.reference_se[None, :] ** 2)

    @property
    def z_scores(self) -> np.ndarray:
        return (self.estimates - self.references[None, :]) / self.pooled_se


def prop8_experiment(
    p: MemoryParameter | float,
    n_schedule: Sequence[int],
    functionals: Sequence[PathFunctional],
    replicas: int,
    rng: RngStream,
    *,
    mc_replicas: int = 10**6,
) -> Prop8Report:
    """Average of F over the rescaled occupation counters vs (1-p) E[F(Y)].

    The reference expectation is Monte Carlo over the event-based mark
    sampler (an independent route from the reinforcement dynamics).  A
    replica's average is sum_v h(v) F(v) / n over the histogram h of its
    counts, so a block holds no (replicas, n) float array beside the counts;
    for an integer-valued F (the indicators here) every sum is exact.
    """
    pv = as_memory(p)
    for f in functionals:
        if float(np.atleast_1d(f.terminal(np.zeros(1, dtype=int)))[0]) != 0.0:
            raise DomainError(f"functional {f.name} must vanish on the zero path")
    schedule = tuple(int(n) for n in n_schedule)
    estimates = np.empty((len(schedule), len(functionals)))
    stderr = np.empty_like(estimates)
    for i, n in enumerate(schedule):
        per_real = np.empty((replicas, len(functionals)))
        for gen, start, count in iter_blocks(rng.substream(i), replicas, PROP8_BLOCK_SIZE):
            counts = simon_terminal_counts(n, pv, gen, count)
            support = np.arange(int(counts.max()) + 1)
            f_values = np.stack([f.terminal(support) for f in functionals], axis=1)
            for r, row in enumerate(counts, start):
                hist = np.bincount(row)
                per_real[r] = (hist[:, None] * f_values[: hist.size]).sum(axis=0) / n
        estimates[i] = per_real.mean(axis=0)
        stderr[i] = per_real.std(axis=0, ddof=1) / math.sqrt(replicas)
    # Reference: (1 - p) E[F(Y)] over event-based mark paths.
    refs = np.empty(len(functionals))
    ref_se = np.empty(len(functionals))
    terminal_counts = ys_process_values(
        pv.rho, np.asarray([1.0]), rng.substream(10_000).generator(), mc_replicas
    )[:, 0]
    for fi, f in enumerate(functionals):
        vals = (1.0 - pv.p) * f.terminal(terminal_counts)
        refs[fi] = vals.mean()
        ref_se[fi] = vals.std(ddof=1) / math.sqrt(mc_replicas)
    return Prop8Report(
        n_schedule=schedule,
        functional_names=tuple(f.name for f in functionals),
        estimates=estimates,
        stderr=stderr,
        references=refs,
        reference_se=ref_se,
    )
