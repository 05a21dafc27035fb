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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, UnsupportedFamilyError
from .levy_model import LevyTriplet, increment_sample
from .noise_reinforced import CfQuery, query_grid_times, reinforced_cf_values
from .rng import RngStream, iter_blocks
from .rng import map_blocks as _map_blocks  # perfbench/tracing.py probes this name
from .step_reinforced import reinforced_prefix_sums, repeat_sources, simon_terminal_counts
from .yule_simon import MemoryParameter, as_memory, ys_process_values

TOLERANCE_MULT = 4.0
"""Default verdict tolerance, in Monte Carlo standard errors."""

PROP8_BLOCK_SIZE = 256
"""Replicas per block of Simon's dynamics in :func:`prop8_experiment`.

Smaller than ``rng.BLOCK_SIZE`` because each block holds a (block, n) int64
array of word origins, and n runs to 1e5 in the acceptance suite.
"""

# ---------------------------------------------------------------------------
# Empirical characteristic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EcfEstimate:
    """ECF values for a batch of queries sharing one sampling grid."""

    queries: tuple[CfQuery, ...]
    estimates: np.ndarray  # complex, one per query
    replicas: int
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
    return EcfEstimate(tuple(queries), estimates, values.shape[0], 1.0 / math.sqrt(values.shape[0]))


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


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-mesh distances of a convergence (or blow-up) experiment.

    ``strictly_decreasing`` is the raw ordering of the distances;
    ``decreasing`` is the trend flag used in the verdict, which tolerates an
    inversion between values that are both within the Monte Carlo noise floor
    (indistinguishable from the limit at the given replica count).
    """

    experiment: str
    mesh_schedule: tuple[int, ...]
    distances: np.ndarray  # per-n sup distance (or |ECF| for blow-up runs)
    per_query: np.ndarray  # (len(schedule), n_queries)
    stderr: np.ndarray  # per-n Monte Carlo noise scale
    threshold: float
    decreasing: bool
    final_ok: bool
    strictly_decreasing: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.distances) < 0):
            raise DomainError("distances must be nonnegative")
        if np.any(np.diff(self.mesh_schedule) <= 0):
            raise DomainError("mesh schedule must be strictly increasing")

    @property
    def passed(self) -> bool:
        return self.decreasing and self.final_ok

    @property
    def final_distance(self) -> float:
        return float(self.distances[-1])


def _trend_flags(distances: np.ndarray, stderr: np.ndarray, noise_mult: float = 3.0):
    """(noise-aware decreasing, strictly decreasing) for a distance schedule."""
    strict = bool(np.all(np.diff(distances) < 0))
    ok = True
    for i in range(len(distances) - 1):
        floor = noise_mult * max(stderr[i], stderr[i + 1])
        if not (distances[i + 1] < distances[i] or max(distances[i], distances[i + 1]) < floor):
            ok = False
    return ok, strict


def default_theorem1_queries(
    times: Sequence[float] = (0.5, 1.0),
    thetas: Sequence[float] = (0.5, 1.0, 2.0),
) -> list[CfQuery]:
    """Cartesian two-time query grid: one angle from ``thetas`` per time."""
    times_arr = np.asarray(times, dtype=float)
    queries = []
    for th1 in thetas:
        for th2 in thetas:
            queries.append(CfQuery(np.asarray([th1, th2]), times_arr))
    return queries


def _skeleton_ecf(
    triplet: LevyTriplet,
    p: MemoryParameter,
    n: int,
    queries: Sequence[CfQuery],
    grid_times: np.ndarray,
    replicas: int,
    stream: RngStream,
    threads: int,
) -> EcfEstimate:
    """ECF of the reinforced skeleton walk at floor(n t) for each query time."""
    if triplet.dim != 1:
        raise UnsupportedFamilyError("skeleton experiments are implemented for d = 1")
    ks = np.floor(n * grid_times + 1e-9).astype(np.int64)

    def block(b: int, start: int, count: int) -> np.ndarray:
        gen = stream.generator(b)
        fresh, sources = repeat_sources(n, count, p, gen)
        steps = np.zeros((n, count))
        steps[fresh] = increment_sample(triplet, 1.0 / n, gen, size=int(fresh.sum()))[:, 0]
        return reinforced_prefix_sums(steps, sources, ks)

    sums = np.concatenate(_map_blocks(block, list(iter_blocks(replicas)), threads))
    return empirical_cf(sums, grid_times, queries)


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
    requires strictly decreasing sup distances and a final distance below
    ``tolerance_mult / sqrt(replicas)``.  ``theory`` picks the cf evaluation
    (see :func:`nrlevy.noise_reinforced.reinforced_cf_values`): "exact"
    (closed form families only), "mc", or "auto".  Streams: mesh point i uses
    ``rng.substream(i)`` with one generator per replica block; the mc theory
    route uses ``rng.substream(1000 + query_index)``.
    """
    pv = as_memory(p)
    if queries is None:
        queries = default_theorem1_queries()
    mesh = tuple(int(n) for n in mesh_schedule)
    grid_times = query_grid_times(queries)
    theory_vals = reinforced_cf_values(triplet, pv, queries, theory, theory_mc_replicas, rng)
    per_query = np.empty((len(mesh), len(queries)))
    stderr = np.empty(len(mesh))
    for i, n in enumerate(mesh):
        ecf = _skeleton_ecf(
            triplet, pv, n, queries, grid_times, replicas, rng.substream(i), threads
        )
        per_query[i] = np.abs(ecf.estimates - theory_vals)
        stderr[i] = ecf.stderr
    distances = per_query.max(axis=1)
    threshold = tolerance_mult / math.sqrt(replicas)
    decreasing, strict = _trend_flags(distances, stderr)
    return ConvergenceReport(
        experiment="theorem1",
        mesh_schedule=mesh,
        distances=distances,
        per_query=per_query,
        stderr=stderr,
        threshold=threshold,
        decreasing=decreasing,
        final_ok=bool(distances[-1] < threshold),
        strictly_decreasing=strict,
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
    scale: float = 1.0,
    final_threshold: float = 0.1,
    threads: int = 1,
) -> ConvergenceReport:
    """|ECF| of the terminal reinforced skeleton value for a stable walk.

    Requires alpha * p > 1 (supercritical); the verdict asks for strictly
    decreasing |ECF(S-hat(n))| at the given nonzero angle and a final value
    below ``final_threshold``.  Admissible parameters are rejected: run
    :func:`theorem1_experiment` (or the same schedule through this module's
    CLI contrast mode) for those.
    """
    pv = as_memory(p)
    if alpha * pv.p <= 1.0:
        raise DomainError(
            f"supercritical experiment requires alpha * p > 1, got {alpha * pv.p:.4g}"
        )
    if theta == 0.0:
        raise DomainError("theta must be nonzero (the ECF at 0 is identically 1)")
    values, stderr = terminal_ecf_schedule(
        LevyTriplet.stable(alpha, scale), pv, theta, mesh_schedule, replicas, rng,
        threads=threads,
    )
    decreasing, strict = _trend_flags(values, stderr)
    return ConvergenceReport(
        experiment="supercritical",
        mesh_schedule=tuple(int(n) for n in mesh_schedule),
        distances=values,
        per_query=values[:, None],
        stderr=stderr,
        threshold=final_threshold,
        decreasing=decreasing,
        final_ok=bool(values[-1] < final_threshold),
        strictly_decreasing=strict,
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
    pv = as_memory(p)
    query = [CfQuery(np.asarray([float(theta)]), np.asarray([1.0]))]
    values = np.empty(len(mesh_schedule))
    stderr = np.empty(len(mesh_schedule))
    for i, n in enumerate(mesh_schedule):
        ecf = _skeleton_ecf(
            triplet, pv, int(n), query, np.asarray([1.0]), replicas, rng.substream(i), threads
        )
        values[i] = abs(ecf.estimates[0])
        stderr[i] = ecf.stderr
    return values, stderr


# ---------------------------------------------------------------------------
# Occupation-statistics experiment (Simon dynamics vs the mark law)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathFunctional:
    """A functional F of counting paths that depends only on their terminal value.

    ``terminal`` applies F elementwise to an integer array of terminal
    counts.  F must vanish on the zero path.
    """

    name: str
    terminal: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def terminal_equals(k: int) -> "PathFunctional":
        return PathFunctional(f"terminal=={k}", lambda counts: (counts == k).astype(float))

    @staticmethod
    def terminal_at_least(k: int) -> "PathFunctional":
        return PathFunctional(f"terminal>={k}", lambda counts: (counts >= k).astype(float))

    @staticmethod
    def terminal_power(gamma: float) -> "PathFunctional":
        return PathFunctional(
            f"terminal^{gamma}",
            lambda counts: np.where(counts > 0, counts.astype(float) ** gamma, 0.0),
        )


@dataclass(frozen=True)
class Prop8Report:
    """Occupation averages of Simon's dynamics against the mark-law limit."""

    n_schedule: tuple[int, ...]
    functional_names: tuple[str, ...]
    estimates: np.ndarray  # (len(schedule), n_functionals)
    stderr: np.ndarray
    references: np.ndarray  # (n_functionals,)  (1 - p) E[F(Y)]
    reference_se: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def z_scores(self) -> np.ndarray:
        pooled = np.sqrt(self.stderr**2 + self.reference_se[None, :] ** 2)
        return (self.estimates - self.references[None, :]) / pooled


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
    sampler (an independent route from the reinforcement dynamics).
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
        row = 0
        for b, start, count in iter_blocks(replicas, PROP8_BLOCK_SIZE):
            counts = simon_terminal_counts(n, pv, rng.substream(i).generator(b), count)
            for fi, f in enumerate(functionals):
                per_real[row : row + count, fi] = f.terminal(counts).mean(axis=1)
            row += count
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
        params={"p": pv.p, "replicas": replicas, "mc_replicas": mc_replicas},
    )
