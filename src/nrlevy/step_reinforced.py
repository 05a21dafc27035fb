"""Simon's step-reinforcement dynamics for i.i.d. step sequences.

At each step k >= 2, with probability p the walker repeats one of its
previous steps chosen uniformly at random, otherwise it makes a fresh step.
Repeats are tracked by the originating base index (not the step value), so
counters remain correct when step values collide.  Counters are stored
sparsely as event lists; a realization costs O(n) memory.

The skeleton block kernel holds R walks as an (n, R) array of contiguous
rows.  It draws the repeat genealogy first, one uniform per slot, then base
steps for the fresh slots only (about 1 + (n - 1)(1 - p) per walk, not n),
then fills each row with one gather from the earlier rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .levy_model import LevyTriplet, increment_sample
from .rng import RngStream, as_generator
from .yule_simon import ZERO_PATH, CountingPath, MemoryParameter, as_memory


@dataclass(frozen=True)
class ReinforcementRecord:
    """Bookkeeping of one reinforcement realization of length n.

    ``epsilons[k-1]`` says whether step k was a repeat, ``choices[k-1]`` the
    repeated slot (1-based; 0 when fresh), ``origins[k-1]`` the base index
    whose word step k uses.  Counting processes derive from ``origins``:
    N_j(k) = #{l <= k : origins[l-1] == j}.
    """

    n: int
    epsilons: np.ndarray
    choices: np.ndarray
    origins: np.ndarray

    def counter_events(self, j: int) -> np.ndarray:
        """Sorted step indices k at which base step j was (re)used."""
        return np.flatnonzero(self.origins == j) + 1

    def counters(self) -> dict[int, np.ndarray]:
        """Sparse event lists for every base index that was used at least once."""
        order = np.argsort(self.origins, kind="stable")
        sorted_origins = self.origins[order]
        bounds = np.flatnonzero(np.diff(sorted_origins)) + 1
        groups = np.split(order + 1, bounds)
        return {int(g_orig[0]): np.sort(g) for g, g_orig in zip(groups, np.split(sorted_origins, bounds))}

    def counter_path(self, j: int) -> CountingPath:
        """N_j rescaled to [0, 1]: events at k/n."""
        return CountingPath(self.counter_events(j) / self.n)

    def terminal_counts(self) -> np.ndarray:
        """N_j(n) for j = 1..n."""
        return np.bincount(self.origins, minlength=self.n + 1)[1:]


@dataclass(frozen=True)
class ReinforcedWalk:
    """A reinforced step sequence together with its partial sums."""

    record: ReinforcementRecord
    base_steps: np.ndarray

    @property
    def hat_steps(self) -> np.ndarray:
        return self.base_steps[self.record.origins - 1]

    @property
    def partial_sums(self) -> np.ndarray:
        """S-hat(0..n); row k is the sum of the first k reinforced steps."""
        sums = np.cumsum(self.hat_steps, axis=0)
        zero = np.zeros_like(sums[:1])
        return np.concatenate([zero, sums], axis=0)

    def value(self, k: int) -> np.ndarray:
        return self.partial_sums[k]


def reinforce(
    steps,
    p: MemoryParameter | float,
    rng: RngStream | np.random.Generator,
) -> ReinforcedWalk:
    """Apply Simon's dynamics to a base step sequence.

    The first step is always kept; afterwards step i repeats a uniformly
    chosen earlier reinforced step with probability p.  The repeat is recorded
    against the originating base index.
    """
    base = np.asarray(steps, dtype=float)
    if base.shape[0] == 0:
        raise DomainError("steps must be nonempty")
    n = base.shape[0]
    pv = as_memory(p).p
    gen = as_generator(rng)
    eps = gen.random(n) < pv
    eps[0] = False
    u = gen.random(n)
    choices = np.zeros(n, dtype=np.int64)
    origins = np.arange(1, n + 1, dtype=np.int64)
    for i in range(1, n):
        if eps[i]:
            slot = int(u[i] * i)  # uniform over slots 1..i (0-based slot index)
            choices[i] = slot + 1
            origins[i] = origins[slot]
    return ReinforcedWalk(ReinforcementRecord(n, eps, choices, origins), base)


def empirical_functional(
    record: ReinforcementRecord,
    functional: Callable[[CountingPath], complex],
) -> complex:
    """Average of the functional over the time-rescaled counting processes.

    Returns (1/n) sum_j F(N_j(floor(. n))); base indices that were never used
    contribute F(zero path), which must vanish.
    """
    f_zero = complex(functional(ZERO_PATH))
    if f_zero != 0:
        raise DomainError("functional must vanish on the zero path")
    used = np.unique(record.origins)
    total = 0j
    for j in used:
        total += complex(functional(record.counter_path(int(j))))
    return total / record.n


def elephant_walk(
    n: int,
    p: MemoryParameter | float,
    rng: RngStream | np.random.Generator,
) -> ReinforcedWalk:
    """One-dimensional reinforced walk with symmetric +-1 base steps.

    Equivalent to the Markov chain whose increment is +1 with conditional
    probability 1/2 + p S(k) / (2k): repeating a uniformly chosen past step
    picks +1 with probability 1/2 + S(k) / (2k), a fresh step with 1/2.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    gen = as_generator(rng)
    steps = np.where(gen.random(n) < 0.5, 1.0, -1.0)
    return reinforce(steps, p, gen)


def elephant_endpoints(
    n: int,
    p: MemoryParameter | float,
    rng: RngStream | np.random.Generator,
    replicas: int,
) -> np.ndarray:
    """Terminal values S-hat(n) of many elephant walks.

    Uses the Markov-chain form of the dynamics (increment +1 with probability
    1/2 + p S(k) / (2k)) so memory stays O(replicas) regardless of n.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    pv = as_memory(p).p
    gen = as_generator(rng)
    s = np.where(gen.random(replicas) < 0.5, 1.0, -1.0)
    for k in range(1, n):
        prob_up = 0.5 + pv * s / (2.0 * k)
        s += np.where(gen.random(replicas) < prob_up, 1.0, -1.0)
    return s


def skeleton_reinforced_walk(
    triplet: LevyTriplet,
    n: int,
    p: MemoryParameter | float,
    rng: RngStream | np.random.Generator,
) -> ReinforcedWalk:
    """Reinforce the discrete skeleton of a Levy process with mesh 1/n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    gen = as_generator(rng)
    steps = increment_sample(triplet, 1.0 / n, gen, size=n)
    return reinforce(steps, p, gen)


# ---------------------------------------------------------------------------
# Vectorized batch kernels (one block of replicas at a time)
# ---------------------------------------------------------------------------


def repeat_sources(
    n: int, replicas: int, p: MemoryParameter | float, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-drawn genealogy ``(fresh, sources)`` of R = ``replicas`` walks of length n.

    Both have shape (n, R).  ``fresh`` marks the slots that take a new base
    step (step 0 always does); ``sources[i, r]`` is the flat index i * R + r
    of a fresh slot itself, else slot * R + r of the earlier slot it repeats.
    One uniform u per slot decides both: u < p is a repeat, of slot
    floor((u / p) * i) clamped to i - 1.
    """
    pv = as_memory(p).p
    if n < 1:
        raise DomainError("n must be >= 1")
    u = gen.random((n, replicas))
    u[0] = 1.0
    fresh = u >= pv
    rows = np.arange(n)[:, None]
    u *= rows / pv
    sources = np.minimum(u.astype(np.intp), rows - 1)
    np.copyto(sources, rows, where=fresh)
    sources *= replicas
    sources += np.arange(replicas)
    return fresh, sources


def reinforced_prefix_sums(
    steps: np.ndarray, sources: np.ndarray, prefix_ks: Sequence[int]
) -> np.ndarray:
    """Reinforce each column of ``steps`` and return S-hat at the given prefixes.

    ``steps`` has shape (n, replicas), one contiguous row per slot; only its
    fresh slots (see :func:`repeat_sources`) need base steps.  One pass over
    i fills row i with a single gather from the earlier rows, then the rows
    are summed in place, so ``steps`` may be overwritten.  Returns shape
    (replicas, len(prefix_ks)).
    """
    hat = np.ascontiguousarray(steps, dtype=float)
    n = hat.shape[0]
    ks = np.asarray(prefix_ks, dtype=np.int64)
    if n < 1 or sources.shape != hat.shape or np.any(ks < 0) or np.any(ks > n):
        raise DomainError("need n >= 1, sources shaped like steps and prefixes in [0, n]")
    flat = hat.reshape(-1)
    for i in range(1, n):
        np.take(flat, sources[i], out=hat[i])
    np.cumsum(hat, axis=0, out=hat)
    return np.where(ks > 0, hat[ks - 1].T, 0.0)


def simon_terminal_counts(
    n: int,
    p: MemoryParameter | float,
    gen: np.random.Generator,
    replicas: int,
) -> np.ndarray:
    """Terminal occupation counts N_j(n) for many independent realizations.

    Only the dynamics of word choices matter (step values are irrelevant);
    returns an int32 array of shape (replicas, n) with row sums n.
    """
    pv = as_memory(p).p
    origins = np.tile(np.arange(1, n + 1, dtype=np.int64), (replicas, 1))
    rows = np.arange(replicas)
    for i in range(1, n):
        rep = gen.random(replicas) < pv
        if np.any(rep):
            slots = (gen.random(rep.sum()) * i).astype(np.int64)
            origins[rep, i] = origins[rows[rep], slots]
    counts = np.zeros((replicas, n + 1), dtype=np.int32)
    np.add.at(counts, (rows[:, None], origins), 1)
    return counts[:, 1:]
