"""Simon's step-reinforcement dynamics for i.i.d. step sequences.

At each step k >= 2, with probability p the walker repeats one of its
previous steps chosen uniformly at random, otherwise it makes a fresh step.
One genealogy rule serves every caller: one uniform per slot of R walks of
length n, drawn and transformed one cache-sized chunk of rows at a time
(:func:`_genealogy_chunks`).  :func:`simon_origins` resolves each chunk as
it is drawn, one gather per row from the rows already resolved, into the
(n, R) originating row of every slot; a single walk is one replica of it,
and the occupation counts count its columns.  The skeleton block kernel
:func:`reinforced_prefix_sums` holds no genealogy array and makes one
pass: each chunk draws its uniforms, then the base steps of its fresh slots
only (about 1 + (n - 1)(1 - p) per walk, not n), scatters them by flat
index, gathers the chunk's rows and reduces them in row order onto the
running prefix, up to each requested prefix and to the chunk's end.  Its
working set is the (n, R) float array of steps, 8 n R bytes, plus one
chunk.  Repeats are tracked by the originating base index (not the step
value), so counters remain correct when step values collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .levy_model import LevyTriplet, increment_sample
from .yule_simon import MemoryParameter, as_memory


@dataclass(frozen=True)
class ReinforcedWalk:
    """One reinforced walk: its (n, d) base steps and its genealogy.

    ``origins`` is column 0 of :func:`simon_origins`: step k uses base step
    ``origins[k-1] + 1`` and is fresh iff ``origins[k-1] == k - 1``.
    """

    origins: np.ndarray
    base_steps: np.ndarray

    @property
    def partial_sums(self) -> np.ndarray:
        """S-hat(0..n) as (n + 1, d); row k is the sum of the first k reinforced steps."""
        sums = np.cumsum(self.base_steps[self.origins], axis=0)
        zero = np.zeros_like(sums[:1])
        return np.concatenate([zero, sums], axis=0)

    def counters(self) -> np.ndarray:
        """The jumps of the occupation counters N_j(k) = #{l <= k : step l uses base step j}.

        One 1-based row (j, k) per step k, j its base step, sorted by j and then k.
        """
        order = np.argsort(self.origins, kind="stable")  # sorted steps within each j
        return np.column_stack([self.origins[order] + 1, order + 1])


def reinforce(
    steps,
    p: MemoryParameter | float,
    gen: np.random.Generator,
) -> ReinforcedWalk:
    """Apply Simon's dynamics to a base step sequence, (n, d) or n scalars (d = 1).

    The first step is always kept; afterwards step i repeats a uniformly
    chosen earlier reinforced step with probability p.  The genealogy is one
    replica of :func:`simon_origins`, drawn from ``gen``, which records each
    step against its originating base index.
    """
    base = np.asarray(steps, dtype=float)
    origins = simon_origins(len(base), p, gen, 1)[:, 0]
    return ReinforcedWalk(origins, base.reshape(len(base), -1))


def elephant_walk(
    n: int,
    p: MemoryParameter | float,
    gen: np.random.Generator,
) -> ReinforcedWalk:
    """One-dimensional reinforced walk with symmetric +-1 base steps, held as (n, 1).

    Equivalent to the Markov chain whose increment is +1 with conditional
    probability 1/2 + p S(k) / (2k): repeating a uniformly chosen past step
    picks +1 with probability 1/2 + S(k) / (2k), a fresh step with 1/2.
    The base steps, then the genealogy, are drawn from ``gen``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    steps = np.where(gen.random(n) < 0.5, 1.0, -1.0)
    return reinforce(steps, p, gen)


def elephant_endpoints(
    n: int,
    p: MemoryParameter | float,
    gen: np.random.Generator,
    replicas: int,
) -> np.ndarray:
    """Terminal values S-hat(n) of many elephant walks, drawn from ``gen``.

    Uses the Markov-chain form of the dynamics (increment +1 with probability
    1/2 + p S(k) / (2k)) so memory stays O(replicas) regardless of n.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    pv = as_memory(p).p
    s = np.where(gen.random(replicas) < 0.5, 1.0, -1.0)
    for k in range(1, n):
        prob_up = 0.5 + pv * s / (2.0 * k)
        s += np.where(gen.random(replicas) < prob_up, 1.0, -1.0)
    return s


def skeleton_reinforced_walk(
    triplet: LevyTriplet,
    n: int,
    p: MemoryParameter | float,
    gen: np.random.Generator,
) -> ReinforcedWalk:
    """Reinforce the discrete skeleton of a Levy process with mesh 1/n.

    The n increments, then the genealogy, are drawn from ``gen``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    steps = increment_sample(triplet, 1.0 / n, gen, size=n)
    return reinforce(steps, p, gen)


# ---------------------------------------------------------------------------
# Vectorized batch kernels (one block of replicas at a time)
# ---------------------------------------------------------------------------

SOURCE_CHUNK = 1 << 16
"""Slots per chunk of rows of a genealogy draw (at least one row).

One chunk of uniforms and its whole transform stay in cache.  The chunk
size never changes which uniform a slot gets in :func:`simon_origins`.  It
does in :func:`reinforced_prefix_sums` once n * R > ``SOURCE_CHUNK``:
there each chunk's fresh base steps are drawn between its uniforms and the
next chunk's, so changing it changes the draws of such skeleton blocks.
"""


def _walk_memory(n: int, p: MemoryParameter | float) -> float:
    pv = as_memory(p).p
    if n < 1:
        raise DomainError("n must be >= 1")
    return pv


def _chunk_rows(n: int, replicas: int) -> int:
    return min(n, max(1, SOURCE_CHUNK // max(replicas, 1)))


def _source_dtype(n: int, replicas: int) -> type:
    return np.int32 if n * replicas < 2**31 else np.intp


def _genealogy_chunks(n: int, replicas: int, pv: float, gen: np.random.Generator):
    """The genealogy of R = ``replicas`` walks of length n, one chunk of rows at a time.

    One uniform u per slot decides it: u < p makes slot (i, r) a repeat, of
    slot floor((u / p) * i) clamped to i - 1; else it is fresh (step 0
    always is).  The source row is that clamp plus the fresh flag: u >= p
    puts (u / p) * i above i - 1 for i >= 1, and row 0 clamps to -1, so a
    fresh slot gets i - 1 + 1 = i.  Draws the uniforms of about
    ``SOURCE_CHUNK`` slots (whole rows) into one reused buffer, which reads
    the same stream as a single ``gen.random((n, R))`` unless the caller
    draws from ``gen`` between chunks, and yields ``(start, fresh rows,
    source rows)``: views of chunk buffers that the next chunk overwrites.
    A source is the flat index i * R + r of a fresh slot itself, else
    slot * R + r; it is int32 while n * R < 2**31, else intp.
    """
    rows_per = _chunk_rows(n, replicas)
    dtype = _source_dtype(n, replicas)
    buf = np.empty((rows_per, replicas))
    fresh_buf = np.empty((rows_per, replicas), dtype=bool)
    source_buf = np.empty((rows_per, replicas), dtype=dtype)
    cols = np.arange(replicas, dtype=dtype)
    for start in range(0, n, rows_per):
        stop = min(start + rows_per, n)
        u, fr, src = buf[: stop - start], fresh_buf[: stop - start], source_buf[: stop - start]
        gen.random(out=u)
        np.greater_equal(u, pv, out=fr)
        if start == 0:
            fr[0] = True  # step 0 draws a uniform but is always fresh
        rows = np.arange(start, stop)[:, None]
        u *= rows / pv
        np.minimum(u, rows - 1.0, out=u)  # before the cast, which overflows for tiny p
        np.copyto(src, u, casting="unsafe")
        np.add(src, fr, out=src)  # a fresh slot (u >= p) was clamped to i - 1
        src *= replicas
        src += cols
        yield start, fr, src


def simon_origins(n: int, p: MemoryParameter | float, gen: np.random.Generator, replicas: int) -> np.ndarray:
    """Originating row of every slot of R = ``replicas`` walks of length n, drawn from ``gen``.

    Returns an (n, R) array, int32 while n * R < 2**31, else intp, whose
    entry (i, r) equals i exactly when slot (i, r) is fresh.  Each chunk of
    :func:`_genealogy_chunks` is resolved as it is drawn: its sources are
    copied in, then each row becomes the flat origins of its sources with
    one ``take`` (fresh slots read themselves, repeats earlier rows), and
    the flat indices become rows at the end.
    """
    pv = _walk_memory(n, p)
    origins = np.empty((n, replicas), dtype=_source_dtype(n, replicas))
    take = origins.reshape(-1).take
    for start, _, src in _genealogy_chunks(n, replicas, pv, gen):
        block = origins[start : start + len(src)]
        np.copyto(block, src)
        for row_src, row in zip(src, block):
            take(row_src, out=row, mode="clip")  # every source is in range: nothing clips
    origins //= replicas
    return origins


def reinforced_prefix_sums(
    steps: np.ndarray,
    triplet: LevyTriplet,
    p: MemoryParameter | float,
    gen: np.random.Generator,
    prefix_ks: Sequence[int],
) -> np.ndarray:
    """S-hat at the given prefixes of R reinforced skeleton walks of length n, drawn from ``gen``.

    ``steps`` is an (n, R) buffer, n >= 1, that may be overwritten with
    the reinforced steps; the base steps are increments of the d = 1
    ``triplet`` over 1/n.  One pass over the chunks of
    :func:`_genealogy_chunks`: each chunk draws its uniforms, then
    ``increment_sample`` for its fresh slots alone, scatters those into its
    rows of ``steps`` by flat index, gathers each row with one ``take``
    (repeats read earlier rows) and copies them into a work chunk.  The
    running total is added onto the chunk's first row; one
    ``np.add.reduce(axis=0)`` per row range then sums up to each requested
    prefix row, whose sum is carried onto the next row, and on to the
    chunk's end.  For R >= 2 a reduce over the rows of a C-ordered chunk
    adds them in order, so the result is bitwise that of one ``cumsum`` over
    all rows; for R = 1 numpy would sum the one column pairwise, so a
    one-replica block keeps the ``cumsum``.  The working set beyond
    ``steps`` stays one chunk.  Prefixes may come in any order and repeat;
    0 gives 0.  Returns shape (R, len(prefix_ks)).
    """
    hat = np.ascontiguousarray(steps, dtype=float)
    ks = np.asarray(prefix_ks, dtype=np.int64)
    if hat.ndim != 2 or hat.shape[0] < 1 or triplet.dim != 1 or np.any((ks < 0) | (ks > len(hat))):
        raise DomainError("need (n, R) steps with n >= 1, a d = 1 triplet and prefixes in [0, n]")
    n, replicas = hat.shape
    pv = _walk_memory(n, p)
    take = hat.reshape(-1).take
    work = np.empty((_chunk_rows(n, replicas), replicas))
    total = np.zeros(replicas)
    out = np.zeros((replicas, ks.size))
    for start, fresh, src in _genealogy_chunks(n, replicas, pv, gen):
        block, acc = hat[start : start + len(src)], work[: len(src)]
        idx = np.flatnonzero(fresh)
        block.reshape(-1)[idx] = increment_sample(triplet, 1.0 / n, gen, size=idx.size)[:, 0]
        for row_src, row in zip(src, block):
            take(row_src, out=row, mode="clip")  # every source is in range: nothing clips
        np.copyto(acc, block)
        if start:  # not at row 0, where the sums keep the sign of a zero
            acc[0] += total
        hit = (ks > start) & (ks <= start + len(src))
        if replicas == 1:  # a one-column reduce sums pairwise, not in row order
            np.cumsum(acc, axis=0, out=acc)
            total[:] = acc[-1]
            out[:, hit] = acc[ks[hit] - start - 1].T
            continue
        lo = 0
        for end in np.unique(np.append(ks[hit] - start, len(acc))).tolist():
            np.add.reduce(acc[lo:end], axis=0, out=total)
            out[:, ks == start + end] = total[:, None]
            if end < len(acc):
                acc[end] += total  # carry the running sum, as cumsum does
            lo = end
    return out


def simon_terminal_counts(
    n: int,
    p: MemoryParameter | float,
    gen: np.random.Generator,
    replicas: int,
) -> np.ndarray:
    """Terminal occupation counts N_j(n) for many independent realizations.

    Only the genealogy matters (step values are irrelevant): each replica's
    column of :func:`simon_origins` is counted with one ``bincount``, so the
    working set is the int32 origins and counts, 8 n R bytes.  Returns an
    int32 array of shape (replicas, n) with row sums n.
    """
    origins = simon_origins(n, p, gen, replicas)
    counts = np.empty((replicas, n), dtype=np.int32)
    for row, column in zip(counts, origins.T):
        row[:] = np.bincount(column, minlength=n)
    return counts
