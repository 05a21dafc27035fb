"""Yule-Simon distribution and the Yule-Simon counting process on [0, 1].

The distribution is the heavy-tailed law ``rho * B(k, rho + 1)`` on
{1, 2, ...}; the process is a time-inhomogeneous pure-birth counting process
whose value at time t is 0 with probability 1 - t and, conditionally on being
positive, Yule-Simon distributed.  Both process samplers are exact and read
many independent paths at a grid of times: :func:`ys_process_values` follows
each path's jump times, :func:`ys_joint_values` bridges between grid times,
and each is the other's cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln

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


ABS_MOMENT_KMAX = 10**6
"""Last term of the series in :func:`ys_abs_moment`; an integral covers the rest."""


def ys_abs_moment(q: float, rho: float, t: float = 1.0, kmin: int = 0) -> float:
    """E[Y(t)^q; Y(t) > kmin] for 0 < q < rho, by series plus an integral tail.

    With the default ``kmin = 0`` this is the full moment E[Y(t)^q].  The
    tail beyond ``ABS_MOMENT_KMAX`` uses B(k, rho+1) ~ Gamma(rho+1) k^-(rho+1).
    """
    rho = _check_rho(rho, minimum=0.0)
    if not 0.0 < q < rho:
        raise DomainError(f"moment order must lie in (0, rho), got q={q}")
    return t * _abs_moment_sum(q, rho, kmin)


@functools.lru_cache(maxsize=64)
def _abs_moment_sum(q: float, rho: float, kmin: int) -> float:
    """E[Y(1)^q; Y(1) > kmin], cached: each call sums ABS_MOMENT_KMAX - kmin terms."""
    k = np.arange(kmin + 1, ABS_MOMENT_KMAX + 1, dtype=float)
    head = float(np.sum(np.exp(q * np.log(k) + np.log(rho) + betaln(k, rho + 1.0))))
    tail = rho * math.gamma(rho + 1.0) * ABS_MOMENT_KMAX ** (q - rho) / (rho - q)
    return head + tail


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


def ys_joint_values(
    rho: float,
    times,
    gen: np.random.Generator,
    replicas: int,
) -> np.ndarray:
    """Joint law of (Y(t_1), ..., Y(t_m)) sampled by Markov bridging.

    Equivalent in law to reading :func:`ys_process_values` at the grid, but
    O(len(times)) per path: the first positive value is geometric with success
    probability (U / t)^(1/rho), and between grid times the birth process
    branches, giving a negative-binomial increment.  This is the fast inner
    loop for Monte Carlo over marks; the event-based sampler above is its
    independent cross-check.

    Only the paths that have started are kept, as an ascending index array
    and a contiguous array of their values, so the negative binomial runs on
    the state without a gather.  The draws from ``gen`` are the uniforms U,
    then per grid time the geometric values of the paths that start there
    and the negative-binomial increments of the earlier ones, in path order.
    The int64 result of shape (replicas, len(times)) is the transpose of a
    C-ordered (len(times), replicas) array, so each time's column is
    contiguous.
    """
    rho = _check_rho(rho)
    times = check_times(times)
    u = gen.uniform(size=replicas)
    out = np.zeros((times.size, replicas), dtype=np.int64)
    below = np.zeros(replicas, dtype=bool)  # U <= the previous grid time
    idx = np.empty(0, dtype=np.intp)  # started paths, ascending
    state = np.empty(0, dtype=np.int64)  # their values
    t_prev = None
    for g, t in enumerate(times):
        prev, below = below, u <= t
        new = np.flatnonzero(below ^ prev)
        del prev
        row = out[g]
        if new.size:
            row[new] = gen.geometric((u[new] / t) ** (1.0 / rho))
        if idx.size:
            state += gen.negative_binomial(state, (t_prev / t) ** (1.0 / rho))
            row[idx] = state
        if new.size and g + 1 < times.size:
            idx = np.flatnonzero(below)
            state = row[idx]
        del new
        t_prev = t
    return out.T


def check_times(times) -> np.ndarray:
    """``times`` as a float array, strictly increasing within (0, 1]: every process starts at 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a nonempty 1-d array")
    if not (np.all((times > 0) & (times <= 1)) and np.all(np.diff(times) > 0)):
        raise DomainError("times must be strictly increasing within (0, 1]")
    return times
