"""Levy triplets, characteristic exponents, and exact increment samplers.

A triplet bundles a Gaussian factor M (the Gaussian part of the process is
M B, with covariance M M^T), a drift vector, and a jump measure from a small
set of structured families.  The families are chosen so that the
characteristic exponent is available in closed form (or by one-dimensional
quadrature) and skeleton increments can be drawn exactly.

Each family is one subclass of :class:`JumpMeasure`, whose defaults are the
zero measure's.  It states its index, finiteness, thinning (``scaled``),
exponent, exact increment, tail mass and tail law above a cutoff, small-ball
moment and compensated band drift (``band_mean``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import jv

from .errors import ConfigError, DomainError, NumericalError, UnsupportedFamilyError
from .yule_simon import MemoryParameter, as_memory


def _replica_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` without BLAS, for a replica-sized a of shape (..., k) and a
    small b of shape (k,) or (k, m).

    numpy hands ``@``, ``np.dot`` and ``np.matmul`` to BLAS, gemv included,
    and after a call on replica-sized arrays the idle workers of a threaded
    OpenBLAS spin for about 0.1 s of CPU.  Inside or just before the block
    pool (:func:`nrlevy.rng.map_blocks`) that spin takes a core from the
    pool's threads.  ``np.einsum`` without ``optimize`` (which would route
    through ``tensordot``, so back to BLAS) runs numpy's own loops: each
    output column is one einsum over the last axis of a.  A one-term
    contraction (k = 1) is the plain product, bit for bit; longer ones may
    round differently from BLAS.
    """
    if b.ndim == 1:
        return np.einsum("...k,k->...", a, b)
    return np.stack([np.einsum("...k,k->...", a, col) for col in b.T], axis=-1)


# ---------------------------------------------------------------------------
# Jump-measure families
# ---------------------------------------------------------------------------


class JumpMeasure:
    """A jump measure nu on R^d minus the origin; the defaults are the zero measure's."""

    index = 0.0
    """Blumenthal-Getoor index of nu."""

    finite = True
    """Whether nu is a finite family, so that the series needs no cutoff."""

    def scaled(self, c: float) -> JumpMeasure:
        """The measure c * nu."""
        return self

    def exponent(self, theta: np.ndarray) -> np.ndarray:
        """Jump part of Psi for a batch theta of shape (..., d), compensated on |x| < 1."""
        return np.zeros(theta.shape[:-1], dtype=complex)

    def add_increment(self, out: np.ndarray, dt: float, gen: np.random.Generator) -> None:
        """Add exact uncompensated jump sums over time dt to the rows of out, shape (n, d)."""

    def tail_mass(self, eps: float, d: int) -> float:
        """nu({|x| >= eps})."""
        return 0.0

    def sample_tail(
        self, eps: float, d: int, gen: np.random.Generator, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Draws of shape (size, d) from the normalized restriction of nu to {|x| >= eps}.

        ``out``, a C-ordered float (size, d) array, receives the draws and is
        returned; without it one is allocated.  Either way the draws and the
        generator's state are the same.
        """
        raise DomainError("a measure with no mass above the cutoff has no tail law")

    def small_ball_moment(self, q: float, eps: float, d: int) -> float:
        """Integral of |x|^q over {|x| < eps} against nu."""
        return 0.0

    def band_mean(self, eps: float, d: int) -> np.ndarray:
        """Integral of x over {eps <= |x| < 1} against nu: the compensated band's drift."""
        return np.zeros(d)


def _on_sphere(
    radii: np.ndarray, gen: np.random.Generator, d: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Jumps of shape (radii.size, d), written into ``out``: the given radii on
    uniform directions."""
    out = np.empty((radii.size, d)) if out is None else out
    if d == 1:  # the sign of U - 1/2, with U = 1/2 read as +
        signs = gen.random(out=out.reshape(radii.size))
        signs -= 0.5
        np.copysign(radii, signs, out=signs)
        return out
    z = gen.standard_normal(out=out)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z *= radii[:, None]
    return out


@dataclass(frozen=True)
class ZeroJumps(JumpMeasure):
    """No jump part."""


@dataclass(frozen=True)
class IsotropicStable(JumpMeasure):
    """Isotropic alpha-stable jump measure, parameterized by its exponent.

    The measure is the rotation-invariant one whose pure-jump exponent equals
    ``scale * |theta|**alpha``; its radial intensity is
    ``scale * stable_radial_constant(alpha, d) * r**(-1-alpha) dr`` with
    uniform directions.  By symmetry its band mean vanishes.
    """

    alpha: float
    scale: float = 1.0
    finite = False

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not self.scale > 0.0:
            raise DomainError(f"scale must be positive, got {self.scale}")

    @property
    def index(self) -> float:
        return self.alpha

    def scaled(self, c: float) -> IsotropicStable:
        return IsotropicStable(self.alpha, c * self.scale)

    def exponent(self, theta: np.ndarray) -> np.ndarray:
        return (self.scale * np.linalg.norm(theta, axis=-1) ** self.alpha).astype(complex)

    def add_increment(self, out: np.ndarray, dt: float, gen: np.random.Generator) -> None:
        n, d = out.shape
        alpha, scale = self.alpha, dt * self.scale
        if d == 1:
            out += (scale ** (1.0 / alpha) * symmetric_stable_std(alpha, gen, n))[:, None]
            return
        # Subordination: sqrt(2 scale^(2/alpha) S) Z with S one-sided (alpha/2)-stable
        # gives E exp(i theta . X) = E exp(-S scale^(2/alpha) |theta|^2) = exp(-scale |theta|^alpha).
        s = positive_stable_std(alpha / 2.0, gen, n)
        z = gen.standard_normal((n, d))
        out += np.sqrt(2.0 * scale ** (2.0 / alpha) * s)[:, None] * z

    def tail_mass(self, eps: float, d: int) -> float:
        return self.scale * stable_radial_constant(self.alpha, d) * eps**-self.alpha / self.alpha

    def sample_tail(
        self, eps: float, d: int, gen: np.random.Generator, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        radii = gen.random(size)
        radii **= -1.0 / self.alpha
        radii *= eps
        return _on_sphere(radii, gen, d, out)

    def small_ball_moment(self, q: float, eps: float, d: int) -> float:
        if q <= self.alpha:
            return math.inf
        c = self.scale * stable_radial_constant(self.alpha, d)
        return c * eps ** (q - self.alpha) / (q - self.alpha)


@dataclass(frozen=True)
class FiniteAtomic(JumpMeasure):
    """Finite jump measure: atoms (x_i, mass_i), i.e. a compound-Poisson part."""

    positions: np.ndarray  # (n_atoms, d)
    masses: np.ndarray  # (n_atoms,)

    def __post_init__(self) -> None:
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        masses = np.asarray(self.masses, dtype=float)
        if pos.shape[0] != masses.shape[0]:
            raise DomainError("positions and masses must have matching lengths")
        if not np.all(np.isfinite(pos)):
            raise DomainError("atom positions must be finite")
        if not np.all((masses > 0) & np.isfinite(masses)):
            raise DomainError("atom masses must be positive and finite")
        if np.any(np.linalg.norm(pos, axis=1) == 0):
            raise DomainError("jump measure cannot charge the origin")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", masses)

    def scaled(self, c: float) -> FiniteAtomic:
        return FiniteAtomic(self.positions, c * self.masses)

    def exponent(self, theta: np.ndarray) -> np.ndarray:
        dots = _replica_dot(theta, self.positions.T)  # (..., n_atoms)
        inner = 1.0 - np.exp(1j * dots)
        small = np.linalg.norm(self.positions, axis=1) < 1.0
        inner = inner + 1j * dots * small
        return _replica_dot(inner, self.masses)

    def add_increment(self, out: np.ndarray, dt: float, gen: np.random.Generator) -> None:
        counts = gen.poisson(dt * self.masses, size=(out.shape[0], self.masses.size))
        out += _replica_dot(counts, self.positions)

    def tail_mass(self, eps: float, d: int) -> float:
        keep = np.linalg.norm(self.positions, axis=1) >= eps
        return float(self.masses[keep].sum())

    def sample_tail(
        self, eps: float, d: int, gen: np.random.Generator, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        keep = np.linalg.norm(self.positions, axis=1) >= eps
        pos, masses = self.positions[keep], self.masses[keep]
        idx = gen.choice(masses.size, size=size, p=masses / masses.sum())
        return np.take(pos, idx, axis=0, out=out, mode="clip")

    def small_ball_moment(self, q: float, eps: float, d: int) -> float:
        norms = np.linalg.norm(self.positions, axis=1)
        small = norms < eps
        return float((self.masses[small] * norms[small] ** q).sum())

    def band_mean(self, eps: float, d: int) -> np.ndarray:
        norms = np.linalg.norm(self.positions, axis=1)
        band = (norms >= eps) & (norms < 1.0)
        return self.masses[band] @ self.positions[band]


def _quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported at the first call.

    Only :class:`RadialDensity` integrates, and ``scipy.integrate`` loads
    ``scipy.optimize`` and ``scipy.linalg`` with it, so other runs skip them.
    """
    from scipy.integrate import quad

    return quad(*args, **kwargs)


@dataclass(frozen=True)
class RadialDensity(JumpMeasure):
    """User-supplied radial jump intensity with isotropic directions.

    ``density(r)`` is the one-dimensional intensity of jump radii on (0, inf);
    ``bg_hint`` declares the Blumenthal-Getoor index (it cannot in general be
    inferred numerically).  Exponent evaluation uses adaptive quadrature; no
    exact increment sampler exists.  By symmetry its band mean vanishes.
    """

    density: Callable[[np.ndarray], np.ndarray]
    bg_hint: float
    _scale: float = 1.0  # internal thinning multiplier
    finite = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.bg_hint <= 2.0):
            raise DomainError("bg_hint must lie in [0, 2]")
        near, err1 = _quad(lambda r: r * r * self._eval(r), 0.0, 1.0, limit=200)
        far, err2 = _quad(self._eval, 1.0, np.inf, limit=200)
        if not np.isfinite(near + far):
            raise DomainError("radial density fails the (1 ^ r^2) integrability test")
        if err1 + err2 > 1e-6 * max(1.0, near + far):
            raise NumericalError("radial integrability quadrature did not converge")

    def _eval(self, r):
        return self._scale * np.asarray(self.density(r), dtype=float)

    @property
    def index(self) -> float:
        return self.bg_hint

    def scaled(self, c: float) -> RadialDensity:
        return RadialDensity(self.density, self.bg_hint, _scale=c * self._scale)

    def exponent(self, theta: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(theta, axis=-1)
        out = np.empty(norms.shape, dtype=complex)
        for i, s in np.ndenumerate(norms):
            out[i] = _radial_exponent(self, float(s), theta.shape[-1])
        return out

    def add_increment(self, out: np.ndarray, dt: float, gen: np.random.Generator) -> None:
        raise UnsupportedFamilyError("no exact increment sampler for RadialDensity jump measures")

    def tail_mass(self, eps: float, d: int) -> float:
        val, err = _quad(self._eval, eps, np.inf, limit=400)
        if not np.isfinite(val):
            raise ConfigError("radial tail mass is not finite")
        return val

    def sample_tail(
        self, eps: float, d: int, gen: np.random.Generator, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        radii = np.interp(gen.random(size), *_radial_tail_table(self, eps))
        return _on_sphere(radii, gen, d, out)

    def small_ball_moment(self, q: float, eps: float, d: int) -> float:
        val, _ = _quad(lambda r: r**q * self._eval(r), 0.0, eps, limit=400)
        return val


@functools.lru_cache(maxsize=16)
def _radial_tail_table(jm: RadialDensity, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, radius) table of the tail on [eps, inf), built once per measure
    and cutoff rather than once per chunk of atoms."""
    hi = max(10.0 * eps, 1.0)
    total = jm.tail_mass(eps, 1)
    while _quad(jm._eval, hi, np.inf, limit=200)[0] > 1e-10 * total:
        hi *= 10.0
        if hi > 1e18:
            raise NumericalError("radial density tail decays too slowly to invert")
    grid = np.geomspace(eps, hi, 4096)
    dens = np.asarray([jm._eval(r) for r in grid], dtype=float)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return cdf, grid


def stable_radial_constant(alpha: float, d: int) -> float:
    """Radial-intensity normalization for the unit isotropic stable exponent.

    The measure with radial intensity ``C(alpha, d) r**(-1-alpha)`` and uniform
    directions has pure-jump exponent exactly ``|theta|**alpha``.
    """
    return (
        alpha
        * 2.0**alpha
        * gamma_fn((d + alpha) / 2.0)
        / (gamma_fn(d / 2.0) * gamma_fn(1.0 - alpha / 2.0))
    )


def sphere_coordinate_cf(s, d: int):
    """E[cos(s * U_1)] for U uniform on the unit sphere in R^d (vectorized)."""
    s = np.asarray(s, dtype=float)
    if d == 1:
        return np.cos(s)
    half = d / 2.0 - 1.0
    out = np.ones_like(s)
    nz = s > 1e-8
    out[nz] = gamma_fn(d / 2.0) * (2.0 / s[nz]) ** half * jv(half, s[nz])
    small = ~nz & (s > 0)
    out[small] = 1.0 - s[small] ** 2 / (2.0 * d)
    return out


# ---------------------------------------------------------------------------
# Triplets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyTriplet:
    """Characteristics (gaussian factor M, drift a, jump measure) in dimension d.

    The Gaussian component of the process is M B for a standard Brownian
    motion B, so its exponent is |M^T theta|^2 / 2 (equal to the quadratic
    form |M theta|^2 / 2 whenever M is symmetric, which covers every shipped
    configuration).
    """

    dim: int
    gaussian_factor: np.ndarray | None = None
    drift: np.ndarray | None = None
    jump_measure: JumpMeasure = ZeroJumps()

    def __post_init__(self) -> None:
        d = int(self.dim)
        if d < 1:
            raise DomainError("dimension must be a positive integer")
        object.__setattr__(self, "dim", d)
        m = self.gaussian_factor
        if m is not None:
            m = np.asarray(m, dtype=float).reshape(d, d)
            if not np.all(np.isfinite(m)):
                raise DomainError("gaussian factor must be finite")
            if not m.any():
                m = None
            object.__setattr__(self, "gaussian_factor", m)
        a = np.zeros(d) if self.drift is None else np.asarray(self.drift, dtype=float).reshape(d)
        if not np.all(np.isfinite(a)):
            raise DomainError("drift must be finite")
        object.__setattr__(self, "drift", a)
        jm = self.jump_measure
        if not isinstance(jm, JumpMeasure):
            raise DomainError(f"jump measure must be a JumpMeasure family, got {type(jm).__name__}")
        if isinstance(jm, FiniteAtomic) and jm.positions.shape[1] != d:
            raise DomainError("atom positions must match the triplet dimension")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def brownian(d: int = 1, sigma: float = 1.0, drift=None) -> "LevyTriplet":
        return LevyTriplet(d, np.eye(d) * sigma, drift)

    @staticmethod
    def stable(alpha: float, scale: float = 1.0, d: int = 1) -> "LevyTriplet":
        return LevyTriplet(d, None, None, IsotropicStable(alpha, scale))

    @staticmethod
    def cauchy(scale: float = 1.0, d: int = 1) -> "LevyTriplet":
        return LevyTriplet.stable(1.0, scale, d)

    @staticmethod
    def pure_drift(a, d: int | None = None) -> "LevyTriplet":
        a = np.atleast_1d(np.asarray(a, dtype=float))
        return LevyTriplet(d or a.size, None, a)

    @staticmethod
    def compound_poisson(positions, masses, d: int | None = None, drift=None) -> "LevyTriplet":
        jm = FiniteAtomic(np.atleast_2d(np.asarray(positions, float)), masses)
        return LevyTriplet(d or jm.positions.shape[1], None, drift, jm)

    @property
    def has_gaussian(self) -> bool:
        return self.gaussian_factor is not None


# ---------------------------------------------------------------------------
# Characteristic exponent
# ---------------------------------------------------------------------------


def characteristic_exponent(triplet: LevyTriplet, theta) -> complex | np.ndarray:
    """Levy-Khintchine exponent Psi with E[exp(i theta . xi(t))] = exp(-t Psi).

    ``theta`` may be a scalar (d = 1), a vector of shape (d,), or a batch of
    shape (..., d); the result matches the batch shape.
    """
    theta, squeeze = _as_theta_batch(theta, triplet.dim)
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta must be finite")
    psi = np.zeros(theta.shape[:-1], dtype=complex)
    if triplet.has_gaussian:
        mt_theta = _replica_dot(theta, triplet.gaussian_factor)  # rows theta^T M = (M^T theta)^T
        psi += 0.5 * np.sum(mt_theta * mt_theta, axis=-1)
    psi -= 1j * _replica_dot(theta, triplet.drift)
    psi += triplet.jump_measure.exponent(theta)
    return complex(psi[()]) if squeeze else psi


def _as_theta_batch(theta, d: int):
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 0:
        if d != 1:
            raise DomainError("scalar theta only valid in dimension 1")
        return arr.reshape(1), True
    if arr.shape[-1] != d:
        raise DomainError(f"theta trailing axis must have length {d}")
    return arr, arr.ndim == 1


def _radial_exponent(jm: RadialDensity, theta_norm: float, d: int) -> float:
    """One-dimensional quadrature of (1 - E cos(r|theta| U_1)) * density(r).

    By isotropy the imaginary (compensation) part vanishes.  Near r = 0 the
    integrand is expanded to second order to avoid cancellation; the
    oscillatory tail over (1, inf) is handled with a cosine-weighted rule in
    dimension 1 and an envelope-bounded cutoff otherwise.
    """
    if theta_norm == 0.0:
        return 0.0

    def one_minus_cf(r):
        s = r * theta_norm
        if s < 1e-6:
            return (s * s / (2.0 * d)) * jm._eval(r)
        return (1.0 - float(sphere_coordinate_cf(np.asarray([s]), d)[0])) * jm._eval(r)

    near, near_err = _quad(one_minus_cf, 0.0, 1.0, limit=400)
    tail_mass, tail_mass_err = _quad(jm._eval, 1.0, np.inf, limit=400)
    if d == 1:
        osc, osc_err = _quad(jm._eval, 1.0, np.inf, weight="cos", wvar=theta_norm, limit=400)
    else:
        # |E cos(s U_1)| <= envelope(s) ~ s^-(d-1)/2; cut where the envelope is tiny.
        cut = max(2.0, 1e4 / theta_norm)
        osc, osc_err = _quad(
            lambda r: float(sphere_coordinate_cf(np.asarray([r * theta_norm]), d)[0])
            * jm._eval(r),
            1.0,
            cut,
            limit=400,
        )
        rest, rest_err = _quad(jm._eval, cut, np.inf, limit=200)
        envelope = gamma_fn(d / 2.0) * (2.0 / (cut * theta_norm)) ** ((d - 1) / 2.0)
        osc_err += rest_err + abs(rest) * min(1.0, envelope)
    total = near + tail_mass - osc
    err = near_err + tail_mass_err + osc_err
    if not np.isfinite(total) or err > 1e-6 * max(1.0, abs(total)):
        raise NumericalError(
            f"radial exponent quadrature failed: value={total}, err={err}, "
            f"theta_norm={theta_norm}, d={d}"
        )
    return total


# ---------------------------------------------------------------------------
# Blumenthal-Getoor index, admissibility, thinning
# ---------------------------------------------------------------------------


def bg_index(triplet: LevyTriplet) -> float:
    """Upper Blumenthal-Getoor index: 2 with a Gaussian part, else jump-driven."""
    return 2.0 if triplet.has_gaussian else triplet.jump_measure.index


def is_admissible(p: MemoryParameter | float, triplet: LevyTriplet) -> bool:
    """Whether p * beta < 1.  Equality is reported as inadmissible with a warning."""
    prod = as_memory(p).p * bg_index(triplet)
    if prod == 1.0:
        warnings.warn(
            "p * beta == 1 is the critical case, outside the admissible/supercritical "
            "dichotomy; treating it as inadmissible",
            UserWarning,
            stacklevel=2,
        )
        return False
    return prod < 1.0


def thin(triplet: LevyTriplet, p: MemoryParameter | float) -> JumpMeasure:
    """Jump measure scaled by (1 - p): the intensity surviving reinforcement."""
    return triplet.jump_measure.scaled(1.0 - as_memory(p).p)


# ---------------------------------------------------------------------------
# Exact stable variates
# ---------------------------------------------------------------------------


STABLE_CHUNK = 1 << 15
"""Elements per in-place pass of the stable samplers' transform."""


def _half_angle(x: np.ndarray, q: np.ndarray, sine: bool) -> None:
    """Overwrite x = theta/2 with sin theta if ``sine``, else cos theta; q is scratch."""
    np.tan(x, out=x)
    np.multiply(x, x, out=q)
    q += 1.0
    np.divide(2.0, q, out=q)
    if sine:
        x *= q
    else:
        np.subtract(q, 1.0, out=x)


def _cms(alpha: float, gen: np.random.Generator, size, shift: float, buffer=None) -> np.ndarray:
    """(S/D) (C/(W D))^((1-alpha)/alpha) with S = sin A, C = cos(V - A), D = cos V
    and A = alpha (V + shift); see :func:`symmetric_stable_std`.  One power, and
    W = 0 gives the formula's limit where S (W/C) (C/(W D))^(1/alpha) would give
    0 * inf = nan."""
    shape = () if size is None else size
    n = int(np.prod(shape))
    v = np.empty(n) if buffer is None else buffer[:n]
    gen.random(out=v)
    v *= math.pi
    v += -math.pi / 2.0
    scratch = np.empty((4, min(n, STABLE_CHUNK)))
    for start in range(0, n, STABLE_CHUNK):
        vc = v[start : start + STABLE_CHUNK]
        a, c, q, wc = scratch[:, : vc.size]
        gen.standard_exponential(out=wc)
        # V + shift first: exact near V = -pi/2, so A >= 0 and V - A >= -pi/2.
        np.multiply(np.add(vc, shift, out=a) if shift else vc, alpha / 2.0, out=a)
        vc *= 0.5
        np.subtract(vc, a, out=c)
        _half_angle(a, q, True)
        _half_angle(c, q, False)
        _half_angle(vc, q, False)
        np.divide(a, vc, out=a)
        vc *= wc
        np.divide(c, vc, out=vc)
        vc **= (1.0 - alpha) / alpha
        vc *= a
    return v[0] if size is None else v.reshape(shape)


def symmetric_stable_std(
    alpha: float,
    gen: np.random.Generator,
    size=None,
    buffer: np.ndarray | None = None,
) -> np.ndarray:
    """Standard symmetric alpha-stable draws, cf exp(-|theta|^alpha).

    Chambers-Mallows-Stuck: with V uniform on (-pi/2, pi/2) and W standard
    exponential,  sin(aV) / cos(V)^(1/a) * (cos((1-a)V) / W)^((1-a)/a),
    evaluated as (S/D) (C/(W D))^((1-a)/a) with S = sin aV, C = cos (1-a)V
    and D = cos V.  Each comes from t = tan(x/2) by the half-angle identities
    sin x = 2t/(1+t^2) and cos x = (1-t)(1+t)/(1+t^2) = 2/(1+t^2) - 1, so the
    ufuncs called are tan (vectorized, unlike sin and cos), multiply, add,
    subtract, divide and one power.  The values differ from the sin/cos
    evaluation by rounding, relatively by a few units of 2^-52 / (a cos V).

    Every V is drawn with ``gen.random`` into one array, then the transform
    runs in place over chunks of ``STABLE_CHUNK`` elements, each chunk's W
    drawn with ``gen.standard_exponential`` into a chunk-sized scratch row
    just before its transform.  Consecutive draws read one stream, so the
    values and generator state are those of ``gen.uniform(-pi/2, pi/2,
    size)`` followed by ``gen.exponential(size=size)``.  The only
    allocations are the draw array and four chunk-sized rows; ``buffer``
    lets a caller that draws repeatedly reuse one flat float64 array of at
    least the draw count for the draws, and the result is then a view of it.
    """
    return _cms(alpha, gen, size, 0.0, buffer)


def positive_stable_std(sigma: float, gen: np.random.Generator, size=None) -> np.ndarray:
    """One-sided sigma-stable draws (0 < sigma < 1), Laplace exp(-lambda^sigma).

    Totally skewed Chambers-Mallows-Stuck variate, sin(A) / cos(V)^(1/s) *
    (cos(V - A) / W)^((1-s)/s) with A = s (V + pi/2), on the draws and the
    half-angle transform of :func:`symmetric_stable_std`.  In this
    normalization the Laplace exponent is exactly lambda^sigma (checked in
    the test suite against the closed form and, for sigma = 1/2, against
    1 / (2 N^2)).
    """
    if not 0.0 < sigma < 1.0:
        raise DomainError("one-sided stable exponent must lie in (0, 1)")
    return _cms(sigma, gen, size, math.pi / 2.0)


# ---------------------------------------------------------------------------
# Increment sampling
# ---------------------------------------------------------------------------


def increment_sample(
    triplet: LevyTriplet,
    dt: float,
    gen: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Exact draws of xi(dt) for the samplable families, advancing ``gen``.

    Supports any combination of Gaussian part, drift, finite-atomic jumps and
    isotropic stable jumps; raises for RadialDensity.  The jump sum is
    compensated by ``dt * band_mean(0, d)``.  Returns shape (d,) for a single
    draw or (size, d) for a batch.
    """
    if not dt > 0.0:
        raise DomainError("dt must be positive")
    n = 1 if size is None else int(size)
    d = triplet.dim
    out = np.tile(dt * triplet.drift, (n, 1))
    if triplet.has_gaussian:
        z = gen.standard_normal((n, d))
        out += _replica_dot(math.sqrt(dt) * z, triplet.gaussian_factor.T)
    triplet.jump_measure.add_increment(out, dt, gen)
    out -= dt * triplet.jump_measure.band_mean(0.0, d)
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# Triplet arithmetic
# ---------------------------------------------------------------------------


def add_triplets(t1: LevyTriplet, t2: LevyTriplet) -> LevyTriplet:
    """Characteristics of the sum of two independent processes.

    Gaussian covariances add (a symmetric square root is taken); drifts add;
    jump measures add when they are representable in one family (anything plus
    zero jumps, two finite-atomic measures, or two isotropic stable measures
    with equal index).
    """
    if t1.dim != t2.dim:
        raise DomainError("can only add triplets of equal dimension")
    m = None
    if t1.has_gaussian or t2.has_gaussian:
        cov = np.zeros((t1.dim, t1.dim))
        for t in (t1, t2):
            if t.has_gaussian:
                cov += t.gaussian_factor @ t.gaussian_factor.T
        m = _symmetric_sqrt(cov)
    return LevyTriplet(t1.dim, m, t1.drift + t2.drift, _add_jumps(t1.jump_measure, t2.jump_measure))


def _symmetric_sqrt(cov: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def _add_jumps(j1: JumpMeasure, j2: JumpMeasure) -> JumpMeasure:
    if isinstance(j1, ZeroJumps):
        return j2
    if isinstance(j2, ZeroJumps):
        return j1
    if isinstance(j1, FiniteAtomic) and isinstance(j2, FiniteAtomic):
        return FiniteAtomic(
            np.vstack([j1.positions, j2.positions]),
            np.concatenate([j1.masses, j2.masses]),
        )
    if isinstance(j1, IsotropicStable) and isinstance(j2, IsotropicStable):
        if j1.alpha == j2.alpha:
            return IsotropicStable(j1.alpha, j1.scale + j2.scale)
    raise UnsupportedFamilyError(
        "sum of jump measures is outside the structured families "
        f"({type(j1).__name__} + {type(j2).__name__})"
    )
