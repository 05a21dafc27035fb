"""Exponent and sampler checks for the structured Levy families."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nrlevy
from nrlevy import levy_model
from nrlevy.errors import DomainError, UnsupportedFamilyError
from nrlevy.levy_model import (
    FiniteAtomic,
    IsotropicStable,
    LevyTriplet,
    RadialDensity,
    STABLE_CHUNK,
    ZeroJumps,
    add_triplets,
    bg_index,
    characteristic_exponent,
    increment_sample,
    is_admissible,
    positive_stable_std,
    stable_radial_constant,
    symmetric_stable_std,
    thin,
)
from nrlevy.noise_reinforced import NrlpConfig
from nrlevy.rng import RngStream
from nrlevy.yule_simon import MemoryParameter


def ecf(samples: np.ndarray, theta: np.ndarray) -> complex:
    return complex(np.exp(1j * samples @ theta).mean())


class TestExponent:
    def test_standard_cauchy(self):
        trip = LevyTriplet.cauchy()
        for th in (0.5, -1.0, 2.0):
            assert characteristic_exponent(trip, th) == pytest.approx(abs(th), rel=1e-12)

    def test_zero_theta(self):
        assert characteristic_exponent(LevyTriplet.stable(1.5), 0.0) == 0

    def test_standard_brownian(self):
        assert characteristic_exponent(LevyTriplet.brownian(), 3.0) == pytest.approx(4.5)

    def test_hermitian_symmetry_and_positivity(self):
        gen = RngStream(201).generator()
        triplets = [
            LevyTriplet.brownian(drift=[0.7]),
            LevyTriplet.cauchy(),
            LevyTriplet.stable(1.5, 0.8),
            LevyTriplet.compound_poisson([[0.5], [-2.0]], [1.0, 0.3], drift=[0.2]),
            LevyTriplet(2, np.array([[1.0, 0.2], [0.0, 0.5]]), [0.1, -0.3]),
        ]
        for trip in triplets:
            thetas = gen.standard_normal((1000, trip.dim)) * 3
            psi_plus = characteristic_exponent(trip, thetas)
            psi_minus = characteristic_exponent(trip, -thetas)
            np.testing.assert_allclose(psi_minus, np.conj(psi_plus), atol=1e-12)
            assert np.all(psi_plus.real >= -1e-12)

    def test_finite_atomic_against_direct_sum(self):
        positions = np.array([[0.5], [-0.25], [2.0]])
        masses = np.array([0.7, 1.1, 0.4])
        trip = LevyTriplet.compound_poisson(positions, masses)
        for th in (0.3, 1.7, -2.2):
            direct = sum(
                m * (1 - np.exp(1j * th * x[0]) + (1j * th * x[0] if abs(x[0]) < 1 else 0))
                for x, m in zip(positions, masses)
            )
            assert characteristic_exponent(trip, th) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("alpha,d", [(0.7, 1), (1.0, 1), (1.5, 1), (1.5, 2), (1.2, 3)])
    def test_radial_density_reproduces_stable(self, alpha, d):
        c = stable_radial_constant(alpha, d)
        rd = RadialDensity(lambda r, c=c, a=alpha: c * np.asarray(r) ** (-1.0 - a), bg_hint=alpha)
        trip = LevyTriplet(d, None, None, rd)
        theta = np.zeros(d)
        theta[0] = 1.3
        psi = characteristic_exponent(trip, theta)
        assert psi.real == pytest.approx(1.3**alpha, rel=1e-6)
        assert abs(psi.imag) < 1e-9

    def test_additivity_of_exponents(self):
        t1 = LevyTriplet.brownian(drift=[0.5])
        t2 = LevyTriplet.cauchy()
        combined = add_triplets(t1, t2)
        for th in (0.4, 1.1, -2.3):
            expected = characteristic_exponent(t1, th) + characteristic_exponent(t2, th)
            assert characteristic_exponent(combined, th) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_covariances_add(self):
        t1 = LevyTriplet(2, np.array([[1.0, 0.3], [0.0, 0.4]]))
        t2 = LevyTriplet(2, np.array([[0.5, 0.0], [0.2, 0.9]]))
        combined = add_triplets(t1, t2)
        cov = combined.gaussian_factor @ combined.gaussian_factor.T
        expected = sum(t.gaussian_factor @ t.gaussian_factor.T for t in (t1, t2))
        np.testing.assert_allclose(cov, expected, atol=1e-12)


class TestIndicesAndThinning:
    def test_bg_index_cases(self):
        assert bg_index(LevyTriplet.stable(1.5)) == 1.5
        assert bg_index(LevyTriplet.brownian()) == 2.0
        assert bg_index(LevyTriplet.compound_poisson([[3.0]], [1.0])) == 0.0
        assert bg_index(LevyTriplet.pure_drift([1.0])) == 0.0
        rd = RadialDensity(lambda r: np.exp(-np.asarray(r)), bg_hint=0.6)
        assert bg_index(LevyTriplet(1, None, None, rd)) == 0.6

    def test_admissibility(self):
        bm = LevyTriplet.brownian()
        assert is_admissible(MemoryParameter(0.3), bm)
        assert not is_admissible(MemoryParameter(0.6), bm)
        assert is_admissible(0.5, LevyTriplet.stable(1.5))
        for p in (0.1, 0.5, 0.9):
            assert is_admissible(p, LevyTriplet.cauchy())

    def test_critical_case_warns_and_rejects(self):
        with pytest.warns(UserWarning):
            assert not is_admissible(0.5, LevyTriplet.brownian())

    def test_memory_parameter_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            is_admissible(-0.5, LevyTriplet.brownian())
        with pytest.raises(DomainError):
            is_admissible(2.0, LevyTriplet.compound_poisson([1.0], [1.0]))
        with pytest.raises(DomainError):
            thin(LevyTriplet.stable(1.5), 0.0)

    def test_thin(self):
        atomic = LevyTriplet.compound_poisson([[1.0]], [2.0])
        thinned = thin(atomic, 0.5)
        assert thinned.masses[0] == pytest.approx(1.0)
        stable = thin(LevyTriplet.stable(1.5, 2.0), MemoryParameter(0.25))
        assert stable.scale == pytest.approx(1.5)
        assert stable.alpha == 1.5
        unchanged = thin(LevyTriplet.stable(1.5, 2.0), 1e-12)
        assert unchanged.scale == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.bytes
    def test_thin_scales_every_family(self):
        # Thinning by p leaves (1 - p) nu: exponent, tail mass and small-ball
        # moment all scale by 1 - p, and the index stays.
        families = [
            ZeroJumps(),
            IsotropicStable(1.5, 2.0),
            FiniteAtomic(np.array([[0.5], [-0.25], [2.0]]), np.array([0.7, 1.1, 0.4])),
            RadialDensity(lambda r: np.exp(-np.asarray(r)) * np.asarray(r) ** -1.5, bg_hint=0.5),
        ]
        thetas = np.array([[0.3], [-1.7], [2.2]])
        for jm in families:
            thinned = thin(LevyTriplet(1, None, None, jm), 0.3)
            assert type(thinned) is type(jm) and thinned.index == jm.index
            np.testing.assert_allclose(thinned.exponent(thetas), 0.7 * jm.exponent(thetas),
                                       rtol=1e-9, atol=0)
            assert thinned.tail_mass(0.4, 1) == pytest.approx(0.7 * jm.tail_mass(0.4, 1), rel=1e-9)
            assert thinned.small_ball_moment(1.8, 0.4, 1) == pytest.approx(
                0.7 * jm.small_ball_moment(1.8, 0.4, 1), rel=1e-9)


@pytest.mark.bytes
class TestStableVariates:
    def test_symmetric_stable_ecf(self):
        gen = RngStream(202).generator()
        for alpha in (0.8, 1.0, 1.5, 1.9):
            x = symmetric_stable_std(alpha, gen, 300_000)
            for th in (0.5, 1.5):
                assert abs(ecf(x[:, None], np.array([th]))) == pytest.approx(
                    math.exp(-(th**alpha)), abs=4 / math.sqrt(300_000)
                )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_symmetric_stable_matches_closed_form_bitwise(self, alpha):
        def half_angle(x, sine):
            t = np.tan(x / 2.0)
            q = 2.0 / (1.0 + t * t)
            return t * q if sine else q - 1.0

        def closed_form(gen, size):
            n = int(np.prod(() if size is None else size))
            v = gen.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
            w = gen.exponential(size=n)
            s = half_angle(alpha * v, True)
            c = half_angle(v - alpha * v, False)
            d = half_angle(v, False)
            x = s / d * (c / (w * d)) ** ((1.0 - alpha) / alpha)
            return x[0] if size is None else x.reshape(size)

        # (300, 437) is not a multiple of the chunk and spans several chunks.
        assert (300 * 437) % STABLE_CHUNK and 300 * 437 > 2 * STABLE_CHUNK
        # One buffer holds every V; each chunk's W is drawn into the chunk
        # scratch, so the draws and the next draw match the closed form's.
        spare = np.empty(300 * 437 + 5)
        for size in (None, 1000, (300, 437)):
            for buffer in (None, spare):
                ref_gen, gen = RngStream(205).generator(), RngStream(205).generator()
                expected = closed_form(ref_gen, size)
                got = symmetric_stable_std(alpha, gen, size, buffer)
                assert np.shape(got) == np.shape(expected)
                assert type(got) is type(expected)
                assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
                assert gen.bit_generator.state == ref_gen.bit_generator.state
                assert gen.random() == ref_gen.random()
                if buffer is not None and size is not None:
                    assert np.shares_memory(got, spare)

    def test_symmetric_stable_holds_one_draw_array(self):
        # The draws live in one float64 array; W comes chunk by chunk into the
        # four chunk-sized scratch rows, so nothing else grows with n.
        n = 400_000
        gen = RngStream(206).generator()
        symmetric_stable_std(1.5, gen, 10)
        tracemalloc.start()
        symmetric_stable_std(1.5, gen, n)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 8 * n + 4 * 8 * STABLE_CHUNK + 64 * 1024

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_symmetric_stable_rounds_like_the_sin_cos_form(self, alpha):
        # cos V = 2/(1+t^2) - 1 carries an absolute error of a few units of
        # 2^-53, i.e. relative ~2^-53 / cos V, which the power scales by
        # 1/alpha; the other steps add a few ulps.  Over 10^7 draws the worst
        # ratio to 2^-52 / (alpha cos V) was 8.2 (alpha = 1.99); allow 16.
        ref_gen, gen = RngStream(209).generator(), RngStream(209).generator()
        v = ref_gen.uniform(-math.pi / 2.0, math.pi / 2.0, size=200_000)
        w = ref_gen.exponential(size=200_000)
        sin_cos = (
            np.sin(alpha * v)
            / np.cos(v) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
        )
        got = symmetric_stable_std(alpha, gen, 200_000)
        bound = 16.0 * 2.0**-52 / (alpha * np.cos(v))
        assert np.all(np.abs(got - sin_cos) <= bound * np.abs(sin_cos))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_stable_draws_at_the_ends_of_the_uniform(self, alpha):
        class Ends:
            """u = 0 (V = -pi/2 rounded) and the largest u below 1, with W = 1."""

            def random(self, out):
                out[:] = [0.0, 1.0 - 2.0**-53]

            def standard_exponential(self, out):
                out[:] = 1.0

        x = symmetric_stable_std(alpha, Ends(), 2)
        assert np.all(np.isfinite(x)) and x[0] < 0.0 < x[1]
        s = positive_stable_std(alpha / 2.0, Ends(), 2)
        assert np.all(np.isfinite(s)) and np.all(s >= 0.0)

    def test_zero_exponential_gives_the_limit(self):
        class ZeroW:
            def random(self, out):
                out[:] = 0.75

            def standard_exponential(self, out):
                out[:] = 0.0

        # X ~ W^((a-1)/a) as W -> 0: 0 for a > 1, tan V for a = 1, inf for a < 1.
        with np.errstate(divide="ignore"):
            got = [symmetric_stable_std(a, ZeroW(), 1)[0] for a in (1.5, 1.0, 0.5)]
        assert got[0] == 0.0 and got[1] == pytest.approx(1.0) and got[2] == math.inf

    def test_positive_stable_laplace(self):
        gen = RngStream(203).generator()
        for sigma in (0.4, 0.5, 0.75):
            s = positive_stable_std(sigma, gen, 300_000)
            assert np.all(s > 0)
            for lam in (0.5, 1.0, 2.0):
                emp = np.exp(-lam * s).mean()
                assert emp == pytest.approx(math.exp(-(lam**sigma)), abs=0.004)

    def test_positive_stable_half_closed_form(self):
        # sigma = 1/2 has the closed form 1 / (2 N^2)
        gen = RngStream(204).generator()
        s = np.sort(positive_stable_std(0.5, gen, 200_000))
        alt = np.sort(1.0 / (2.0 * gen.standard_normal(200_000) ** 2))
        qs = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(
            np.quantile(s, qs), np.quantile(alt, qs), rtol=0.03
        )

    def test_isotropic_multidim(self):
        gen = RngStream(205).generator()
        x = np.zeros((300_000, 3))
        IsotropicStable(1.5, 0.7).add_increment(x, 1.0, gen)
        theta = np.array([0.3, -0.4, 0.5])
        expected = math.exp(-0.7 * np.linalg.norm(theta) ** 1.5)
        assert abs(ecf(x, theta)) == pytest.approx(expected, abs=4 / math.sqrt(300_000))


def _sign_or_normal_directions(gen: np.random.Generator, size: int, d: int) -> np.ndarray:
    """Unit directions as first written: a sign from one uniform when d = 1,
    a normalized normal vector otherwise."""
    if d == 1:
        return np.where(gen.random(size) < 0.5, -1.0, 1.0)[:, None]
    z = gen.standard_normal((size, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.mark.bytes
class TestTailDraws:
    RADIAL = RadialDensity(lambda r: np.exp(-np.asarray(r)) * np.asarray(r) ** -1.5, bg_hint=0.5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_directions_match_sign_and_normal_draws(self, d):
        eps, size = 0.05, 2000
        table = levy_model._radial_tail_table(self.RADIAL, eps)
        for nu, radii in ((IsotropicStable(1.5, 0.7), lambda g: eps * g.random(size) ** (-1.0 / 1.5)),
                          (self.RADIAL, lambda g: np.interp(g.random(size), *table))):
            gen, ref = np.random.default_rng(206), np.random.default_rng(206)
            got = nu.sample_tail(eps, d, gen, size)
            want = radii(ref)[:, None] * _sign_or_normal_directions(ref, size, d)
            np.testing.assert_array_equal(got, want)
            assert gen.random() == ref.random()

    @pytest.mark.parametrize("family, d", [("stable", 1), ("stable", 2), ("atomic", 2), ("radial", 1)])
    def test_out_form_matches_the_allocating_draw(self, family, d):
        # Written into a garbage-filled array, the draws and the generator's
        # state are those of the call that allocates its result.
        nu = {"stable": IsotropicStable(1.5, 0.7),
              "atomic": FiniteAtomic(np.array([[1.0, 0.5], [-0.2, 2.0], [0.01, 0.0]]),
                                     np.array([0.5, 1.5, 3.0])),
              "radial": self.RADIAL}[family]
        eps, size = 0.05, 2000
        gen, ref = np.random.default_rng(207), np.random.default_rng(207)
        out = np.full((size, d), np.nan)
        got = nu.sample_tail(eps, d, gen, size, out=out)
        want = nu.sample_tail(eps, d, ref, size)
        assert got is out
        assert got.tobytes() == want.tobytes()
        assert gen.random() == ref.random()

    def test_half_uniform_reads_as_positive(self):
        class Fixed:
            def random(self, size=None, out=None):
                out[:] = np.array([0.5, 0.25, 0.75, 0.0])[: out.size]
                return out

        got = levy_model._on_sphere(np.array([1.0, 2.0, 3.0, 4.0]), Fixed(), 1)
        np.testing.assert_array_equal(got, [[1.0], [-2.0], [3.0], [-4.0]])


class TestIncrements:
    def test_pure_drift_deterministic(self):
        inc = increment_sample(LevyTriplet.pure_drift([2.0, -1.0]), 0.25, RngStream(1).generator())
        np.testing.assert_allclose(inc, [0.5, -0.25])

    def test_brownian_variance(self):
        x = increment_sample(LevyTriplet.brownian(), 0.3, RngStream(206).generator(), size=300_000)
        var = x[:, 0].var()
        se = 0.3 * math.sqrt(2.0 / 300_000)
        assert abs(var - 0.3) < 3 * se

    def test_cauchy_median(self):
        x = increment_sample(LevyTriplet.cauchy(), 0.1, RngStream(207).generator(), size=300_000)
        assert np.median(np.abs(x[:, 0])) == pytest.approx(0.1, rel=0.02)

    @pytest.mark.parametrize(
        "trip,dt",
        [
            (LevyTriplet.brownian(drift=[0.4]), 0.5),
            (LevyTriplet.cauchy(), 0.2),
            (LevyTriplet.stable(1.5, 0.7), 0.4),
            (LevyTriplet.compound_poisson([[0.5], [-2.0]], [1.5, 0.5], drift=[0.1]), 0.7),
            (LevyTriplet(1, np.array([[0.8]]), [0.2], IsotropicStable(1.2, 0.5)), 0.3),
        ],
    )
    def test_ecf_matches_exponent(self, trip, dt):
        # Empirical cf of increments against exp(-dt Psi) on a theta grid.
        x = increment_sample(trip, dt, RngStream(hash(str(trip)) % 2**32).generator(), size=200_000)
        tol = 4 / math.sqrt(200_000)
        for th in np.linspace(-2.5, 2.5, 20):
            if th == 0:
                continue
            target = np.exp(-dt * characteristic_exponent(trip, float(th)))
            assert abs(ecf(x, np.array([th])) - target) < tol

    def test_radial_density_unsupported(self):
        rd = RadialDensity(lambda r: np.exp(-np.asarray(r)), bg_hint=0.0)
        with pytest.raises(UnsupportedFamilyError):
            increment_sample(LevyTriplet(1, None, None, rd), 0.1, RngStream(1).generator())

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(DomainError):
            increment_sample(LevyTriplet.brownian(), 0.0, RngStream(1).generator())


SPIN_SCRIPT = """
import resource, time
import numpy as np
from nrlevy.levy_model import FiniteAtomic
from nrlevy.spectral import build_stable_mixture

def idle_cpu_after(call):
    # CPU seconds the process burns in the 0.2 s sleep after call().
    time.sleep(0.3)
    call()
    before = resource.getrusage(resource.RUSAGE_SELF)
    time.sleep(0.2)
    after = resource.getrusage(resource.RUSAGE_SELF)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime

mixture = build_stable_mixture(1.5, 0.5, 2.0, [0.5, 1.0])
atoms = FiniteAtomic(np.array([[1.0, 0.5], [-0.5, 2.0]]), np.array([2.0, 0.3]))
gen = np.random.default_rng(1)
out = np.zeros((10**6, 2))
print(idle_cpu_after(lambda: mixture.sample(gen, 1024)))
print(idle_cpu_after(lambda: atoms.add_increment(out, 1.0, gen)))
"""


@pytest.mark.bytes
class TestReplicaDot:
    """The products on replica-sized arrays run without BLAS, whose threaded
    workers would spin against the block pool, and agree with ``@``."""

    @pytest.mark.parametrize("kind", ["float", "int-by-float", "complex"])
    @pytest.mark.parametrize("shape", [(7,), (7, 1), (7, 3)])
    def test_matches_matmul(self, kind, shape):
        gen = np.random.default_rng(41)
        a = gen.standard_normal((500, 7))
        b = gen.standard_normal(shape)
        if kind == "int-by-float":
            a = gen.poisson(3.0, a.shape)
        elif kind == "complex":
            a = np.exp(1j * a) * gen.standard_normal(a.shape)
        got = levy_model._replica_dot(a, b)
        want = a @ b
        assert got.shape == want.shape and got.dtype == want.dtype
        bound = np.abs(a) @ np.abs(b)  # the sum of |terms| scales the rounding
        assert np.all(np.abs(got - want) <= 1e-12 * bound)

    def test_batched_operand(self):
        gen = np.random.default_rng(42)
        a, b = gen.standard_normal((4, 50, 3)), gen.standard_normal((3, 2))
        np.testing.assert_allclose(levy_model._replica_dot(a, b), a @ b, rtol=1e-12)

    def test_one_dimensional_gaussian_increments_are_bitwise(self):
        trip = LevyTriplet(1, np.array([[0.7]]), [0.2])
        dt, n = 0.3, 10_000
        got = increment_sample(trip, dt, np.random.default_rng(44), size=n)
        z = np.random.default_rng(44).standard_normal((n, 1))
        want = np.tile(dt * trip.drift, (n, 1))
        want += math.sqrt(dt) * z @ trip.gaussian_factor.T
        assert np.array_equal(got, want)

    def test_no_blas_spin_after_replica_products(self):
        # A fresh process, so that BLAS calls made earlier in this one cannot
        # leave workers spinning into the measurement.
        src = str(Path(nrlevy.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", SPIN_SCRIPT], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        mixture_cpu, atoms_cpu = map(float, out.stdout.split())
        assert mixture_cpu < 0.03
        assert atoms_cpu < 0.03


class TestValidation:
    def test_atoms_cannot_sit_at_origin(self):
        with pytest.raises(DomainError):
            FiniteAtomic(np.array([[0.0]]), np.array([1.0]))

    def test_stable_alpha_range(self):
        for bad in (0.0, 2.0, 2.4):
            with pytest.raises(DomainError):
                IsotropicStable(bad)

    @pytest.mark.bytes
    def test_jump_measure_must_be_a_family(self):
        with pytest.raises(DomainError):
            LevyTriplet(1, None, None, "stable")
        with pytest.raises(DomainError):
            NrlpConfig(LevyTriplet(1, [[1.0]], None, None), 0.3)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            LevyTriplet(2, None, None, FiniteAtomic(np.array([[1.0]]), np.array([1.0])))

    def test_scalar_theta_only_in_1d(self):
        with pytest.raises(DomainError):
            characteristic_exponent(LevyTriplet.brownian(d=2), 1.0)
