"""Acceptance suite: one test per criterion, at the stated scales and
tolerances, each printing a PASS/FAIL line.

The heavy sample sets (reinforced Cauchy marginals, skeleton schedules) are
shared across criteria through module-scoped fixtures.  Every run is seeded;
replica blocks make results independent of worker counts.
"""

import json
import math
import time
from math import lgamma

import numpy as np
import pytest
from scipy.stats import cauchy as cauchy_dist

from nrlevy.cli import main as cli_main
from nrlevy.diagnostics import (
    PathFunctional,
    empirical_cf,
    ks_distance,
    prop8_experiment,
    supercritical_experiment,
    terminal_ecf_schedule,
    theorem1_experiment,
)
from nrlevy.levy_model import LevyTriplet
from nrlevy.noise_reinforced import (
    CfQuery,
    NrlpConfig,
    check_additivity,
    check_stability,
    nrbm_covariance,
    nrbm_sample_many,
    nrlp_marginals,
    reinforced_cf_exact,
)
from nrlevy.rng import RngStream
from nrlevy.spectral import stable_nrlp_marginals
from nrlevy.step_reinforced import elephant_endpoints
from nrlevy.yule_simon import (
    MemoryParameter,
    ys_cross_moment,
    ys_pmf,
    ys_process_values,
    ys_sample,
)

SEED = 20260809


def report(num: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def beta_oracle(k: int, rho: float) -> float:
    """Independent Yule-Simon pmf: rho * B(k, rho + 1) via log-gamma."""
    return rho * math.exp(lgamma(k) + lgamma(rho + 1.0) - lgamma(k + rho + 1.0))


# ---------------------------------------------------------------------------
# Shared heavy samples
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cauchy_config():
    return NrlpConfig(
        LevyTriplet.cauchy(), MemoryParameter(0.5), truncation_eps=1e-4,
        grid=np.array([0.5, 1.0]),
    )


@pytest.fixture(scope="module")
def cauchy_marginals(cauchy_config):
    # Poisson-series route (Definition-2 construction) at the stated cutoff;
    # the thread count never changes the samples.
    return nrlp_marginals(cauchy_config, RngStream(SEED, 6), 100_000, threads=2)[:, :, 0]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_yule_simon_law():
    start = time.time()
    draws = ys_sample(2.0, RngStream(SEED, 1).generator(), size=10**6)
    counts = np.bincount(draws)
    emp = counts[1:] / draws.size
    k = np.arange(1, counts.size)
    pmf = ys_pmf(k, 2.0)
    tv = 0.5 * float(np.abs(emp - pmf).sum()) + 0.5 * float(1.0 - pmf.sum())
    # Tail asymptotics: pmf(k) ~ rho Gamma(rho+1) k^-(rho+1) (the asymptotic
    # of the beta factor carries the extra factor rho from the pmf itself).
    k_tail = 10**4
    ratio = ys_pmf(k_tail, 2.0) / (2.0 * math.gamma(3.0) * k_tail**-3.0)
    elapsed = time.time() - start
    passed = tv < 0.005 and abs(ratio - 1.0) < 0.01 and elapsed < 10.0
    report(1, passed, f"TV={tv:.5f} (<0.005), tail ratio={ratio:.5f} (1%), {elapsed:.1f}s (<10s)")


def test_criterion_02_process_marginals():
    times = np.round(np.arange(0.1, 1.01, 0.1), 10)
    vals = ys_process_values(2.0, times, RngStream(SEED, 2).generator(), 100_000)
    dev = np.abs((vals >= 1).mean(axis=0) - times)
    terminal = vals[:, -1]
    positive = terminal[terminal >= 1]  # positivity is sure at t = 1
    counts = np.bincount(positive)
    emp = counts[1:] / positive.size
    pmf = ys_pmf(np.arange(1, counts.size), 2.0)
    tv = 0.5 * float(np.abs(emp - pmf).sum()) + 0.5 * float(1.0 - pmf.sum())
    passed = bool(dev.max() < 0.005 and tv < 0.01)
    report(2, passed, f"max |P(Y(t)>=1)-t|={dev.max():.5f} (<0.005), conditional TV={tv:.5f} (<0.01)")


def test_criterion_03_moments():
    vals = ys_process_values(4.0, np.array([0.5, 1.0]), RngStream(SEED, 3).generator(), 10**6)
    y1 = vals[:, 1].astype(float)
    se_mean = y1.std(ddof=1) / math.sqrt(y1.size)
    z_mean = (y1.mean() - 4.0 / 3.0) / se_mean
    prod = vals[:, 0].astype(float) * y1
    target = ys_cross_moment(0.5, 1.0, 4.0)
    assert target == pytest.approx((16.0 / 6.0) * 0.5 * 2.0**0.25, rel=1e-12)
    se_prod = prod.std(ddof=1) / math.sqrt(prod.size)
    z_prod = (prod.mean() - target) / se_prod
    passed = abs(z_mean) < 3.0 and abs(z_prod) < 3.0
    report(3, passed, f"E[Y(1)] z={z_mean:.2f}, E[Y(.5)Y(1)] z={z_prod:.2f} (|z|<3)")


def test_criterion_04_nrbm_covariance():
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    vals = nrbm_sample_many(0.25, grid, 1, RngStream(SEED, 4).generator(), 100_000)[:, :, 0]
    emp = np.cov(vals.T)
    theo = nrbm_covariance(0.25, grid)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            se = math.sqrt((theo[i, i] * theo[j, j] + theo[i, j] ** 2) / vals.shape[0])
            worst = max(worst, abs(emp[i, j] - theo[i, j]) / se)
    var_one = emp[3, 3]
    passed = worst < 3.0 and abs(var_one - 2.0) < 3.0 * math.sqrt(2.0 * 4.0 / vals.shape[0])
    report(4, passed, f"max |cov dev| = {worst:.2f} se (<3), Var(B(1))={var_one:.4f} (~2)")


def test_criterion_05_elephant_bridge():
    n, runs = 10**4, 10**5
    ends = elephant_endpoints(n, 0.25, RngStream(SEED, 5).generator(), runs)
    var = (ends / math.sqrt(n)).var()
    passed = abs(var / 2.0 - 1.0) < 0.05
    report(5, passed, f"Var(n^-1/2 S(n)) = {var:.4f} within 5% of 2")


def test_criterion_06_cauchy_fixed_point(cauchy_marginals):
    ks_half = ks_distance(cauchy_marginals[:, 0], cauchy_dist(scale=0.5).cdf)
    ks_one = ks_distance(cauchy_marginals[:, 1], cauchy_dist(scale=1.0).cdf)
    passed = ks_half < 0.02 and ks_one < 0.02
    report(6, passed, f"KS(t=0.5)={ks_half:.4f}, KS(t=1)={ks_one:.4f} (<0.02, eps=1e-4, 1e5 reps)")


def _single_time_queries(thetas, times):
    return [CfQuery(np.array([th]), np.array([t])) for t in times for th in thetas]


def test_criterion_07_cf_consistency(cauchy_config, cauchy_marginals):
    replicas = 100_000
    tol = 4.0 / math.sqrt(replicas)
    thetas = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    queries = _single_time_queries(thetas, (0.5, 1.0))
    results = {}

    # Brownian, p = 0.3: reinforced-Brownian route of the series sampler.
    bm_cfg = NrlpConfig(LevyTriplet.brownian(), MemoryParameter(0.3), 1e-4,
                        np.array([0.5, 1.0]))
    bm_vals = nrlp_marginals(bm_cfg, RngStream(SEED, 71), replicas)[:, :, 0]
    ecf = empirical_cf(bm_vals, bm_cfg.grid, queries)
    theo = np.array([reinforced_cf_exact(bm_cfg.triplet, bm_cfg.p, q) for q in queries])
    results["brownian"] = float(np.abs(ecf.estimates - theo).max())

    # Cauchy, p = 0.5: Poisson-series samples shared with criterion 6.
    ecf = empirical_cf(cauchy_marginals, cauchy_config.grid, queries)
    theo = np.array([
        reinforced_cf_exact(cauchy_config.triplet, cauchy_config.p, q) for q in queries
    ])
    results["cauchy"] = float(np.abs(ecf.estimates - theo).max())

    # Stable alpha = 1.5, p = 0.5: the mark-mixture sampler (the series
    # route needs infeasibly many atoms at this index; see the mixture
    # cross-checks in the spectral tests).
    st_cfg = NrlpConfig(LevyTriplet.stable(1.5), MemoryParameter(0.5), 1e-4,
                        np.array([0.5, 1.0]))
    st_vals = stable_nrlp_marginals(st_cfg, RngStream(SEED, 72), replicas)[:, :, 0]
    ecf = empirical_cf(st_vals, st_cfg.grid, queries)
    theo = np.array([reinforced_cf_exact(st_cfg.triplet, st_cfg.p, q) for q in queries])
    results["stable15"] = float(np.abs(ecf.estimates - theo).max())

    passed = all(v < tol for v in results.values())
    detail = ", ".join(f"{k}={v:.5f}" for k, v in results.items())
    report(7, passed, f"max |ECF-theory| {detail} (< {tol:.5f})")


def test_criterion_08_theorem1():
    start = time.time()
    mesh = (100, 1_000, 10_000)
    replicas = 10**4
    rep_bm = theorem1_experiment(
        LevyTriplet.brownian(), 0.3, None, mesh, replicas, RngStream(SEED, 81),
        tolerance_mult=5.0, threads=2,
    )
    rep_cauchy = theorem1_experiment(
        LevyTriplet.cauchy(), 0.5, None, mesh, replicas, RngStream(SEED, 82),
        tolerance_mult=5.0, threads=2,
    )
    elapsed = time.time() - start
    # Decrease is judged with the noise-floor qualification: the Cauchy leg
    # reaches the Monte Carlo floor by n = 1e3, where raw orderings are noise.
    passed = rep_bm.passed and rep_cauchy.passed
    report(
        8, passed,
        f"BM distances {np.round(rep_bm.distances, 4).tolist()} "
        f"(raw strict={rep_bm.strictly_decreasing}), "
        f"Cauchy {np.round(rep_cauchy.distances, 4).tolist()} "
        f"(raw strict={rep_cauchy.strictly_decreasing}); "
        f"decreasing to the noise floor, final < {rep_bm.threshold:.3f}; {elapsed:.0f}s",
    )


def test_criterion_09_phase_transition():
    mesh = (100, 1_000, 10_000)
    replicas = 10**5
    sup = supercritical_experiment(
        1.5, 0.8, 1.0, mesh, replicas, RngStream(SEED, 91), final_threshold=0.1,
        threads=2,
    )
    adm, adm_se = terminal_ecf_schedule(
        LevyTriplet.stable(1.5), 0.5, 1.0, mesh, replicas, RngStream(SEED, 92),
        threads=2,
    )
    pooled = math.sqrt(adm_se[-1] ** 2 + sup.stderr[-1] ** 2)
    separation = (adm[-1] - sup.distances[-1]) / pooled
    passed = sup.passed and separation > 5.0
    report(
        9, passed,
        f"supercritical |ECF| {np.round(sup.distances, 4).tolist()} "
        f"(trend ok={sup.decreasing}, raw strict={sup.strictly_decreasing}, "
        f"final<0.1={sup.final_ok}); admissible {adm[-1]:.4f}, "
        f"separation {separation:.1f} pooled se (>5)",
    )


def test_criterion_10_occupation_statistics():
    targets = {1: 1.0 / 3.0, 2: 1.0 / 12.0, 3: 1.0 / 30.0}
    for k, val in targets.items():
        assert 0.5 * beta_oracle(k, 2.0) == pytest.approx(val, rel=1e-12)
    funcs = [PathFunctional.terminal_equals(k) for k in (1, 2, 3)]
    rep = prop8_experiment(
        0.5, [10**5], funcs, 32, RngStream(SEED, 10), mc_replicas=10**6,
    )
    z = rep.z_scores[0]
    ref_dev = np.abs(rep.references - np.array(list(targets.values())))
    passed = bool(np.all(np.abs(z) < 3.0) and np.all(ref_dev < 4 * rep.reference_se + 1e-12))
    report(
        10, passed,
        f"z-scores {np.round(z, 2).tolist()} (|z|<3) against (1-p) pmf = "
        f"{[f'{v:.4f}' for v in targets.values()]}",
    )


def test_criterion_11_additivity_and_stability():
    add = check_additivity(
        LevyTriplet.brownian(), LevyTriplet.cauchy(), 0.3,
        CfQuery(np.array([0.6, 0.8]), np.array([0.5, 1.0])),
        RngStream(SEED, 11), mc_replicas=10**6,
    )
    stab = check_stability(
        1.5, 0.5, CfQuery(np.array([1.0]), np.array([1.0])),
        RngStream(SEED, 12), scales=(2.0,), mc_replicas=8 * 10**6,
    )
    ratio = stab.ratios[0]
    expected = 2.0**1.5
    passed = add.within < 3.0 and abs(ratio / expected - 1.0) < 0.05
    report(
        11, passed,
        f"additivity discrepancy {add.discrepancy:.5f} = {add.within:.2f} pooled se (<3); "
        f"stability ratio {ratio:.3f} vs {expected:.3f} (5%)",
    )


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "thm1.ini"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg.write_text(
        "[experiment]\nname = theorem1\np = 0.3\nseed = 42\nreplicas = 200\n"
        f"mesh = 50,100\n[triplet]\ndim = 1\ngaussian = 1.0\n[output]\ndir = {out1}\n"
    )
    code1 = cli_main(["--config", str(cfg), "--threads", "1"])
    code2 = cli_main(["--config", str(cfg), "--threads", "4", "--out", str(out2)])
    same_json = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    same_csv = (out1 / "distances.csv").read_bytes() == (out2 / "distances.csv").read_bytes()
    passed = same_json and same_csv and code1 == code2
    report(12, passed, f"report.json byte-identical across --threads 1/4: {same_json}, csv: {same_csv}")
