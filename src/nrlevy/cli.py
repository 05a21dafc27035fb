"""Command-line experiment harness.

Reads a sectioned key=value config file (INI style), applies flag overrides,
runs the named experiment, and writes ``report.json`` plus tidy CSV files
under the output directory.  All numeric output carries 17 significant
digits so files round-trip exactly, and reports contain nothing
non-deterministic: rerunning with the same config and seed is byte-identical
for any ``--threads`` value.

Exit codes: 0 when the experiment's verdict passes (or it has no verdict),
2 when a verdict fails, 1 for configuration or usage errors, for errors
the library raises while the experiment runs and for outputs that cannot be
written.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from .errors import ConfigError, DomainError, NrlevyError
from .levy_model import (
    FiniteAtomic,
    IsotropicStable,
    LevyTriplet,
    ZeroJumps,
    bg_index,
    is_admissible,
)
from .noise_reinforced import (
    THEORIES,
    CfQuery,
    NrlpConfig,
    nrlp_marginals,
    reinforced_cf_values,
    truncation_budget,
)
from .rng import RngStream
from .spectral import mixture_covers, stable_nrlp_marginals
from .step_reinforced import elephant_walk, skeleton_reinforced_walk
from .yule_simon import (
    MemoryParameter,
    check_times,
    ys_cross_moment,
    ys_mean,
    ys_pmf,
    ys_process_values,
    ys_sample,
)

# experiment -> the [experiment] keys besides name that it reads; validate
# rejects any other key that the config or a flag sets.
_EXPERIMENT_READS = {
    "simulate-ys": {"seed", "p", "rho", "replicas"},
    "simulate-walk": {"seed", "p", "n", "walk"},
    "simulate-nrlp": {"seed", "p", "replicas", "grid", "truncation_eps", "sampler", "threads"},
    "cf-compare": {
        "seed", "p", "replicas", "grid", "thetas", "truncation_eps", "sampler", "theory",
        "mc_replicas", "tolerance_mult", "threads",
    },
    "theorem1": {"seed", "p", "replicas", "mesh", "theory", "mc_replicas", "tolerance_mult", "threads"},
    "supercritical": {"seed", "p", "alpha", "theta", "replicas", "mesh", "final_threshold", "threads"},
    "prop8": {"seed", "p", "n", "ks", "replicas", "mc_replicas", "tolerance_mult"},
    "moments": {"seed", "p", "rho", "replicas", "grid", "tolerance_mult"},
}
EXPERIMENTS = tuple(_EXPERIMENT_READS)

SAMPLERS = ("auto", "series", "spectral")
WALKS = ("elephant", "skeleton")

_OUTPUT_KEYS = {"dir"}
_DEFAULT_RHO = {"simulate-ys": 2.0, "moments": 4.0}  # rho when neither p nor rho is set


def fmt(x: float) -> str:
    """17 significant digits: lossless float64 round-trip."""
    return f"{x:.17g}"


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    p: float | None = None
    replicas: int = 10000
    mesh: tuple[int, ...] = (100, 1000, 10000)
    grid: tuple[float, ...] = (0.5, 1.0)
    thetas: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0)
    theta: float = 1.0
    alpha: float = 1.5
    rho: float | None = None
    n: int = 10000
    ks: tuple[int, ...] = (1, 2, 3)
    truncation_eps: float = 1e-4
    tolerance_mult: float = dg.TOLERANCE_MULT
    threads: int = 1
    walk: str = "elephant"
    theory: str = "auto"
    mc_replicas: int = 2_000_000
    sampler: str = "auto"
    final_threshold: float = 0.1
    out_dir: Path = Path("out")
    triplet: LevyTriplet | None = None
    given: set[str] = field(default_factory=set, init=False, repr=False)  # keys set by config or flag

    def memory(self) -> MemoryParameter:
        if self.p is None:
            raise ConfigError("this experiment requires a memory parameter p")
        return MemoryParameter(self.p)

    def stream(self) -> RngStream:
        return RngStream(self.seed)

    def mark_rho(self) -> float:
        """``rho`` if set, else the 1/p that ``p`` implies, else the experiment's default."""
        if self.rho is not None:
            return self.rho
        return self.memory().rho if self.p is not None else _DEFAULT_RHO[self.experiment]


def _parse_float(text: str) -> float:
    """``float(text)``, rejecting nan and infinities: no check can pass or fail on them."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_atoms(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Positions and masses from ``position:mass`` pairs separated by ';'."""
    positions, masses = [], []
    for chunk in filter(str.strip, text.split(";")):
        pos_text, mass_text = chunk.rsplit(":", 1)
        positions.append([_parse_float(v) for v in pos_text.split(",")])
        masses.append(_parse_float(mass_text))
    return np.asarray(positions), np.asarray(masses)


def _parse_section(parsers: dict, values: dict) -> dict:
    """Parse each given value, from a config section or a flag, with its key's parser."""
    parsed = {}
    for key, parse in parsers.items():
        if values.get(key) is not None:
            try:
                parsed[key] = parse(values[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    return parsed


# [experiment] key -> parser; each key sets the ExperimentConfig field of its name.
_EXPERIMENT_FIELDS = {
    "p": _parse_float,
    "seed": int,
    "replicas": int,
    "mesh": _parse_ints,
    "grid": _parse_floats,
    "thetas": _parse_floats,
    "theta": _parse_float,
    "alpha": _parse_float,
    "rho": _parse_float,
    "n": int,
    "ks": _parse_ints,
    "truncation_eps": _parse_float,
    "tolerance_mult": _parse_float,
    "threads": int,
    "walk": str.strip,
    "theory": str.strip,
    "mc_replicas": int,
    "sampler": str.strip,
    "final_threshold": _parse_float,
}
_EXPERIMENT_KEYS = {"name", *_EXPERIMENT_FIELDS}

# [triplet] key -> parser; build_triplet turns the parsed values into a LevyTriplet.
_TRIPLET_FIELDS = {
    "dim": int,
    "gaussian_factor": _parse_floats,
    "gaussian": _parse_floats,
    "drift": _parse_floats,
    "jumps": lambda text: text.strip().lower(),
    "alpha": _parse_float,
    "scale": _parse_float,
    "atoms": _parse_atoms,
}
_TRIPLET_KEYS = set(_TRIPLET_FIELDS)


def build_triplet(section: dict) -> LevyTriplet:
    """Triplet from a flat key-value config section (see README for the format)."""
    values = _parse_section(_TRIPLET_FIELDS, section)
    dim = values.get("dim", 1)
    if "gaussian_factor" in values and "gaussian" in values:
        raise ConfigError("set gaussian_factor or gaussian, not both")
    gaussian = values.get("gaussian_factor", values.get("gaussian"))
    if gaussian is not None:
        if len(gaussian) not in (1, dim * dim):
            raise ConfigError("gaussian must have 1 or dim*dim entries (row-major)")
        gaussian = np.eye(dim) * gaussian[0] if len(gaussian) == 1 else np.reshape(gaussian, (dim, dim))
    drift = values.get("drift")
    if drift is not None and len(drift) != dim:
        raise ConfigError("drift must have dim entries")
    family = values.get("jumps", "none")
    if family == "none":
        jumps = ZeroJumps()
    elif family in ("stable", "cauchy"):
        alpha = 1.0 if family == "cauchy" else values.get("alpha", 1.5)
        jumps = IsotropicStable(alpha, values.get("scale", 1.0))
    elif family == "atoms":
        if "atoms" not in values:
            raise ConfigError("jumps = atoms requires an atoms entry")
        jumps = FiniteAtomic(*values["atoms"])
    else:
        raise ConfigError(f"unknown jump family {family!r}")
    return LevyTriplet(dim, gaussian, drift, jumps)


def load_config(path: Path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path} not found")
    sections = {s.lower(): dict(parser.items(s)) for s in parser.sections()}
    known = {"experiment": _EXPERIMENT_KEYS, "triplet": _TRIPLET_KEYS, "output": _OUTPUT_KEYS}
    unknown_sections = set(sections) - set(known)
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    exp, trip, out = (sections.get(name, {}) for name in known)
    for name, keys in known.items():
        for bad in set(sections.get(name, {})) - keys:
            raise ConfigError(f"unknown key {bad!r} in [{name}]")
    if "name" not in exp:
        raise ConfigError("[experiment] must set name")
    name = exp["name"].strip()
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    values = _parse_section(_EXPERIMENT_FIELDS, exp)
    cfg = ExperimentConfig(experiment=name, **values)
    cfg.given = set(values)
    if "dir" in out:
        cfg.out_dir = Path(out["dir"])
    if trip:
        cfg.triplet = build_triplet(trip)
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    unread = sorted(cfg.given - _EXPERIMENT_READS[cfg.experiment])
    if unread:
        raise ConfigError(f"{cfg.experiment} does not read {', '.join(unread)}")
    for key in ("replicas", "threads", "n", "mc_replicas"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be positive")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {cfg.seed}")
    for experiment, key in (("moments", "replicas"), ("prop8", "replicas"), ("prop8", "mc_replicas")):
        if cfg.experiment == experiment and getattr(cfg, key) < 2:
            raise ConfigError(f"{experiment} estimates a standard error: {key} must be at least 2")
    for experiment, key in (("cf-compare", "thetas"), ("prop8", "ks")):
        if cfg.experiment == experiment and not getattr(cfg, key):
            raise ConfigError(f"{experiment} needs at least one entry in {key}")
    for key in ("mesh", "ks"):
        if min(getattr(cfg, key), default=1) < 1:
            raise ConfigError(f"{key} entries must be at least 1, got {getattr(cfg, key)}")
    for key in ("tolerance_mult", "final_threshold"):
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"{key} must be positive, got {getattr(cfg, key)}")
    if cfg.p is not None:
        cfg.memory()
    if cfg.experiment in _DEFAULT_RHO and cfg.p is not None and cfg.rho is not None:
        raise ConfigError(f"{cfg.experiment} reads rho: set p (rho = 1/p) or rho, not both")
    for key, allowed in (("sampler", SAMPLERS), ("theory", THEORIES), ("walk", WALKS)):
        if getattr(cfg, key) not in allowed:
            raise ConfigError(f"unknown {key} {getattr(cfg, key)!r}; choose from {allowed}")
    reads_triplet = cfg.experiment in ("theorem1", "simulate-nrlp", "cf-compare") or (
        cfg.experiment == "simulate-walk" and cfg.walk == "skeleton")
    what = f"walk = {cfg.walk}" if cfg.experiment == "simulate-walk" else cfg.experiment
    if reads_triplet and cfg.triplet is None:
        raise ConfigError(f"{what} requires a [triplet] section")
    if cfg.triplet is not None and not reads_triplet:
        if cfg.experiment == "supercritical":
            raise ConfigError("supercritical walks a unit-scale stable process of index alpha "
                              "and reads no [triplet] section")
        raise ConfigError(f"{what} reads no [triplet] section")
    if cfg.experiment in ("theorem1", "supercritical") and (
            len(cfg.mesh) < 2 or any(b <= a for a, b in zip(cfg.mesh, cfg.mesh[1:]))):
        raise ConfigError(f"mesh must be strictly increasing with at least two points, got {cfg.mesh}")
    if cfg.experiment == "supercritical" and cfg.alpha * cfg.memory().p <= 1.0:
        raise ConfigError(
            f"supercritical requires alpha * p > 1, got {cfg.alpha * cfg.p:.4g} "
            "(use theorem1 for admissible parameters)"
        )
    if cfg.experiment in ("theorem1", "simulate-nrlp", "cf-compare"):
        mp = cfg.memory()
        with warnings.catch_warnings():  # the critical case p * beta = 1 errors below in one line
            warnings.simplefilter("ignore")
            admissible = is_admissible(mp, cfg.triplet)
        if not admissible:
            raise ConfigError(
                f"inadmissible memory parameter: p * beta = "
                f"{mp.p * bg_index(cfg.triplet):.4g} >= 1 (need p * beta < 1)"
            )
    if cfg.experiment in ("cf-compare", "theorem1") and cfg.triplet.dim != 1:
        raise ConfigError(f"{cfg.experiment} is one-dimensional: set dim = 1")
    if "grid" in _EXPERIMENT_READS[cfg.experiment]:
        try:
            check_times(_sampled_grid(cfg))
        except DomainError:
            raise ConfigError(
                f"grid must be strictly increasing within (0, 1] after an optional "
                f"leading 0.0, got grid = {cfg.grid}"
            ) from None
    if (cfg.experiment in ("simulate-nrlp", "cf-compare") and cfg.sampler == "spectral"
            and not mixture_covers(cfg.triplet, _sampled_grid(cfg))):
        raise ConfigError(
            "sampler = spectral covers one-dimensional stable jumps on one or two "
            "positive grid times"
        )


# ---------------------------------------------------------------------------
# Report and CSV emission
# ---------------------------------------------------------------------------

# A runner returns (report, verdict or None, {csv file name: (header, rows)}).
Outputs = tuple[dict, bool | None, dict[str, tuple[list[str], list]]]


def write_report(report: dict, out_dir: Path) -> Path:
    text = json.dumps(report, indent=2, allow_nan=False)  # NaN is not JSON: raise, write nothing
    path = out_dir / "report.json"
    path.write_text(text + "\n")
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])


def distance_table(report: dict) -> tuple[list[str], list]:
    """Tidy distances table: one row per (mesh point, query)."""
    rows = []
    for i, n in enumerate(report["schedule"]):
        for qi, dist in enumerate(report["per_query"][i]):
            rows.append([n, qi, float(dist), float(report["stderr"][i])])
    return ["n", "query", "distance", "stderr"], rows


def _convergence_outputs(rep: dg.ConvergenceReport) -> Outputs:
    report = {
        "experiment": rep.experiment,
        "params": dict(rep.params),
        "schedule": list(rep.mesh_schedule),
        "distances": [float(v) for v in rep.distances],
        "stderr": [float(v) for v in rep.stderr],
        "per_query": [[float(v) for v in row] for row in rep.per_query],
        "verdict": {
            "passed": rep.passed,
            "decreasing": rep.decreasing,
            "strictly_decreasing": rep.strictly_decreasing,
            "final_ok": rep.final_ok,
            "threshold": rep.threshold,
            "final_distance": rep.final_distance,
        },
    }
    return report, rep.passed, {"distances.csv": distance_table(report)}


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _run_theorem1(cfg: ExperimentConfig) -> Outputs:
    return _convergence_outputs(dg.theorem1_experiment(
        cfg.triplet,
        cfg.memory(),
        None,
        cfg.mesh,
        cfg.replicas,
        cfg.stream(),
        theory=cfg.theory,
        theory_mc_replicas=cfg.mc_replicas,
        tolerance_mult=cfg.tolerance_mult,
        threads=cfg.threads,
    ))


def _run_supercritical(cfg: ExperimentConfig) -> Outputs:
    return _convergence_outputs(dg.supercritical_experiment(
        cfg.alpha,
        cfg.memory(),
        cfg.theta,
        cfg.mesh,
        cfg.replicas,
        cfg.stream(),
        final_threshold=cfg.final_threshold,
        threads=cfg.threads,
    ))


def _run_prop8(cfg: ExperimentConfig) -> Outputs:
    functionals = [dg.PathFunctional.terminal_equals(k) for k in cfg.ks]
    rep = dg.prop8_experiment(
        cfg.memory(), [cfg.n], functionals, cfg.replicas, cfg.stream(),
        mc_replicas=cfg.mc_replicas,
    )
    z = rep.z_scores
    passed = bool(np.all(np.abs(z) < cfg.tolerance_mult))
    report = {
        "experiment": "prop8",
        "params": {"p": cfg.p, "n": cfg.n, "replicas": cfg.replicas},
        "schedule": list(rep.n_schedule),
        "functionals": list(rep.functional_names),
        "estimates": [[float(v) for v in row] for row in rep.estimates],
        "stderr": [[float(v) for v in row] for row in rep.stderr],
        "references": [float(v) for v in rep.references],
        "reference_se": [float(v) for v in rep.reference_se],
        "z_scores": [[float(v) for v in row] for row in z],
        "verdict": {"passed": passed, "tolerance_mult": cfg.tolerance_mult},
    }
    rows = []
    for i, n in enumerate(rep.n_schedule):
        for fi, name in enumerate(rep.functional_names):
            rows.append(
                [n, name, float(rep.estimates[i, fi]), float(rep.stderr[i, fi]),
                 float(rep.references[fi]), float(rep.reference_se[fi]), float(z[i, fi])]
            )
    header = ["n", "functional", "estimate", "stderr", "reference", "reference_se", "z"]
    return report, passed, {"prop8.csv": (header, rows)}


def _run_simulate_ys(cfg: ExperimentConfig) -> Outputs:
    rho = cfg.mark_rho()
    draws = ys_sample(rho, cfg.stream().generator(0), size=cfg.replicas)
    counts = np.bincount(draws)
    rows = [[int(k), int(c), c / cfg.replicas] for k, c in enumerate(counts) if k >= 1]
    kmax = counts.size - 1
    pmf = ys_pmf(np.arange(1, kmax + 1), rho)
    emp = counts[1:] / cfg.replicas
    tv = 0.5 * float(np.abs(emp - pmf).sum()) + 0.5 * float(1.0 - pmf.sum())
    report = {
        "experiment": "simulate-ys",
        "params": {"rho": rho, "replicas": cfg.replicas},
        "schedule": [],
        "tv_distance": tv,
        "verdict": None,
    }
    return report, None, {"histogram.csv": (["k", "count", "freq"], rows)}


def _run_simulate_walk(cfg: ExperimentConfig) -> Outputs:
    stream = cfg.stream()
    if cfg.walk == "elephant":
        walk = elephant_walk(cfg.n, cfg.memory(), stream.generator(0))
    else:
        walk = skeleton_reinforced_walk(cfg.triplet, cfg.n, cfg.memory(), stream.generator(0))
    sums = walk.partial_sums
    rows = [[k] + [float(v) for v in np.atleast_1d(sums[k])] for k in range(sums.shape[0])]
    dim = np.atleast_1d(sums[0]).size
    counter_rows = []
    for j, events in sorted(walk.record.counters().items()):
        for k in events:
            counter_rows.append([j, int(k)])
    report = {
        "experiment": "simulate-walk",
        "params": {"p": cfg.p, "n": cfg.n, "walk": cfg.walk},
        "schedule": [],
        "terminal": [float(v) for v in np.atleast_1d(sums[-1])],
        "verdict": None,
    }
    return report, None, {
        "walk.csv": (["k"] + [f"value{i}" for i in range(dim)], rows),
        "counters.csv": (["j", "k_event"], counter_rows),
    }


def _sampled_grid(cfg: ExperimentConfig) -> tuple[float, ...]:
    """The grid without a leading 0.0: every process starts at 0, so t = 0 takes no draw."""
    return cfg.grid[1:] if cfg.grid[:1] == (0.0,) else cfg.grid


def _nrlp_config(cfg: ExperimentConfig) -> NrlpConfig:
    return NrlpConfig(cfg.triplet, cfg.memory(), cfg.truncation_eps, _sampled_grid(cfg))


def _choose_sampler(cfg: ExperimentConfig, nc: NrlpConfig) -> str:
    if cfg.sampler != "auto":
        return cfg.sampler
    if mixture_covers(nc.triplet, nc.grid):
        # Mixture sampling is exact and its cost does not grow as the cutoff
        # shrinks; prefer it whenever the series would need many atoms.
        if nc.triplet.jump_measure.alpha * math.log(1.0 / nc.truncation_eps) > 4.0:
            return "spectral"
    return "series"


def _sample_marginals(cfg: ExperimentConfig, nc: NrlpConfig, replicas: int) -> tuple[np.ndarray, str]:
    sampler = _choose_sampler(cfg, nc)
    sample = stable_nrlp_marginals if sampler == "spectral" else nrlp_marginals
    return sample(nc, cfg.stream().substream(7), replicas, threads=cfg.threads), sampler


def _run_simulate_nrlp(cfg: ExperimentConfig) -> Outputs:
    nc = _nrlp_config(cfg)
    values, sampler = _sample_marginals(cfg, nc, cfg.replicas)
    # A leading t = 0 in the user's grid gets rows of 0: every process starts there.
    values = np.pad(values, ((0, 0), (len(cfg.grid) - nc.grid.size, 0), (0, 0)))
    rows = []
    for r in range(values.shape[0]):
        for gi, t in enumerate(cfg.grid):
            rows.append([r, float(t)] + [float(v) for v in values[r, gi]])
    header = ["replica", "time"] + [f"value{i}" for i in range(values.shape[2])]
    # Only the series sampler drops jumps below a cutoff.
    budget = None
    if sampler == "series" and not isinstance(nc.triplet.jump_measure, ZeroJumps):
        try:
            budget = float(truncation_budget(nc))
        except NrlevyError:
            budget = None
    report = {
        "experiment": "simulate-nrlp",
        "params": {
            "p": cfg.p, "replicas": cfg.replicas, "truncation_eps": cfg.truncation_eps,
            "sampler": sampler,
        },
        "schedule": [],
        "grid": [float(t) for t in cfg.grid],
        "truncation_budget": budget,
        "verdict": None,
    }
    return report, None, {"paths.csv": (header, rows)}


def _run_cf_compare(cfg: ExperimentConfig) -> Outputs:
    nc = _nrlp_config(cfg)
    queries = [CfQuery(np.asarray([th]), np.asarray([t])) for t in nc.grid for th in cfg.thetas]
    # Theory first: its transients are freed before the sampler's blocks run.
    theory = reinforced_cf_values(
        nc.triplet, nc.p, queries, cfg.theory, cfg.mc_replicas, cfg.stream()
    )
    values, sampler = _sample_marginals(cfg, nc, cfg.replicas)
    ecf = dg.empirical_cf(values[:, :, 0], nc.grid, queries)
    dist = np.abs(ecf.estimates - theory)
    threshold = cfg.tolerance_mult / math.sqrt(cfg.replicas)
    passed = bool(dist.max() < threshold)
    records = [
        {
            "theta": float(q.thetas[0, 0]), "t": float(q.times[0]),
            "re": float(ecf.estimates[qi].real), "im": float(ecf.estimates[qi].imag),
            "theory_re": float(theory[qi].real), "theory_im": float(theory[qi].imag),
            "stderr": float(ecf.stderr),
        }
        for qi, q in enumerate(queries)
    ]
    rows = [[r["theta"], r["t"], r["re"], r["im"], r["theory_re"], r["theory_im"],
             float(d), r["stderr"]] for r, d in zip(records, dist)]
    header = ["theta", "t", "ecf_re", "ecf_im", "theory_re", "theory_im", "distance", "stderr"]
    report = {
        "experiment": "cf-compare",
        "params": {
            "p": cfg.p, "replicas": cfg.replicas, "truncation_eps": cfg.truncation_eps,
            "sampler": sampler, "theory": cfg.theory,
        },
        "schedule": [],
        "records": records,
        "max_distance": float(dist.max()),
        "verdict": {"passed": passed, "threshold": threshold},
    }
    return report, passed, {"cfdata.csv": (header, rows)}


def _run_moments(cfg: ExperimentConfig) -> Outputs:
    rho = cfg.mark_rho()
    grid = np.asarray(_sampled_grid(cfg))
    vals = ys_process_values(rho, grid, cfg.stream().generator(0), cfg.replicas)
    checks = []

    def check(moment: str, samples: np.ndarray, ref: float) -> None:
        emp = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(cfg.replicas))
        checks.append({"moment": moment, "estimate": emp, "stderr": se,
                       "reference": ref, "z": (emp - ref) / se})

    for gi, t in enumerate(grid):
        check(f"mean@{t}", vals[:, gi], ys_mean(float(t), rho))
    if rho > 2 and grid.size >= 2:
        check(f"cross@{grid[0]},{grid[-1]}", vals[:, 0].astype(float) * vals[:, -1].astype(float),
              ys_cross_moment(float(grid[0]), float(grid[-1]), rho))
    ok = all(abs(c["z"]) < cfg.tolerance_mult for c in checks)
    report = {
        "experiment": "moments",
        "params": {"rho": rho, "replicas": cfg.replicas},
        "schedule": [],
        "checks": checks,
        "verdict": {"passed": bool(ok), "tolerance_mult": cfg.tolerance_mult},
    }
    return report, bool(ok), {}


_RUNNERS = {
    "theorem1": _run_theorem1,
    "supercritical": _run_supercritical,
    "prop8": _run_prop8,
    "simulate-ys": _run_simulate_ys,
    "simulate-walk": _run_simulate_walk,
    "simulate-nrlp": _run_simulate_nrlp,
    "cf-compare": _run_cf_compare,
    "moments": _run_moments,
}


def run(config_path: Path, overrides: argparse.Namespace | None = None) -> int:
    """Execute the configured experiment; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        if overrides is not None:
            _apply_overrides(cfg, overrides)
        validate(cfg)
        report, passed, tables = _RUNNERS[cfg.experiment](cfg)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        # CSVs first: report.json is the last file a run writes.
        for name, (header, rows) in tables.items():
            _write_csv(cfg.out_dir / name, header, rows)
        report["params"]["seed"] = cfg.seed
        path = write_report(report, cfg.out_dir)
    except (NrlevyError, ValueError, OSError, TypeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    if passed is None:
        return 0
    print(f"verdict: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    for key, value in _parse_section(_EXPERIMENT_FIELDS, vars(args)).items():
        setattr(cfg, key, value)
        cfg.given.add(key)
    if args.out is not None:
        cfg.out_dir = Path(args.out)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on a usage error, so that it ends as one ``error:`` line with exit 1."""

    def error(self, message: str):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="nrlevy",
        description="Experiment harness for reinforced walks and noise-reinforced Levy processes",
    )
    # Flags are strings here; _apply_overrides parses them as the config file's values.
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", help="master seed override")
    parser.add_argument("--replicas", help="replica count override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--threads", help="worker threads (never changes results)")
    parser.add_argument("--tolerance-mult", dest="tolerance_mult",
                        help="verdict tolerance in Monte Carlo standard errors")
    parser.add_argument("--p", help="memory parameter override")
    parser.add_argument("--alpha", help="stable index override")
    parser.add_argument("--mesh", help="comma-separated mesh override")
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(Path(args.config), args)


if __name__ == "__main__":
    sys.exit(main())
