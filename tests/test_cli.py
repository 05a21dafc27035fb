"""Config parsing, determinism, CSV emission, and exit codes."""

import csv
import hashlib
import json
import random
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlevy import cli, noise_reinforced
from nrlevy.cli import (
    _EXPERIMENT_KEYS,
    _TRIPLET_KEYS,
    EXPERIMENTS,
    build_triplet,
    distance_table,
    fmt,
    load_config,
    main,
    run,
    validate,
)
from nrlevy.errors import ConfigError, NrlevyError
from nrlevy.levy_model import IsotropicStable


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


THM1 = """
[experiment]
name = theorem1
p = 0.3
seed = 42
replicas = 200
mesh = 50,100
[triplet]
dim = 1
gaussian = 1.0
[output]
dir = {out}
"""


@pytest.mark.bytes
class TestParsing:
    def test_missing_file(self, tmp_path):
        assert run(tmp_path / "nope.ini") == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path, "c.ini", "[experiment]\nname = simulate-ys\nwat = 1\n")
        assert run(cfg) == 1

    def test_unknown_experiment_rejected(self, tmp_path):
        cfg = write(tmp_path, "c.ini", "[experiment]\nname = frobnicate\n")
        assert run(cfg) == 1

    def test_inadmissible_pair_rejected(self, tmp_path):
        cfg = write(
            tmp_path, "c.ini",
            "[experiment]\nname = theorem1\np = 0.6\n[triplet]\ndim = 1\ngaussian = 1.0\n",
        )
        assert run(cfg) == 1

    def test_supercritical_precondition(self, tmp_path):
        cfg = write(
            tmp_path, "c.ini",
            "[experiment]\nname = supercritical\np = 0.5\nalpha = 1.5\n",
        )
        assert run(cfg) == 1

    def test_triplet_parsing(self):
        trip = build_triplet({"dim": "1", "jumps": "stable", "alpha": "1.5", "scale": "0.5"})
        assert isinstance(trip.jump_measure, IsotropicStable)
        assert trip.jump_measure.scale == 0.5
        trip2 = build_triplet({"dim": "2", "gaussian": "2.0", "drift": "0.1,0.2"})
        np.testing.assert_allclose(trip2.gaussian_factor, 2.0 * np.eye(2))
        trip3 = build_triplet({"dim": "1", "jumps": "atoms", "atoms": "1.0:2.0; -0.5:0.3"})
        np.testing.assert_allclose(trip3.jump_measure.masses, [2.0, 0.3])

    def test_bad_triplet_specs(self):
        with pytest.raises(ConfigError):
            build_triplet({"dim": "2", "drift": "0.1"})
        with pytest.raises(ConfigError):
            build_triplet({"dim": "1", "jumps": "atoms"})
        with pytest.raises(ConfigError):
            build_triplet({"dim": "1", "jumps": "weird"})

    def test_load_config_defaults(self, tmp_path):
        cfg_path = write(tmp_path, "c.ini", "[experiment]\nname = simulate-ys\nrho = 2.0\n")
        cfg = load_config(cfg_path)
        assert cfg.experiment == "simulate-ys"
        assert cfg.seed == 0
        assert cfg.rho == 2.0

    def test_usage_errors_are_one_line(self, tmp_path, capsys):
        # A bad flag value, an unknown flag and a missing --config are usage
        # errors (exit 1), not failed verdicts (exit 2).
        cfg = str(write(tmp_path, "thm1.ini", THM1.format(out=tmp_path / "o")))
        for argv in (["--config", cfg, "--seed", "abc"], ["--config", cfg, "--bogus", "1"], []):
            assert main(argv) == 1
            assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


CF_SMALL = """
[experiment]
name = cf-compare
p = 0.5
replicas = 200
thetas = 0.5
grid = 1.0
truncation_eps = 0.1
mc_replicas = 1000
{extra}
[triplet]
dim = 1
jumps = cauchy
[output]
dir = {out}
"""


SUPERCRITICAL_SMALL = """
[experiment]
name = supercritical
p = 0.8
alpha = 1.5
replicas = 64
mesh = 20,50
{extra}
[output]
dir = {out}
"""


NRLP_SMALL = """
[experiment]
name = simulate-nrlp
p = 0.3
replicas = 10
{extra}
[triplet]
dim = 1
gaussian = 1.0
[output]
dir = {out}
"""


MOMENTS_GRID = """
[experiment]
name = moments
p = 0.25
replicas = 500
grid = {grid}
[output]
dir = {out}
"""


PROP8_SMALL = """
[experiment]
name = prop8
p = 0.5
n = 50
ks = 1,2
replicas = 100
mc_replicas = 1000
[output]
dir = {out}
"""


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.bytes
class TestRejections:
    def test_unknown_sampler_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", CF_SMALL.format(extra="sampler = bogus", out=tmp_path / "o"))
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_unknown_theory_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", CF_SMALL.format(extra="theory = bogus", out=tmp_path / "o"))
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_unknown_walk_rejected(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "c.ini",
            f"[experiment]\nname = simulate-walk\np = 0.3\nn = 10\nwalk = bogus\n"
            f"[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert run(cfg) == 1
        assert_one_line_error(capsys)

    def test_cf_compare_requires_dim_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "c.ini",
            f"[experiment]\nname = cf-compare\np = 0.3\nreplicas = 100\n"
            f"[triplet]\ndim = 2\ngaussian = 1.0\n[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert run(cfg) == 1
        assert_one_line_error(capsys)

    def test_cf_compare_requires_positive_grid_time(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "c.ini",
            CF_SMALL.replace("grid = 1.0", "grid = 0.0").format(extra="", out=tmp_path / "o"),
        )
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_simulate_nrlp_requires_positive_grid_time(self, tmp_path, capsys):
        # A grid of t = 0 alone draws nothing, so no run and no truncation budget.
        config = NRLP_SMALL.replace("{extra}", "grid = 0.0").replace("gaussian = 1.0", "jumps = cauchy")
        cfg = write(tmp_path, "c.ini", config.format(out=tmp_path / "o"))
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_moments_rejects_negative_grid_time(self, tmp_path, capsys):
        # Only a leading t = 0 leaves the grid; a negative time is an error,
        # not a check silently dropped from the verdict.
        cfg = write(
            tmp_path, "m.ini",
            f"[experiment]\nname = moments\np = 0.25\nreplicas = 500\ngrid = -0.5,1.0\n"
            f"[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [
        MOMENTS_GRID.replace("{grid}", "-0.5,1.0"),
        MOMENTS_GRID.replace("{grid}", ""),
        MOMENTS_GRID.replace("{grid}", "0.0"),
        MOMENTS_GRID.replace("{grid}", "0.5,0.5"),
        NRLP_SMALL.replace("{extra}", "grid = 0.5,1.5"),
        CF_SMALL.replace("grid = 1.0", "grid = 0.7,0.2").replace("{extra}", ""),
    ], ids=["moments-negative", "moments-empty", "moments-zero-only", "moments-repeated",
            "simulate-nrlp-above-one", "cf-compare-decreasing"])
    def test_grid_errors_name_the_key(self, tmp_path, capsys, config):
        cfg = write(tmp_path, "c.ini", config.replace("{out}", str(tmp_path / "o")))
        assert run(cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mult", ["0", "-1"])
    def test_nonpositive_tolerance_mult_rejected(self, tmp_path, capsys, mult):
        out = tmp_path / "o"
        cfg = write(
            tmp_path, "m.ini",
            f"[experiment]\nname = moments\nrho = 4.0\nreplicas = 500\n"
            f"tolerance_mult = {mult}\n[output]\ndir = {out}\n",
        )
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        thm1 = write(tmp_path, "thm1.ini", THM1.format(out=out))
        assert main(["--config", str(thm1), "--tolerance-mult", mult]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("config, flags", [
        (CF_SMALL.replace("{extra}", "tolerance_mult = inf"), []),
        (CF_SMALL.replace("{extra}", ""), ["--tolerance-mult", "inf"]),
        (CF_SMALL.replace("thetas = 0.5", "thetas = 0.5,nan").replace("{extra}", ""), []),
        (SUPERCRITICAL_SMALL.replace("{extra}", "theta = nan"), []),
        (NRLP_SMALL.replace("{extra}", "grid = 0.5,nan"), []),
        (NRLP_SMALL.replace("{extra}", "").replace("gaussian = 1.0", "drift = nan"), []),
        (CF_SMALL.replace("{extra}", "").replace("jumps = cauchy", "jumps = stable\nscale = inf"), []),
        (CF_SMALL.replace("{extra}", "").replace("jumps = cauchy", "jumps = atoms\natoms = 1.0:nan"), []),
    ], ids=["tolerance-mult-inf", "tolerance-mult-flag-inf", "thetas-nan", "theta-nan", "grid-nan",
            "drift-nan", "scale-inf", "atom-mass-nan"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, config, flags):
        # An infinite tolerance passes every verdict, and a NaN makes
        # report.json invalid JSON: both stop at parsing.
        out = tmp_path / "o"
        cfg = write(tmp_path, "c.ini", config.format(out=out))
        assert main(["--config", str(cfg), *flags]) == 1
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_non_finite_report_is_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._RUNNERS, "moments",
                            lambda cfg: ({"params": {}, "z": float("nan")}, None, {}))
        out = tmp_path / "o"
        cfg = write(tmp_path, "m.ini", f"[experiment]\nname = moments\nrho = 4.0\n[output]\ndir = {out}\n")
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert not (out / "report.json").exists()

    def test_unwritable_output_is_one_line(self, tmp_path, capsys):
        taken = write(tmp_path, "taken", "")
        cfg = write(tmp_path, "m.ini", "[experiment]\nname = moments\nrho = 4.0\nreplicas = 100\n")
        assert main(["--config", str(cfg), "--out", str(taken / "o")]) == 1
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("config", [
        THM1.replace("mesh = 50,100", "mesh = 0,10"),
        CF_SMALL.replace("mc_replicas = 1000", "mc_replicas = 0").replace("{extra}", "theory = mc"),
        "[experiment]\nname = prop8\np = 0.5\nn = 0\nreplicas = 100\n[output]\ndir = {out}\n",
    ], ids=["mesh-zero", "mc-replicas-zero", "n-zero"])
    def test_empty_sample_sizes_rejected(self, tmp_path, capsys, config):
        cfg = write(tmp_path, "c.ini", config.format(out=tmp_path / "o"))
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid, jumps", [
        ("1.0", "jumps = atoms\natoms = 0.5:1.0"),
        ("1.0", "gaussian = 1.0"),
        ("0.25,0.5,1.0", "jumps = stable\nalpha = 1.5"),
    ], ids=["atoms", "no-jumps", "three-times"])
    def test_spectral_sampler_outside_its_domain_rejected(
        self, tmp_path, capsys, monkeypatch, grid, jumps
    ):
        # The mixture covers 1-d isotropic stable jumps on one or two
        # positive times; anything else fails before the theory is computed.
        theory_calls = []
        monkeypatch.setattr(cli, "reinforced_cf_values",
                            lambda *args: theory_calls.append(args))
        out = tmp_path / "o"
        cfg = write(
            tmp_path, "c.ini",
            f"[experiment]\nname = cf-compare\np = 0.3\nreplicas = 100\ngrid = {grid}\n"
            f"sampler = spectral\n[triplet]\ndim = 1\n{jumps}\n[output]\ndir = {out}\n",
        )
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert theory_calls == []
        assert not out.exists()

    def test_out_of_range_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write(tmp_path, "c.ini", THM1.replace("seed = 42", "seed = -1").format(out=out))
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        thm1 = write(tmp_path, "thm1.ini", THM1.format(out=out))
        assert main(["--config", str(thm1), "--seed", str(2**64)]) == 1
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        CF_SMALL.replace("thetas = 0.5", "thetas =").replace("{extra}", ""),
        PROP8_SMALL.replace("ks = 1,2", "ks ="),
        "[experiment]\nname = moments\nrho = 4.0\nreplicas = 1\n[output]\ndir = {out}\n",
        PROP8_SMALL.replace("\nreplicas = 100\n", "\nreplicas = 1\n"),
        PROP8_SMALL.replace("mc_replicas = 1000", "mc_replicas = 1"),
        THM1.replace("mesh = 50,100", "mesh = 100,50"),
        THM1.replace("mesh = 50,100", "mesh = 50,50"),
        "[experiment]\nname = supercritical\np = 0.8\nalpha = 1.5\nreplicas = 64\n"
        "mesh = 50,20\n[output]\ndir = {out}\n",
        "[experiment]\nname = simulate-ys\np = 0\nreplicas = 100\n[output]\ndir = {out}\n",
        "[experiment]\nname = moments\np = 0\nreplicas = 100\n[output]\ndir = {out}\n",
        PROP8_SMALL.replace("ks = 1,2", "ks = -1,2"),
        SUPERCRITICAL_SMALL.replace("{extra}", "final_threshold = 0"),
        "[experiment]\nname = simulate-ys\np = 0.5\nrho = 3.0\nreplicas = 100\n[output]\ndir = {out}\n",
        "[experiment]\nname = moments\np = 0.5\nrho = 3.0\nreplicas = 100\n[output]\ndir = {out}\n",
        THM1.replace("dim = 1", "dim = 2"),
    ], ids=["cf-compare-no-thetas", "prop8-no-ks", "moments-one-replica", "prop8-one-replica",
            "prop8-one-mc-replica", "theorem1-mesh-decreasing", "theorem1-mesh-repeated",
            "supercritical-mesh-decreasing", "simulate-ys-p-zero", "moments-p-zero",
            "prop8-ks-below-one", "supercritical-final-threshold-zero",
            "simulate-ys-p-and-rho", "moments-p-and-rho", "theorem1-dim-two"])
    def test_empty_or_undefined_checks_rejected(self, tmp_path, capsys, monkeypatch, config):
        # Each config would check nothing, check something other than it says,
        # write a NaN z-score or standard error, or run every mesh point before
        # failing: validate stops it before its runner.
        calls = []
        for name in EXPERIMENTS:
            monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: calls.append(cfg) or ({}, None, {}))
        cfg = write(tmp_path, "c.ini", config.format(out=tmp_path / "o"))
        assert run(cfg) == 1
        assert_one_line_error(capsys)
        assert calls == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, flags", [
        (THM1.replace("replicas = 200", "replicas = 4"), []),
        (CF_SMALL.replace("replicas = 200", "replicas = 2000").replace("{extra}", ""),
         ["--tolerance-mult", "100"]),
    ], ids=["theorem1-four-replicas", "cf-compare-tolerance-mult-100"])
    def test_verdict_that_cannot_fail_rejected(self, tmp_path, capsys, monkeypatch, config, flags):
        # 2 is the largest distance between two characteristic functions, so
        # a threshold tolerance_mult / sqrt(replicas) >= 2 passes any draws.
        calls = []
        for name in EXPERIMENTS:
            monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: calls.append(cfg) or ({}, None, {}))
        cfg = write(tmp_path, "c.ini", config.format(out=tmp_path / "o"))
        assert main(["--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "tolerance_mult / sqrt(replicas)" in err and "below 2" in err
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_five_theorem1_replicas_can_fail(self, tmp_path):
        # At the default tolerance 4 / sqrt(5) < 2: the check lets it through.
        cfg = write(tmp_path, "c.ini", THM1.replace("replicas = 200", "replicas = 5").format(out=tmp_path / "o"))
        validate(load_config(cfg))

    @pytest.mark.parametrize("extra, flags, named", [
        ("rho = 3.0\nalpha = 1.2\n", [], "alpha, rho"),
        ("", ["--alpha", "1.2"], "alpha"),
    ], ids=["config", "flag"])
    def test_unread_keys_rejected(self, tmp_path, capsys, monkeypatch, extra, flags, named):
        # A Brownian theorem1 run never reads alpha or rho: dropping them
        # would run another experiment than the one asked for.
        calls = []
        for name in EXPERIMENTS:
            monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: calls.append(cfg) or ({}, None, {}))
        out = tmp_path / "o"
        cfg = write(tmp_path, "c.ini", THM1.replace("[triplet]", extra + "[triplet]").format(out=out))
        assert main(["--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"error: theorem1 does not read {named}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("key, triplet", [
        ("dim", "dim = abc"),
        ("gaussian", "gaussian = abc"),
        ("alpha", "jumps = stable\nalpha = x"),
        ("atoms", "jumps = atoms\natoms = 1.0"),
    ])
    def test_triplet_errors_name_their_key(self, tmp_path, capsys, key, triplet):
        out = tmp_path / "o"
        cfg = write(tmp_path, "c.ini", THM1.replace("dim = 1\ngaussian = 1.0", triplet).format(out=out))
        assert run(cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        SUPERCRITICAL_SMALL.replace("{extra}", ""),
        PROP8_SMALL,
        "[experiment]\nname = simulate-ys\nrho = 2.0\nreplicas = 100\n[output]\ndir = {out}\n",
        "[experiment]\nname = moments\nrho = 4.0\nreplicas = 100\n[output]\ndir = {out}\n",
        "[experiment]\nname = simulate-walk\np = 0.3\nn = 10\nwalk = elephant\n"
        "[output]\ndir = {out}\n",
    ], ids=["supercritical", "prop8", "simulate-ys", "moments", "simulate-walk-elephant"])
    def test_unread_triplet_rejected(self, tmp_path, capsys, monkeypatch, config):
        # These experiments build no triplet: a [triplet] section would be
        # dropped, and the run would not be the one the config describes.
        calls = []
        for name in EXPERIMENTS:
            monkeypatch.setitem(cli._RUNNERS, name, lambda cfg: calls.append(cfg) or ({}, None, {}))
        triplet = "[triplet]\ndim = 1\ngaussian = 1.0\njumps = stable\nalpha = 1.9\nscale = 3.0\n"
        cfg = write(tmp_path, "c.ini", config.format(out=tmp_path / "o") + triplet)
        assert run(cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[triplet]" in err
        assert len(err.strip().splitlines()) == 1
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_supercritical_triplet_error_names_its_walk(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", SUPERCRITICAL_SMALL.format(extra="", out=tmp_path / "o")
                    + "[triplet]\ndim = 1\ngaussian = 1.0\n")
        assert run(cfg) == 1
        err = capsys.readouterr().err
        assert "unit-scale stable" in err and "alpha" in err

    @pytest.mark.parametrize("config, check", [
        ("[experiment]\nname = moments\nrho = 1000\nreplicas = 2\ngrid = 1\n", "moments check mean@1.0"),
        ("[experiment]\nname = moments\np = 0.001\nreplicas = 5\n", "moments check mean@1.0"),
        ("[experiment]\nname = prop8\np = 0.5\nn = 5\nks = 1,100\nreplicas = 10\nmc_replicas = 10\n",
         "prop8 check terminal==100 at n = 5"),
    ], ids=["moments-rho", "moments-p", "prop8"])
    def test_zero_standard_error_is_one_line(self, tmp_path, capsys, config, check):
        # Every sample of the check agrees, so its z-score would divide by a
        # zero standard error: the run ends with one error line naming the
        # check and its replica counts, before it writes any file.  Warnings
        # become errors here, because pytest would otherwise capture them.
        out = tmp_path / "o"
        cfg = write(tmp_path, "c.ini", config + f"[output]\ndir = {out}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {check}: the standard error over replicas = ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("exc", [
        TypeError("unsupported operand type(s) for +: 'int' and 'NoneType'"),
        MemoryError("Unable to allocate 64.0 GiB for an array with shape (8589934592,)"),
        MemoryError(),
    ], ids=["type-error", "memory-error", "bare-memory-error"])
    def test_runner_type_and_memory_errors_are_one_line(self, tmp_path, capsys, monkeypatch, exc):
        def runner(cfg):
            raise exc
        monkeypatch.setitem(cli._RUNNERS, "moments", runner)
        out = tmp_path / "o"
        cfg = write(tmp_path, "m.ini", f"[experiment]\nname = moments\nrho = 4.0\n[output]\ndir = {out}\n")
        assert run(cfg) == 1
        err = capsys.readouterr().err
        assert err == f"error: {str(exc) or type(exc).__name__}\n"
        assert not out.exists()

    def test_runtime_library_error_is_one_line(self, tmp_path, capsys):
        # Validation passes; the closed-form cf then has no formula for
        # two-time stable-1.5 queries.
        cfg = write(
            tmp_path, "c.ini",
            f"[experiment]\nname = theorem1\np = 0.5\nreplicas = 100\nmesh = 10,20\n"
            f"theory = exact\n[triplet]\ndim = 1\njumps = stable\nalpha = 1.5\n"
            f"[output]\ndir = {tmp_path / 'o'}\n",
        )
        assert run(cfg) == 1
        assert_one_line_error(capsys)

    def test_critical_case_is_one_line(self, tmp_path, capsys):
        # p * beta = 1 (p = 1/2, Brownian part): the library warns, and the
        # CLI must not print that warning before its one error line.  Warnings
        # become errors here, because pytest would otherwise capture them.
        cfg = write(tmp_path, "c.ini", THM1.replace("p = 0.3", "p = 0.5").format(out=tmp_path / "o"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "p * beta = 1" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()


_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_LINE_BREAKS),
            max_size=24),
    st.sampled_from([
        "", "0", "1", "2", "-1", "0.5", "1.5", "2.5", "nan", "inf", "-inf", "1e-3",
        "0.5,1.0", "1,2,3", "50,100", "1.0:2.0; -0.5:0.3", "1.0,2.0:1.0", "%", "50%",
        "none", "stable", "cauchy", "atoms", "auto", "series", "spectral", "exact",
        "mc", "elephant", "skeleton", *EXPERIMENTS,
    ]),
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        experiment=st.dictionaries(st.sampled_from(sorted(_EXPERIMENT_KEYS)), _VALUES),
        triplet=st.dictionaries(st.sampled_from(sorted(_TRIPLET_KEYS)), _VALUES),
    )
    def test_load_config_and_validate_fail_cleanly(self, experiment, triplet):
        text = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in experiment.items())
        if triplet:
            text += "[triplet]\n" + "".join(f"{k} = {v}\n" for k, v in triplet.items())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ini"
            path.write_text(text)
            try:
                validate(load_config(path))
            except (NrlevyError, ValueError):
                pass


# [experiment] key -> (good values, bad values) that the check-order corpus draws from.
_ORDER_VALUES = {
    "seed": (["0", "42"], ["-1", str(2**64)]),
    "p": (["0.3", "0.5", "0.8", "0.001"], ["0", "1", "1.5"]),
    "rho": (["3.0", "1000"], ["0", "-1"]),
    "replicas": (["100", "2"], ["1", "0"]),
    "mesh": (["20,50", "10,20,40"], ["50,20", "50,50", "100", "0,10"]),
    "grid": (["1.0", "0.5,1.0", "0.0,0.5,1.0", "0.25,0.5,1.0"],
             ["0.0", "", "0.7,0.2", "-0.5,1.0", "0.5,1.5", "0.5,0.5"]),
    "thetas": (["0.5", "0.5,1.0"], [""]),
    "theta": (["1.0", "-2"], []),
    "alpha": (["1.5", "1.9", "1.1"], ["0.5", "2.5"]),
    "n": (["10", "1"], ["0"]),
    "ks": (["1,2", "3"], ["", "-1,2", "0"]),
    "truncation_eps": (["0.1", "1e-4"], ["0", "-1"]),
    "tolerance_mult": (["4"], ["0", "-1"]),
    "threads": (["1", "2"], ["0"]),
    "walk": (["elephant", "skeleton"], ["bogus"]),
    "theory": (["auto", "exact", "mc"], ["bogus"]),
    "mc_replicas": (["1000", "2"], ["1", "0"]),
    "sampler": (["auto", "series", "spectral"], ["bogus"]),
    "final_threshold": (["0.1"], ["0", "-1"]),
}
_ORDER_TRIPLETS = (
    ["dim = 1\ngaussian = 1.0", "dim = 1\njumps = cauchy", "jumps = stable\nalpha = 1.5",
     "dim = 1\njumps = stable\nalpha = 1.9\nscale = 3.0", "dim = 1\njumps = atoms\natoms = 0.5:1.0",
     "dim = 1\ngaussian = 0.7\ndrift = -0.2\njumps = stable\nalpha = 1.2", "dim = 2\ngaussian = 1.0"],
    ["dim = 2\ndrift = 0.1", "jumps = weird", "jumps = atoms", "dim = abc"],
)
# experiment -> the [experiment] keys it reads, as README's config section lists
# them, and [triplet] where it reads one (simulate-walk: with walk = skeleton).
_ORDER_READS = {
    "simulate-ys": "seed p rho replicas",
    "simulate-walk": "seed p n walk [triplet]",
    "simulate-nrlp": "seed p replicas grid truncation_eps sampler threads [triplet]",
    "cf-compare": "seed p replicas grid thetas truncation_eps sampler theory mc_replicas "
                  "tolerance_mult threads [triplet]",
    "theorem1": "seed p replicas mesh theory mc_replicas tolerance_mult threads [triplet]",
    "supercritical": "seed p alpha theta replicas mesh final_threshold threads",
    "prop8": "seed p n ks replicas mc_replicas tolerance_mult",
    "moments": "seed p rho replicas grid tolerance_mult",
}


def _order_pick(rnd: random.Random, choices: tuple[list, list]) -> str:
    """A good value, or one time in eight a bad one."""
    good, bad = choices
    return rnd.choice(bad if bad and rnd.random() < 0.125 else good)


def _order_corpus(size: int, seed: int) -> list[str]:
    """Seeded configs: each experiment (and now and then an unknown name)
    with a random subset of the keys it reads, good and bad values, now and
    then a key it does not read, and no, a well-formed or a bad [triplet]."""
    rnd = random.Random(seed)
    texts = []
    for _ in range(size):
        name = rnd.choice(sorted(_ORDER_READS)) if rnd.random() < 0.98 else "frobnicate"
        reads = _ORDER_READS.get(name, "").split()
        chance = {k: 0.9 if k == "p" else 0.5 if k in reads else 0.01 for k in _ORDER_VALUES}
        keys = [k for k in _ORDER_VALUES if rnd.random() < chance[k]]
        lines = [f"name = {name}"] + [f"{k} = {_order_pick(rnd, _ORDER_VALUES[k])}" for k in keys]
        text = "[experiment]\n" + "".join(line + "\n" for line in lines)
        if rnd.random() < (0.875 if "[triplet]" in reads else 0.125):
            text += "[triplet]\n" + _order_pick(rnd, _ORDER_TRIPLETS) + "\n"
        texts.append(text)
    return texts


@pytest.mark.bytes
class TestCheckOrder:
    # sha256 of the outcomes, one line each ("ok" or "Type: message"), of
    # validate(load_config(...)) on the 3,000 configs of _order_corpus(3000, 27):
    # 183 distinct outcomes, 691 of them "ok".
    DIGEST = "93ad6edd3433ffc4d01d4726c768a92c30e334f98c0f0bd370dd7025257fdaac"

    def test_validate_outcomes_and_order(self, tmp_path):
        # Which check fires first, and its exact message, for each config: a
        # refactor of validate must leave every line of this list unchanged.
        path = tmp_path / "c.ini"
        outcomes = []
        for text in _order_corpus(3000, 27):
            path.write_text(text)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    validate(load_config(path))
                outcomes.append("ok")
            except Exception as exc:  # noqa: BLE001  (the type is part of the outcome)
                outcomes.append(f"{type(exc).__name__}: {exc}")
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert len(set(outcomes)) == 183
        assert digest == self.DIGEST


@pytest.mark.bytes
class TestDeterminism:
    def test_threads_do_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write(tmp_path, "thm1.ini", THM1.format(out=out1))
        assert main(["--config", str(cfg), "--threads", "1"]) == 0
        assert main(["--config", str(cfg), "--threads", "3", "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "distances.csv").read_bytes() == (out2 / "distances.csv").read_bytes()

    def test_spectral_cf_compare_threads_do_not_change_bytes(self, tmp_path):
        # 2500 replicas: blocks of 1024, 1024 and a partial 452.
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write(
            tmp_path, "mix.ini",
            "[experiment]\nname = cf-compare\np = 0.5\ngrid = 0.5,1.0\nsampler = spectral\n"
            f"seed = 42\nreplicas = 2500\n[triplet]\njumps = stable\nalpha = 1.5\n"
            f"[output]\ndir = {out1}\n",
        )
        assert main(["--config", str(cfg), "--threads", "1"]) == 0
        assert main(["--config", str(cfg), "--threads", "3", "--out", str(out2)]) == 0
        assert json.loads((out1 / "report.json").read_text())["params"]["sampler"] == "spectral"
        for name in ("report.json", "cfdata.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_series_cf_compare_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        # About 32 atoms per replica, so each block spans several chunks.
        monkeypatch.setattr(noise_reinforced, "ATOM_CHUNK", 5000)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write(
            tmp_path, "series.ini",
            "[experiment]\nname = cf-compare\np = 0.5\ngrid = 0.5,1.0\nsampler = series\n"
            f"truncation_eps = 1e-2\nseed = 42\nreplicas = 2500\n[triplet]\njumps = cauchy\n"
            f"[output]\ndir = {out1}\n",
        )
        assert main(["--config", str(cfg), "--threads", "1"]) == 0
        assert main(["--config", str(cfg), "--threads", "3", "--out", str(out2)]) == 0
        assert json.loads((out1 / "report.json").read_text())["params"]["sampler"] == "series"
        for name in ("report.json", "cfdata.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_supercritical_threads_reusing_steps_do_not_change_bytes(self, tmp_path):
        # 3077 replicas are blocks of 1024, 1024, 1024 and 5, so at 2 and 3
        # threads a pool thread runs several blocks, of two sizes.
        cfg = write(
            tmp_path, "super.ini",
            "[experiment]\nname = supercritical\np = 0.8\nalpha = 1.5\ntheta = 1.0\n"
            "seed = 42\nreplicas = 3077\nmesh = 50,300\n",
        )
        outs = [tmp_path / f"t{threads}" for threads in (1, 2, 3)]
        for threads, out in zip((1, 2, 3), outs):
            assert main(["--config", str(cfg), "--threads", str(threads), "--out", str(out)]) == 0
        for name in ("report.json", "distances.csv"):
            assert len({(out / name).read_bytes() for out in outs}) == 1

    def test_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg = write(tmp_path, "thm1.ini", THM1.format(out=out1))
        main(["--config", str(cfg)])
        main(["--config", str(cfg), "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        cfg = write(tmp_path, "thm1.ini", THM1.format(out=out1))
        main(["--config", str(cfg)])
        main(["--config", str(cfg), "--seed", "43", "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()


@pytest.mark.bytes
class TestOutputs:
    def test_simulate_ys_histogram(self, tmp_path):
        out = tmp_path / "ys"
        cfg = write(
            tmp_path, "ys.ini",
            f"[experiment]\nname = simulate-ys\nrho = 2.0\nseed = 7\nreplicas = 200000\n"
            f"[output]\ndir = {out}\n",
        )
        assert run(cfg) == 0
        with open(out / "histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        k1 = next(r for r in rows if r["k"] == "1")
        assert abs(float(k1["freq"]) - 2.0 / 3.0) < 0.005

    def test_distance_table_counts_and_roundtrip(self, tmp_path):
        report = {
            "schedule": [10, 100, 1000],
            "per_query": [[0.1 * (i + 1) + 0.01 * q for q in range(6)] for i in range(3)],
            "stderr": [0.5, 0.05, 0.005],
        }
        path = tmp_path / "distances.csv"
        cli._write_csv(path, *distance_table(report))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        for row in rows:
            i = report["schedule"].index(int(row["n"]))
            q = int(row["query"])
            assert float(row["distance"]) == report["per_query"][i][q]
            assert float(row["stderr"]) == report["stderr"][i]

    def test_distance_table_empty_schedule(self, tmp_path):
        path = tmp_path / "distances.csv"
        cli._write_csv(path, *distance_table({"schedule": [], "per_query": [], "stderr": []}))
        lines = path.read_text().strip().splitlines()
        assert lines == ["n,query,distance,stderr"]

    def test_fmt_roundtrip(self):
        for x in (1 / 3, 2.0 ** -52, 1.2345678901234567e17, -0.1):
            assert float(fmt(x)) == x

    def test_moments_pass(self, tmp_path):
        out = tmp_path / "m"
        cfg = write(
            tmp_path, "m.ini",
            f"[experiment]\nname = moments\nrho = 4.0\nseed = 2\nreplicas = 50000\n"
            f"grid = 0.5,1.0\ntolerance_mult = 4.0\n[output]\ndir = {out}\n",
        )
        assert run(cfg) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["passed"] is True

    def test_cf_compare_exit_codes(self, tmp_path):
        out = tmp_path / "cf"
        cfg = write(
            tmp_path, "cf.ini",
            f"[experiment]\nname = cf-compare\np = 0.5\nseed = 3\nreplicas = 20000\n"
            f"thetas = 0.5,1.0\ngrid = 0.5,1.0\ntruncation_eps = 0.001\n"
            f"[triplet]\ndim = 1\njumps = cauchy\n[output]\ndir = {out}\n",
        )
        assert run(cfg) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["passed"] is True
        with open(out / "cfdata.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 times x 2 thetas

    @pytest.mark.parametrize("experiment, p, sampler, jumps", [
        ("cf-compare", 0.005, "series", "cauchy"),
        ("simulate-nrlp", 0.005, "series", "stable\nalpha = 1.5"),
        ("simulate-nrlp", 0.0005, "auto", "cauchy"),
    ], ids=["cf-compare-series", "simulate-nrlp-series", "simulate-nrlp-auto"])
    def test_small_p_writes_a_report(self, tmp_path, experiment, p, sampler, jumps):
        # rho = 1/p > 170, where Gamma(rho + 1) overflows a float.
        out = tmp_path / "small-p"
        cfg = write(
            tmp_path, "small-p.ini",
            f"[experiment]\nname = {experiment}\np = {p}\nseed = 5\nreplicas = 20\n"
            f"grid = 0.5,1.0\nsampler = {sampler}\n[triplet]\njumps = {jumps}\n[output]\ndir = {out}\n",
        )
        assert run(cfg) in (0, 2)
        assert json.loads((out / "report.json").read_text())["experiment"] == experiment

    def test_simulate_walk_outputs(self, tmp_path):
        out = tmp_path / "w"
        cfg = write(
            tmp_path, "w.ini",
            f"[experiment]\nname = simulate-walk\np = 0.25\nn = 100\nseed = 9\n"
            f"walk = elephant\n[output]\ndir = {out}\n",
        )
        assert run(cfg) == 0
        with open(out / "walk.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        vals = np.array([float(r["value0"]) for r in rows])
        assert np.all(np.abs(np.diff(vals)) == 1.0)
        with open(out / "counters.csv") as fh:
            events = list(csv.DictReader(fh))
        assert len(events) == 100  # one word per step

    def test_budget_only_for_the_series_sampler(self, tmp_path):
        # The spectral sampler drops no jump, so it reports no truncation budget.
        budgets = {}
        for sampler in ("spectral", "series"):
            out = tmp_path / sampler
            cfg = write(
                tmp_path, f"{sampler}.ini",
                f"[experiment]\nname = simulate-nrlp\np = 0.3\nseed = 23\nreplicas = 4\n"
                f"grid = 0.0,0.5,1.0\nsampler = {sampler}\n"
                f"[triplet]\ndim = 1\ngaussian = 0.7\ndrift = -0.2\njumps = stable\nalpha = 1.5\n"
                f"[output]\ndir = {out}\n",
            )
            assert run(cfg) == 0
            budgets[sampler] = json.loads((out / "report.json").read_text())["truncation_budget"]
        assert budgets["spectral"] is None
        assert budgets["series"] > 0

    def test_zero_time_rows_are_zero(self, tmp_path):
        # A leading t = 0 adds rows of exactly 0 and moves no draw: every
        # other row matches the run on the grid without it, for both samplers.
        triplets = {
            "series": "gaussian = 0.7\ndrift = -0.2\njumps = atoms\natoms = 1.0:2.0; -0.5:0.3\n",
            "spectral": "gaussian = 0.7\ndrift = -0.2\njumps = stable\nalpha = 1.5\n",
        }
        for sampler, triplet in triplets.items():
            rows = {}
            for grid in ("0.0,0.5,1.0", "0.5,1.0"):
                out = tmp_path / f"{sampler}-{grid}"
                cfg = write(
                    tmp_path, "nrlp.ini",
                    f"[experiment]\nname = simulate-nrlp\np = 0.3\nseed = 29\nreplicas = 50\n"
                    f"grid = {grid}\nsampler = {sampler}\n[triplet]\ndim = 1\n{triplet}"
                    f"[output]\ndir = {out}\n",
                )
                assert run(cfg) == 0
                rows[grid] = (out / "paths.csv").read_text().splitlines()
            at_zero = [row for row in rows["0.0,0.5,1.0"][1:] if row.split(",")[1] == "0"]
            assert len(at_zero) == 50
            assert all(row.split(",")[2] == "0" for row in at_zero)
            assert [row for row in rows["0.0,0.5,1.0"] if row not in at_zero] == rows["0.5,1.0"]
