#!/usr/bin/env python3
"""Time to verdict for nrlevy's CLI experiments.

    python3 perfbench/run.py --workload skeleton --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each CLI run is a fresh ``python3`` process
(perfbench/child.py) on one of the INI configs in perfbench/workloads, with
``--seed`` passed through to the CLI, so the same seed gives the same inputs.
A run counts as failed when it exits non-zero (a FAIL verdict included), when
its report is missing or describes another experiment or sampler, or when its
``report.json`` or CSV bytes differ from the first run of this invocation.

``--trace 0`` repeats the workload for ``--seconds`` seconds and reports the
medians of ``run_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` makes one
untraced run at ``--threads 1`` (whose bytes must match the config's thread
count), one at the config's thread count and two traced passes, checks that
every work count repeats exactly and that each layer ran (or stayed idle)
where the workload says, and reports the per-layer metrics.  The last line of stdout is
the JSON result; perfbench/NOTES.md explains the workloads and metrics.
Outputs go under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

MIN_RUNS = 3
TIME_LIMIT_S = 170.0  # the whole invocation, children included
# Runs import nrlevy from cached bytecode, as an installed package would.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


@dataclass(frozen=True)
class Workload:
    experiment: str
    sampler: str | None  # the sampler cf-compare must resolve to
    runs: tuple[str, ...]  # spans that must be called
    idle: tuple[str, ...]  # spans that must not be called


_ALWAYS = ("diagnostics.empirical_cf", "cli.config", "cli.runner", "cli.write", "rng.generator")
_SKELETON = ("levy_model.increment_sample", "step_reinforced.reinforced_prefix_sums")
_MIXTURE = ("spectral.build_stable_mixture", "spectral.stable_nrlp_marginals")

WORKLOADS = {
    "skeleton": Workload(
        "supercritical", None,
        runs=_ALWAYS + _SKELETON + ("diagnostics.map_blocks",),
        idle=("yule_simon.ys_joint_values", "yule_simon.ys_abs_moment",
              "noise_reinforced.nrlp_marginals", "noise_reinforced.reinforced_cf_exact") + _MIXTURE,
    ),
    "series": Workload(
        "cf-compare", "series",
        runs=_ALWAYS + ("yule_simon.ys_joint_values", "yule_simon.ys_abs_moment",
                        "noise_reinforced.nrlp_marginals", "noise_reinforced.reinforced_cf_exact"),
        idle=_SKELETON + _MIXTURE,
    ),
    "mixture": Workload(
        "cf-compare", "spectral",
        runs=_ALWAYS + _MIXTURE + ("yule_simon.ys_abs_moment", "noise_reinforced.reinforced_cf_exact"),
        idle=_SKELETON + ("yule_simon.ys_joint_values", "noise_reinforced.nrlp_marginals"),
    ),
}


@dataclass
class Run:
    tag: str
    argv: list[str] = field(default_factory=list)
    code: int | None = None
    stats: dict = field(default_factory=dict)
    setup_s: float | None = None
    run_s: float | None = None
    rss_mb: float | None = None
    problems: list[str] = field(default_factory=list)


class Session:
    """Launches the runs of one invocation and keeps its reference output."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.config = HERE / "workloads" / f"{name}.ini"
        self.dir = WORK / name
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.runs: list[Run] = []
        self.reference: dict[str, bytes] | None = None
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def cli_args(self, run_dir: Path, threads: int | None) -> list[str]:
        args = ["--config", str(self.config), "--seed", str(self.seed), "--out", str(run_dir / "out")]
        return args + (["--threads", str(threads)] if threads is not None else [])

    def launch(self, tag: str, threads: int | None = None, trace: bool = False) -> Run:
        run_dir = self.dir / tag
        run_dir.mkdir()
        run = Run(tag, self.cli_args(run_dir, threads))
        self.runs.append(run)
        stats = run_dir / "stats.json"
        trace_arg = str(run_dir / "trace.json") if trace else "-"
        argv = [sys.executable, str(HERE / "child.py"), str(stats), trace_arg, "--", *run.argv]
        with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err, env=CHILD_ENV)
            try:
                run.code = proc.wait(timeout=max(1.0, self.time_left()))
            except subprocess.TimeoutExpired:
                self.flag(run, "timed out")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if stats.is_file():
            run.stats = json.loads(stats.read_text())
            if "runner" in run.stats and "written" in run.stats:
                run.setup_s = run.stats["runner"] - spawned
                run.run_s = run.stats["written"] - run.stats["runner"]
            run.rss_mb = run.stats["maxrss_kb"] / 1024.0
        self.check(run, run_dir / "out")
        if run.problems:
            print((run_dir / "stderr.txt").read_text(errors="replace")[-2000:], file=sys.stderr)
        return run

    def flag(self, run: Run, problem: str) -> None:
        """Count ``run`` as failed, saying why on stderr."""
        run.problems.append(problem)
        print(f"{self.name}/{run.tag}: {problem}", file=sys.stderr)

    def check(self, run: Run, out_dir: Path) -> None:
        if run.code not in (0, None):
            self.flag(run, f"exit code {run.code}")
        try:
            report = json.loads((out_dir / "report.json").read_text())
        except (OSError, ValueError) as exc:
            self.flag(run, f"report.json missing or unreadable: {exc}")
            return
        wl = self.workload
        if report.get("experiment") != wl.experiment:
            self.flag(run, f"experiment {report.get('experiment')!r}, expected {wl.experiment!r}")
        if (report.get("verdict") or {}).get("passed") is not True:
            self.flag(run, "verdict did not pass")
        sampler = (report.get("params") or {}).get("sampler")
        if wl.sampler is not None and sampler != wl.sampler:
            self.flag(run, f"sampler {sampler!r}, expected {wl.sampler!r}")
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            differ = sorted(set(files) ^ set(self.reference)
                            | {k for k in files if files[k] != self.reference.get(k)})
            self.flag(run, f"output bytes differ from the first run: {differ}")

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def measure_end_to_end(session: Session, seconds: float) -> dict[str, float]:
    timed: list[Run] = []
    start = time.monotonic()
    while True:
        timed.append(session.launch(f"run{len(timed):02d}"))
        elapsed = time.monotonic() - start
        per_run = elapsed / len(timed)
        if len(timed) >= MIN_RUNS and elapsed + per_run > seconds:
            break
        if session.time_left() < 2.0 * per_run:
            break
    ok = [r for r in timed if r.run_s is not None]
    if not ok:
        return {}
    return {
        "run_s": statistics.median(r.run_s for r in ok),
        "setup_s": statistics.median(r.setup_s for r in ok),
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
    }


def measure_layers(session: Session) -> dict[str, float]:
    single = session.launch("threads1", threads=1)
    untraced = session.launch("untraced")
    traced = [session.launch(f"trace-{x}", trace=True) for x in "ab"]
    passes = []
    for run in traced:
        trace_file = session.dir / run.tag / "trace.json"
        if not trace_file.is_file() or run.run_s is None:
            session.flag(run, "no trace or timing written")
            continue
        trace = json.loads(trace_file.read_text())
        spans = trace["spans"]
        counts = tracing.work_counts(spans)
        for target in trace["missing"]:
            session.flag(run, f"probe target {target} not found")
        for span in session.workload.runs:
            if counts.get(f"{span}.calls", 0) == 0:
                session.flag(run, f"coverage: span {span} has 0 calls on {session.name}")
        for span in session.workload.idle:
            if counts.get(f"{span}.calls", 0) != 0:
                session.flag(run, f"coverage: span {span} ran on control workload {session.name}")
        window = (run.stats["runner"], run.stats["written"])
        passes.append((run, counts, tracing.layer_metrics(spans, window)))
    if len(passes) == 2 and passes[0][1] != passes[1][1]:
        a, b = passes[0][1], passes[1][1]
        differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        session.flag(passes[1][0], f"work counts differ between traced passes: {differ}")
    if not passes or single.run_s is None or untraced.run_s is None:
        return {}
    first = passes[0][2]
    metrics = {k: v if isinstance(v, int) else statistics.median(p[2][k] for p in passes)
               for k, v in first.items()}
    metrics["diagnostics.thread_speedup"] = single.run_s / untraced.run_s
    metrics["trace.overhead_s"] = statistics.median(p[0].run_s for p in passes) - untraced.run_s
    return metrics


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    return {"diagnostics.busy_cores": "cores",
            "diagnostics.thread_speedup": "ratio",
            "step_reinforced.draws_per_slot": "ratio",
            "noise_reinforced.atoms_per_replica": "atoms/replica"}.get(name, "count")


def _cache_sizes() -> dict[str, str | None]:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        text = ""
    lines = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    return {level: (lines.get(f"{level} cache") or "").strip() or None for level in ("L2", "L3")}


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(session: Session, trace: bool) -> dict:
    versions = next((r.stats for r in session.runs if r.stats), {})
    return {
        "workload": session.name,
        "seed": session.seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "config": session.config.read_text(),
        "runs": [
            {"tag": r.tag, "argv": r.argv, "code": r.code, "setup_s": r.setup_s, "run_s": r.run_s,
             "peak_rss_mb": r.rss_mb, "problems": r.problems}
            for r in session.runs
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "nrlevy" / "cli.py").is_file():
        print(f"error: no nrlevy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed)
    if args.trace:
        metrics = measure_layers(session)
    else:
        metrics = measure_end_to_end(session, args.seconds)
    failed = sum(1 for r in session.runs if r.problems)
    meta = metadata(session, bool(args.trace))
    (session.dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(session.runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps({k: meta[k] for k in meta if k != "runs"}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
