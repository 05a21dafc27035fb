"""Spans around nrlevy's public functions, recorded from outside the package.

``install`` wraps each probed function at every ``nrlevy`` module that binds
it, because the name bound at the call site is the one that runs (for example
``nrlevy.diagnostics.increment_sample``).  Each call becomes one span with its
name, start, end, parent span, thread and run id, plus work counts taken from
the call's arguments or its result.  Spans stay in memory until ``dump``.

``layer_metrics`` and ``work_counts`` turn a dumped trace into per-layer
numbers; they run in the benchmark driver and never import nrlevy.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _size(path) -> int:
    return Path(path).stat().st_size


# (span name, defining module, function, counts(arguments, result) -> dict).
# Several functions may share a span name; their spans are summed.
PROBES = (
    ("levy_model.increment_sample", "nrlevy.levy_model", "increment_sample",
     lambda a, r: {"draws": a["size"] or 1}),
    ("step_reinforced.reinforced_prefix_sums", "nrlevy.step_reinforced", "reinforced_prefix_sums",
     lambda a, r: {"slots": a["steps"].size}),
    ("yule_simon.ys_joint_values", "nrlevy.yule_simon", "ys_joint_values",
     lambda a, r: {"marks": a["replicas"] * len(a["times"]), "atoms": a["replicas"]}),
    ("yule_simon.ys_abs_moment", "nrlevy.yule_simon", "ys_abs_moment", None),
    ("noise_reinforced.nrlp_marginals", "nrlevy.noise_reinforced", "nrlp_marginals",
     lambda a, r: {"replicas": a["replicas"]}),
    ("noise_reinforced.reinforced_cf_exact", "nrlevy.noise_reinforced", "reinforced_cf_exact", None),
    ("spectral.build_stable_mixture", "nrlevy.spectral", "build_stable_mixture",
     lambda a, r: {"bins": r.weights.size}),
    ("spectral.stable_nrlp_marginals", "nrlevy.spectral", "stable_nrlp_marginals",
     lambda a, r: {"replicas": a["replicas"]}),
    ("diagnostics.empirical_cf", "nrlevy.diagnostics", "empirical_cf",
     lambda a, r: {"evals": len(a["values"]) * len(a["queries"])}),
    # With threads > 1 the caller only waits here while pool threads work.
    ("diagnostics.map_blocks", "nrlevy.diagnostics", "_map_blocks",
     lambda a, r: {"blocks": len(a["blocks"]), "parallel": int(a["threads"] > 1)}),
    ("cli.config", "nrlevy.cli", "load_config", None),
    ("cli.config", "nrlevy.cli", "validate", None),
    ("cli.write", "nrlevy.cli", "write_report", lambda a, r: {"bytes": _size(r)}),
    ("cli.write", "nrlevy.cli", "_write_csv", lambda a, r: {"bytes": _size(a["path"])}),
    ("rng.generator", "nrlevy.rng", "RngStream.generator", None),
)


class Recorder:
    """In-memory span store; safe to call from the experiment's pool threads."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, counts=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.monotonic()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                work = {}
                if counts is not None and returned:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = counts(bound.arguments, result)
                self.spans.append({
                    "id": span_id, "name": name, "parent": parent,
                    "thread": threading.get_ident(), "run": self.run_id,
                    "start": start, "end": end, "counts": work,
                })

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "bindings": self.bindings,
                       "missing": self.missing, "spans": self.spans}, fh)


def install(recorder: Recorder) -> None:
    """Wrap every probed function wherever an nrlevy module binds it."""
    cli = importlib.import_module("nrlevy.cli")  # imports every layer
    modules = [(n, m) for n, m in list(sys.modules.items()) if n.startswith("nrlevy.")]
    for name, module, attr, counts in PROBES:
        owner = importlib.import_module(module)
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, fn_name, None)
        if original is None:
            recorder.missing.append(f"{module}.{attr}")
            continue
        wrapper = recorder.wrap(name, original, counts)
        if cls_name:
            setattr(owner, fn_name, wrapper)
            recorder.bindings.append(f"{module}.{attr}")
            continue
        for mod_name, mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    recorder.bindings.append(f"{mod_name}.{key}")
    runners = cli._RUNNERS
    for key, fn in runners.items():
        runners[key] = recorder.wrap("cli.runner", fn)
    recorder.bindings.append("nrlevy.cli._RUNNERS")


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its children on the same thread cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def work_counts(spans: list[dict]) -> dict[str, int]:
    """Calls and summed work counts per span name; these must repeat exactly."""
    totals: dict[str, int] = defaultdict(int)
    for s in spans:
        totals[f"{s['name']}.calls"] += 1
        for key, value in s["counts"].items():
            totals[f"{s['name']}.{key}"] += int(value)
    return dict(sorted(totals.items()))


def layer_metrics(spans: list[dict], window: tuple[float, float]) -> dict[str, float]:
    """Per-layer self times, counts and ratios for one traced run.

    ``window`` is the run's (runner entered, report written) interval;
    ``diagnostics.busy_cores`` divides the non-waiting self time inside it
    by its length.
    """
    self_s = _self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    wait = 0.0
    busy = 0.0
    for s in spans:
        t = self_s[s["id"]]
        by_name[s["name"]] += t
        if s["name"] == "diagnostics.map_blocks" and s["counts"].get("parallel"):
            wait += t
        elif s["name"] != "cli.config":
            busy += t
    counts = work_counts(spans)

    def count(key: str) -> int:
        return counts.get(key, 0)

    # Atoms are the marks drawn inside the series sampler, per sampled replica.
    ids = {s["id"]: s for s in spans}

    def under(s: dict, name: str) -> bool:
        while s["parent"] is not None:
            s = ids[s["parent"]]
            if s["name"] == name:
                return True
        return False

    atoms = sum(s["counts"].get("atoms", 0) for s in spans
                if s["name"] == "yule_simon.ys_joint_values"
                and under(s, "noise_reinforced.nrlp_marginals"))
    replicas = count("noise_reinforced.nrlp_marginals.replicas")
    draws = count("levy_model.increment_sample.draws")
    slots = count("step_reinforced.reinforced_prefix_sums.slots")
    return {
        "levy_model.increment_sample.self_s": by_name["levy_model.increment_sample"],
        "levy_model.increment_sample.draws": draws,
        "step_reinforced.reinforced_prefix_sums.self_s": by_name["step_reinforced.reinforced_prefix_sums"],
        "step_reinforced.reinforced_prefix_sums.slots": slots,
        "step_reinforced.draws_per_slot": draws / slots if slots else 0.0,
        "yule_simon.ys_joint_values.self_s": by_name["yule_simon.ys_joint_values"],
        "yule_simon.ys_joint_values.calls": count("yule_simon.ys_joint_values.calls"),
        "yule_simon.ys_joint_values.marks": count("yule_simon.ys_joint_values.marks"),
        "yule_simon.ys_abs_moment.self_s": by_name["yule_simon.ys_abs_moment"],
        "yule_simon.ys_abs_moment.calls": count("yule_simon.ys_abs_moment.calls"),
        "noise_reinforced.nrlp_marginals.self_s": by_name["noise_reinforced.nrlp_marginals"],
        "noise_reinforced.atoms_per_replica": atoms / replicas if replicas else 0.0,
        "noise_reinforced.reinforced_cf_exact.self_s": by_name["noise_reinforced.reinforced_cf_exact"],
        "noise_reinforced.reinforced_cf_exact.calls": count("noise_reinforced.reinforced_cf_exact.calls"),
        "spectral.build_stable_mixture.self_s": by_name["spectral.build_stable_mixture"],
        "spectral.build_stable_mixture.bins": count("spectral.build_stable_mixture.bins"),
        "spectral.stable_nrlp_marginals.self_s": by_name["spectral.stable_nrlp_marginals"],
        "diagnostics.empirical_cf.self_s": by_name["diagnostics.empirical_cf"],
        "diagnostics.empirical_cf.evals": count("diagnostics.empirical_cf.evals"),
        "diagnostics.map_blocks.wait_s": wait,
        "diagnostics.busy_cores": busy / (window[1] - window[0]),
        "cli.config.self_s": by_name["cli.config"],
        "cli.runner.self_s": by_name["cli.runner"],
        "cli.write.self_s": by_name["cli.write"],
        "cli.write.bytes": count("cli.write.bytes"),
        "rng.generators": count("rng.generator.calls"),
    }
