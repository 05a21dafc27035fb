"""The benchmark's probes bind: each workload, traced, at a small size.

``perfbench/tracing.py`` wraps library functions by name and reads their
arguments by name, so a rename that the rest of the suite does not see
breaks only traced benchmark runs.  Each workload runs once through
``perfbench/child.py`` with tracing on; every probe must bind, every span the
workload names as running must be called, and no span it names as idle.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SMALL = {"skeleton": ["--mesh", "10,20"], "series": [], "mixture": []}


def load_driver():
    """perfbench/run.py as a module: its workloads and, through it, tracing."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_workload_binds_its_probes(tmp_path, workload):
    bench = load_driver()
    trace_file = tmp_path / "trace.json"
    argv = [sys.executable, str(PERFBENCH / "child.py"), str(tmp_path / "stats.json"), str(trace_file),
            "--", "--config", str(PERFBENCH / "workloads" / f"{workload}.ini"), "--seed", "1",
            "--out", str(tmp_path / "out"), "--replicas", "64", *SMALL[workload]]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 2), proc.stderr[-2000:]
    trace = json.loads(trace_file.read_text())
    assert trace["missing"] == []
    counts = bench.tracing.work_counts(trace["spans"])
    spec = bench.WORKLOADS[workload]
    assert [s for s in spec.runs if counts.get(f"{s}.calls", 0) == 0] == []
    assert [s for s in spec.idle if counts.get(f"{s}.calls", 0) != 0] == []
