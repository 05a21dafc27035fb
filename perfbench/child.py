"""One CLI run in a fresh process, timed from inside.

    python3 perfbench/child.py STATS TRACE -- --config FILE [nrlevy flags...]

Runs ``nrlevy.cli.main`` on the flags after ``--`` and writes STATS, a JSON
object with the monotonic times at which the experiment runner was entered
and ``report.json`` was written, the process's peak RSS and the interpreter
and library versions.  TRACE is ``-`` for an untraced run; otherwise the run
records spans (see tracing.py) and writes them to TRACE at exit.
The exit code is the CLI's.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import nrlevy.cli as cli  # noqa: E402  (needs the source path above)


def main() -> int:
    stats_path, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py STATS TRACE -- [nrlevy flags...]")
    recorder = None
    if trace_path != "-":
        sys.path.insert(0, str(HERE))
        import tracing

        recorder = tracing.Recorder(run_id=Path(trace_path).parent.name)
        tracing.install(recorder)

    marks = {}
    runners = cli._RUNNERS
    for key, fn in runners.items():
        def entered(cfg, _fn=fn):
            marks["runner"] = time.monotonic()
            return _fn(cfg)
        runners[key] = entered
    write_report = cli.write_report

    def written(report, out_dir):
        path = write_report(report, out_dir)
        marks["written"] = time.monotonic()
        return path
    cli.write_report = written

    code = cli.main(argv)
    import numpy
    import scipy

    stats = {
        **marks,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    Path(stats_path).write_text(json.dumps(stats))
    if recorder is not None:
        recorder.dump(Path(trace_path))
    return code


if __name__ == "__main__":
    sys.exit(main())
