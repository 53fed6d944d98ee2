#!/usr/bin/env python3
"""Which lines of ``src/repro`` no run reaches: a stdlib line tracer.

``python tools/linecov.py [--check]``

Runs, in this one interpreter under ``sys.settrace``:

* the 20 small rows of ``tools/digest_matrix.py`` (every workload at
  ``--nodes 40 --seed 3`` under its five execution settings);
* four runs that set every observation flag (``--profile --cdf --trace-out
  --metrics-out --gc-policy off --log-level DEBUG``) on the ``mixed`` and
  ``cluster`` testbeds, writing their files to a temporary directory;
* one small repetition of each benchmark workload
  (``benchmarks/inputs.make_inputs(workload, 0, small=True)``, driven by
  ``benchmarks/child.run``; ``benchmarks/`` is imported, never written).

It then prints, per file, the executable lines (the line numbers of the
file's compiled code objects) that none of these runs reached, as ranges
with no reached line between their ends, and the total outside
``analysis/`` (the linter, which CI runs on its own).  ``--check`` exits 1
when that total exceeds ``tools/linecov_ceiling.json``.  Executable-line
sets differ between interpreter versions, so running ``--check`` under
another minor version than the ceiling's is an error (exit 2), not a pass.
About 2.5 minutes on a 2-core x86-64 box.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
_PACKAGE = _SRC / "repro"
_CEILING = Path(__file__).resolve().with_name("linecov_ceiling.json")

#: one run per workload with every observation flag, alternating the two
#: testbeds that no digest-matrix row builds
OBSERVED = ("chord mixed", "pastry cluster", "gossip mixed", "dissemination cluster")
BENCHMARK_WORKLOADS = ("chord_steady", "pastry_churn_planetlab",
                       "dissemination_swarm", "deploy_churn_idle")


def executable_lines(path: Path) -> set:
    """Line numbers that the compiled code objects of ``path`` carry."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


class LineTracer:
    """Records the lines executed in the files it is given, and nowhere else."""

    def __init__(self, files):
        #: co_filename -> the line numbers reached in it
        self.reached = {str(path): set() for path in files}

    def _call(self, frame, _event, _arg):
        hits = self.reached.get(frame.f_code.co_filename)
        if hits is None:
            return None  # no line events for frames outside the files
        add = hits.add

        def _line(frame, event, _arg):
            if event == "line":
                add(frame.f_lineno)
            return _line
        return _line

    @contextlib.contextmanager
    def tracing(self):
        previous = sys.gettrace()
        sys.settrace(self._call)
        try:
            yield self
        finally:
            sys.settrace(previous)


def ranges(lines: list, executable: list) -> str:
    """``lines`` as ``a-b`` runs with no other executable line between."""
    missing = set(lines)
    runs, start, last = [], None, None
    for line in executable:
        if line in missing:
            start = line if start is None else start
            last = line
        elif start is not None:
            runs.append(f"{start}" if start == last else f"{start}-{last}")
            start = None
    if start is not None:
        runs.append(f"{start}" if start == last else f"{start}-{last}")
    return ", ".join(runs)


def scenario(argv: list) -> None:
    """One ``python -m repro.apps.scenarios`` command line, in process."""
    from repro.apps import scenarios

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as errors:
        code = scenarios.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exited {code}\n{errors.getvalue()}")


class _UntimedClock:
    """The slice clock ``benchmarks/child.run`` expects, timing nothing."""

    mark = excluded = 0.0

    def __init__(self):
        self.durations, self.calibrations = [], []

    def close_slice(self) -> None:
        pass


def run_everything(progress) -> None:
    """Every run the tool traces (the module docstring lists them)."""
    sys.path[:0] = [str(_REPO / "tools"), str(_REPO / "benchmarks")]
    import child
    import digest_matrix
    import inputs

    small_rows = [config for config in digest_matrix.configurations()
                  if config not in digest_matrix.SCALE]
    for config in small_rows:
        progress(config)
        scenario(config.split())
    with tempfile.TemporaryDirectory() as scratch:
        for pair in OBSERVED:
            workload, testbed = pair.split()
            out = Path(scratch, workload)
            argv = [workload, "--nodes", "40", "--seed", "3", "--min-success", "0",
                    "--churn", "--testbed", testbed, "--profile", "--cdf",
                    f"{out}.csv", "--trace-out", f"{out}.json", "--metrics-out",
                    f"{out}-metrics.json", "--gc-policy", "off", "--log-level", "DEBUG"]
            progress(" ".join(argv))
            scenario(argv)
    for workload in BENCHMARK_WORKLOADS:
        progress(f"benchmark {workload} (small, seed 0)")
        child.run(inputs.make_inputs(workload, 0, small=True), _UntimedClock(), None)


def report(tracer: LineTracer) -> int:
    """Print the unreached lines per file; returns the total outside analysis/."""
    total = executable_total = 0
    for name in sorted(tracer.reached):
        path = Path(name)
        executable = sorted(executable_lines(path))
        missing = [line for line in executable if line not in tracer.reached[name]]
        relative = path.relative_to(_PACKAGE).as_posix()
        if not relative.startswith("analysis/"):
            total += len(missing)
            executable_total += len(executable)
        if missing:
            print(f"{relative}: {len(missing)} / {len(executable)}: "
                  f"{ranges(missing, executable)}")
    print(f"unreached outside analysis/: {total} of {executable_total} executable lines")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 when the total exceeds {_CEILING.name}")
    args = parser.parse_args(argv)
    ceiling = json.loads(_CEILING.read_text())
    running = f"{sys.version_info.major}.{sys.version_info.minor}"
    if args.check and running != ceiling["python"]:
        print(f"error: the ceiling was recorded under Python {ceiling['python']}, "
              f"this is {running}; executable lines differ between versions")
        return 2

    os.chdir(_REPO)  # the matrix rows name repository-relative files
    sys.dont_write_bytecode = True  # leave benchmarks/ as it is
    sys.path.insert(0, str(_SRC))
    tracer = LineTracer(sorted(_PACKAGE.rglob("*.py")))
    with tracer.tracing():
        run_everything(lambda what: print(f"# {what}", file=sys.stderr, flush=True))
    total = report(tracer)
    if not args.check:
        return 0
    limit = ceiling["unreached_outside_analysis"]
    print(f"ceiling {limit}: {'OVER' if total > limit else 'ok'}")
    return 1 if total > limit else 0


if __name__ == "__main__":
    sys.exit(main())
