#!/usr/bin/env python3
"""Fail if a benchmark workload does more profiled calls than its ceiling.

Wall-clock gates need a tolerance as wide as the machines they run on; the
profiled per-layer *call counters* of a traced benchmark run are a pure
function of ``(workload, seed, interpreter version)``, so they are gated
with zero tolerance (the ten message-path layers on ``chord_steady`` are
the per-RPC frame budget).  For every workload in ``work_counter_ceilings.json``
this runs::

    python3 benchmarks/run.py --workload W --seed SEED --seconds 15 --trace 1

adds up the named counters of each of the workload's gates from the JSON line
it prints last, and exits non-zero when a sum exceeds its committed ceiling.  A sum *below* the
ceiling passes and is reported, so the ceiling can be lowered to it.  The
counters depend on the interpreter's minor version (3.12 inlines list
comprehensions, so it counts fewer calls): running under another version
than the one the ceilings were recorded with is an error, not a pass.

Usage: ``python tools/check_work_counters.py [WORKLOAD ...]`` (no names:
every workload of the file).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_CEILINGS = Path(__file__).resolve().with_name("work_counter_ceilings.json")


def over_ceiling(metrics: dict, counters: list, ceiling: int) -> tuple:
    """``(sum of the named counters, True when it exceeds the ceiling)``."""
    total = sum(int(metrics[name]["value"]) for name in counters)
    return total, total > ceiling


def traced_metrics(workload: str, seed: int) -> dict:
    """Metrics of one traced benchmark invocation (its last stdout line)."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "15", "--trace", "1"],
        cwd=_REPO, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: benchmarks/run.py exited "
                         f"{done.returncode}\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    spec = json.loads(_CEILINGS.read_text())
    parser = argparse.ArgumentParser(
        description="Fail if a traced benchmark run exceeds its committed call ceilings.")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="re-derive only these workloads' gates (default: all "
                             f"of {', '.join(spec['workloads'])})")
    args = parser.parse_args(argv)
    unknown = [name for name in args.workloads if name not in spec["workloads"]]
    if unknown:
        parser.error(f"no gate for workload {', '.join(unknown)}")
    running = f"{sys.version_info.major}.{sys.version_info.minor}"
    if running != spec["python"]:
        print(f"error: ceilings were recorded under Python {spec['python']}, "
              f"this is {running}; call counts differ between versions")
        return 2
    failed = False
    for workload in args.workloads or spec["workloads"]:
        gates = spec["workloads"][workload]
        metrics = traced_metrics(workload, spec["seed"])  # one run, every gate
        for gate in gates:
            total, over = over_ceiling(metrics, gate["counters"], gate["ceiling"])
            verdict = "OVER" if over else "ok" if total == gate["ceiling"] else "ok, below"
            print(f"{workload}: {' + '.join(gate['counters'])} = {total} "
                  f"(ceiling {gate['ceiling']}) {verdict}")
            failed = failed or over
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
