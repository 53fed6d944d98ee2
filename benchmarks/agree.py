"""Do two sets of runs of the same checkout agree?

``python3 benchmarks/agree.py [--runs N] [--seed S] [--disjoint] [--workload W ...]``

Runs two sets of N invocations of ``run.py`` per workload, interleaving the
sets (A1 B1 A2 B2 ...) so that slow drift of the host hits both alike.  Set A
uses seeds S .. S+N-1.  Set B uses the same seeds — then every simulated
metric must agree exactly, pair by pair — or, with ``--disjoint``, the next N
seeds, which is the harder question of whether medians over different
inputs agree.  For each end-to-end metric it prints both medians, both
quartile spreads (distance between first and third quartile as a share of
the median), how much worse the second median is, and the bound from
``BENCHMARK.json``.  Exit code 1 when a second median is worse than the
first by more than the bound, when a spread other than ``setup_s``'s exceeds
the bound, or when same-seed simulated metrics differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from estimate import quartile_spread  # noqa: E402

#: exact per seed: a speed-up of the simulator must leave them unchanged
SIMULATED = ("ok_rate", "events_per_ok_op", "sim_op_p50_ms", "sim_op_tail_ms")


def invoke(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=4, help="invocations per set (>= 2)")
    parser.add_argument("--seed", type=int, default=0, help="first seed of set A")
    parser.add_argument("--disjoint", action="store_true",
                        help="set B uses the next N seeds instead of the same ones")
    parser.add_argument("--workload", action="append", choices=names,
                        help="restrict to these workloads (default: all)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")

    shift = args.runs if args.disjoint else 0
    disagreements = 0
    for workload in args.workload or names:
        sets = {"A": [], "B": []}
        for index in range(args.runs):
            for label, seed in (("A", args.seed + index), ("B", args.seed + shift + index)):
                sets[label].append(invoke(workload, seed, contract["run_seconds"]))
                print(f"# {workload} set {label} seed {seed} done", file=sys.stderr)
        print(f"\n{workload}  ({args.runs} runs per set, "
              f"{'disjoint' if args.disjoint else 'same'} seeds from {args.seed})")
        print(f"{'metric':18s} {'median A':>14s} {'median B':>14s} {'spread A':>9s} "
              f"{'spread B':>9s} {'B worse by':>10s} {'bound':>6s}")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
            spreads = (quartile_spread(a), quartile_spread(b))
            problems = []
            if worse > bound:
                problems.append("medians disagree")
            if name != "setup_s" and max(spreads) > bound:
                problems.append("spread exceeds bound")
            if not args.disjoint and name in SIMULATED and a != b:
                problems.append("simulated metric differs for the same seed")
            disagreements += len(problems)
            print(f"{name:18s} {statistics.median(a):14.6g} {statistics.median(b):14.6g} "
                  f"{spreads[0]:9.4f} {spreads[1]:9.4f} {worse:+10.4f} {bound:6.3f}"
                  f"{'  <-- ' + ', '.join(problems) if problems else ''}")
    print(f"\n{'DISAGREE' if disagreements else 'agree'}: {disagreements} problem(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
