#!/usr/bin/env python3
"""Seed-paired A/B of the working tree against another commit, through the benchmark.

``python tools/ab.py REF [--workloads W ...] [--pairs N]``

The protocol every performance statement in CHANGES.md uses, as one command:

* two trees without ``__pycache__``: ``git archive REF`` unpacked into a
  temporary directory (the *parent*), and a copy of this working tree's
  tracked and unignored files (the *change*, committed or not);
* the unmodified ``benchmarks/run.py --seconds S --trace 0`` of each tree,
  ``S`` being ``run_seconds`` of ``BENCHMARK.json``;
* pair *i* is ``--seed i`` on both trees, one after the other, the order
  alternating from pair to pair so that slow drift of the host hits both
  sides alike;
* per workload and end-to-end metric: median [q1, q3] of both sides, the
  change of the median, wins / pairs (a tie counts for neither), and a
  verdict against the ``bound`` of ``BENCHMARK.json`` — ``worse``,
  ``not worse``, or ``unresolved`` when the parent's own interquartile range
  exceeds the bound (unless every run of the change beats every run of the
  parent);
* the simulated metrics, ``attempted`` and ``failed`` are pure functions of
  the seed: ``equal`` when they are exactly equal per seed, as a change that
  only moves host time must leave them.  A change that moves them on
  purpose gets ``DIFFERS, better``, ``DIFFERS, not worse`` or ``worse``:
  the simulated metrics by their median against their bound (the runs are
  exact, so there is no spread to be unresolved by), ``attempted`` and
  ``failed`` by their totals, where one failure more is worse;
* every run made is listed, ``seed:parent/change``.

The output is the block to paste into CHANGES.md.  Exit code 1 when a metric
is ``worse``, 0 otherwise (``unresolved`` and ``DIFFERS, ...`` are reported,
not failed).  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent

#: pure functions of (workload, seed): a change that only moves host time
#: must leave them exactly equal, pair by pair
SIMULATED = ("ok_rate", "events_per_ok_op", "sim_op_p50_ms", "sim_op_tail_ms",
             "attempted", "failed")
#: the operation counts among them, judged by their totals
COUNTS = ("attempted", "failed")


# ------------------------------------------------------------------ the trees
def export_ref(ref: str, target: Path) -> None:
    """Unpack commit ``ref`` of this repository into ``target``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             cwd=_REPO, stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout,
                   check=True)


def copy_working_tree(target: Path) -> None:
    """Copy the tracked and unignored files of this working tree to ``target``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=_REPO, stdout=subprocess.PIPE, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = _REPO / name
        if source.is_file():  # listed but deleted in the working tree: skip
            destination = target / name
            destination.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, destination)


def parse_result(stdout: str) -> dict:
    """``{metric: value}`` (+ ``attempted`` / ``failed``) from run.py's output."""
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["attempted"] = result["attempted"]
    values["failed"] = result["failed"]
    return values


def invoke(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One unmodified benchmark invocation of ``tree``."""
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=environment, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed}: run.py exited "
                         f"{done.returncode}\n{done.stdout}{done.stderr}")
    return parse_result(done.stdout)


# ---------------------------------------------------------------- the verdict
def quartiles(values: list) -> tuple:
    """``(q1, median, q3)`` — a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def compare(metric: dict, parent: list, change: list) -> dict:
    """One row of the table: both sides' runs of one end-to-end metric."""
    lower_is_better = metric["better"] == "lower"
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    moved = (c_median - p_median) / p_median if p_median else 0.0
    worse_by = moved if lower_is_better else -moved
    wins = sum((c < p) if lower_is_better else (c > p)
               for p, c in zip(parent, change))
    spread = (p3 - p1) / p_median if p_median else 0.0
    if metric["name"] in SIMULATED:
        if metric["name"] in COUNTS:
            moved_total = sum(change) - sum(parent)
            worse_by = moved_total if lower_is_better else -moved_total
        if parent == change:
            verdict = "equal"
        elif worse_by > metric["bound"]:
            verdict = "worse"
        else:
            verdict = "DIFFERS, better" if worse_by < 0 else "DIFFERS, not worse"
    elif spread > metric["bound"]:
        every_run_better = (max(change) < min(parent) if lower_is_better
                            else min(change) > max(parent))
        verdict = "not worse" if every_run_better else "unresolved"
    else:
        verdict = "worse" if worse_by > metric["bound"] else "not worse"
    return {"name": metric["name"], "parent": (p_median, p1, p3),
            "change": (c_median, c1, c3), "moved": moved, "wins": wins,
            "pairs": len(parent), "bound": metric["bound"], "spread": spread,
            "verdict": verdict}


def report(workload: str, metrics: list, parent_runs: list, change_runs: list,
           seeds: list) -> tuple:
    """``(lines, failed)`` for one workload's pairs."""
    def spelled(triple: tuple) -> str:
        return f"{triple[0]:.4g} [{triple[1]:.4g}, {triple[2]:.4g}]"

    lines = [f"{workload} ({len(seeds)} pairs, seeds "
             f"{', '.join(map(str, seeds))}):"]
    failed = False
    counts = ({"name": name, "better": better, "bound": 0.0}
              for name, better in zip(COUNTS, ("higher", "lower")))
    for metric in list(metrics) + list(counts):
        name = metric["name"]
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        row = compare(metric, parent, change)
        failed = failed or row["verdict"] == "worse"
        if row["verdict"] == "equal":
            lines.append(f"  {name}: exactly equal per seed on "
                         f"{row['pairs']}/{row['pairs']} pairs")
            continue
        lines.append(
            f"  {name}: {spelled(row['parent'])} -> {spelled(row['change'])} "
            f"({100 * row['moved']:+.1f} %, {row['wins']}/{row['pairs']} better, "
            f"bound {100 * row['bound']:.0f} %, parent IQR "
            f"{100 * row['spread']:.1f} %): {row['verdict']}")
        lines.append("    " + " ".join(f"{seed}:{p:.4g}/{c:.4g}" for seed, p, c
                                       in zip(seeds, parent, change)))
    return lines, failed


# ----------------------------------------------------------------------- main
def main(argv=None) -> int:
    contract = json.loads((_REPO / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", metavar="REF", help="the parent commit")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names,
                        help="restrict to these workloads (default: all)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="seed-paired runs per workload (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    seconds = contract["run_seconds"]
    seeds = list(range(args.pairs))
    failed = False
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {"parent": Path(scratch) / "parent",
                 "change": Path(scratch) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_ref(args.ref, trees["parent"])
        copy_working_tree(trees["change"])
        print(f"A/B against {args.ref}: benchmarks/run.py --seconds {seconds} "
              f"--trace 0, pair i = --seed i on both trees, order alternating, "
              f"no __pycache__; median [q1, q3]; runs as seed:parent/change.")
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(invoke(trees[side], workload, seed, seconds))
                    print(f"# {workload} seed {seed} {side} done", file=sys.stderr)
            lines, workload_failed = report(workload, contract["end_to_end"],
                                            runs["parent"], runs["change"], seeds)
            print("\n".join(lines), flush=True)
            failed = failed or workload_failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
