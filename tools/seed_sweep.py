#!/usr/bin/env python3
"""One scenario command over many seeds: the measured operations each answers.

``python tools/seed_sweep.py "chord --nodes 150 --churn" --seeds 20 [--ref REF]``

Runs ``python -m repro.apps.scenarios <command> --seed i --min-success 0``
for ``i`` in ``0 .. N-1`` on this working tree and, with ``--ref``, on commit
``REF`` unpacked with ``git archive`` (as ``tools/ab.py`` unpacks it).  Prints
each seed's ``measured <op>s: X/Y`` line per tree, then the totals, then the
medians over the seeds of each run's ``<op> latency: ... p50=Nms p95=Nms``,
of its ``maintenance: X RPCs per node per second`` (the overlay's upkeep)
for a command whose runs print one, and of the bytes on its ``network: ...
N bytes`` line.  A churn-sensitive change is
judged on the totals and the medians: one seed's figures move by chance
whenever an event order does.

Exit code 1 when a run fails (an ``error:`` line, a handler error, a
traceback), 0 otherwise.  Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab import export_ref  # noqa: E402

_REPO = Path(__file__).resolve().parent.parent

#: what the scenarios CLI prints about its measured operations
MEASURED = re.compile(r"^measured \w+: (\d+)/(\d+) correct", re.MULTILINE)
LATENCY = re.compile(r"^\w+ latency: .*\bp50=(\d+)ms p95=(\d+)ms", re.MULTILINE)
MAINTENANCE = re.compile(r"^maintenance: ([\d.]+) RPCs per node per second", re.MULTILINE)
NETWORK = re.compile(r"^network: .* (\d+) bytes$", re.MULTILINE)


def parse(stdout: str) -> Optional[tuple]:
    """``(correct, issued, p50_ms, p95_ms, maintenance, bytes)`` of one
    report — ``maintenance`` in RPCs per node per second, None for a scenario
    that prints none, and ``bytes`` the network's, None without its line —,
    or None if a measured or latency line is missing."""
    found = MEASURED.search(stdout)
    latency = LATENCY.search(stdout)
    if found is None or latency is None:
        return None
    upkeep = MAINTENANCE.search(stdout)
    network = NETWORK.search(stdout)
    return (int(found.group(1)), int(found.group(2)),
            int(latency.group(1)), int(latency.group(2)),
            None if upkeep is None else float(upkeep.group(1)),
            None if network is None else int(network.group(1)))


def measured(tree: Path, command: str, seed: int) -> tuple:
    """What :func:`parse` reads from one run of ``command`` in ``tree``."""
    environment = dict(os.environ, PYTHONPATH=str(tree / "src"),
                       PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "repro.apps.scenarios", *shlex.split(command),
         "--seed", str(seed), "--min-success", "0"],
        cwd=tree, env=environment, capture_output=True, text=True)
    found = parse(done.stdout)
    if done.returncode != 0 or found is None:
        raise SystemExit(f"{tree}: {command} --seed {seed} exited "
                         f"{done.returncode}\n{done.stdout}{done.stderr}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", help='a scenarios command line, quoted: '
                                        '"chord --nodes 150 --churn"')
    parser.add_argument("--seeds", type=int, default=20,
                        help="run seeds 0 .. N-1 (default 20)")
    parser.add_argument("--ref", help="also run this commit, side by side")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="seed-sweep-") as scratch:
        trees = {"working tree": _REPO}
        if args.ref is not None:
            trees[args.ref] = Path(scratch)
            export_ref(args.ref, trees[args.ref])
        print(f"{args.command}, seeds 0..{args.seeds - 1}: measured correct/issued "
              f"per seed ({' | '.join(trees)})", flush=True)
        totals = {name: [0, 0] for name in trees}
        p50s = {name: [] for name in trees}
        p95s = {name: [] for name in trees}
        upkeep = {name: [] for name in trees}
        sent = {name: [] for name in trees}
        for seed in range(args.seeds):
            cells = []
            for name, tree in trees.items():
                correct, issued, p50, p95, maintenance, size = measured(
                    tree, args.command, seed)
                totals[name][0] += correct
                totals[name][1] += issued
                p50s[name].append(p50)
                p95s[name].append(p95)
                if maintenance is not None:
                    upkeep[name].append(maintenance)
                if size is not None:
                    sent[name].append(size)
                cells.append(f"{correct}/{issued}")
            print(f"seed {seed}: {' | '.join(cells)}", flush=True)
        print("total: " + " | ".join(f"{correct}/{issued}" for correct, issued
                                     in totals.values()))
        for label, runs in (("p50", p50s), ("p95", p95s)):
            print(f"median {label}: " + " | ".join(f"{statistics.median(values):.0f}ms"
                                                  for values in runs.values()))
        if any(upkeep.values()):
            print("median maintenance: " + " | ".join(
                f"{statistics.median(values):.3f}" if values else "-"
                for values in upkeep.values()) + " RPCs per node per second")
        if any(sent.values()):
            print("median bytes: " + " | ".join(
                f"{statistics.median(values):.0f}" if values else "-"
                for values in sent.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
