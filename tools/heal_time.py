#!/usr/bin/env python3
"""How long an overlay takes to heal its neighbour pointers after a crash burst.

``python tools/heal_time.py pastry --crash 10% --at 600 --seeds 5 [--ref REF]``

Deploys ``pastry`` or ``chord`` as the benchmark's quiet ``chord_steady``
workload is set up (150 nodes with 32-bit identifiers on 75 transit-stub
hosts, joins spread over 120 s), crashes ``--crash`` of the nodes at
``--at`` seconds, and reads the overlay's neighbour oracle every 0.25 s
between ``sim.run`` slices, so no simulation event is added:
``harness.consistency`` (Chord: successor and predecessor right; Pastry:
the nearest leaf on each side right), or in a ``--ref`` tree that predates
it, ``chord.ring_consistency`` / ``pastry.leaf_consistency``.  Prints each
seed's seconds from the crash until the oracle first reads >= 0.99 and
1.0, then the medians.  With ``--ref`` the same runs are made on commit
``REF`` unpacked with ``git archive`` (as ``tools/seed_sweep.py`` does) and
printed side by side.  A seed that has not healed 120 s after the crash
reads ``never``.

Exit code 1 when a run fails, 0 otherwise.  Stdlib only; a 150-node seed
takes a few seconds per tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab import export_ref  # noqa: E402

_REPO = Path(__file__).resolve().parent.parent

#: the oracle is read this often after the crash, and for this long
SAMPLE_S = 0.25
HORIZON_S = 120.0
THRESHOLDS = (0.99, 1.0)

#: one run, executed by the interpreter of the tree under test (its ``src``
#: first on the path); prints ``{threshold: seconds}`` as JSON
CHILD = """
import json, sys
from repro.apps import harness
workload, nodes, crash, at, seed, sample, horizon, thresholds = json.loads(sys.argv[1])
if workload == "pastry":
    from repro.apps.pastry import pastry_factory as factory
    options = {"bits": 32, "base_bits": 4}
else:
    from repro.apps.chord import chord_factory as factory
    options = {"bits": 32}
try:
    from repro.apps.harness import consistency as oracle
except ImportError:  # a tree from before the one oracle
    if workload == "pastry":
        from repro.apps.pastry import leaf_consistency as oracle
    else:
        from repro.apps.chord import ring_consistency as oracle
deployment = harness.deploy(
    workload, factory(), nodes=nodes, hosts=max(1, nodes // 2), seed=seed,
    testbed="transit-stub", options=options, join_window=120.0,
    churn_script=f"at {at:g}s crash {crash}\\n")
sim, job = deployment.sim, deployment.job
sim.run(until=at)
reached = {}
for step in range(1, round(horizon / sample) + 1):
    sim.run(until=at + step * sample)
    value = oracle(job)
    for threshold in thresholds:
        if value >= threshold:
            reached.setdefault(str(threshold), step * sample)
    if len(reached) == len(thresholds):
        break
if job.live_count == nodes:
    raise SystemExit(f"no node crashed at {at:g}s")
print(json.dumps(reached))
"""


def heal_times(tree: Path, workload: str, nodes: int, crash: str, at: float,
               seed: int) -> list:
    """Seconds from the crash to each of :data:`THRESHOLDS` (``inf``: never)."""
    environment = dict(os.environ, PYTHONPATH=str(tree / "src"),
                       PYTHONDONTWRITEBYTECODE="1")
    arguments = [workload, nodes, crash, at, seed, SAMPLE_S, HORIZON_S, THRESHOLDS]
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(arguments)],
                          cwd=tree, env=environment, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: {workload} --seed {seed} exited "
                         f"{done.returncode}\n{done.stdout}{done.stderr}")
    reached = json.loads(done.stdout.strip().splitlines()[-1])
    return [reached.get(str(threshold), math.inf) for threshold in THRESHOLDS]


def spelled(times: list) -> str:
    return " / ".join("never" if math.isinf(t) else f"{t:g}" for t in times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("pastry", "chord"))
    parser.add_argument("--crash", default="10%",
                        help="what the churn script crashes: a count or a share (default 10%%)")
    parser.add_argument("--at", type=float, default=600.0,
                        help="when, in seconds after the job starts (default 600)")
    parser.add_argument("--seeds", type=int, default=5,
                        help="run seeds 0 .. N-1 (default 5)")
    parser.add_argument("--nodes", type=int, default=150,
                        help="overlay size (default 150, on half as many hosts)")
    parser.add_argument("--ref", help="also run this commit, side by side")
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.nodes < 2:
        parser.error("--seeds must be at least 1 and --nodes at least 2")
    if args.at <= 120.0:
        parser.error("--at must fall after the 120 s join window")

    with tempfile.TemporaryDirectory(prefix="heal-time-") as scratch:
        trees = {"working tree": _REPO}
        if args.ref is not None:
            trees[args.ref] = Path(scratch)
            export_ref(args.ref, trees[args.ref])
        print(f"{args.workload}: {args.nodes} nodes, crash {args.crash} at {args.at:g} s; "
              f"seconds until consistency >= 0.99 / = 1.0 ({' | '.join(trees)})", flush=True)
        runs = {name: [] for name in trees}
        for seed in range(args.seeds):
            for name, tree in trees.items():
                runs[name].append(heal_times(tree, args.workload, args.nodes,
                                             args.crash, args.at, seed))
            print(f"seed {seed}: " + " | ".join(spelled(times[-1])
                                                for times in runs.values()), flush=True)
        print("median: " + " | ".join(
            spelled([statistics.median(column) for column in zip(*times)])
            for times in runs.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
