#!/usr/bin/env python3
"""What one joined overlay node costs in traced Python memory.

``python tools/node_footprint.py APP [--nodes N] [--until T]``

Runs the per-node memory method of ROADMAP item 16 on workload ``APP``
(``chord``, ``pastry``, ``gossip`` or ``dissemination``, with the scenario
CLI's default parameters): start ``tracemalloc``, deploy ``N`` nodes
(default 1,000) with ``harness.deploy(APP, ..., seed=0, gc_policy="off")``,
run to ``T`` simulated seconds (default 1,000, when every node of a 1k
deployment has joined under the default join window), call
``gc.collect()``, then print the traced bytes divided by the joined nodes
and the ten source lines that hold the most, per joined node.

Traced bytes include what does not grow with the nodes (the topology's
delay rows, the interpreter's own tables), so compare figures at one ``N``.
Exit code 1 when no node has joined by ``T``, 0 otherwise.  Stdlib only,
no ``PYTHONPATH`` needed; 1,000 Chord nodes take about half a minute on a
2-core x86-64 box.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))

from repro.apps import harness, registry  # noqa: E402

#: source lines listed after the total
TOP_LINES = 10


def _where(filename: str) -> str:
    """A traced file as the repo names it, or its bare name outside it."""
    path = Path(filename)
    try:
        return str(path.relative_to(_REPO))
    except ValueError:
        return path.name


def measure(app: str, nodes: int, until: float) -> dict:
    """Deploy ``app``, run to ``until`` and return what is traced then."""
    scenario = registry.get_spec(app)(harness.RunConfig(nodes=nodes, seed=0))
    factory, options = scenario.app()
    tracemalloc.start()
    try:
        deployment = harness.deploy(app, factory, nodes=nodes, seed=0,
                                    gc_policy="off", options=options)
        deployment.sim.run(until=until)
        gc.collect()
        traced, _peak = tracemalloc.get_traced_memory()
        lines = tracemalloc.take_snapshot().statistics("lineno")[:TOP_LINES]
    finally:
        tracemalloc.stop()
    return {"traced": traced,
            "joined": len(harness.joined_apps(deployment.job)),
            "lines": [(_where(stat.traceback[0].filename), stat.traceback[0].lineno,
                       stat.size) for stat in lines]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("app", choices=registry.scenario_names())
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--until", type=float, default=1000.0,
                        help="simulated seconds to run before measuring")
    args = parser.parse_args(argv)
    if args.nodes < 1 or args.until < 0:
        parser.error("--nodes must be at least 1 and --until not negative")
    result = measure(args.app, args.nodes, args.until)
    joined = result["joined"]
    print(f"{args.app}: {args.nodes} nodes, {joined} joined at t = {args.until:g} s; "
          f"{result['traced']:,} traced bytes after gc.collect()")
    if not joined:
        print("no node joined: no per-node figure")
        return 1
    per_node = result["traced"] / joined
    print(f"per joined node: {per_node:,.0f} B ({per_node / 1024:.2f} KiB)")
    print("largest lines, bytes per joined node:")
    for where, lineno, size in result["lines"]:
        print(f"  {size / joined:9,.0f}  {where}:{lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
