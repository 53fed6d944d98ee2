"""The benchmark's one command.

``python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1``

Runs one workload for one seed, prints every metric by name with its unit,
checks that the run is a valid measurement, and prints as the last line of
stdout one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one extra repetition runs under the profiler and the metrics are the
per-layer ones.  An invalid run prints why on stderr and exits non-zero
without a result line.

The work of a run is fixed by ``(workload, seed)`` so that every simulated
counter is exact; ``--seconds`` is the host time the repetitions were
calibrated to take on the reference box (README), not a stopping rule.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT_DIR, "src")
sys.path[:0] = [SRC_DIR, BENCH_DIR]

from child import EXIT_INVALID, Invalid  # noqa: E402
from estimate import host_slowdown, repetition_spread, slice_minima  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402
from layers import LAYERS  # noqa: E402

REPETITIONS = 3
#: when the repetitions' totals spread wider than this, repeat some more
SPREAD_LIMIT = 0.06
EXTRA_REPETITIONS = 2
#: the whole invocation must end within the contract's 180 s
DEADLINE_S = 170.0

EXIT_USAGE = 2

#: name -> unit; the simulated ones are exact per seed
END_TO_END = {
    "setup_s": "s",
    "op_host_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "events_per_ok_op": "count",
    "sim_op_p50_ms": "sim_ms",
    "sim_op_tail_ms": "sim_ms",
}

#: per-layer metrics that do not come from the profiler (name -> unit); the
#: counters are read by ``child.layer_counters``
UNTRACED_LAYER_METRICS = {
    "phase.import_ms": "ms", "phase.deploy_ms": "ms",
    "phase.converge_ms": "ms", "phase.measured_ms": "ms",
    "sim.kernel.events": "count", "sim.kernel.cancelled": "count",
    "sim.kernel.recycled": "count",
    "net.network.msgs_sent": "count", "net.network.msgs_dropped": "count",
    "net.network.bytes_sent": "bytes", "net.network.msgs_per_ok_op": "count",
    "net.bandwidth.reallocations": "count", "net.bandwidth.flows_allocated": "count",
    "net.bandwidth.transfers_completed": "count",
    "lib.rpc.calls_sent": "count", "lib.rpc.retries": "count",
    "lib.rpc.timeouts": "count", "lib.rpc.first_try_ratio": "ratio",
    "runtime.instances_started": "count", "runtime.instances_killed": "count",
    "runtime.batches_sent": "count", "runtime.commands_sent": "count",
    "core.churn.actions_applied": "count",
    "lib.logging.records": "count", "lib.logging.dropped": "count",
    "fail.routing": "count", "fail.rpc_timeout": "count",
    "fail.origin_died": "count", "fail.wrong_owner": "count",
    "bench.rep_spread": "ratio", "bench.slice_min_gain": "ratio",
    "bench.host_slowdown": "ratio", "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    units.update(UNTRACED_LAYER_METRICS)
    return units


def git_sha() -> str:
    try:
        with open(os.path.join(ROOT_DIR, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT_DIR, ".git", head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        return head[:12]
    except OSError:
        return "unknown"  # not a git checkout (or packed refs)


def run_child(inputs: dict, deadline: float, profile: bool = False) -> dict:
    """One repetition in a fresh interpreter; returns its result dict."""
    command = [sys.executable, os.path.join(BENCH_DIR, "child.py")]
    if profile:
        command.append("--profile")
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise Invalid("out of time before the next repetition could start")
    # slice 0 starts now; the child reads the same CLOCK_MONOTONIC
    payload = json.dumps({**inputs, "spawned_at": time.perf_counter()})
    try:
        done = subprocess.run(command, input=payload, stdout=subprocess.PIPE,
                              text=True, timeout=remaining,
                              env={**os.environ, "PYTHONHASHSEED": "0"})
    except subprocess.TimeoutExpired:
        raise Invalid(f"a repetition did not finish within {remaining:.0f}s") from None
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "invalid" in result:
        raise Invalid(result["invalid"])
    if done.returncode != 0:
        raise Invalid(f"repetition exited with code {done.returncode}")
    # state every host time of this repetition at the reference speed
    result["slowdown"] = slowdown = host_slowdown(result["calibrations"])
    result["durations"] = [duration / slowdown for duration in result["durations"]]
    result["import_s"] /= slowdown
    return result


def totals(repetitions: list) -> list:
    """Each repetition's host seconds (at the reference speed)."""
    return [sum(r["durations"]) for r in repetitions]


def measure(inputs: dict, deadline: float) -> list:
    """The untraced repetitions, strictly one after another."""
    repetitions = []
    while True:
        repetitions.append(run_child(inputs, deadline))
        first, last = repetitions[0], repetitions[-1]
        if last["slice_events"] != first["slice_events"]:
            raise Invalid("per-slice event counts differ between repetitions")
        if last["sim"] != first["sim"]:
            raise Invalid("simulated results differ between repetitions")
        if len(repetitions) < REPETITIONS:
            continue
        if (repetition_spread(totals(repetitions)) <= SPREAD_LIMIT
                or len(repetitions) == REPETITIONS + EXTRA_REPETITIONS):
            return repetitions


def phase_seconds(repetitions: list) -> tuple:
    """``(slice 0, rest of set-up, measured phase)`` as sums of slice minima."""
    setup_slices = repetitions[0]["setup_slices"]
    minima = slice_minima([r["durations"] for r in repetitions])
    return minima[0], sum(minima[1:setup_slices]), sum(minima[setup_slices:])


def end_to_end(repetitions: list) -> dict:
    sim = repetitions[0]["sim"]
    start_s, converge_s, measured_s = phase_seconds(repetitions)
    ok = sim["ok"]
    return {
        "setup_s": start_s + converge_s,
        "op_host_ms": 1000.0 * measured_s / ok,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repetitions),
        "ok_rate": ok / sim["attempted"],
        "events_per_ok_op": sim["counters"]["sim.kernel.events"] / ok,
        "sim_op_p50_ms": sim["p50_ms"],
        "sim_op_tail_ms": sim["tail_ms"],
    }


def per_layer(repetitions: list, traced: dict) -> dict:
    sim = repetitions[0]["sim"]
    start_s, converge_s, measured_s = phase_seconds(repetitions)
    best = min(totals(repetitions))
    metrics = dict(sim["counters"])
    for layer, row in traced["layers"].items():
        metrics[f"{layer}.self_ms"] = row["self_ms"] / traced["slowdown"]
        metrics[f"{layer}.calls"] = row["calls"]
    metrics.update({
        "phase.import_ms": 1000.0 * min(r["import_s"] for r in repetitions),
        "phase.deploy_ms": 1000.0 * min(r["durations"][0] - r["import_s"]
                                        for r in repetitions),
        "phase.converge_ms": 1000.0 * converge_s,
        "phase.measured_ms": 1000.0 * measured_s,
        "net.network.msgs_per_ok_op": sim["counters"]["net.network.msgs_sent"] / sim["ok"],
        "bench.rep_spread": repetition_spread(totals(repetitions)),
        "bench.slice_min_gain": 1.0 - (start_s + converge_s + measured_s) / best,
        "bench.host_slowdown": statistics.median(r["slowdown"] for r in repetitions),
        "trace.overhead_ratio": sum(traced["durations"]) / best,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the driver; the work is fixed per seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: no program to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return EXIT_USAGE

    deadline = time.perf_counter() + DEADLINE_S
    inputs = make_inputs(args.workload, args.seed)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} git={git_sha()}")
    try:
        repetitions = measure(inputs, deadline)
        sim = repetitions[0]["sim"]
        if sim["ok"] == 0:
            raise Invalid("no operation succeeded")
        ok_rate = sim["ok"] / sim["attempted"]
        if args.workload == "chord_steady" and ok_rate < 0.99:
            raise Invalid(f"churn-free Chord answered only {ok_rate:.4f} of its lookups "
                          f"correctly (fails: "
                          f"{ {k: v for k, v in sim['counters'].items() if k.startswith('fail.')} })")
        if args.trace:
            traced = run_child(inputs, deadline, profile=True)
            if traced["sim"] != sim:
                raise Invalid("simulated results differ under the profiler")
            metrics, units = per_layer(repetitions, traced), per_layer_units()
        else:
            metrics, units = end_to_end(repetitions), END_TO_END
    except Invalid as reason:
        print(f"invalid run: {reason}", file=sys.stderr)
        return EXIT_INVALID

    host_s = totals(repetitions)
    print(f"# repetitions={len(repetitions)} host_s={[round(t, 3) for t in host_s]} "
          f"host_slowdown={[round(r['slowdown'], 3) for r in repetitions]} "
          f"rep_spread={repetition_spread(host_s):.4f} "
          f"ok={sim['ok']}/{sim['attempted']} sim_time_s={sim['sim_time_s']:g} "
          f"events={sim['counters']['sim.kernel.events']}")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]!r:>24} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sim["attempted"],
        "failed": sim["attempted"] - sim["ok"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
