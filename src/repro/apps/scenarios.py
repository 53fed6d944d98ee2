"""End-to-end experiment scenarios (``python -m repro.apps.scenarios``).

Every registered workload (Chord, Pastry, epidemic gossip, BitTorrent-style
dissemination — see :mod:`repro.apps.registry`) gets a subcommand with the
same deployment/churn/measurement plumbing: deploy through the controller
onto splayd daemons spread over the selected testbed preset (``--testbed``:
transit-stub by default, or cluster / planetlab / mixed — see
:mod:`repro.testbeds`), replay a churn script (``--churn`` /
``--churn-script``) and/or an Overnet-style availability trace
(``--churn-trace``) against the job, then measure the workload once the
system re-converges.  ``--cdf PATH`` dumps the measured latency
distribution as a ``(latency_ms, fraction)`` CSV — the shape of the paper's
Figures 7-13.

Everything is driven by one root seed: topology, placement, join staggering,
churn victim selection and the workload all draw from deterministic
substreams, so a given command line always produces the same report (and
prints the same ``report digest``).

``scenarios bench`` sweeps nodes x churn-rate (and optionally host-count)
grids for any registered workload and emits CSV + JSON rows; ``--check``
holds their deterministic columns to a committed baseline, exactly (the
wall-clock columns are information).  ``--jobs N`` spreads the grid cells
over an N-worker process pool (deterministic columns stay byte-identical
with the serial run); ``--scale`` switches to the large-deployment profile
(Chord at 1k/5k/10k nodes with fixed windows, per-cell peak RSS).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import replace
from typing import List, Optional

try:  # resource is POSIX-only; peak-RSS columns degrade to 0 elsewhere
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.apps import harness, registry
from repro.apps.harness import RunConfig
from repro.core.churn import (
    parse_availability_trace,
    parse_churn_script,
    synthetic_churn_script,
)
from repro.net.bwalloc import allocator_names
from repro.sim.gcpolicy import GC_MODES
from repro.sim.kernel import Simulator
from repro.testbeds import testbed_names


# ------------------------------------------------------------------ reporting
def _print_report(report: dict, spec: registry.ScenarioSpec) -> None:
    job = report["job"]
    measured = report["measured"]
    label = spec.ops_label
    bits = f", bits={report['bits']}" if report.get("bits") is not None else ""
    print(f"=== SPLAY scenario: {report['scenario']} "
          f"(seed={report['seed']}, nodes={report['nodes']}, "
          f"hosts={report['hosts']}{bits}, "
          f"testbed={report.get('testbed', 'transit-stub')}) ===")
    print(f"virtual time: {report['virtual_time']:.0f}s   "
          f"events: {report['events_executed']}")
    print(f"job: state={job['state']} live={job['live_instances']} "
          f"started={job['instances_started']} "
          f"churn(+{job['churn_joins']}/-{job['churn_leaves']}"
          f"/x{job['churn_crashes']}) "
          f"logs={report['log_records_collected']}")
    shards = (report.get("control_plane") or {}).get("shards") or []
    if shards:
        batches = sum(s["batches_sent"] for s in shards)
        commands = sum(s["commands_sent"] for s in shards)
        print(f"control plane: {len(shards)} shard(s), "
              f"{commands} daemon commands in {batches} batches, "
              f"logs dropped={report.get('log_records_dropped', 0)}")
    if report["churn"]:
        churn = report["churn"]
        hosts = ""
        if churn.get("hosts_failed") or churn.get("hosts_recovered"):
            hosts = (f", {churn.get('hosts_failed', 0)} hosts failed / "
                     f"{churn.get('hosts_recovered', 0)} recovered")
        print(f"churn: {churn['actions_applied']} actions, "
              f"{churn['crashed']} crashed, {churn['left']} left, "
              f"{churn['joined']} joined{hosts}")
    if report["under_churn"]:
        under = report["under_churn"]
        print(f"{label}s under churn: {under['correct']}/{under['issued']} correct "
              f"({100 * under['success_rate']:.1f}%), "
              f"latency p50={under['latency_p50_ms']:.0f}ms "
              f"p95={under['latency_p95_ms']:.0f}ms")
    print(f"measured {label}s: {measured['correct']}/{measured['issued']} correct "
          f"-> success rate {100 * measured['success_rate']:.2f}%")
    print(f"{label} latency: mean={measured['latency_mean_ms']:.0f}ms "
          f"p50={measured['latency_p50_ms']:.0f}ms "
          f"p95={measured['latency_p95_ms']:.0f}ms "
          f"max={measured['latency_max_ms']:.0f}ms")
    print(f"{label} hops: mean={measured['hops_mean']:.2f} max={measured['hops_max']}")
    workload = report.get("workload") or {}
    for key in spec.extra_report_lines:
        if key in workload:
            value = workload[key]
            if isinstance(value, float):
                value = f"{value:.4f}"
            print(f"{spec.name} {key.replace('_', ' ')}: {value}")
    network = report["network"]
    print(f"network: {network['messages_sent']} sent, "
          f"{network['messages_delivered']} delivered, "
          f"{network['messages_dropped']} dropped, "
          f"{network['bytes_sent']} bytes")
    print(f"report digest: {harness.report_digest(report)}")


# --------------------------------------------------------------------- bench
#: CSV columns emitted by ``scenarios bench`` (one row per grid cell)
BENCH_CSV_COLUMNS = [
    "row_type", "workload", "testbed", "kernel", "nodes", "hosts", "churn_rate",
    "ctl_shards", "bw_alloc", "seed", "seeds", "jobs",
    "wall_sec", "virtual_time", "events_executed", "events_per_sec",
    "events_per_sec_ci95", "wall_per_virtual_sec", "peak_rss_kb",
    "wall_deploy_s", "wall_run_s", "wall_drain_s",
    "lookups_issued", "lookups_correct", "success_rate",
    "latency_p50_ms", "latency_p95_ms", "hops_mean",
    "rpc_calls_sent", "rpc_retries", "rpc_timeouts",
    "messages_sent", "messages_dropped", "bytes_sent",
    "churn_joins", "churn_leaves", "churn_crashes",
    "report_digest",
    "profile_wall_s", "profile_sites", "profile_top_site", "profile_top_share",
]
#: the ``kernel`` column of scenario / kernel / scale rows: the event queue,
#: a constant since the wheel is the only one, kept so rows stay comparable
#: with the committed baselines
_KERNEL_COLUMN = "wheel"

#: columns that legitimately differ between runs, machines and ``--jobs``
#: settings — everything else must be byte-identical for the same grid cell
#: whatever the worker count (tests compare :func:`deterministic_row_view`)
BENCH_TIMING_COLUMNS = frozenset({
    "wall_sec", "events_per_sec", "events_per_sec_ci95",
    "wall_per_virtual_sec", "peak_rss_kb", "jobs",
    "wall_deploy_s", "wall_run_s", "wall_drain_s",
    "profile_wall_s", "profile_sites", "profile_top_site", "profile_top_share",
})


def deterministic_row_view(row: dict) -> dict:
    """A bench row minus its timing/measurement columns.

    This is the parallelism contract and what ``--check`` gates: for the
    same grid cell this view is byte-identical whether the cell ran
    serially, on a process pool, or on another machine.
    """
    return {key: value for key, value in row.items()
            if key not in BENCH_TIMING_COLUMNS}


def _peak_rss_kb() -> int:
    """This process's peak resident set size in KB (0 where unsupported)."""
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KB on Linux
        peak //= 1024
    return int(peak)

#: two-sided 95 % Student-t critical values by degrees of freedom (n - 1);
#: beyond 30 the normal approximation is close enough
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
        13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
        19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
        25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042}


def mean_ci95(values: List[float]) -> tuple:
    """Sample mean and the half-width of its 95 % confidence interval."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = _T95.get(n - 1, 1.96)
    return mean, t * math.sqrt(variance / n)


#: numeric bench columns averaged over a multi-seed sweep (name -> digits)
_SEED_MEAN_COLUMNS = {
    "wall_sec": 4, "virtual_time": 3, "events_per_sec": 1,
    "wall_per_virtual_sec": 6, "success_rate": 6,
    "latency_p50_ms": 3, "latency_p95_ms": 3, "hops_mean": 4,
}


def _aggregate_seed_rows(per_seed: List[dict]) -> dict:
    """Fold one cell's per-seed rows into one row of means.

    The emitted ``events_per_sec`` is the across-seed mean with its 95 % CI
    half-width in ``events_per_sec_ci95``; other
    latency/quality columns are seed means too.  Count-like columns (and the
    ``report_digest``) are kept from the first seed — digests are per-seed
    values and have no meaningful aggregate.
    """
    row = dict(per_seed[0])
    row["seeds"] = len(per_seed)
    row["events_per_sec_ci95"] = 0.0
    if len(per_seed) > 1:
        for key, digits in _SEED_MEAN_COLUMNS.items():
            values = [r[key] for r in per_seed
                      if isinstance(r.get(key), (int, float))]
            if values:
                row[key] = round(sum(values) / len(values), digits)
        row["events_executed"] = round(
            sum(r["events_executed"] for r in per_seed) / len(per_seed))
        _mean, ci = mean_ci95([r["events_per_sec"] for r in per_seed])
        row["events_per_sec_ci95"] = round(ci, 1)
    return row


def _kernel_timer_churn(nodes: int, duration: float = 60.0,
                        seed: int = 7, repeats: int = 3) -> dict:
    """Kernel-isolated benchmark: the scenario's timer workload, no app code.

    Replays the hot event pattern the runtime generates per node — RPC
    timeout timers that are almost always cancelled shortly after (the reply
    arrived), immediate process-step events, and short network-latency
    delays — so the measured events/sec is the queue machinery itself.
    The identical (seeded) event stream runs ``repeats`` times and the best
    wall time is reported: the microbench is short enough that scheduler /
    frequency-scaling noise otherwise dominates the number.
    """
    def noop() -> None:
        return None

    wall = float("inf")
    sim = None
    for _ in range(max(1, repeats)):
        sim = Simulator(seed)
        rng = sim.rng

        def rpc_fire(index: int) -> None:
            timer = sim.schedule(3.0, noop)  # RPC timeout guard
            if rng.random() < 0.9:
                # the reply arrives: cancel the timeout shortly after issue
                sim.schedule(0.05 + rng.random() * 0.15, timer.cancel)
            sim.schedule(0.0, noop)  # coroutine step
            sim.schedule(0.0, noop)  # future resumption
            sim.schedule(0.01 + rng.random() * 0.2, noop)  # message delivery
            sim.schedule(0.5 + rng.random(), rpc_fire, index)  # next round

        for index in range(nodes):
            sim.schedule(rng.random(), rpc_fire, index)
        start = time.perf_counter()  # det: ignore[DET102] -- bench wall timing
        sim.run(until=duration)
        wall = min(wall, time.perf_counter() - start)  # det: ignore[DET102] -- bench wall timing
    return {
        "row_type": "kernel",
        "workload": "",
        "testbed": "",
        "kernel": _KERNEL_COLUMN,
        "nodes": nodes,
        "hosts": "",
        "churn_rate": "",
        "ctl_shards": "",
        "seed": seed,
        "seeds": 1,
        "events_per_sec_ci95": "",
        "wall_sec": round(wall, 4),
        "virtual_time": duration,
        "events_executed": sim.executed_events,
        "events_per_sec": round(sim.executed_events / wall, 1) if wall > 0 else 0.0,
        "wall_per_virtual_sec": round(wall / duration, 6),
    }


def _bench_scenario_row(spec: registry.ScenarioSpec, churn_rate: float,
                        report: dict, wall: float) -> dict:
    network = report["network"]
    job = report["job"]
    virtual = report["virtual_time"]
    row = {
        "row_type": "scenario",
        "workload": spec.name,
        "testbed": report.get("testbed", "transit-stub"),
        "kernel": _KERNEL_COLUMN,
        "nodes": report["nodes"],
        "hosts": report["hosts"],
        "churn_rate": churn_rate,
        "ctl_shards": report.get("ctl_shards", 1),
        "bw_alloc": (report.get("bw_alloc") or {}).get("allocator", "max-min"),
        "seed": report["seed"],
        "wall_sec": round(wall, 4),
        "virtual_time": round(virtual, 3),
        "events_executed": report["events_executed"],
        "events_per_sec": round(report["events_executed"] / wall, 1) if wall > 0 else 0.0,
        "wall_per_virtual_sec": round(wall / virtual, 6) if virtual else 0.0,
        "rpc_calls_sent": report["rpc"]["calls_sent"],
        "rpc_retries": report["rpc"]["retries"],
        "rpc_timeouts": report["rpc"]["timeouts"],
        "messages_sent": network["messages_sent"],
        "messages_dropped": network["messages_dropped"],
        "bytes_sent": network["bytes_sent"],
        "churn_joins": job["churn_joins"],
        "churn_leaves": job["churn_leaves"],
        "churn_crashes": job["churn_crashes"],
        "report_digest": harness.report_digest(report),
    }
    # Phase wall attribution (deploy vs run vs drain): where the cell's host
    # time went, not how long the experiment was — digest-excluded upstream.
    phase = report.get("phase_wall") or {}
    row["wall_deploy_s"] = phase.get("deploy", "")
    row["wall_run_s"] = phase.get("run", "")
    row["wall_drain_s"] = phase.get("drain", "")
    profile = report.get("profile") or {}
    top = profile["top"][0] if profile.get("top") else {}
    row["profile_wall_s"] = profile.get("wall_s", "")
    row["profile_sites"] = profile.get("sites", "")
    row["profile_top_site"] = top.get("site", "")
    row["profile_top_share"] = top.get("wall_share", "")
    row.update(spec.bench_metrics(report))
    return row


def _bench_task_row(task: dict) -> dict:
    """Execute one bench task descriptor and return its row.

    Top-level (picklable) so ``--jobs N`` can ship tasks to pool workers;
    descriptors are pure data (the workload name, grid coordinates, the
    cell's :class:`RunConfig` and the runner's workload parameters), so a
    task produces the same deterministic columns in any process.  ``kind``
    selects the task type: a ``scenario`` grid cell, a ``scale`` profile
    cell or the kernel ``micro`` benchmark.
    """
    registry.load_builtin()
    kind = task["kind"]
    if kind == "micro":
        row = _kernel_timer_churn(task["nodes"], duration=task["duration"])
    else:
        spec = registry.get_spec(task["workload"])
        start = time.perf_counter()  # det: ignore[DET102] -- bench wall timing
        report = spec.runner(task["config"], **task["workload_params"])
        wall = time.perf_counter() - start  # det: ignore[DET102] -- bench wall timing
        row = _bench_scenario_row(spec, task["churn_rate"], report, wall)
        if kind == "scale":
            row["row_type"] = "scale"
    # Meaningful per cell only with fresh workers (scale mode); in a serial
    # or shared-worker run this is the process's cumulative high-water mark.
    row["peak_rss_kb"] = _peak_rss_kb()
    for column in ("wall_deploy_s", "wall_run_s", "wall_drain_s",
                   "profile_wall_s", "profile_sites",
                   "profile_top_site", "profile_top_share"):
        row.setdefault(column, "")
    return row


def _progress(quiet: bool):
    """``print`` for a bench driver's progress lines, a sink under ``quiet``."""
    return (lambda text: None) if quiet else functools.partial(print, flush=True)


def _run_bench_tasks(tasks: List[dict], jobs: int,
                     fresh_workers: bool = False) -> List[dict]:
    """Run bench tasks serially or on a process pool, preserving task order.

    ``jobs <= 1`` without ``fresh_workers`` runs in-process (the historical
    serial path).  Otherwise a ``ProcessPoolExecutor`` executes the tasks;
    ``map(..., chunksize=1)`` keeps results in submission order, so row
    assembly is identical for any worker count.  ``fresh_workers`` recycles
    the worker after every task (``max_tasks_per_child=1``) so each cell's
    peak RSS is its own; on Python < 3.11 (no such parameter) workers are
    shared and RSS becomes cumulative per worker.
    """
    if jobs < 1:
        raise ValueError("bench needs at least one worker")
    if jobs == 1 and not fresh_workers:
        return [_bench_task_row(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    executor = None
    if fresh_workers:
        try:
            executor = ProcessPoolExecutor(max_workers=max(1, jobs),
                                           max_tasks_per_child=1)
        except TypeError:  # pragma: no cover - Python < 3.11
            executor = None
    if executor is None:
        executor = ProcessPoolExecutor(max_workers=max(1, jobs))
    with executor:
        return list(executor.map(_bench_task_row, tasks, chunksize=1))


def run_bench(nodes_list: List[int], churn_rates: List[float],
              config: Optional[RunConfig] = None, lookups: int = 100,
              micro_duration: float = 60.0, quiet: bool = False,
              workload: str = "chord",
              hosts_list: Optional[List[Optional[int]]] = None,
              seeds: int = 1, jobs: int = 1) -> dict:
    """Sweep the scenario grid and the kernel microbenchmark; return the summary.

    ``config`` is what every scenario cell shares (root seed, testbed, shard
    count, sanitizer / profiler, GC policy); each ``(nodes, hosts,
    churn_rate)`` cell runs it with its own size and synthetic churn script.
    ``hosts_list`` adds a host-count sweep dimension (``None`` = the
    workload's default of nodes/2).  With ``seeds > 1`` each cell runs once
    per root seed (``seed .. seed+N-1``) and its row carries the across-seed
    mean ``events_per_sec`` plus a 95 % CI half-width.

    ``jobs > 1`` runs the flattened task list (grid cells x seeds, then the
    microbench cells) on a process pool.  Each task seeds its own simulator
    from pure descriptor data, so every deterministic column (see
    :data:`BENCH_TIMING_COLUMNS` for the exclusions) and every report digest
    is byte-identical with the serial run; only wall-clock-derived numbers
    move.  Progress lines print after the sweep in grid order.
    """
    say = _progress(quiet)
    if seeds < 1:
        raise ValueError("bench needs at least one seed")
    config = config or RunConfig()
    spec = registry.get_spec(workload)
    params = {spec.ops_param: lookups} if spec.ops_param is not None else {}
    hosts_sweep: List[Optional[int]] = hosts_list if hosts_list else [None]
    # Flatten the grid into pure task descriptors first: execution (serial or
    # pooled) is separated from row assembly, which walks the same nested
    # loops over the ordered results so rows come out identical either way.
    tasks: List[dict] = []
    for nodes in nodes_list:
        for hosts in hosts_sweep:
            for rate in churn_rates:
                script = synthetic_churn_script(duration=120.0, period=30.0,
                                                fraction=rate) if rate > 0 else None
                for offset in range(seeds):
                    cell = replace(config, nodes=nodes, hosts=hosts,
                                   seed=config.seed + offset, churn_script=script)
                    tasks.append({"kind": "scenario", "workload": workload,
                                  "churn_rate": rate, "config": cell,
                                  "workload_params": params})
    # micro_duration <= 0 skips the kernel microbenchmark entirely
    micro_nodes = nodes_list if micro_duration > 0 else []
    for nodes in micro_nodes:
        tasks.append({"kind": "micro", "nodes": nodes, "duration": micro_duration})

    results = iter(_run_bench_tasks(tasks, jobs))
    rows: List[dict] = []
    for nodes in nodes_list:
        for hosts in hosts_sweep:
            for rate in churn_rates:
                row = _aggregate_seed_rows([next(results) for _ in range(seeds)])
                row["jobs"] = jobs
                rows.append(row)
                ci = (f" ±{row['events_per_sec_ci95']:.0f}"
                      if seeds > 1 else "")
                say(f"scenario workload={spec.name} testbed={config.testbed} "
                    f"nodes={nodes} hosts={row['hosts']} churn={rate:g} "
                    f"shards={config.ctl_shards} seeds={seeds}: "
                    f"{row['events_per_sec']:.0f}{ci} ev/s, "
                    f"success={row['success_rate']:.3f}, "
                    f"wall={row['wall_sec']:.2f}s")
    for nodes in micro_nodes:
        row = next(results)
        row["jobs"] = jobs
        rows.append(row)
        say(f"kernel-timer-churn nodes={nodes}: {row['events_per_sec']:.0f} ev/s")

    return {
        "bench": "kernel",
        "config": {
            "workload": workload,
            "testbed": config.testbed,
            "nodes": nodes_list,
            "hosts": hosts_list,
            "churn_rates": churn_rates,
            "ctl_shards": config.ctl_shards,
            "seed": config.seed,
            "seeds": seeds,
            "jobs": jobs,
            "lookups": lookups,
            "micro_duration": micro_duration,
            "sanitize": config.sanitize,
            "profile": config.profile,
            "gc_policy": config.gc_policy,
        },
        "rows": rows,
    }


# --------------------------------------------------------------------- scale
#: default node counts of the large-deployment profile (``bench --scale``)
DEFAULT_SCALE_NODES = [1000, 5000, 10000]
#: base windows for scale cells at the reference size (1k nodes); unlike the
#: grid bench (whose windows scale linearly with the ring size), scale cells
#: grow these only with log10 of the node count — see :func:`scale_windows` —
#: so a 10k-node cell measures per-event and per-node overhead rather than a
#: proportionally longer experiment, while the join wave still has time to
#: stabilise O(log N) ring state per node
SCALE_JOIN_WINDOW = 30.0
SCALE_SETTLE = 20.0
#: node count whose windows are exactly the base values above
SCALE_REFERENCE_NODES = 1000


def scale_windows(nodes: int) -> tuple:
    """``(join_window, settle)`` for one scale cell, growing with log10(N).

    Chord's per-join stabilisation work is O(log N) (successor/finger
    repair), so a window fixed at the 1k-node value starves large rings:
    joins pile up faster than pointers repair and measured success craters
    (0.47 at 1k fell to 0.22 at 5k+ with flat 30 s/20 s windows).  Growing
    the windows by ``1 + log10(N / 1000)`` — 1k: 30/20, 5k: ~51/34,
    10k: 60/40 — keeps the *per-node* join pressure comparable across the
    sweep without reverting to the grid bench's linear windows, which would
    turn a 10k cell into a 10x-longer experiment and hide per-event cost.
    """
    factor = max(1.0, 1.0 + math.log10(max(1, nodes) / SCALE_REFERENCE_NODES))
    return (round(SCALE_JOIN_WINDOW * factor, 3),
            round(SCALE_SETTLE * factor, 3))


def scale_efficiency(rows: List[dict]) -> Optional[float]:
    """events/sec at the largest node count over events/sec at the smallest.

    The machine-independent flatness number ``bench --scale`` exists to
    produce: 1.0 means per-event cost is constant in N, 0.6 means events at
    the largest scale cost ~1.67x what they cost at the smallest.  ``None``
    when the sweep has fewer than two distinct node counts.
    """
    by_nodes = {row["nodes"]: row["events_per_sec"]
                for row in rows if row.get("row_type") == "scale"}
    if len(by_nodes) < 2:
        return None
    smallest, largest = min(by_nodes), max(by_nodes)
    if not by_nodes[smallest]:
        return None
    return round(by_nodes[largest] / by_nodes[smallest], 4)


def run_scale_bench(scales: Optional[List[int]] = None, jobs: int = 1,
                    config: Optional[RunConfig] = None, lookups: int = 100,
                    quiet: bool = False) -> dict:
    """The large-deployment profile: Chord at 1k/5k/10k nodes, peak RSS per cell.

    Every cell runs in a *fresh* pool worker (``max_tasks_per_child=1``,
    even with ``jobs=1``) so its ``peak_rss_kb`` is that deployment's own
    high-water mark rather than the run's cumulative maximum.  Rows carry
    ``row_type="scale"`` and flow through the same CSV schema and
    :func:`check_bench_regression` gate as the grid bench, plus the
    scale-only ``scale_efficiency`` summary number (largest-over-smallest
    events/sec ratio).  Join/settle windows grow with log10(N) per
    :func:`scale_windows`; ``config`` carries what the cells share (seed,
    testbed, GC policy).
    """
    say = _progress(quiet)
    config = config or RunConfig()
    scale_list = list(scales) if scales else list(DEFAULT_SCALE_NODES)
    tasks = []
    for nodes in scale_list:
        join_window, settle = scale_windows(nodes)
        cell = replace(config, nodes=nodes, join_window=join_window,
                       settle=settle)
        tasks.append({"kind": "scale", "workload": "chord", "churn_rate": 0.0,
                      "config": cell, "workload_params": {"lookups": lookups}})
    rows = []
    for row in _run_bench_tasks(tasks, jobs, fresh_workers=True):
        row["seeds"] = 1
        row["jobs"] = jobs
        rows.append(row)
        say(f"scale nodes={row['nodes']} hosts={row['hosts']}: "
            f"{row['events_per_sec']:.0f} ev/s, wall={row['wall_sec']:.1f}s "
            f"(deploy={row['wall_deploy_s'] or 0:.1f}s "
            f"run={row['wall_run_s'] or 0:.1f}s "
            f"drain={row['wall_drain_s'] or 0:.1f}s), "
            f"success={row['success_rate']:.3f}, "
            f"peak_rss={row['peak_rss_kb']} KB, "
            f"digest={row['report_digest']}")
    efficiency = scale_efficiency(rows)
    if efficiency is not None:
        say(f"scale efficiency ({max(scale_list)} vs {min(scale_list)} "
            f"nodes): {efficiency:.3f}")
    return {
        "bench": "scale",
        "config": {
            "workload": "chord",
            "testbed": config.testbed,
            "scales": scale_list,
            "seed": config.seed,
            "lookups": lookups,
            "join_window": SCALE_JOIN_WINDOW,
            "settle": SCALE_SETTLE,
            "windows": {str(nodes): list(scale_windows(nodes))
                        for nodes in scale_list},
            "gc_policy": config.gc_policy,
            "jobs": jobs,
        },
        "rows": rows,
        "scale_efficiency": efficiency,
    }


def write_bench_csv(path: str, rows: List[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=BENCH_CSV_COLUMNS, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


#: the columns that say *which* experiment a bench row is (its grid cell)
_CELL_COLUMNS = ("row_type", "workload", "testbed", "kernel", "nodes", "hosts",
                 "churn_rate", "ctl_shards", "bw_alloc", "seed", "seeds")


def check_bench_regression(summary: dict, baseline: dict) -> tuple:
    """Hold a bench run to a committed baseline: ``(failures, notes)``.

    Every cell the run shares with the baseline (equal
    :data:`_CELL_COLUMNS`) must reproduce the baseline's
    :func:`deterministic_row_view` exactly — events, messages, bytes, RPC
    counters, latencies, digest; a failure names the columns that differ.
    The wall-clock columns depend on the machine, so their ratios to the
    baseline come back as ``notes`` (information, never a verdict).
    Baseline cells the run does not cover are ignored, but a run that shares
    *no* cell with its baseline checked nothing, and that is a failure too.
    """
    def index(rows: List[dict]) -> dict:
        return {tuple(row.get(column, "") for column in _CELL_COLUMNS): row
                for row in rows}

    def ratio(row: dict, base_row: dict, column: str) -> str:
        seen, base = row.get(column), base_row.get(column)
        if not seen or not base:
            return "n/a"
        return f"{seen / base:.2f}x"

    current = index(summary.get("rows", []))
    base_rows = index(baseline.get("rows", []))
    failures: List[str] = []
    notes: List[str] = []
    for key, base_row in base_rows.items():
        row = current.get(key)
        if row is None:
            continue  # baseline covers a larger grid than this run
        cell = " ".join(f"{column}={value}" for column, value
                        in zip(_CELL_COLUMNS, key) if value != "")
        seen, base = deterministic_row_view(row), deterministic_row_view(base_row)
        differing = sorted(column for column in seen.keys() | base.keys()
                           if seen.get(column) != base.get(column))
        if differing:
            failures.append(
                f"{cell}: deterministic columns differ from the baseline: "
                + ", ".join(f"{column} {base.get(column)!r} -> {seen.get(column)!r}"
                            for column in differing))
        notes.append(f"{cell}: wall {ratio(row, base_row, 'wall_sec')}, "
                     f"events/sec {ratio(row, base_row, 'events_per_sec')}, "
                     f"peak RSS {ratio(row, base_row, 'peak_rss_kb')} "
                     f"of the baseline")
    if not notes:
        failures.append(
            f"none of this run's {len(current)} cell(s) is among the "
            f"baseline's {len(base_rows)}: nothing was checked")
    return failures, notes


# ----------------------------------------------------------------------- CLI
#: where every execution option's default is stated (argparse only mirrors it)
_DEFAULTS = RunConfig()


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution options a scenario run and every ``bench`` cell share."""
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                        help="root determinism seed")
    parser.add_argument("--testbed", choices=testbed_names(),
                        default=_DEFAULTS.testbed,
                        help="deployment environment preset to build")
    parser.add_argument("--ctl-shards", type=int, default=_DEFAULTS.ctl_shards,
                        metavar="N",
                        help="controller front-ends sharing the job store "
                             "(results are identical for any N >= 1)")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable runtime invariant checks (clock "
                             "monotonicity, free-list integrity, future "
                             "legality, listener/bandwidth consistency); "
                             "observation-only, results are identical")
    parser.add_argument("--profile", action="store_true",
                        help="attribute wall time and event counts to kernel "
                             "callback sites (a top-N table; profile_* "
                             "columns in bench rows)")
    parser.add_argument("--gc-policy", choices=GC_MODES,
                        default=_DEFAULTS.gc_policy,
                        help="host-interpreter GC discipline (repro.sim."
                             "gcpolicy): 'tuned' raises the collector "
                             "thresholds and freezes the post-deploy heap; "
                             "results are byte-identical for either setting")


def _add_common_arguments(parser: argparse.ArgumentParser,
                          spec: registry.ScenarioSpec) -> None:
    _add_execution_arguments(parser)
    parser.add_argument("--nodes", type=int, default=_DEFAULTS.nodes,
                        help="application instances to deploy")
    parser.add_argument("--hosts", type=int, default=_DEFAULTS.hosts,
                        help="physical hosts (default: nodes/2, min 8)")
    parser.add_argument("--churn", action="store_true",
                        help="replay the workload's default churn script")
    parser.add_argument("--churn-script", type=str, default=None, metavar="FILE",
                        help="replay a churn script from FILE instead of the default")
    parser.add_argument("--churn-trace", type=str, default=None, metavar="FILE",
                        help="replay an Overnet-style availability trace "
                             "('host_id start end' lines) as host-level churn")
    parser.add_argument("--join-window", type=float, default=_DEFAULTS.join_window,
                        help="joins are staggered over this many seconds "
                             "(default: scales with --nodes)")
    parser.add_argument("--settle", type=float, default=_DEFAULTS.settle,
                        help="grace period after churn before measuring "
                             "(default: scales with --nodes)")
    parser.add_argument("--duration", choices=("full", "short"),
                        default=_DEFAULTS.duration,
                        help="'short' shrinks windows and op counts for CI smoke")
    parser.add_argument("--min-success", type=float,
                        default=spec.default_min_success,
                        help="exit non-zero below this measured success rate")
    parser.add_argument("--bw-alloc", choices=allocator_names(),
                        default=_DEFAULTS.bw_alloc, metavar="NAME",
                        help="flow-level bandwidth allocation strategy "
                             f"({', '.join(allocator_names())}; the default "
                             "max-min keeps the historical digests)")
    parser.add_argument("--cdf", type=str, default=None, metavar="PATH",
                        help="write the measured latency CDF as "
                             "(latency_ms, fraction) CSV to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="collect sim-time metrics (counters/gauges/"
                             "histograms, aggregated per job); digest-"
                             "excluded, results are identical")
    parser.add_argument("--metrics-out", type=str, default=None, metavar="FILE",
                        help="write the metrics report section as JSON to "
                             "FILE (implies --metrics)")
    parser.add_argument("--trace-out", type=str, default=_DEFAULTS.trace_out,
                        metavar="FILE",
                        help="record causal RPC/lookup spans and write "
                             "Chrome trace-event JSON (Perfetto-loadable, "
                             "one track per host) to FILE")
    parser.add_argument("--log-level", choices=("DEBUG", "INFO", "WARN", "ERROR"),
                        default=_DEFAULTS.log_level,
                        help="minimum severity the job's instances record")


def _read_checked(path: Optional[str], what: str, parse) -> Optional[str]:
    """Text of the ``what`` file at ``path`` once ``parse`` accepts it.

    ``None`` without a path; an unreadable or malformed file raises a
    :class:`ValueError` that says which file and why.
    """
    if not path:
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from None
    try:
        parse(text)
    except ValueError as exc:
        raise ValueError(f"invalid {what} {path}: {exc}") from None
    return text


def _run_scenario_cli(spec: registry.ScenarioSpec, args: argparse.Namespace) -> int:
    try:
        script = _read_checked(args.churn_script, "churn script",
                               parse_churn_script)
        trace = _read_checked(args.churn_trace, "churn trace",
                              parse_availability_trace)
        config = RunConfig(
            nodes=args.nodes, hosts=args.hosts, seed=args.seed,
            testbed=args.testbed, churn=args.churn, churn_script=script,
            churn_trace=trace, join_window=args.join_window, settle=args.settle,
            duration=args.duration, ctl_shards=args.ctl_shards,
            sanitize=args.sanitize,
            metrics=args.metrics or bool(args.metrics_out),
            trace_out=args.trace_out, profile=args.profile,
            log_level=args.log_level, bw_alloc=args.bw_alloc,
            gc_policy=args.gc_policy)
        params = spec.make_kwargs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Not inside the ``try``: a ValueError out of a run is a bug, not a
    # malformed command line, and keeps its traceback.
    report = spec.runner(config, **params)
    _print_report(report, spec)
    _print_observability(report, args)
    if args.sanitize:
        sanitizer = report.get("sanitizer") or {}
        count = sanitizer.get("violations", 0)
        print(f"sanitizer: {count} violation(s)"
              + (f" {sanitizer.get('by_kind')}" if count else ""))
        for line in sanitizer.get("reports", []):
            print(f"  {line}", file=sys.stderr)
        if count:
            print("FAIL: sanitizer recorded invariant violations", file=sys.stderr)
            _dump_flight_recorder(report)
            return 2
    if args.cdf:
        samples = report.get("cdf_samples_ms", [])
        if samples:
            count = harness.write_cdf(args.cdf, samples)
            print(f"cdf: wrote {count} samples to {args.cdf}")
        else:
            print(f"cdf: no completed {spec.ops_label}s, nothing written to {args.cdf}")
    ok = report["measured"]["success_rate"] >= args.min_success
    if not ok:
        print(f"FAIL: success rate below {100 * args.min_success:.0f}%",
              file=sys.stderr)
        _dump_flight_recorder(report)
    return 0 if ok else 2


def _print_observability(report: dict, args: argparse.Namespace) -> None:
    """Summarise the metrics/trace/profile sections (and write --metrics-out)."""
    metrics = report.get("metrics")
    if metrics:
        kernel = metrics["kernel"]
        network = metrics["network"]
        registry_size = len(metrics["job"]["registry"])
        print(f"metrics: kernel {kernel['events_dispatched']} dispatched "
              f"/ {kernel['events_recycled']} recycled "
              f"/ {kernel['events_cancelled']} cancelled; "
              f"drops loss={network['drops_loss']} "
              f"dead-host={network['drops_dead_host']} "
              f"no-listener={network['drops_no_listener']}; "
              f"{registry_size} job metric(s)")
    if args.metrics_out and metrics:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        print(f"metrics: wrote section to {args.metrics_out}")
    trace = report.get("trace")
    if trace:
        where = (f", written to {trace['written_to']}"
                 if trace.get("written_to") else "")
        print(f"trace: {trace['spans']} span(s) over {trace['hosts']} "
              f"host track(s), {trace['dropped']} dropped{where}")
    profile = report.get("profile")
    if profile:
        from repro.obs import KernelProfiler
        for line in KernelProfiler.format_table(profile):
            print(line)


def _dump_flight_recorder(report: dict) -> None:
    """Print the report's flight-recorder ring (failure context) to stderr."""
    for line in report.get("flight_recorder") or []:
        print(line, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    registry.load_builtin()
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.scenarios",
        description="SPLAY reproduction scenarios")
    sub = parser.add_subparsers(dest="scenario", required=True)

    for spec in registry.all_specs():
        scenario_parser = sub.add_parser(spec.name, help=spec.help)
        _add_common_arguments(scenario_parser, spec)
        spec.add_arguments(scenario_parser)

    bench = sub.add_parser(
        "bench", help="sweep nodes x churn-rate (x hosts) grids and emit "
                      "CSV + JSON rows, optionally held to a baseline")
    _add_execution_arguments(bench)
    bench.add_argument("--workload", choices=registry.scenario_names(),
                       default="chord", help="registered workload to sweep")
    bench.add_argument("--nodes", type=int, nargs="+", default=[50, 100, 200],
                       help="deployment sizes to sweep")
    bench.add_argument("--hosts-list", type=int, nargs="+", default=None,
                       metavar="HOSTS",
                       help="host counts to sweep (default: the workload's "
                            "nodes/2 heuristic only)")
    bench.add_argument("--churn-rates", type=float, nargs="+", default=[0.0, 0.05],
                       help="fraction of live nodes replaced every 30s "
                            "(0 disables churn)")
    bench.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="seeds per scenario cell; N > 1 emits the "
                            "across-seed mean events/sec ± 95%% CI")
    bench.add_argument("--lookups", type=int, default=100,
                       help="measured operations per scenario run")
    bench.add_argument("--micro-duration", type=float, default=60.0,
                       help="virtual seconds of the kernel timer-churn microbench")
    bench.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run grid cells x seeds on an N-worker process "
                            "pool (deterministic columns and digests are "
                            "byte-identical with --jobs 1)")
    bench.add_argument("--scale", action="store_true",
                       help="large-deployment profile instead of the grid: "
                            "chord at --scales node counts with fixed "
                            "windows, peak RSS per cell (fresh worker each)")
    bench.add_argument("--scales", type=int, nargs="+",
                       default=DEFAULT_SCALE_NODES, metavar="NODES",
                       help="node counts swept by --scale")
    bench.add_argument("--csv", type=str, default=None,
                       help="CSV output path (default bench_kernel.csv, or "
                            "bench_scale.csv with --scale)")
    bench.add_argument("--json", type=str, default=None,
                       help="JSON summary output path (default "
                            "BENCH_kernel.json, or BENCH_scale.json "
                            "with --scale)")
    bench.add_argument("--check", type=str, default=None, metavar="BASELINE",
                       help="hold every cell shared with a committed baseline "
                            "JSON to its deterministic columns, exactly "
                            "(exit 4 on a difference or when no cell is "
                            "shared); wall-clock ratios print as information")
    bench.add_argument("--quiet", action="store_true", help="suppress progress lines")

    args = parser.parse_args(argv)
    if args.scenario != "bench":
        return _run_scenario_cli(registry.get_spec(args.scenario), args)

    kind = "scale" if args.scale else "kernel"
    csv_path = args.csv or f"bench_{kind}.csv"
    json_path = args.json or f"BENCH_{kind}.json"
    try:
        config = RunConfig(seed=args.seed, testbed=args.testbed,
                           ctl_shards=args.ctl_shards, sanitize=args.sanitize,
                           profile=args.profile, gc_policy=args.gc_policy)
        # every cell's size, before the first cell runs
        for nodes in args.scales if args.scale else args.nodes:
            for hosts in args.hosts_list or [None]:
                replace(config, nodes=nodes, hosts=hosts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.scale:
        summary = run_scale_bench(scales=args.scales, jobs=args.jobs,
                                  config=config, lookups=args.lookups,
                                  quiet=args.quiet)
    else:
        summary = run_bench(nodes_list=args.nodes, churn_rates=args.churn_rates,
                            config=config, lookups=args.lookups,
                            micro_duration=args.micro_duration,
                            quiet=args.quiet, workload=args.workload,
                            hosts_list=args.hosts_list, seeds=args.seeds,
                            jobs=args.jobs)
    write_bench_csv(csv_path, summary["rows"])
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"bench: wrote {len(summary['rows'])} rows to {csv_path} "
          f"and summary to {json_path}")
    if args.check:
        try:
            with open(args.check, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}",
                  file=sys.stderr)
            return 2
        failures, notes = check_bench_regression(summary, baseline)
        for line in notes:
            print(f"baseline (information only) {line}")
        for line in failures:
            print(f"BASELINE MISMATCH: {line}", file=sys.stderr)
        if failures:
            return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
