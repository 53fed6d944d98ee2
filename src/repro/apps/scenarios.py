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

``scenarios bench`` is the size sweep: Chord at growing node counts
(1k/5k/10k by default) with windows that grow with log10 of the ring, each
cell in a fresh worker process so its peak RSS is its own.  It emits CSV +
JSON rows; ``--check`` holds their deterministic columns to a committed
baseline (``BENCH_scale.json``), exactly — the wall-clock columns are
information.  Behaviour is held by ``tools/digest_matrix.py`` and speed by
``benchmarks/run.py`` / ``tools/ab.py``; the bench answers "how big".
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import multiprocessing
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
from repro.core.churn import parse_availability_trace, parse_churn_script
from repro.net.bwalloc import allocator_names
from repro.sim.gcpolicy import GC_MODES
from repro.testbeds import testbed_names


# ------------------------------------------------------------------ reporting
def _print_report(report: dict, spec: type[harness.Scenario]) -> None:
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
    maintenance = report.get("maintenance")
    if maintenance:
        print(f"maintenance: {maintenance['rpcs_per_node_s']:.3f} RPCs per node per "
              f"second while measuring ({maintenance['rpcs']} RPCs, "
              f"{maintenance['nodes']} nodes, {maintenance['seconds']:.0f} s)")
        print(f"failures detected: {maintenance['dead_nodes_noticed']} by a call "
              f"that got no answer, {maintenance['deaths_reported']} from a "
              f"caller's death list")
    workload = report.get("workload") or {}
    for key in spec.report_lines:
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
#: CSV columns emitted by ``scenarios bench`` (one row per scale cell)
BENCH_CSV_COLUMNS = [
    "workload", "testbed", "nodes", "hosts", "ctl_shards", "bw_alloc", "seed", "jobs",
    "wall_sec", "virtual_time", "events_executed", "events_per_sec",
    "wall_per_virtual_sec", "peak_rss_kb",
    "wall_deploy_s", "wall_run_s", "wall_drain_s",
    "lookups_issued", "lookups_correct", "success_rate",
    "latency_p50_ms", "latency_p95_ms", "hops_mean",
    "rpc_calls_sent", "rpc_retries", "rpc_timeouts",
    "messages_sent", "messages_dropped", "bytes_sent",
    "churn_joins", "churn_leaves", "churn_crashes",
    "report_digest",
    "profile_wall_s", "profile_sites", "profile_top_site", "profile_top_share",
]

#: columns that legitimately differ between runs, machines and ``--jobs``
#: settings — everything else must be byte-identical for the same scale
#: cell whatever the worker count (tests compare :func:`deterministic_row_view`)
BENCH_TIMING_COLUMNS = frozenset({
    "wall_sec", "events_per_sec", "wall_per_virtual_sec", "peak_rss_kb", "jobs",
    "wall_deploy_s", "wall_run_s", "wall_drain_s",
    "profile_wall_s", "profile_sites", "profile_top_site", "profile_top_share",
})


def deterministic_row_view(row: dict) -> dict:
    """A bench row minus its timing/measurement columns.

    This is the parallelism contract and what ``--check`` gates: for the
    same scale cell this view is byte-identical whatever the worker count
    and whichever machine ran it.
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


#: default node counts of the size sweep
DEFAULT_SCALE_NODES = [1000, 5000, 10000]
#: base windows for scale cells at the reference size (1k nodes); unlike a
#: scenario run (whose default windows scale linearly with the ring size),
#: scale cells grow these only with log10 of the node count — see
#: :func:`scale_windows` — so a 10k-node cell measures per-event and
#: per-node overhead rather than a proportionally longer experiment, while
#: the join wave still has time to stabilise O(log N) ring state per node
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
    sweep without reverting to the scenario defaults' linear windows, which
    would turn a 10k cell into a 10x-longer experiment and hide per-event
    cost.
    """
    factor = max(1.0, 1.0 + math.log10(max(1, nodes) / SCALE_REFERENCE_NODES))
    return (round(SCALE_JOIN_WINDOW * factor, 3),
            round(SCALE_SETTLE * factor, 3))


def scale_efficiency(rows: List[dict]) -> Optional[float]:
    """events/sec at the largest node count over events/sec at the smallest.

    The machine-independent flatness number the size sweep exists to
    produce: 1.0 means per-event cost is constant in N, 0.6 means events at
    the largest scale cost ~1.67x what they cost at the smallest.  ``None``
    when the sweep has fewer than two distinct node counts.
    """
    by_nodes = {row["nodes"]: row["events_per_sec"] for row in rows}
    if len(by_nodes) < 2:
        return None
    smallest, largest = min(by_nodes), max(by_nodes)
    if not by_nodes[smallest]:
        return None
    return round(by_nodes[largest] / by_nodes[smallest], 4)


def _scale_cell(config: RunConfig, lookups: int) -> dict:
    """Run one Chord scale cell (in its pool worker) and return its bench row."""
    start = time.perf_counter()  # det: ignore[DET102] -- bench wall timing
    report = registry.get_spec("chord").runner(config, lookups=lookups)
    wall = time.perf_counter() - start  # det: ignore[DET102] -- bench wall timing
    measured, virtual = report["measured"], report["virtual_time"]
    # Phase wall attribution (deploy vs run vs drain): where the cell's host
    # time went, not how long the experiment was — digest-excluded upstream.
    phase = report.get("phase_wall") or {}
    profile = report.get("profile") or {}
    top = profile["top"][0] if profile.get("top") else {}
    return {
        "workload": "chord",
        "testbed": report.get("testbed", "transit-stub"),
        "nodes": report["nodes"],
        "hosts": report["hosts"],
        "ctl_shards": report.get("ctl_shards", 1),
        "bw_alloc": (report.get("bw_alloc") or {}).get("allocator", "max-min"),
        "seed": report["seed"],
        "wall_sec": round(wall, 4),
        "virtual_time": round(virtual, 3),
        "events_executed": report["events_executed"],
        "events_per_sec": round(report["events_executed"] / wall, 1) if wall > 0 else 0.0,
        "wall_per_virtual_sec": round(wall / virtual, 6) if virtual else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
        **{f"wall_{name}_s": phase.get(name, "") for name in ("deploy", "run", "drain")},
        "lookups_issued": measured["issued"],
        "lookups_correct": measured["correct"],
        "success_rate": round(measured["success_rate"], 6),
        "latency_p50_ms": round(measured["latency_p50_ms"], 3),
        "latency_p95_ms": round(measured["latency_p95_ms"], 3),
        "hops_mean": round(measured["hops_mean"], 4),
        **{f"rpc_{name}": report["rpc"][name]
           for name in ("calls_sent", "retries", "timeouts")},
        **{name: report["network"][name]
           for name in ("messages_sent", "messages_dropped", "bytes_sent")},
        **{name: report["job"][name]
           for name in ("churn_joins", "churn_leaves", "churn_crashes")},
        "report_digest": harness.report_digest(report),
        "profile_wall_s": profile.get("wall_s", ""),
        "profile_sites": profile.get("sites", ""),
        "profile_top_site": top.get("site", ""),
        "profile_top_share": top.get("wall_share", ""),
    }


def _fresh_workers(jobs: int):
    """A process pool that runs every task in a new interpreter.

    ``maxtasksperchild=1`` with ``spawn``, on every supported Python: a
    cell's ``peak_rss_kb`` is its own, and no cell inherits another's state.
    """
    return multiprocessing.get_context("spawn").Pool(jobs, maxtasksperchild=1)


def run_scale_bench(scales: Optional[List[int]] = None, jobs: int = 1,
                    config: Optional[RunConfig] = None, lookups: int = 100,
                    quiet: bool = False) -> dict:
    """The size sweep: Chord at 1k/5k/10k nodes, peak RSS per cell.

    Every cell runs in a fresh worker (:func:`_fresh_workers`, even with
    ``jobs=1``), at most ``jobs`` at a time, and the rows come back in cell
    order, so every deterministic column and digest is the same for any
    ``jobs``.  Windows grow per :func:`scale_windows`; ``config`` carries
    what the cells share (seed, testbed, shards, GC policy).
    """
    say = (lambda text: None) if quiet else functools.partial(print, flush=True)
    config = config or RunConfig()
    scale_list = list(scales) if scales else list(DEFAULT_SCALE_NODES)
    cells = []
    for nodes in scale_list:
        join_window, settle = scale_windows(nodes)
        cells.append(replace(config, nodes=nodes, join_window=join_window,
                             settle=settle))
    with _fresh_workers(min(jobs, len(cells))) as pool:
        rows = pool.map(functools.partial(_scale_cell, lookups=lookups), cells, chunksize=1)
    for row in rows:
        row["jobs"] = jobs
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


#: the columns that say *which* experiment a bench row is (its cell)
_CELL_COLUMNS = ("workload", "testbed", "nodes", "hosts", "ctl_shards",
                 "bw_alloc", "seed")


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
            continue  # baseline covers a larger sweep than this run
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
                          spec: type[harness.Scenario]) -> None:
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
                        default=spec.min_success,
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
    for name, default, text in spec.params:
        parser.add_argument("--" + name.replace("_", "-"), type=type(default),
                            default=default, help=text)


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


def _run_scenario_cli(spec: type[harness.Scenario], args: argparse.Namespace) -> int:
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
        run = spec(config, **{name: getattr(args, name) for name, _d, _h in spec.params})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Not inside the ``try``: a ValueError out of a run is a bug, not a
    # malformed command line, and keeps its traceback.
    report = run.run()
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
    errors = report["handler_errors"]
    if errors["count"]:
        print(f"handler errors: {errors['count']}")
        for line in errors["last"]:
            print(f"  {line}", file=sys.stderr)
        print("FAIL: message or RPC handlers raised", file=sys.stderr)
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


def _parser() -> argparse.ArgumentParser:
    """The command line: one subcommand per registered workload, and ``bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.scenarios",
        description="SPLAY reproduction scenarios")
    sub = parser.add_subparsers(dest="scenario", required=True)

    for spec in registry.all_specs():
        scenario_parser = sub.add_parser(spec.name, help=spec.help)
        _add_common_arguments(scenario_parser, spec)

    bench = sub.add_parser(
        "bench", help="the size sweep: chord at growing node counts, each "
                      "cell in a fresh worker (peak RSS per cell); CSV + "
                      "JSON rows, optionally held to a baseline")
    _add_execution_arguments(bench)
    bench.add_argument("--scales", type=int, nargs="+",
                       default=DEFAULT_SCALE_NODES, metavar="NODES",
                       help="node counts to sweep")
    bench.add_argument("--lookups", type=int, default=100,
                       help="measured lookups per cell")
    bench.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run up to N cells at once (deterministic "
                            "columns and digests are byte-identical with "
                            "--jobs 1)")
    bench.add_argument("--csv", type=str, default="bench_scale.csv",
                       help="CSV output path")
    bench.add_argument("--json", type=str, default=None, metavar="FILE",
                       help="also write the JSON summary to FILE (no JSON "
                            "is written otherwise: a committed baseline "
                            "changes only when it is named here)")
    bench.add_argument("--check", type=str, default=None, metavar="BASELINE",
                       help="hold every cell shared with a committed baseline "
                            "JSON to its deterministic columns, exactly "
                            "(exit 4 on a difference or when no cell is "
                            "shared); wall-clock ratios print as information")
    bench.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.scenario != "bench":
        return _run_scenario_cli(registry.get_spec(args.scenario), args)

    try:
        # read before the run: the run may write the file it is checked against
        baseline = _read_checked(args.check, "baseline", json.loads)
        config = RunConfig(seed=args.seed, testbed=args.testbed,
                           ctl_shards=args.ctl_shards, sanitize=args.sanitize,
                           profile=args.profile, gc_policy=args.gc_policy)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        for nodes in args.scales:  # every cell's size, before the first runs
            replace(config, nodes=nodes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = run_scale_bench(scales=args.scales, jobs=args.jobs,
                              config=config, lookups=args.lookups,
                              quiet=args.quiet)
    write_bench_csv(args.csv, summary["rows"])
    written = f"{len(summary['rows'])} rows to {args.csv}"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written += f" and summary to {args.json}"
    print(f"bench: wrote {written}")
    if baseline is not None:
        failures, notes = check_bench_regression(summary, json.loads(baseline))
        for line in notes:
            print(f"baseline (information only) {line}")
        for line in failures:
            print(f"BASELINE MISMATCH: {line}", file=sys.stderr)
        if failures:
            return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
