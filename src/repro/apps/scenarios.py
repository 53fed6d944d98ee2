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

After the network line every run prints where its host time and memory
went: ``host: deploy X s, run Y s, drain Z s; peak RSS N KB`` (the
digest-excluded ``phase_wall`` section and this process's peak resident
set).  Behaviour is held by ``tools/digest_matrix.py``, whose rows include
Chord at 1k and 5k nodes, and speed by ``benchmarks/run.py`` /
``tools/ab.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

try:  # resource is POSIX-only; the peak RSS reads 0 elsewhere
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.apps import harness, registry
from repro.apps.harness import RunConfig
from repro.core.churn import parse_availability_trace, parse_churn_script
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
        print(f"lookup hops past their RTO: {maintenance['hops_suspected']}, "
              f"{maintenance['suspects_dead']} of them purged when the "
              f"confirming call got no answer either")
        print(f"lookups recovered by the iterative walk: "
              f"{maintenance['walks_recovered']}")
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
    # Information, never in the digest: where the host time went, and this
    # process's peak resident set (ru_maxrss is bytes on macOS, KB on Linux).
    phase = report.get("phase_wall") or {}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if resource else 0
    if sys.platform == "darwin":
        rss //= 1024
    print("host: " + ", ".join(f"{name} {phase.get(name, 0.0):.2f} s"
                               for name in ("deploy", "run", "drain"))
          + f"; peak RSS {rss} KB")
    print(f"report digest: {harness.report_digest(report)}")


# ----------------------------------------------------------------------- CLI
#: where every execution option's default is stated (argparse only mirrors it)
_DEFAULTS = RunConfig()


def _add_common_arguments(parser: argparse.ArgumentParser,
                          spec: type[harness.Scenario]) -> None:
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed,
                        help="root determinism seed")
    parser.add_argument("--testbed", choices=testbed_names(),
                        default=_DEFAULTS.testbed,
                        help="deployment environment preset to build")
    parser.add_argument("--ctl-shards", type=int, default=_DEFAULTS.ctl_shards,
                        metavar="N",
                        help="controller front-ends sharing the controller's tables "
                             "(results are identical for any N >= 1)")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable runtime invariant checks (clock "
                             "monotonicity, future legality, "
                             "listener/bandwidth consistency); "
                             "observation-only, results are identical")
    parser.add_argument("--profile", action="store_true",
                        help="attribute wall time and event counts to kernel "
                             "callback sites (a top-N table)")
    parser.add_argument("--gc-policy", choices=GC_MODES,
                        default=_DEFAULTS.gc_policy,
                        help="host-interpreter GC discipline (repro.sim."
                             "gcpolicy): 'tuned' raises the collector "
                             "thresholds and freezes the post-deploy heap; "
                             "results are byte-identical for either setting")
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
    parser.add_argument("--cdf", type=str, default=None, metavar="PATH",
                        help="write the measured latency CDF as "
                             "(latency_ms, fraction) CSV to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="collect sim-time metrics (counters and "
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
            log_level=args.log_level, gc_policy=args.gc_policy)
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
    """The command line: one subcommand per registered workload."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.scenarios",
        description="SPLAY reproduction scenarios")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for spec in registry.all_specs():
        _add_common_arguments(sub.add_parser(spec.name, help=spec.help), spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return _run_scenario_cli(registry.get_spec(args.scenario), args)


if __name__ == "__main__":
    raise SystemExit(main())
