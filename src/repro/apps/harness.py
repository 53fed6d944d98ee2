"""Shared scenario harness: deploy, drive, measure, report.

Paper counterpart: the deployment harness of Section 5 — the scripted
pipeline the authors used to run every evaluation workload on the same
ModelNet testbed under the same churn scripts.

Every workload scenario (Chord, Pastry, epidemic gossip, BitTorrent-style
dissemination) runs through the same pipeline: build the substrate of the
selected *testbed* (:mod:`repro.testbeds` — transit-stub by default, or
cluster / planetlab / mixed), register one splayd per host with a (possibly
sharded) controller, submit the job, replay an optional churn script and/or
availability trace, drive a measured workload once the system has
re-converged, and emit a deterministic report.  This module holds that
pipeline so the per-workload modules only contain what is genuinely
different — the application itself and its workload driver.

Everything is keyed off one root seed: topology, placement, join staggering,
churn victim selection and the workload all draw from deterministic
substreams, so a given configuration always produces the same report (and
the same ``report_digest``).  The digest excludes the kernel choice and the
control-plane sections, so it is also identical across ``--kernel`` and
``--ctl-shards`` settings — the scale-out knobs must never change workload
results.

Public entry points: :func:`deploy` (+ :class:`Deployment`),
:func:`scaled_windows` / :func:`scaled_ops` (duration presets),
:func:`lookup_stream` / :func:`drain` (drivers), and
:func:`base_report` / :func:`summarise` / :func:`report_digest` /
:func:`write_cdf` (reporting).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional

from repro.core.jobs import Job, JobSpec
from repro.lib.rpc import RpcError
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.futures import FutureCancelled
from repro.sim.kernel import Simulator
from repro.sim.process import Process, ProcessKilled
from repro.testbeds import get_testbed

#: the flagship churn timeline shared by the Chord/Pastry/gossip scenarios:
#: a crash burst, a continuous-replacement window, then a join wave — times
#: are relative to job start
FLAGSHIP_CHURN_SCRIPT = """\
at 150s crash 10%
from 180s to 300s every 30s replace 5%
at 330s join 5
"""

#: hosts are laid out one per /24 inside consecutive /16s; blocks beyond
#: ``10.255.0.0/16`` roll over into the next first octet (11, 12, ...)
_HOSTS_PER_BLOCK = 65536
_MAX_FIRST_OCTET = 126  # stop before 127.0.0.0/8 (loopback)
MAX_HOSTS = (_MAX_FIRST_OCTET - 10 + 1) * _HOSTS_PER_BLOCK


@dataclass
class OpResult:
    """Outcome of one measured operation (lookup, broadcast, download)."""

    key: int
    started_at: float
    latency: float
    hops: int
    completed: bool
    correct: bool


#: historical name, kept for existing imports
LookupResult = OpResult


def host_ips(count: int) -> List[str]:
    """Deterministic host addresses: one per /24, rolling over across /16s.

    The first 65536 hosts live in ``10.0.0.0/8`` (``10.a.b.1``); each further
    block of 65536 rolls over into the next first octet (``11.a.b.1``, ...).
    Raises a clear :class:`ValueError` once the address plan is exhausted
    instead of silently reusing addresses.
    """
    if count > MAX_HOSTS:
        raise ValueError(
            f"cannot lay out {count} hosts: the address plan supports at most "
            f"{MAX_HOSTS} (one /24 per host, first octets 10..{_MAX_FIRST_OCTET})")
    ips = []
    for i in range(count):
        first = 10 + i // _HOSTS_PER_BLOCK
        rest = i % _HOSTS_PER_BLOCK
        # Interned: these strings are dict keys in the network/bandwidth/
        # latency maps and appear in every NodeRef — intern once so lookups
        # are pointer comparisons and each IP is stored a single time.
        ips.append(sys.intern(f"{first}.{rest // 256}.{rest % 256}.1"))
    return ips


# ------------------------------------------------------------------ summaries
def percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def summarise(results: List[OpResult]) -> dict:
    """Aggregate a result list into the report's standard summary block."""
    issued = len(results)
    completed = [r for r in results if r.completed]
    correct = [r for r in results if r.correct]
    latencies = [r.latency for r in completed]
    hops = [r.hops for r in completed]
    return {
        "issued": issued,
        "completed": len(completed),
        "correct": len(correct),
        "success_rate": (len(correct) / issued) if issued else 0.0,
        "latency_mean_ms": 1000.0 * (sum(latencies) / len(latencies)) if latencies else 0.0,
        "latency_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "latency_p95_ms": 1000.0 * percentile(latencies, 0.95),
        "latency_max_ms": 1000.0 * (max(latencies) if latencies else 0.0),
        "hops_mean": (sum(hops) / len(hops)) if hops else 0.0,
        "hops_max": max(hops) if hops else 0,
    }


#: report keys that describe *how* the experiment was executed rather than
#: what the workload did — excluded from the digest so results can be
#: asserted identical across kernels and controller shard counts, and so
#: the default-testbed digest is unchanged from the pre-testbeds era (the
#: environment's *effects* still show up in every digest-relevant section)
DIGEST_EXCLUDED_KEYS = frozenset({"kernel", "ctl_shards", "control_plane",
                                  "testbed", "sanitizer",
                                  "metrics", "trace", "profile",
                                  "flight_recorder", "bw_alloc",
                                  "gc", "phase_wall"})


def deterministic_report_view(report: dict) -> dict:
    """The report minus its :data:`DIGEST_EXCLUDED_KEYS` sections.

    What is left must be byte-identical for the same seed whatever the
    execution mechanics look like — kernel choice, shard count,
    observability flags, GC policy, wall-clock phase attribution.
    """
    return {k: v for k, v in report.items() if k not in DIGEST_EXCLUDED_KEYS}


def report_digest(report: dict) -> str:
    """Seed-stable digest of a scenario report.

    Execution-mechanics keys (:data:`DIGEST_EXCLUDED_KEYS`: the kernel
    choice, the shard count and the per-shard/collector stats) are excluded:
    the digest asserts *workload-level* equality, which must hold whatever
    the control plane looks like.
    """
    data = deterministic_report_view(report)
    encoded = json.dumps(data, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def write_cdf(path: str, latencies_ms: List[float]) -> int:
    """Write a ``(latency_ms, fraction)`` CSV — the paper's Figures 7-13 shape.

    ``fraction`` is the empirical CDF: the share of samples at or below each
    latency.  Returns the number of samples written.
    """
    ordered = sorted(latencies_ms)
    total = len(ordered)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["latency_ms", "fraction"])
        for index, value in enumerate(ordered, start=1):
            writer.writerow([round(value, 3), round(index / total, 6)])
    return total


# ----------------------------------------------------------------- deployment
@dataclass
class Deployment:
    """Everything a workload driver needs after the job is running."""

    sim: Simulator
    network: Network
    #: the emulated topology object, when the testbed has one (``None`` for
    #: model-only testbeds such as ``cluster`` and ``planetlab``)
    topology: Optional[object]
    controller: Controller
    job: Job
    nodes: int
    host_count: int
    seed: int
    kernel: str
    ctl_shards: int
    #: name of the testbed preset the substrate was built from
    testbed: str
    #: the report's ``topology`` entry (``topology.describe()`` on
    #: transit-stub, the preset's own description dict otherwise)
    testbed_description: dict
    join_window: float
    settle: float
    #: end of the deployment warm-up phase (joins done + grace period)
    warmup_end: float
    #: time of the last churn action (== warmup_end when churn is off)
    churn_end: float
    #: when the measured workload may start (churn_end + settle)
    measure_start: float
    #: runtime sanitizer (``--sanitize``), or ``None`` when disabled
    sanitizer: Optional[object] = None
    #: observability handle (``--metrics``/``--trace-out``/``--profile``,
    #: also installed under ``--sanitize`` for the flight recorder), or None
    observability: Optional[object] = None
    #: destination file for the Chrome trace-event JSON, or ``None``
    trace_out: Optional[str] = None
    #: GC discipline (:mod:`repro.sim.gcpolicy`), or ``None`` for ``off``
    gc_policy: Optional[object] = None
    #: wall seconds per phase — ``deploy`` (substrate build + job start),
    #: ``run`` (drain slices before ``measure_start``: joins, churn,
    #: settling) and ``drain`` (slices from ``measure_start`` on: the
    #: measured workload).  Filled by :func:`deploy` and :func:`drain`;
    #: digest-excluded ``phase_wall`` report section.
    phase_wall: Optional[dict] = None


def scaled_windows(nodes: int, join_window: Optional[float],
                   settle: Optional[float], duration: str = "full") -> tuple:
    """Default join/settle windows, scaled with ring size and duration preset.

    ``duration="short"`` is the CI smoke preset: proportionally shorter
    windows so a 20-node deployment completes in a couple of wall seconds.
    """
    if duration not in ("short", "full"):
        raise ValueError(f"unknown duration preset: {duration!r}")
    if join_window is None:
        join_window = (max(20.0, 0.4 * nodes) if duration == "short"
                       else max(60.0, 0.8 * nodes))
    if settle is None:
        settle = (max(30.0, 0.3 * nodes) if duration == "short"
                  else max(90.0, 0.6 * nodes))
    return join_window, settle


def scaled_ops(ops: int, duration: str) -> int:
    """Measured-operation count under a duration preset (short = 1/4, min 12)."""
    if duration == "short":
        return max(12, ops // 4)
    return ops


def deploy(name: str, app_factory: Callable, nodes: int, hosts: Optional[int] = None,
           seed: int = 0, kernel: str = "wheel", churn_script: Optional[str] = None,
           churn_trace: Optional[str] = None, testbed: str = "transit-stub",
           options: Optional[dict] = None, base_port: int = 20000,
           join_window: float = 60.0, settle: float = 90.0,
           warmup_grace: float = 60.0, ctl_shards: int = 1,
           sanitize: bool = False, metrics: bool = False,
           trace_out: Optional[str] = None, profile: bool = False,
           log_level: str = "INFO", bw_alloc: str = "max-min",
           gc_policy: str = "off", store_caches: bool = True) -> Deployment:
    """Build the substrate, register daemons, submit and start the job.

    ``testbed`` names the environment preset (:mod:`repro.testbeds`) the
    substrate is built from — the default ``transit-stub`` is the paper's
    ModelNet configuration: a transit-stub topology with 10 Mbps access
    links and hosts round-robined onto stub nodes.  Whatever the testbed,
    one splayd per host is registered with enough instance slots for the
    deployment plus churn headroom.  ``churn_script`` replays instance- and
    host-level churn directives; ``churn_trace`` replays an Overnet-style
    availability trace as host-level fail/recover churn (both may be given).
    ``ctl_shards`` selects how many controller front-ends share the job
    store (the paper's several-splayctl deployment); workload results are
    identical for any value.  ``sanitize`` installs the runtime sanitizer
    (:mod:`repro.sim.sanitizer`): observation-only invariant checks whose
    findings land in the report's digest-excluded ``sanitizer`` section.
    ``metrics`` / ``trace_out`` / ``profile`` enable the observability plane
    (:mod:`repro.obs`): sim-time metrics aggregated per job, causal spans
    exported as Chrome trace-event JSON, and the wall-clock kernel profiler.
    All of it is observation-only and digest-excluded, so every flag
    combination yields byte-identical report digests.  ``log_level`` sets
    the job's minimum log severity (the paper's controller-set verbosity).
    ``bw_alloc`` selects the flow-level bandwidth allocation strategy
    (:mod:`repro.net.bwalloc`) — the one bandwidth setting that can move
    digests.
    ``gc_policy`` selects the deployment's garbage-collection discipline
    (:mod:`repro.sim.gcpolicy`: ``off`` / ``tuned`` / ``manual``) and
    ``store_caches`` is the kill switch for the controller store's memoized
    host/placement views — both are pure execution mechanics, asserted
    digest-neutral by tests.
    """
    wall_started = time.perf_counter()  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
    policy = None
    if gc_policy != "off":
        from repro.sim.gcpolicy import GCPolicy
        policy = GCPolicy(gc_policy).engage()
    sim = Simulator(seed, kernel=kernel)
    sim._gcpolicy = policy
    sanitizer = None
    if sanitize:
        from repro.sim.sanitizer import Sanitizer
        sanitizer = Sanitizer(sim).install()
    observability = None
    if metrics or trace_out is not None or profile or sanitize:
        from repro.obs import Observability
        observability = Observability(sim, metrics=metrics,
                                      tracing=trace_out is not None,
                                      profile=profile).install()
        if sanitizer is not None:
            # Violation reports pick up the last-K ring entries.
            sanitizer.recorder = observability.recorder
    testbed_spec = get_testbed(testbed)
    host_count = hosts if hosts is not None else testbed_spec.default_hosts(nodes)
    ips = host_ips(host_count)

    built = testbed_spec.build(sim, ips, seed)
    network = built.network
    network.bandwidth.configure(allocator=bw_alloc)
    if sanitizer is not None:
        sanitizer.watch_network(network)

    if policy is not None and observability is not None:
        # Explicit-collect pauses show up as a profiler site (--profile).
        policy.profiler = observability.profiler
    controller = Controller(sim, network, seed=seed, shards=ctl_shards,
                            store_caches=store_caches)
    slots = max(2, math.ceil(nodes / host_count) + 2)
    for ip in ips:
        controller.register_daemon(
            Splayd(sim, network, ip, SplaydLimits(max_instances=slots)))

    spec = JobSpec(
        name=name,
        app_factory=app_factory,
        instances=nodes,
        base_port=base_port,
        log_level=log_level,
        log_max_bytes=256_000,
        churn_script=churn_script,
        churn_trace=churn_trace,
        options={**(options or {}), "join_window": join_window},
    )
    job = controller.submit(spec)
    controller.start(job)

    warmup_end = join_window + warmup_grace
    churn_end = warmup_end
    # The churn manager the shard just built holds the combined (script +
    # trace) action list — the single source of truth for when churn ends.
    manager = controller.churn_managers.get(job.job_id)
    if manager is not None and manager.actions:
        churn_end = max(warmup_end, max(a.time for a in manager.actions))
    if policy is not None:
        # Everything alive now survives the whole run — freeze it out of
        # every future collection (and go fully manual if asked).
        policy.after_deploy()
    phase_wall = {"deploy": time.perf_counter() - wall_started,  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
                  "run": 0.0, "drain": 0.0}
    return Deployment(sim=sim, network=network, topology=built.topology,
                      controller=controller, job=job, nodes=nodes,
                      host_count=host_count, seed=seed, kernel=kernel,
                      ctl_shards=ctl_shards, testbed=testbed,
                      testbed_description=built.description,
                      join_window=join_window, settle=settle,
                      warmup_end=warmup_end, churn_end=churn_end,
                      measure_start=churn_end + settle, sanitizer=sanitizer,
                      observability=observability, trace_out=trace_out,
                      gc_policy=policy, phase_wall=phase_wall)


# -------------------------------------------------------------------- drivers
def joined_apps(job: Job) -> list:
    """Live application objects that consider themselves joined, in id order."""
    return [i.app for i in job.live_instances()
            if i.app is not None and getattr(i.app, "joined", False)]


def lookup_stream(sim: Simulator, job: Job, count: int, spacing: float, bits: int,
                  rng, results: List[OpResult],
                  expected_owner: Callable[[Job, int], object],
                  failure: type) -> Generator:
    """Coroutine issuing ``count`` key lookups from random live nodes.

    The application object must expose ``joined`` and a generator
    ``lookup(key) -> (owner, hops)`` raising ``failure`` (the workload's own
    exception type) on routing failure;
    ``expected_owner(job, key)`` supplies the ground truth against which the
    returned owner is checked.
    """
    for _ in range(count):
        apps = joined_apps(job)
        if not apps:
            yield spacing
            continue
        origin = rng.choice(sorted(apps, key=lambda a: (a.me.ip, a.me.port)))
        key = rng.randrange(1 << bits)
        started = sim.now
        try:
            owner, hops = yield from origin.lookup(key)
        except (failure, RpcError, FutureCancelled, ProcessKilled):
            # No route, or the origin was killed mid-lookup (its pending
            # futures are cancelled); anything else is a bug and propagates.
            results.append(OpResult(key, started, sim.now - started, 0, False, False))
        else:
            expected = expected_owner(job, key)
            correct = (expected is not None and owner.ip == expected.ip
                       and owner.port == expected.port)
            results.append(OpResult(key, started, sim.now - started, hops, True, correct))
        yield spacing


def drain(sim: Simulator, driver: Process, hard_cap: float, step: float = 60.0,
          deployment: Optional[Deployment] = None) -> None:
    """Run the simulation until ``driver`` finishes (bounded by ``hard_cap``).

    The loop's ``step``-sized slices are deterministic sim-time points: the
    manual GC policy runs its explicit collects between them (never inside
    event execution), and when ``deployment`` is given each slice's wall
    time is attributed to the ``run`` phase (slices starting before
    ``measure_start``: joins, churn, settling) or the ``drain`` phase (the
    measured workload) — attribution only observes the slices the loop
    already made, so execution and digests are untouched.

    On a deadline overrun (the driver still pending at ``hard_cap``) the
    flight recorder — when installed — dumps the last ring entries to
    stderr, so a hung workload leaves its final dispatches behind.
    """
    mark = deployment.measure_start if deployment is not None else 0.0
    walls = deployment.phase_wall if deployment is not None else None
    policy = sim._gcpolicy
    while not driver.done.done() and sim.now < hard_cap:
        slice_start = sim.now
        wall_started = time.perf_counter()  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
        sim.run(until=min(hard_cap, sim.now + step))
        if walls is not None:
            phase = "run" if slice_start < mark else "drain"
            walls[phase] += time.perf_counter() - wall_started  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
        if policy is not None:
            policy.checkpoint()
    if not driver.done.done():
        obs = getattr(sim, "_obs", None)
        if obs is not None:
            header = (f"flight recorder: driver still pending at the "
                      f"t={hard_cap:.0f}s deadline")
            for line in obs.ring_lines(header=header):
                print(line, file=sys.stderr)


# --------------------------------------------------------------------- report
def rpc_totals(job: Job) -> dict:
    """RPC counters aggregated over instances alive at the end of the run."""
    totals = {"calls_sent": 0, "calls_received": 0, "retries": 0,
              "timeouts": 0, "remote_errors": 0, "send_failures": 0}
    for instance in job.live_instances():
        stats = instance.rpc.stats
        for key in totals:
            totals[key] += getattr(stats, key)
    return totals


def base_report(scenario: str, deployment: Deployment, bits: Optional[int] = None) -> dict:
    """The report skeleton shared by every workload scenario."""
    sim, network, job = deployment.sim, deployment.network, deployment.job
    controller = deployment.controller
    report = {
        "scenario": scenario,
        "seed": deployment.seed,
        "kernel": deployment.kernel,
        "ctl_shards": deployment.ctl_shards,
        "testbed": deployment.testbed,
        "nodes": deployment.nodes,
        "hosts": deployment.host_count,
        "bits": bits,
        "topology": deployment.testbed_description,
        "virtual_time": sim.now,
        "events_executed": sim.executed_events,
        "job": controller.job_status(job),
        "churn": None,
        "under_churn": None,
        "measured": None,
        "network": {
            "messages_sent": network.stats.messages_sent,
            "messages_delivered": network.stats.messages_delivered,
            "messages_dropped": network.stats.messages_dropped,
            "bytes_sent": network.stats.bytes_sent,
        },
        "rpc": rpc_totals(job),
        # Digest-excluded (DIGEST_EXCLUDED_KEYS): the allocator *choice* is
        # execution configuration; its effects land in the digest-relevant
        # sections above (and for max-min are pinned byte-identical).
        "bw_alloc": {
            "allocator": network.bandwidth.allocator_name,
            "incremental": network.bandwidth.incremental,
            "reallocations": network.bandwidth.reallocations,
            "flows_allocated": network.bandwidth.flows_allocated,
            "by_class": network.bandwidth.class_stats(),
            "busiest_links": network.bandwidth.busiest_links(),
        },
        "log_records_collected": len(controller.job_logs(job)),
        "log_records_dropped": job.stats.log_records_dropped,
        "control_plane": controller.control_plane_status(),
    }
    if deployment.phase_wall is not None:
        # Digest-excluded: wall-clock attribution (deploy vs run vs drain),
        # the scale bench's per-phase columns.
        report["phase_wall"] = {phase: round(seconds, 3)
                                for phase, seconds in deployment.phase_wall.items()}
    policy = deployment.gc_policy
    if policy is not None:
        # Restore the interpreter's ambient GC configuration before
        # reporting; the section (digest-excluded) records what the policy
        # did — freeze size, explicit collects, pause wall.
        policy.disengage()
        report["gc"] = policy.section()
    if deployment.sanitizer is not None:
        # Digest-excluded (like kernel/control_plane): the sanitizer reports
        # on execution mechanics, and turning it on must not change results.
        report["sanitizer"] = deployment.sanitizer.summary()
    obs = deployment.observability
    if obs is not None:
        # All digest-excluded for the same reason: observation never feeds
        # back into the workload, and the digest asserts exactly that.
        if obs.metrics_enabled:
            report["metrics"] = obs.metrics_section(deployment)
        if obs.tracer is not None:
            report["trace"] = obs.trace_section()
            if deployment.trace_out is not None:
                report["trace"]["written_to"] = deployment.trace_out
                report["trace"]["spans_written"] = obs.tracer.write(
                    deployment.trace_out)
        if obs.profiler is not None:
            report["profile"] = obs.profile_section()
        # The ring is always on while the handle is installed: failure
        # paths (min-success, sanitizer, deadline) print it for context.
        report["flight_recorder"] = obs.ring_lines()
    churn_manager = controller.churn_managers.get(job.job_id)
    if churn_manager is not None:
        stats = churn_manager.stats
        report["churn"] = {
            "actions_applied": stats.actions_applied,
            "joined": stats.instances_joined,
            "left": stats.instances_left,
            "crashed": stats.instances_crashed,
        }
        if stats.hosts_failed or stats.hosts_recovered:
            # Conditional for digest stability: script-only churn reports
            # keep their pre-testbeds shape byte for byte.
            report["churn"]["hosts_failed"] = stats.hosts_failed
            report["churn"]["hosts_recovered"] = stats.hosts_recovered
    return report
