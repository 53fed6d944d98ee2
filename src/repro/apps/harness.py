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
the same ``report_digest``).  The digest excludes the control-plane and
observation sections, so it is also identical across ``--ctl-shards``,
``--sanitize``, ``--metrics`` and ``--gc-policy`` settings — execution
mechanics must never change workload results.

Public entry points: :class:`RunConfig` (the one description of a run's
execution options), :class:`OverlayNode` / :class:`RoutingNode` (what the
applications are built on), :func:`deploy` (+ :class:`Deployment`),
:func:`scaled_windows` / :func:`scaled_ops` (duration presets),
:func:`run_lookup_scenario` / :func:`lookup_stream` / :func:`drain`
(drivers), and :func:`base_report` / :func:`summarise` /
:func:`report_digest` / :func:`write_cdf` (reporting).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Generator, List, Optional

from repro.core.jobs import Job, JobSpec
from repro.lib.misc import Membership
from repro.lib.ring import hash_key
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.futures import FutureCancelled
from repro.sim.kernel import Simulator
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import substream
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
#: asserted identical across controller shard counts, and so
#: the default-testbed digest is unchanged from the pre-testbeds era (the
#: environment's *effects* still show up in every digest-relevant section)
DIGEST_EXCLUDED_KEYS = frozenset({"ctl_shards", "control_plane",
                                  "testbed", "sanitizer",
                                  "metrics", "trace", "profile",
                                  "flight_recorder", "bw_alloc",
                                  "gc", "phase_wall"})


def deterministic_report_view(report: dict) -> dict:
    """The report minus its :data:`DIGEST_EXCLUDED_KEYS` sections.

    What is left must be byte-identical for the same seed whatever the
    execution mechanics look like — shard count, observability flags, GC
    policy, wall-clock phase attribution.
    """
    return {k: v for k, v in report.items() if k not in DIGEST_EXCLUDED_KEYS}


def report_digest(report: dict) -> str:
    """Seed-stable digest of a report's :func:`deterministic_report_view`."""
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


# -------------------------------------------------------------- run description
@dataclass(frozen=True)
class RunConfig:
    """How one scenario run is executed — the one place an option lives.

    Built once (from argparse by the CLI, from a grid cell by the bench, by
    hand in tests), passed whole to a workload runner
    (``runner(config, **workload_params)``) and on to :func:`deploy`, which
    keeps it — resolved — on :attr:`Deployment.config`.  Every default is
    stated here and nowhere else; what a workload itself varies (lookups,
    identifier bits, fanout, chunks) is a runner parameter, not a field.
    Nothing here may move a report digest except the deployment itself
    (``nodes`` / ``hosts`` / ``seed`` / ``testbed`` / churn / windows) and
    ``bw_alloc``.
    """

    #: application instances to deploy
    nodes: int = 50
    #: physical hosts (``None``: the testbed's default for ``nodes``)
    hosts: Optional[int] = None
    #: root determinism seed
    seed: int = 0
    #: environment preset (:mod:`repro.testbeds`) the substrate is built from
    testbed: str = "transit-stub"
    #: replay the workload's default churn script (``churn_script`` wins)
    churn: bool = False
    #: churn script text: instance- and host-level directives
    churn_script: Optional[str] = None
    #: availability trace text, replayed as host-level fail/recover churn
    churn_trace: Optional[str] = None
    #: joins are staggered over this many seconds, and the grace period
    #: after churn before measuring (``None``: :func:`scaled_windows`)
    join_window: Optional[float] = None
    settle: Optional[float] = None
    #: quiet period between the last join and ``warmup_end``
    warmup_grace: float = 60.0
    #: ``"short"`` shrinks the default windows and op counts (CI smoke)
    duration: str = "full"
    #: controller front-ends sharing the job store
    ctl_shards: int = 1
    #: runtime sanitizer (:mod:`repro.sim.sanitizer`), observation-only
    sanitize: bool = False
    #: observability plane (:mod:`repro.obs`): sim-time metrics, causal
    #: spans written as Chrome trace-event JSON, wall-clock kernel profiler
    metrics: bool = False
    trace_out: Optional[str] = None
    profile: bool = False
    #: the job's minimum log severity (the controller-set verbosity)
    log_level: str = "INFO"
    #: flow-level bandwidth allocation strategy (:mod:`repro.net.bwalloc`)
    bw_alloc: str = "max-min"
    #: host-interpreter GC discipline (:mod:`repro.sim.gcpolicy`)
    gc_policy: str = "tuned"

    def __post_init__(self) -> None:
        for name in ("nodes", "hosts", "ctl_shards"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")
        for name in ("join_window", "settle", "warmup_grace"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must not be negative, not {value:g}")

    def resolved(self, default_churn_script: str) -> "RunConfig":
        """This run with its deployment-dependent defaults filled in.

        The windows become numbers (:func:`scaled_windows`) and ``churn``
        without an explicit script becomes ``default_churn_script``.
        """
        join_window, settle = scaled_windows(self.nodes, self.join_window,
                                             self.settle, self.duration)
        script = self.churn_script
        if script is None and self.churn:
            script = default_churn_script
        return replace(self, join_window=join_window, settle=settle,
                       churn_script=script)


# ----------------------------------------------------------------- deployment
@dataclass
class Deployment:
    """Everything a workload driver needs after the job is running."""

    #: the run's options, resolved (windows are numbers, ``churn_script`` is
    #: the script that replays)
    config: RunConfig
    sim: Simulator
    network: Network
    controller: Controller
    job: Job
    host_count: int
    #: the report's ``topology`` entry (``topology.describe()`` on
    #: transit-stub, the preset's own description dict otherwise)
    testbed_description: dict
    #: end of the deployment warm-up phase (joins done + grace period)
    warmup_end: float
    #: time of the last churn action (== warmup_end when churn is off)
    churn_end: float
    #: when the measured workload may start (churn_end + settle)
    measure_start: float
    #: wall seconds per phase — ``deploy`` (substrate build + job start),
    #: ``run`` (drain slices before ``measure_start``: joins, churn,
    #: settling) and ``drain`` (slices from ``measure_start`` on: the
    #: measured workload).  Filled by :func:`deploy` and :func:`drain`;
    #: digest-excluded ``phase_wall`` report section.
    phase_wall: dict
    #: runtime sanitizer (``--sanitize``), or ``None`` when disabled
    sanitizer: Optional[object] = None
    #: observability handle (``--metrics``/``--trace-out``/``--profile``,
    #: also installed under ``--sanitize`` for the flight recorder), or None
    observability: Optional[object] = None
    #: GC discipline (:mod:`repro.sim.gcpolicy`), or ``None`` for ``off``
    gc_policy: Optional[object] = None


def scaled_windows(nodes: int, join_window: Optional[float],
                   settle: Optional[float], duration: str = "full") -> tuple:
    """Default join/settle windows, scaled with ring size and duration preset.

    Big rings need proportionally longer to join and re-converge;
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


def deploy(name: str, app_factory: Callable, config: Optional[RunConfig] = None,
           *, options: Optional[dict] = None,
           default_churn_script: str = FLAGSHIP_CHURN_SCRIPT,
           **fields) -> Deployment:
    """Build the substrate, register daemons, submit and start the job.

    ``config`` (default: ``RunConfig()``) with ``fields`` applied on top —
    ``deploy(name, factory, nodes=40, seed=3)`` and
    ``deploy(name, factory, RunConfig(nodes=40, seed=3))`` are the same call
    — says how; see :class:`RunConfig` for every option.  ``options`` are the
    job options handed to each application instance, and
    ``default_churn_script`` is the script ``config.churn`` stands for.

    Whatever the testbed, one splayd per host is registered with enough
    instance slots for the deployment plus churn headroom; a churn script and
    an availability trace may both be given and replay merged.  Sanitizer,
    observability plane and GC policy are observation-only and
    digest-excluded, and workload results are identical for any shard count,
    so every combination of them yields byte-identical report digests;
    ``bw_alloc`` is the one execution option that can move one.
    """
    wall_started = time.perf_counter()  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
    config = replace(config or RunConfig(), **fields).resolved(default_churn_script)
    nodes, seed = config.nodes, config.seed
    policy = None
    if config.gc_policy != "off":
        from repro.sim.gcpolicy import GCPolicy
        policy = GCPolicy(config.gc_policy).engage()
    sim = Simulator(seed)
    sanitizer = None
    if config.sanitize:
        from repro.sim.sanitizer import Sanitizer
        sanitizer = Sanitizer(sim).install()
    observability = None
    if (config.metrics or config.trace_out is not None or config.profile
            or config.sanitize):
        from repro.obs import Observability
        observability = Observability(sim, metrics=config.metrics,
                                      tracing=config.trace_out is not None,
                                      profile=config.profile).install()
        if sanitizer is not None:
            # Violation reports pick up the last-K ring entries.
            sanitizer.recorder = observability.recorder
    testbed_spec = get_testbed(config.testbed)
    host_count = (config.hosts if config.hosts is not None
                  else testbed_spec.default_hosts(nodes))
    ips = host_ips(host_count)

    built = testbed_spec.build(sim, ips, seed)
    network = built.network
    network.bandwidth.configure(allocator=config.bw_alloc)
    if sanitizer is not None:
        sanitizer.watch_network(network)

    controller = Controller(sim, network, seed=seed, shards=config.ctl_shards)
    # Every host gets the same limits, so they share the one object.
    limits = SplaydLimits(max_instances=max(2, math.ceil(nodes / host_count) + 2))
    for ip in ips:
        controller.register_daemon(Splayd(sim, network, ip, limits))

    spec = JobSpec(
        name=name,
        app_factory=app_factory,
        instances=nodes,
        log_level=config.log_level,
        log_max_bytes=256_000,
        churn_script=config.churn_script,
        churn_trace=config.churn_trace,
        options={**(options or {}), "join_window": config.join_window},
    )
    job = controller.submit(spec)
    controller.start(job)

    warmup_end = config.join_window + config.warmup_grace
    churn_end = warmup_end
    # The churn manager the shard just built holds the combined (script +
    # trace) action list — the single source of truth for when churn ends.
    manager = controller.churn_managers.get(job.job_id)
    if manager is not None and manager.actions:
        churn_end = max(warmup_end, max(a.time for a in manager.actions))
    if policy is not None:
        # Everything alive now survives the whole run — freeze it out of
        # every future collection.
        policy.after_deploy()
    phase_wall = {"deploy": time.perf_counter() - wall_started,  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
                  "run": 0.0, "drain": 0.0}
    return Deployment(config=config, sim=sim, network=network,
                      controller=controller, job=job, host_count=host_count,
                      testbed_description=built.description,
                      warmup_end=warmup_end, churn_end=churn_end,
                      measure_start=churn_end + config.settle,
                      phase_wall=phase_wall, sanitizer=sanitizer,
                      observability=observability, gc_policy=policy)


# --------------------------------------------------------------- applications
class OverlayNode:
    """One overlay node bound to one runtime instance: what applications share.

    A subclass names its ``label`` (the substream its draws come from and the
    job's ``<label>_members`` directory), reads its options and builds its
    state in :meth:`_configure`, serves every ``_rpc_<name>`` method it
    defines as ``<name>`` (SPLAY's ``rpc.server`` convention) and says what
    going live means: :meth:`_go_live` (enter the directory, start the
    periodic tasks), reached through :meth:`_found` by the overlay's founder
    and through :meth:`_join` by everyone else.  Job option ``join_window``:
    joins are staggered uniformly over this many seconds to avoid a
    thundering herd at deployment.
    """

    label = ""
    #: an empty directory is founded anew, not joined (gossip: no founder state)
    founds_when_empty = False
    _handlers: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = tuple((name[5:], name) for name in dir(cls)
                              if name.startswith("_rpc_"))

    def __init__(self, instance, **overrides) -> None:
        self.instance = instance
        self.events = instance.events
        self.rpc = instance.rpc
        self.log = instance.logger
        self.me = instance.me
        self.joined = False
        self._rng = substream(instance.events.sim.seed, self.label,
                              instance.job.job_id, instance.instance_id)
        options = {**instance.options, **overrides}
        self.join_window = float(options.get("join_window", 30.0))
        self._configure(options)
        for served_as, name in self._handlers:
            self.rpc.register(served_as, getattr(self, name))

    @classmethod
    def factory(cls, **options) -> Callable:
        """A :class:`JobSpec` application factory; ``options`` override the
        job options for every instance (``chord_factory(bits=10)``)."""
        def _factory(instance):
            node = cls(instance, **options)
            node.start()
            return node

        return _factory

    def start(self) -> None:
        """Found the overlay (the job's first instance), or join it after one
        draw over ``join_window``."""
        shared = self.instance.job.shared
        key = self.label + "_members"
        first = key not in shared
        if first:
            shared[key] = Membership()
        #: the job's rendezvous directory (the controller's node list)
        members = self.members = shared[key]
        if first or (self.founds_when_empty and not members):
            self._found()
        else:
            self._join(self._rng.uniform(0.0, self.join_window)
                       if self.join_window > 0 else 0.0)
        # Keep the shared member registry honest on teardown.
        self.instance.context.add_cleanup(lambda: members.discard(self.me))

    def _found(self) -> None:
        self._go_live()

    def _join(self, delay: float) -> None:
        if delay > 0:
            self.events.timer(delay, self._go_live)
        else:
            self._go_live()

    def _pick_member(self) -> Optional[NodeRef]:
        """A random other member of the directory (``None`` when alone)."""
        others = self.members.without(self.me)
        return self._rng.choice(others) if others else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.me} joined={self.joined}>"


@dataclass
class RoutingStats:
    """Per-node counters of a key-based-routing overlay."""

    lookups_started: int = 0
    lookups_completed: int = 0
    lookups_failed: int = 0
    hops_total: int = 0
    join_attempts: int = 0
    maintenance_rounds: int = 0
    dead_nodes_noticed: int = 0


class RoutingNode(OverlayNode):
    """A node of a key-based-routing overlay (Chord, Pastry).

    Holds what such overlays share: the identifier width ``bits``, the
    per-hop RPC settings ``hop_timeout`` / ``hop_retries``, ``me`` with its
    hashed identifier, the join retry loop and the one iterative
    :meth:`lookup` walk.  The overlay supplies the ``step`` and ``claim``
    handlers, :meth:`_join_via`, ``_note_dead``, its hop budget ``max_hops``,
    ``failure`` (the exception class its lookups raise) and optionally
    ``_learned`` (told every node reference a walk sees).
    """

    failure: type = Exception
    _learned = None

    def _configure(self, options: dict) -> None:
        self.bits = int(options.get("bits", 32))
        self.hop_timeout = float(options.get("hop_timeout", 1.5))
        self.hop_retries = int(options.get("hop_retries", 1))
        self.me = self.me.with_id(hash_key(f"{self.me.ip}:{self.me.port}", self.bits))
        self.stats = RoutingStats()

    def _join(self, delay: float) -> None:
        self.events.thread(self._join_main, delay=delay,
                           name=f"{self.instance.context.name}.join")

    def _join_main(self) -> Generator:
        """Join coroutine: adopt state through a random member, go live, notify.

        The overlay's part is the coroutine ``_join_via(bootstrap)``: it adopts
        state or raises :class:`RpcError`, and returns the nodes to notify.
        """
        for attempt in range(1, 16):
            self.stats.join_attempts += 1
            bootstrap = self._pick_member()
            if bootstrap is None:
                yield 2.0
                continue
            try:
                neighbours = yield from self._join_via(bootstrap)
            except RpcError as exc:
                self.log.debug(f"join attempt {attempt} via {bootstrap} failed: {exc}")
                yield 1.0 + self._rng.uniform(0.0, 1.0)
                continue
            self._go_live()
            # Announce ourselves right away instead of waiting a full period.
            for node in neighbours:
                self.rpc.a_call(node, "notify", self.me,
                                timeout=self.hop_timeout, retries=0)
            return
        self.log.error(f"node {self.me} could not join, giving up")
        self.events.exit()

    def lookup(self, key: int) -> Generator:
        """Iteratively find the node owning ``key``; returns ``(owner, hops)``.

        One ``step`` per node asked, then ``claim`` to confirm the owner.  Dead
        hops go to an ``avoid`` set and the walk restarts from the local node,
        so a lookup survives nodes failing underneath it while the overlay
        itself stays connected.
        """
        key = key % (1 << self.bits)
        self.stats.lookups_started += 1
        tracer = self.rpc._tracer
        # the clock is read for the span only
        started = self.events.sim.now if tracer is not None else 0.0
        learned = self._learned
        avoid: set = set()
        current = self.me
        hops = 0
        while hops < self.max_hops:
            if current == self.me:
                response = self._rpc_step(key, list(avoid))
            else:
                try:
                    response = yield self.rpc.call(current, "step", key, list(avoid),
                                                   timeout=self.hop_timeout,
                                                   retries=self.hop_retries)
                except RpcError:
                    avoid.add(current.id)
                    self._note_dead(current)
                    current = self.me
                    hops += 1
                    continue
            hops += 1
            node = NodeRef.coerce(response["node"])
            if learned is not None:
                learned(node)
            if response["done"]:
                # Confirm ownership with the claimed owner; bounce along its
                # neighbours if a recent joiner sits closer to the key.
                owner = node
                confirmed = None
                for _bounce in range(4):
                    if owner == self.me:
                        claim = self._rpc_claim(key)
                    else:
                        try:
                            claim = yield self.rpc.call(owner, "claim", key,
                                                        timeout=self.hop_timeout,
                                                        retries=self.hop_retries)
                        except RpcError:
                            avoid.add(owner.id)
                            self._note_dead(owner)
                            break  # restart the walk from the local node
                    hops += 1
                    if claim["mine"]:
                        confirmed = owner
                        break
                    candidate = NodeRef.coerce(claim["node"])
                    if learned is not None:
                        learned(candidate)
                    if candidate == owner or candidate.id in avoid:
                        confirmed = owner  # stale bounce; accept the claimer
                        break
                    owner = candidate
                else:
                    confirmed = owner  # bounce budget spent; best known owner
                if confirmed is not None:
                    self.stats.lookups_completed += 1
                    self.stats.hops_total += hops
                    if tracer is not None:
                        # per-hop step/claim RPC spans nest under this one
                        tracer.add(self.me.ip, "lookup", started,
                                   self.events.sim.now - started, cat="lookup",
                                   args={"key": key, "hops": hops})
                    registry = self.rpc._metrics
                    if registry is not None:
                        registry.inc("lookup.completed")
                        registry.observe("lookup.hops", hops)
                    return confirmed, hops
                current = self.me
                continue
            if node == current or (node == self.me and current != self.me):
                # No progress: the remote's best route is itself or bounces
                # back; blacklist the stuck hop and restart locally.
                avoid.add(node.id)
                current = self.me
                continue
            current = node
        self.stats.lookups_failed += 1
        if tracer is not None:
            tracer.add(self.me.ip, "lookup.failed", started,
                       self.events.sim.now - started, cat="lookup",
                       args={"key": key, "hops": hops})
        if self.rpc._metrics is not None:
            self.rpc._metrics.inc("lookup.failed")
        raise self.failure(f"lookup({key}) from {self.me} exceeded {self.max_hops} hops")


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


def drain(deployment: Deployment, driver: Process, hard_cap: float,
          step: float = 60.0) -> None:
    """Run the simulation until ``driver`` finishes (bounded by ``hard_cap``).

    The loop's ``step``-sized slices are deterministic sim-time points; each
    slice's wall time is attributed to the ``run`` phase (slices starting
    before ``measure_start``: joins, churn, settling) or the ``drain`` phase
    (the measured workload) — attribution only observes the slices the loop
    already made, so execution and digests are untouched.

    On a deadline overrun (the driver still pending at ``hard_cap``) the
    flight recorder — when installed — dumps the last ring entries to
    stderr, so a hung workload leaves its final dispatches behind.
    """
    sim, walls = deployment.sim, deployment.phase_wall
    while not driver.done.done() and sim.now < hard_cap:
        phase = "run" if sim.now < deployment.measure_start else "drain"
        wall_started = time.perf_counter()  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
        sim.run(until=min(hard_cap, sim.now + step))
        walls[phase] += time.perf_counter() - wall_started  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
    if not driver.done.done():
        obs = deployment.observability
        if obs is not None:
            header = (f"flight recorder: driver still pending at the "
                      f"t={hard_cap:.0f}s deadline")
            for line in obs.ring_lines(header=header):
                print(line, file=sys.stderr)


def run_lookup_scenario(name: str, config: RunConfig, app_factory: Callable,
                        failure: type,
                        expected_owner: Callable[[Job, int, int], object], *,
                        lookups: int, bits: int, spacing: float,
                        probe_interval: float, options: Optional[dict] = None,
                        default_churn_script: str = FLAGSHIP_CHURN_SCRIPT,
                        workload: Optional[dict] = None) -> dict:
    """Deploy a key-based-routing overlay, measure lookups, return the report.

    The scenario Chord and Pastry share: a probe stream of lookups every
    ``probe_interval`` seconds while churn is active (reported as
    ``under_churn``, not gating), then ``lookups`` measured ones ``spacing``
    apart once the overlay has re-converged (:func:`lookup_stream` says what
    the application must expose).  Instances get ``bits`` plus ``options``
    as job options; ``workload`` is the report's workload-specific section,
    if the overlay has one.
    """
    lookups = scaled_ops(lookups, config.duration)
    deployment = deploy(name, app_factory, config,
                        options={"bits": bits, **(options or {})},
                        default_churn_script=default_churn_script)
    sim, job, seed = deployment.sim, deployment.job, deployment.config.seed

    def _owner(job, key):
        return expected_owner(job, key, bits)

    probe_results: List[OpResult] = []
    if deployment.churn_end > deployment.warmup_end:
        probe_count = int((deployment.churn_end - deployment.warmup_end) / probe_interval)
        probe = Process(sim, lookup_stream(
            sim, job, probe_count, probe_interval, bits,
            substream(seed, "workload-churn"), probe_results, _owner,
            failure=failure), name="workload.under-churn")
        probe.start(delay=deployment.warmup_end)

    results: List[OpResult] = []
    driver = Process(sim, lookup_stream(
        sim, job, lookups, spacing, bits, substream(seed, "workload"),
        results, _owner, failure=failure), name="workload.measured")
    driver.start(delay=deployment.measure_start)

    # Run until the measured workload drains (lookups take several RTTs each,
    # so a fixed horizon would truncate the stream); a hard cap bounds runaway.
    hard_cap = deployment.measure_start + lookups * (spacing + 30.0) + 300.0
    drain(deployment, driver, hard_cap)

    report = base_report(name, deployment, bits=bits)
    if workload is not None:
        report["workload"] = workload
    report["under_churn"] = summarise(probe_results) if probe_results else None
    report["measured"] = summarise(results)
    report["cdf_samples_ms"] = sorted(
        round(1000.0 * r.latency, 3) for r in results if r.completed)
    return report


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
    controller, config = deployment.controller, deployment.config
    report = {
        "scenario": scenario,
        "seed": config.seed,
        "ctl_shards": config.ctl_shards,
        "testbed": config.testbed,
        "nodes": config.nodes,
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
            "reallocations": network.bandwidth.reallocations,
            "flows_allocated": network.bandwidth.flows_allocated,
            "by_class": network.bandwidth.class_stats(),
            "busiest_links": network.bandwidth.busiest_links(),
        },
        "log_records_collected": len(controller.job_logs(job)),
        "log_records_dropped": job.stats.log_records_dropped,
        "control_plane": controller.control_plane_status(),
    }
    # Digest-excluded: wall-clock attribution (deploy vs run vs drain), the
    # scale bench's per-phase columns.
    report["phase_wall"] = {phase: round(seconds, 3)
                            for phase, seconds in deployment.phase_wall.items()}
    policy = deployment.gc_policy
    if policy is not None:
        # Restore the interpreter's ambient GC configuration before
        # reporting; the section (digest-excluded) records what the policy
        # did — freeze size, the post-deploy collect and its pause.
        policy.disengage()
        report["gc"] = policy.section()
    if deployment.sanitizer is not None:
        # Digest-excluded (like control_plane): the sanitizer reports
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
            if config.trace_out is not None:
                report["trace"]["written_to"] = config.trace_out
                report["trace"]["spans_written"] = obs.tracer.write(
                    config.trace_out)
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
