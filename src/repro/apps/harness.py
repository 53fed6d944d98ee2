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
applications are built on), :class:`BackoffTask` (the routing overlays'
backed-off maintenance round) and :func:`consistency` (their ring oracle),
:func:`deploy` (+ :class:`Deployment`), :func:`scaled_windows` /
:func:`scaled_ops` (duration presets), :class:`Scenario` /
:class:`LookupScenario` (a workload declared once, and the one pipeline
that runs it), :func:`lookup_stream` / :func:`drain`, and :func:`base_report`
/ :func:`summarise` / :func:`report_digest` / :func:`write_cdf` (reporting).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.core.jobs import Job, JobSpec
from repro.lib.misc import Membership
from repro.lib.ring import hash_key
from repro.lib.rpc import RpcError, RpcTimeout
from repro.net.address import NodeRef
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.futures import Future, FutureCancelled
from repro.sim.kernel import Simulator
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import substream
from repro.testbeds import default_host_policy, get_testbed

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
                                  "gc", "phase_wall", "handler_errors",
                                  "maintenance"})


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

    Built once (from argparse by the CLI, by hand in tests), passed whole
    to a workload runner (``runner(config, **workload_params)``) and on to
    :func:`deploy`, which keeps it — resolved — on
    :attr:`Deployment.config`.  Every default is stated here and nowhere
    else; what a workload itself varies (lookups, identifier bits, fanout,
    chunks) is a runner parameter, not a field.
    Nothing here may move a report digest except the deployment itself
    (``nodes`` / ``hosts`` / ``seed`` / ``testbed`` / churn / windows):
    every execution option is digest-neutral.
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
    #: controller front-ends sharing the controller's tables
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

    def resolved(self) -> "RunConfig":
        """This run with its deployment-dependent defaults filled in.

        ``hosts`` becomes :func:`~repro.testbeds.default_host_policy` of
        ``nodes`` (at most :data:`MAX_HOSTS`) and the windows become numbers
        (:func:`scaled_windows`); an unknown ``testbed`` is a ``KeyError``.
        ``churn`` names no script of its own: a
        :class:`Scenario` supplies its ``default_churn_script``, and a bare
        ``churn`` is a :class:`ValueError` rather than a run without churn.
        """
        if self.churn and self.churn_script is None:
            raise ValueError("churn is set but no churn_script says what it replays")
        get_testbed(self.testbed)  # an unknown name fails before anything is built
        hosts = (self.hosts if self.hosts is not None
                 else default_host_policy(self.nodes))
        if hosts > MAX_HOSTS:
            raise ValueError(f"cannot lay out {hosts} hosts: the address plan "
                             f"supports at most {MAX_HOSTS}")
        join_window, settle = scaled_windows(self.nodes, self.join_window,
                                             self.settle, self.duration)
        return replace(self, hosts=hosts, join_window=join_window, settle=settle)


# ----------------------------------------------------------------- deployment
@dataclass
class Deployment:
    """Everything a workload driver needs after the job is running."""

    #: the run's options, resolved (hosts and windows are numbers)
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
           *, options: Optional[dict] = None, **fields) -> Deployment:
    """Build the substrate, register daemons, submit and start the job.

    ``config`` (default: ``RunConfig()``) with ``fields`` applied on top —
    ``deploy(name, factory, nodes=40, seed=3)`` and
    ``deploy(name, factory, RunConfig(nodes=40, seed=3))`` are the same call
    — says how; see :class:`RunConfig` for every option.  ``options`` are the
    job options handed to each application instance.

    Whatever the testbed, one splayd per host is registered with enough
    instance slots for the deployment plus churn headroom; a churn script and
    an availability trace may both be given and replay merged.  Sanitizer,
    observability plane and GC policy are observation-only and
    digest-excluded, and workload results are identical for any shard count,
    so every combination of them yields byte-identical report digests: no
    execution option moves one.
    """
    wall_started = time.perf_counter()  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
    config = replace(config or RunConfig(), **fields).resolved()
    nodes, seed = config.nodes, config.seed
    policy = None
    if config.gc_policy != "off":
        from repro.sim.gcpolicy import GCPolicy
        policy = GCPolicy(config.gc_policy).engage()
    try:
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
        host_count = config.hosts
        ips = host_ips(host_count)
        built = get_testbed(config.testbed).builder(sim, ips, seed)
        network = built.network
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
    except BaseException:
        # no run follows: the interpreter gets its own GC settings back
        if policy is not None:
            policy.disengage()
        raise

    warmup_end = config.join_window + config.warmup_grace
    churn_end = warmup_end
    # The churn manager the controller just built holds the combined (script +
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

    Every node class declares its ``__slots__``: a splayd hosts many
    instances, and a node keeps no ``__dict__``.
    """

    __slots__ = ("instance", "events", "rpc", "log", "me", "joined", "_rng",
                 "members", "__weakref__")

    label = ""
    #: an empty directory is founded anew, not joined (gossip: no founder state)
    founds_when_empty = False
    #: handlers left for the subclass's :meth:`_go_live` to register (until
    #: then a caller gets "unknown method", an :class:`RpcError`, as from a
    #: node that is not there)
    served_once_live: tuple = ()
    _handlers: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = tuple((name[5:], name) for name in dir(cls)
                              if name.startswith("_rpc_")
                              and name[5:] not in cls.served_once_live)

    def __init__(self, instance, **overrides) -> None:
        self.instance = instance
        self.events = instance.events
        self.rpc = instance.rpc
        self.log = instance.logger
        self.me = instance.me
        self.joined = False
        self._rng = substream(instance.events.sim.seed, self.label,
                              instance.job.job_id, instance.instance_id)
        self._configure({**instance.options, **overrides})
        for served_as, name in self._handlers:
            self.rpc.register(served_as, getattr(self, name))

    @classmethod
    def factory(cls, **options) -> Callable:
        """A :class:`JobSpec` application factory; ``options`` override the
        job options :meth:`_configure` reads, for every instance
        (``chord_factory(bits=10)``)."""
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
            join_window = float(self.instance.options.get("join_window", 30.0))
            self._join(self._rng.uniform(0.0, join_window) if join_window > 0 else 0.0)
        # Keep the shared member registry honest on teardown.
        self.instance.context.add_cleanup(lambda: members.discard(self.me))

    def _found(self) -> None:
        self._go_live()

    def _join(self, delay: float) -> None:
        if delay > 0:
            self.events.thread(self._go_live, delay=delay)
        else:
            self._go_live()

    def _pick_member(self) -> Optional[NodeRef]:
        """A random other member of the directory (``None`` when alone)."""
        others = self.members.without(self.me)
        return self._rng.choice(others) if others else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.me} joined={self.joined}>"


#: a maintenance round that keeps learning nothing waits at most this many
#: times its base wait (:class:`BackoffTask`)
BACKOFF_CAP = 8


class BackoffTask:
    """A maintenance round run again and again, its wait doubling while
    rounds learn nothing.

    Each run is the coroutine ``fn()``, which may return how many
    ``interval`` periods the next wait spans (one by default).  The wait is
    that base plus up to 25 % jitter, drawn from ``sim.rng`` as
    :meth:`Events.periodic` draws it, times ``factor``.  A round during
    which nothing called :meth:`stir` doubles ``factor``, up to
    :data:`BACKOFF_CAP`.  :meth:`stir` — the node's view changed — sets it
    back to 1 and brings a pending run due later than its factor-1 wait
    forward to that time.

    Like a periodic task it is its own timer callback, and a kill of its
    context drops ``fn``: the node holding the task is not pinned by it.
    """

    __slots__ = ("factor", "_stirred", "_events", "_fn", "_interval",
                 "_current", "_armed_at", "_unit", "_name")

    def __init__(self, events, fn: Callable[[], Generator], interval: float) -> None:
        self.factor = 1
        #: a stir happened since the current round began
        self._stirred = False
        self._events = events
        self._fn: Optional[Callable[[], Generator]] = fn
        self._interval = interval
        self._current = None
        #: when the pending run was armed, and its wait at factor 1
        self._armed_at = 0.0
        self._unit = 0.0
        self._name = f"{events.context.name}.backoff"
        events.context.add_cleanup(self.cancel)

    def start(self, periods: int = 1) -> None:
        """Arm the next run: ``periods`` intervals plus jitter, times ``factor``."""
        sim = self._events.sim
        base = self._interval * periods
        self._unit = base + sim.rng.uniform(0.0, base * 0.25)
        self._armed_at = sim.now
        self._current = sim.schedule(self._unit * self.factor, self._fire)

    def _fire(self) -> None:
        self._current = None
        if self._fn is not None and self._events.context.alive:
            self._events.thread(self._round, name=self._name)

    def _round(self) -> Generator:
        self._stirred = False
        periods = yield from self._fn()
        if not self._stirred:
            self.factor = min(BACKOFF_CAP, 2 * self.factor)
        self.start(periods or 1)

    def stir(self) -> None:
        """The view changed: the wait is the base one again."""
        self._stirred = True
        if self.factor == 1:
            return
        self.factor = 1
        current = self._current
        if current is not None:
            sim = self._events.sim
            due = self._armed_at + self._unit
            if due < current.time:
                current.cancel()
                self._current = sim.schedule_at(max(due, sim.now), self._fire)

    def cancel(self) -> None:
        self._fn = None
        if self._current is not None:
            self._current.cancel()
            self._current = None


@dataclass(slots=True)
class RoutingStats:
    """Per-node counters of a key-based-routing overlay."""

    lookups_started: int = 0
    lookups_completed: int = 0
    lookups_failed: int = 0
    hops_total: int = 0
    maintenance_rounds: int = 0
    #: RPCs the maintenance tasks sent, a maintenance lookup's walk included
    maintenance_rpcs: int = 0
    #: nodes purged because a call of ours got no answer
    dead_nodes_noticed: int = 0
    #: leaves purged because a caller's death list named them (Pastry)
    deaths_reported: int = 0
    #: lookup hops that missed a deadline shortened to the peer's RTO
    hops_suspected: int = 0
    #: suspects purged because their confirming call got no answer either
    suspects_dead: int = 0
    #: lookups whose deadline passed, so that the iterative walk ran
    walks_recovered: int = 0


class LookupFailed(Exception):
    """A lookup spent its hop budget, or no route was left; ``hops`` is how
    many it walked."""

    def __init__(self, message: str, hops: int = 0):
        super().__init__(message)
        self.hops = hops


#: what one routing decision of a walk says to do next (RoutingNode._decide)
OWNER, CLAIM, STEP, AVOID = "owner", "claim", "step", "avoid"
#: the longest a lookup hop waits for an answer (seconds), and how many times
#: it sends the call again before the next hop counts as unanswered
HOP_TIMEOUT = 1.5
HOP_RETRIES = 1
#: the walks a node remembers serving, to drop a retransmitted one: it comes
#: within one hop's retransmission timeout (at most :data:`HOP_TIMEOUT`) of
#: the first copy
WALKS_REMEMBERED = 8


class RoutingNode(OverlayNode):
    """A node of a key-based-routing overlay (Chord, Pastry).

    Holds what such overlays share: the identifier width ``bits``, ``me``
    with its hashed identifier, the join retry loop, the one :meth:`lookup`
    walk — forwarded from node to node (:meth:`_rpc_walk`), with the
    iterative :meth:`_walk` as its recovery — and the liveness state: a call
    proves a node alive (:meth:`_heard`), one that gets no answer purges it
    (:meth:`_note_dead`).  The overlay supplies the ``step`` and ``claim``
    handlers, :meth:`_join_via`, ``_forget`` (the purge), ``neighbours()``
    (next and previous node, for :func:`consistency`), its hop budget
    ``max_hops``, ``refresh`` (the :class:`BackoffTask` of its backed-off
    maintenance, stirred by a failed lookup) and optionally ``_learned``
    (told every node reference a walk sees).

    A hop that passes the walk on waits the next hop's acknowledgement for
    the retransmission timeout the RPC service estimates (``rpc.rto``), at
    most :data:`HOP_TIMEOUT`, with :data:`HOP_RETRIES` retransmissions.  A
    next hop that misses such a shortened deadline may only be slow: the walk
    routes around it and :meth:`_confirm` asks it once more with the full
    timeout before it is purged.
    """

    __slots__ = ("bits", "stats", "max_hops", "refresh", "_watched", "_dead",
                 "_probing", "_lookups", "_lookup_ids", "_walks")

    refresh: BackoffTask
    _learned = None

    def _configure(self, options: dict) -> None:
        self.bits = int(options.get("bits", 32))
        self.me = self.me.with_id(hash_key(f"{self.me.ip}:{self.me.port}", self.bits))
        self.stats = RoutingStats()
        #: the neighbour that proves itself alive by calling us, and when it
        #: last did or became that neighbour: its silence window's start
        self._watched: Tuple[Optional[NodeRef], float] = (None, 0.0)
        #: endpoints found dead lately: only a call from one revives it
        self._dead: Dict[Tuple[str, int], None] = {}
        #: endpoints with a probe in flight: one call each at a time
        self._probing: set = set()
        #: our lookups in flight: id -> [answer, stop, key], where ``stop``
        #: cancels the deadline, or kills the iterative walk once it runs
        self._lookups: Dict[int, list] = {}
        self._lookup_ids = 0
        #: the walks this node served lately, by the hash of (origin id,
        #: lookup id, key, hops): a walk's hop count grows at every node
        self._walks: Dict[int, None] = {}
        self.instance.context.add_cleanup(self._drop_lookups)

    def _join(self, delay: float) -> None:
        self.events.thread(self._join_main, delay=delay,
                           name=f"{self.instance.context.name}.join")

    def _join_main(self) -> Generator:
        """Join coroutine: adopt state through a random member, go live, notify.

        The overlay's part is the coroutine ``_join_via(bootstrap)``: it adopts
        state or raises :class:`RpcError`, and returns the nodes to notify.
        """
        for attempt in range(1, 16):
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
            # Announce ourselves right away instead of waiting a full period
            # (one-way: nothing was ever read from the reply).
            for node in neighbours:
                self.rpc.send(node, "notify", self.me)
            return
        self.log.error(f"node {self.me} could not join, giving up")
        self.events.exit()

    def lookup(self, key: int, maintenance: bool = False) -> Generator:
        """Find the node owning ``key``; returns ``(owner, hops)``.

        The walk is forwarded (:meth:`_rpc_walk`): this node runs ``step``
        and passes the walk on, each hop does the same, and the node named
        owner runs ``claim`` and answers here (:meth:`_rpc_found`).  When no
        answer has come by the deadline — long enough for a walk that was
        not lost —, the iterative walk (:meth:`_walk`) runs from here too,
        and the first answer wins.  A ``maintenance`` walk (the overlay's
        own) counts its messages in the ``stats.maintenance_rpcs`` of every
        node that sends one.
        """
        key = key % (1 << self.bits)
        stats = self.stats
        stats.lookups_started += 1
        rpc = self.rpc
        tracer = rpc._tracer
        sim = self.events.sim
        # the clock is read for the span only
        started = sim.now if tracer is not None else 0.0
        self._lookup_ids = lookup_id = self._lookup_ids + 1
        answer = Future()
        # The deadline: a path twice this node's mean (its whole hop budget
        # before it has one), one learned round trip a hop although a hop
        # costs a one-way delay (the service's smoothed round trip, at most
        # ``HOP_TIMEOUT``), and one hop's retransmissions.  A walk still on
        # its way answers, or reports its spent hop budget, within it.
        completed, srtt = stats.lookups_completed, rpc._srtt
        path = (min(2 * stats.hops_total / completed, self.max_hops) if completed
                else self.max_hops)
        deadline = sim.schedule(
            path * (HOP_TIMEOUT if srtt is None else min(HOP_TIMEOUT, srtt))
            + HOP_TIMEOUT * (1 + HOP_RETRIES),
            self._expired, lookup_id, key, maintenance)
        self._lookups[lookup_id] = [answer, deadline.cancel, key]
        # (the flag travels as an int: the message sizer counts ints inline)
        self._rpc_walk(key, (), 0, self.max_hops, int(maintenance), self.me, lookup_id, 0)
        try:
            # answered here and now when this node owns the key
            owner, hops = ((yield answer) if lookup_id in self._lookups
                           else answer.result())
        except LookupFailed as exc:
            stats.lookups_failed += 1
            self.refresh.stir()
            if tracer is not None:
                tracer.add(self.me.ip, "lookup.failed", started, sim.now - started,
                           cat="lookup", args={"key": key, "hops": exc.hops})
            if rpc._metrics is not None:
                rpc._metrics.inc("lookup.failed")
            raise
        stats.lookups_completed += 1
        stats.hops_total += hops
        if tracer is not None:
            # the spans of the walk's messages nest under this one
            tracer.add(self.me.ip, "lookup", started, sim.now - started,
                       cat="lookup", args={"key": key, "hops": hops})
        registry = rpc._metrics
        if registry is not None:
            registry.inc("lookup.completed")
            registry.observe("lookup.hops", hops)
        return owner, hops

    def _decide(self, reply: dict, holder: NodeRef, origin: NodeRef, avoid,
                claims: int) -> tuple:
        """One routing decision, the same in both walks: what ``holder``'s
        answer ``reply`` to a ``step`` (``claims`` 0) or to the walk's
        ``claims``-th ``claim`` says to do next.

        Returns ``(OWNER, node)`` when ``node`` owns the key, ``(CLAIM,
        node)`` or ``(STEP, node)`` for the next node to ask, and ``(AVOID,
        node)`` when a step made no progress — the best route is the holder
        itself or bounces back to ``origin`` —: ``node`` is the stuck hop,
        avoided from the origin on.  An owner that is not bounces the claim
        to the node it names, at most four claims in all; a bounce to the
        claimer or to an avoided node is stale, and the claimer is accepted.
        Ids hash the endpoint, so they stand for the nodes.
        """
        if claims:
            if reply["mine"]:
                return OWNER, holder
            node = NodeRef.coerce(reply["node"])
            if node.id == holder.id or node.id in avoid:
                return OWNER, holder  # stale bounce; accept the claimer
            if claims == 4:
                return OWNER, node  # bounce budget spent; best known owner
            return CLAIM, node
        node = NodeRef.coerce(reply["node"])
        if reply["done"]:
            return CLAIM, node
        if node.id == holder.id or (node.id == origin.id and holder.id != origin.id):
            return AVOID, node
        return STEP, node

    def _rpc_walk(self, key: int, avoid: tuple, hops: int, max_hops: int,
                  maintenance: int, origin: NodeRef, lookup_id: int, claims: int,
                  *path: NodeRef) -> None:
        """This node's part of a forwarded lookup: run the overlay's ``step``
        (or, while ``claims`` counts the claims asked, ``claim``) here until
        the walk leaves, by :meth:`_decide`'s rules.

        The owner answers ``origin`` with a one-way ``found``; a step that
        makes no progress sends the walk back to ``origin``.  The next hop
        gets the walk as a call; one that does not acknowledge it within its
        RTO (:meth:`_unanswered`), or refuses it, is avoided and the walk
        steps here again.  A claim is one-way — when nothing is lost, a walk
        sends two messages per remote node, as the iterative one does —
        unless the overlay refuses the walk before a node joins
        (``served_once_live``): a refusal must come back to the node that
        named the owner.  A walk whose ``max_hops`` ran out answers ``origin``
        with no owner; once the origin's own step names the origin, no route
        is left and the lookup fails there.
        The origin's deadline covers the one-way legs and a walk lost with
        the hop that held it.  ``path`` is the nodes that passed the walk on
        (the origin aside).  A retransmitted walk — its acknowledgement was
        lost or late — is dropped: the first copy is on its way.
        """
        walks = self._walks
        seen = hash((origin.id, lookup_id, key, hops))  # an int: small to keep
        if seen in walks:
            return
        walks[seen] = None
        if len(walks) > WALKS_REMEMBERED:
            del walks[next(iter(walks))]
        me = self.me
        me_id = me.id
        while True:
            if not claims and hops >= max_hops:
                verdict, node = OWNER, None  # the budget is spent: no owner
                break
            reply = self._rpc_claim(key) if claims else self._rpc_step(key, avoid)
            hops += 1
            verdict, node = self._decide(reply, me, origin, avoid, claims)
            if verdict is AVOID:
                if me_id == origin.id:
                    # our own step names us, as every later one would
                    self._rpc_found(lookup_id, key, None, hops, no_route=True)
                    return
                avoid += (node.id,)
                claims = 0
                node = origin
                break
            if verdict is not OWNER:
                claims = claims + 1 if verdict is CLAIM else 0
                if node.id == me_id:
                    continue  # our own step names us: claim here
            break
        if verdict is OWNER and me_id == origin.id:
            self._rpc_found(lookup_id, key, node, hops, *path)
            return
        self.stats.maintenance_rpcs += maintenance
        rpc = self.rpc
        if verdict is OWNER:
            rpc.send(origin, "found", lookup_id, key, node, hops, *path)
            return
        passed = path if me_id == origin.id else path + (me,)
        if claims and "walk" not in self.served_once_live:
            rpc.send(node, "walk", key, avoid, hops, max_hops, maintenance, origin,
                     lookup_id, claims, *passed)
            return
        timeout = min(HOP_TIMEOUT, rpc.rto.get(node.ip, rpc.rto_default))

        def _unacked(ack: Future) -> None:
            error = ack._exception
            if isinstance(error, RpcError):  # not cancelled: we are alive
                self._unanswered(node, error, timeout < HOP_TIMEOUT, maintenance)
                self._rpc_walk(key, avoid + (node.id,), hops + 1, max_hops,
                               maintenance, origin, lookup_id, 0, *path)

        rpc.a_call(node, "walk", key, avoid, hops, max_hops, maintenance, origin,
                   lookup_id, claims, *passed, timeout=timeout,
                   retries=HOP_RETRIES).add_done_callback(_unacked)

    def _rpc_found(self, lookup_id: int, key: int, owner: Optional[NodeRef],
                   hops: int, *path: NodeRef, no_route: bool = False) -> None:
        """The answer to one of our lookups (no ``owner``: its hop budget ran
        out, or, ``no_route``, the origin's own step named the origin).  One
        that comes after the iterative walk answered, or that answers another
        key — a walk of an earlier process at this endpoint —, is dropped."""
        entry = self._lookups.get(lookup_id)
        if entry is None or entry[2] != key:
            return
        del self._lookups[lookup_id]
        answer, stop, _key = entry
        stop()
        if owner is None:
            answer.set_exception(LookupFailed(
                f"lookup({key}) from {self.me}: no route left" if no_route else
                f"lookup({key}) from {self.me} exceeded {self.max_hops} hops", hops))
            return
        learned = self._learned
        if learned is not None:
            for node in path:
                learned(node)
            learned(owner)
        answer.set_result((owner, hops))

    def _expired(self, lookup_id: int, key: int, maintenance: bool) -> None:
        """A lookup's deadline passed with no answer: walk iteratively too."""
        self.stats.walks_recovered += 1
        # read first: a walk that ends in its first step pops the entry
        entry = self._lookups[lookup_id]
        entry[1] = self.events.thread(
            self._recover, lookup_id, key, maintenance,
            name=f"{self.instance.context.name}.recover").kill

    def _recover(self, lookup_id: int, key: int, maintenance: bool) -> Generator:
        """The iterative walk's race with the forwarded one: its outcome
        answers the lookup.  A forwarded answer that comes first kills this
        walk (:meth:`_rpc_found` stops it), so the lookup is still here."""
        try:
            outcome = yield from self._walk(key, maintenance)
        except LookupFailed as exc:
            self._lookups.pop(lookup_id)[0].set_exception(exc)
        else:
            self._lookups.pop(lookup_id)[0].set_result(outcome)

    def _drop_lookups(self) -> None:
        """Teardown: a lookup in flight ends cancelled, as a pending call does."""
        lookups, self._lookups = self._lookups, {}
        for answer, stop, _key in lookups.values():
            stop()
            answer.cancel()

    def _walk(self, key: int, maintenance: bool = False) -> Generator:
        """The iterative walk, :meth:`lookup`'s recovery; returns ``(owner, hops)``.

        This node asks one node at a time for its ``step``, then the owner
        for its ``claim``, by :meth:`_decide`'s rules.  A node that does not
        answer goes to ``avoid`` and the walk restarts from the local node,
        so a lookup survives nodes failing underneath it while the overlay
        itself stays connected; once the local node's step names the local
        node, no route is left and the walk fails.  A
        ``maintenance`` walk counts its RPCs in ``stats.maintenance_rpcs``.
        """
        stats = self.stats
        learned = self._learned
        rpc = self.rpc
        me = self.me
        avoid: set = set()
        current, claims = me, 0
        hops = 0
        while claims or hops < self.max_hops:
            if current == me:
                reply = self._rpc_claim(key) if claims else self._rpc_step(key, list(avoid))
            else:
                stats.maintenance_rpcs += maintenance
                timeout = min(HOP_TIMEOUT, rpc.rto.get(current.ip, rpc.rto_default))
                args = (key,) if claims else (key, list(avoid))
                try:
                    reply = yield rpc.call(current, "claim" if claims else "step",
                                           *args, timeout=timeout, retries=HOP_RETRIES)
                except RpcError as exc:
                    avoid.add(current.id)
                    self._unanswered(current, exc, timeout < HOP_TIMEOUT, maintenance)
                    current, claims = me, 0
                    hops += 1
                    continue
            hops += 1
            if learned is not None and "node" in reply:
                learned(NodeRef.coerce(reply["node"]))
            verdict, node = self._decide(reply, current, me, avoid, claims)
            if verdict is OWNER:
                return node, hops
            if verdict is AVOID:
                if current == me:  # our own step naming us would name us again
                    raise LookupFailed(f"lookup({key}) from {me}: no route left", hops)
                avoid.add(node.id)
                current, claims = me, 0
                continue
            current, claims = node, (claims + 1 if verdict is CLAIM else 0)
        raise LookupFailed(f"lookup({key}) from {me} exceeded {self.max_hops} hops", hops)

    def _unanswered(self, node: NodeRef, exc: RpcError, shortened: bool,
                    maintenance: bool) -> None:
        """A lookup hop got no answer.  A remote error, or a timeout at the
        full :data:`HOP_TIMEOUT`, purges the node at once; a timeout at a
        deadline shortened to its RTO makes it a suspect, confirmed by one
        more call."""
        if not shortened or not isinstance(exc, RpcTimeout):
            self._note_dead(node)
            return
        self.stats.hops_suspected += 1
        endpoint = (node.ip, node.port)
        if endpoint not in self._probing:
            self._probing.add(endpoint)
            self.events.thread(self._confirm, node, maintenance)

    def _confirm(self, node: NodeRef, maintenance: bool) -> Generator:
        """Ping a suspect with the full :data:`HOP_TIMEOUT` and
        :data:`HOP_RETRIES`: a slow peer answers and is kept, a dead one is
        purged."""
        self.stats.maintenance_rpcs += maintenance
        try:
            yield self.rpc.call(node, "__ping__", timeout=HOP_TIMEOUT, retries=HOP_RETRIES)
        except RpcError:
            self.stats.suspects_dead += 1
            self._note_dead(node)
        finally:
            self._probing.discard((node.ip, node.port))

    def _heard(self, node) -> None:
        """The node called us: it is alive, whatever we noted before.  A call
        from the watched neighbour restarts its silence window."""
        node = NodeRef.coerce(node)
        self._dead.pop((node.ip, node.port), None)
        if self._learned is not None:
            self._learned(node)
        if self._watched[0] == node:
            self._watched = (node, self.events.now())

    def _note_dead(self, node: NodeRef) -> None:
        """A call of ours got no answer: purge the node from routing state."""
        if node == self.me:
            return
        self.stats.dead_nodes_noticed += 1
        self._forget(node)


# -------------------------------------------------------------------- drivers
def joined_apps(job: Job) -> list:
    """Live application objects that consider themselves joined, in id order."""
    return [i.app for i in job.live_instances()
            if i.app is not None and getattr(i.app, "joined", False)]


def consistency(job: Job) -> float:
    """Ring oracle: the share of joined live nodes whose ``neighbours()`` are
    the next and previous ids of the sorted membership.  A pure read of node
    state (no event, no message): 1.0 is a whole ring."""
    apps = joined_apps(job)
    ring = sorted(app.me.id for app in apps)
    position = {node_id: index for index, node_id in enumerate(ring)}
    whole = 0
    for app in apps:
        index = position[app.me.id]
        following, preceding = app.neighbours()
        whole += (following.id == ring[(index + 1) % len(ring)]
                  and preceding.id == ring[index - 1])
    return whole / len(apps) if apps else 0.0


def lookup_stream(sim: Simulator, job: Job, count: int, spacing: float, bits: int,
                  rng, results: List[OpResult],
                  expected_owner: Callable[[Job, int], object]) -> Generator:
    """Coroutine issuing ``count`` key lookups from random live nodes.

    The application object must expose ``joined`` and a generator
    ``lookup(key) -> (owner, hops)`` raising :class:`LookupFailed` on
    routing failure;
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
        except (LookupFailed, RpcError, FutureCancelled, ProcessKilled):
            # No route, or the origin was killed mid-lookup (its pending
            # futures are cancelled); anything else is a bug and propagates.
            results.append(OpResult(key, started, sim.now - started, 0, False, False))
        else:
            expected = expected_owner(job, key)
            correct = (expected is not None and owner.ip == expected.ip
                       and owner.port == expected.port)
            results.append(OpResult(key, started, sim.now - started, hops, True, correct))
        yield spacing


def drain(deployment: Deployment, driver: Optional[Process], hard_cap: float,
          step: float = 60.0) -> None:
    """Run the simulation until ``driver`` finishes (bounded by ``hard_cap``;
    without a driver, until ``hard_cap``).

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
    while (driver is None or not driver.done.done()) and sim.now < hard_cap:
        phase = "run" if sim.now < deployment.measure_start else "drain"
        wall_started = time.perf_counter()  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
        sim.run(until=min(hard_cap, sim.now + step))
        walls[phase] += time.perf_counter() - wall_started  # det: ignore[DET102] -- phase-wall attribution, digest-excluded
    if driver is not None and not driver.done.done():
        obs = deployment.observability
        if obs is not None:
            header = (f"flight recorder: driver still pending at the "
                      f"t={hard_cap:.0f}s deadline")
            for line in obs.ring_lines(header=header):
                print(line, file=sys.stderr)


class Scenario:
    """One workload, declared once, and the one pipeline every workload runs through.

    A subclass states ``name``, ``help``, ``ops_label`` (what one measured
    operation is called), ``min_success`` (the CLI's pass bar),
    ``report_lines`` (``workload`` report keys the CLI prints),
    ``default_churn_script`` (what ``--churn`` replays) and ``params``, one
    ``(name, default, help)`` entry per workload parameter — at once a runner
    keyword, an attribute of the run and a CLI flag; each is a count or a
    size, at least 1 — and three hooks.  :meth:`run` resolves churn, deploys,
    starts, drains and reports the same way for every workload.
    """

    name = ""
    help = ""
    ops_label = "lookup"
    min_success = 0.95
    report_lines: tuple = ()
    default_churn_script = FLAGSHIP_CHURN_SCRIPT
    params: tuple = ()

    def __init__(self, config: RunConfig, **params) -> None:
        unknown = sorted(set(params) - {entry[0] for entry in self.params})
        if unknown:
            raise TypeError(f"the {self.name} scenario takes no parameter "
                            f"{', '.join(unknown)}")
        for name, default, _help in self.params:
            value = params.get(name, default)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")
            setattr(self, name, value)
        if config.churn and config.churn_script is None:
            config = replace(config, churn_script=self.default_churn_script)
        # resolved here, so a deployment that cannot be laid out is refused
        # before the run starts
        self.config = config.resolved()

    @classmethod
    def runner(cls, config: RunConfig, **params) -> dict:
        """``run_<name>_scenario(config, **params)``: run once, return the report."""
        return cls(config, **params).run()

    def app(self) -> tuple:
        """``(application factory, job options)``."""
        raise NotImplementedError

    def start(self, deployment: Deployment) -> tuple:
        """Start the measured coroutines; ``(process to wait on or None, hard cap)``."""
        raise NotImplementedError

    def sections(self, deployment: Deployment) -> dict:
        """The report sections the workload fills in (``measured`` at least)."""
        raise NotImplementedError

    def run(self) -> dict:
        factory, options = self.app()
        deployment = deploy(self.name, factory, self.config, options=options)
        try:
            driver, hard_cap = self.start(deployment)
            drain(deployment, driver, hard_cap)
            sections = self.sections(deployment)
            report = base_report(self.name, deployment)
        finally:
            # base_report hands the interpreter its GC settings back; a run
            # that raised before it must too
            if deployment.gc_policy is not None:
                deployment.gc_policy.disengage()
        report.update(sections)
        return report


class LookupScenario(Scenario):
    """A key-based-routing overlay measured by lookups (Chord, Pastry).

    A probe stream of lookups every ``probe_interval`` seconds while churn is
    active (reported as ``under_churn``, not gating), then ``lookups``
    measured ones ``spacing`` apart once the overlay has re-converged
    (:func:`lookup_stream` says what the application must expose).  A
    subclass declares the ``lookups`` and ``bits`` parameters, its ``node``
    class and its ground truth ``oracle(job, key, bits)``.
    """

    #: seconds between measured lookups, and between probes under churn
    spacing = 0.25
    probe_interval = 2.0
    node: type
    oracle: Callable

    def app(self) -> tuple:
        return self.node.factory(), {"bits": self.bits}

    def start(self, deployment: Deployment) -> tuple:
        sim, job, seed = deployment.sim, deployment.job, deployment.config.seed
        lookups = scaled_ops(self.lookups, self.config.duration)
        bits = self.bits
        owner = functools.partial(self.oracle, bits=bits)
        self.probe_results: List[OpResult] = []
        if deployment.churn_end > deployment.warmup_end:
            probe_count = int((deployment.churn_end - deployment.warmup_end)
                              / self.probe_interval)
            probe = Process(sim, lookup_stream(
                sim, job, probe_count, self.probe_interval, bits,
                substream(seed, "workload-churn"), self.probe_results, owner),
                name="workload.under-churn")
            probe.start(delay=deployment.warmup_end)

        self.results: List[OpResult] = []
        self._maintenance: List[tuple] = []
        driver = Process(sim, self._measured(sim, job, lookup_stream(
            sim, job, lookups, self.spacing, bits, substream(seed, "workload"),
            self.results, owner)), name="workload.measured")
        driver.start(delay=deployment.measure_start)
        # Lookups take several RTTs each, so a fixed horizon would truncate
        # the stream: wait for the driver, with a hard cap against runaway.
        return driver, deployment.measure_start + lookups * (self.spacing + 30.0) + 300.0

    def _measured(self, sim: Simulator, job: Job, stream: Generator) -> Generator:
        """``stream``, with the joined nodes' maintenance RPCs and failure
        detections read as it starts and ends (inside its own steps: no event
        of its own)."""
        def reading() -> tuple:
            stats = [app.stats for app in joined_apps(job)]
            return (sim.now, len(stats), sum(s.maintenance_rpcs for s in stats),
                    {name: sum(getattr(s, name) for s in stats)
                     for name in ("dead_nodes_noticed", "deaths_reported",
                                  "hops_suspected", "suspects_dead",
                                  "walks_recovered")})

        self._maintenance.append(reading())
        yield from stream
        self._maintenance.append(reading())

    def sections(self, deployment: Deployment) -> dict:
        sections = {
            "bits": self.bits,
            "under_churn": summarise(self.probe_results) if self.probe_results else None,
            "measured": summarise(self.results),
            "cdf_samples_ms": sorted(round(1000.0 * r.latency, 3)
                                     for r in self.results if r.completed),
        }
        if len(self._maintenance) == 2:
            # the measured phase is churn-free: the same nodes at both ends
            ((started, nodes, before, _),
             (ended, _nodes, after, failures)) = self._maintenance
            node_seconds = nodes * (ended - started)
            sections["maintenance"] = {
                "rpcs": after - before, "nodes": nodes,
                "seconds": round(ended - started, 3),
                "rpcs_per_node_s": (round((after - before) / node_seconds, 4)
                                    if node_seconds else 0.0),
                # over the whole run, by the nodes alive at its end: deaths
                # found by a call that got no answer and from a death list,
                # lookup hops that missed their RTO, the suspects purged and
                # the lookups the iterative walk recovered
                **failures}
        return sections


# --------------------------------------------------------------------- report
#: the RPC counters a report sums; the digest-relevant ``rpc`` section leaves
#: the two reply counts to the ``metrics`` section
RPC_COUNTERS = ("calls_sent", "calls_received", "replies_sent", "replies_received",
                "retries", "timeouts", "remote_errors", "send_failures")


def rpc_totals(job: Job) -> dict:
    """RPC counters summed over the instances alive at the end of the run.

    An instance that never used ``instance.rpc`` has no service and counts
    zero: reading its counters builds nothing.
    """
    totals = dict.fromkeys(RPC_COUNTERS, 0)
    for instance in job.live_instances():
        service = instance._rpc
        if service is not None:
            stats = service.stats
            for key in totals:
                totals[key] += getattr(stats, key)
    return totals


def base_report(scenario: str, deployment: Deployment) -> dict:
    """The report skeleton shared by every workload scenario."""
    sim, network, job = deployment.sim, deployment.network, deployment.job
    controller, config = deployment.controller, deployment.config
    status = controller.job_status(job)  # flushes the job's log collector
    collector = job.log_sink
    rpc = rpc_totals(job)
    report = {
        "scenario": scenario,
        "seed": config.seed,
        "ctl_shards": config.ctl_shards,
        "testbed": config.testbed,
        "nodes": config.nodes,
        "hosts": deployment.host_count,
        "bits": None,
        "topology": deployment.testbed_description,
        "virtual_time": sim.now,
        "events_executed": sim.executed_events,
        "job": status,
        "churn": None,
        "under_churn": None,
        "measured": None,
        "network": {
            "messages_sent": network.stats.messages_sent,
            "messages_delivered": network.stats.messages_delivered,
            "messages_dropped": network.stats.messages_dropped,
            "bytes_sent": network.stats.bytes_sent,
        },
        "rpc": {key: count for key, count in rpc.items()
                if not key.startswith("replies_")},
        # Digest-excluded: a handler that raised is a bug the CLI fails the
        # run on, not a workload result (a run with none keeps its digest).
        "handler_errors": {"count": network.stats.handler_errors,
                           "last": network.stats.last_errors[-3:]},
        # Digest-excluded (DIGEST_EXCLUDED_KEYS): the fill's work counters;
        # the rates' effects land in the digest-relevant sections above.
        "bw_alloc": network.bandwidth.section(),
        "log_records_collected": collector.collected,
        "log_records_dropped": collector.dropped,
        "control_plane": controller.control_plane_status(),
    }
    # Digest-excluded: wall-clock attribution (deploy vs run vs drain), the
    # phases of the CLI's ``host:`` line.
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
            report["metrics"] = obs.metrics_section(deployment, rpc)
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
