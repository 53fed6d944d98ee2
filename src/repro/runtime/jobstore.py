"""The shared job store, controller shards and per-job log collectors.

Paper counterpart: the *splayctl* back end.  "The controller is composed of
several cooperating processes" sharing one database, which is how the
testbed keeps up with hundreds of daemons and heavy log traffic.  This
module reproduces that shape:

* :class:`JobStore` — the shared database: jobs, placements, the host
  (daemon) registry, churn bookkeeping, shard claims and the placement RNG.
  Every piece of state that must look the same no matter which front-end
  serves a request lives here.
* :class:`CtlShard` — one stateless controller front-end.  Daemons are
  registered with a shard, shards claim jobs from the store, and every
  daemon command a shard issues is *batched*: one :meth:`Splayd.batch_exec`
  round per daemon per control action instead of per-instance calls.  A
  shard *executes*; which shard serves a job or a host is decided by the
  :class:`~repro.runtime.controller.Controller`, the one router.
* :class:`LogCollector` — one bounded-queue collector per job, whose
  ``ship`` is the job's log sink.  Instance loggers ship records into the
  queue (drop-oldest when full, with a counted drop stat — the paper's log
  throttling) and a drain event moves them into the permanent record list.

Every fact has one owner: a host is up iff its ``Host.alive`` says so (the
store's host views are computed from it per call), a record belongs to the
shard ``daemon_shard[record.host]`` names when it ships, and a port is in
use iff a live instance or a listener holds it.

Determinism contract: nothing in this module draws randomness or schedules
simulator events in a way that depends on the number of shards.  Placement
uses the store's single RNG substream, batching is a pure regrouping of a
deterministic placement plan, and log-drain events depend only on enqueue
order.  A deployment therefore produces byte-identical workload reports for
1..N shards (asserted by ``tests/test_determinism.py``).

Public entry points: :class:`JobStore`, :class:`CtlShard`,
:class:`LogCollector`, :class:`ShardStats` and :class:`ControllerError`
(re-exported by :mod:`repro.runtime.controller`).
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.churn import ChurnManager
from repro.core.jobs import Job, JobSpec, JobState, Placement
from repro.lib.logging import LogRecord
from repro.net.network import Network
from repro.runtime.splayd import Instance, Splayd, SplaydError
from repro.sim.kernel import Simulator
from repro.sim.rng import substream


class ControllerError(Exception):
    """Raised on invalid job commands (unknown job, no capacity, ...)."""


# ------------------------------------------------------------- log collection
class LogCollector:
    """Per-job log collector process with a bounded ingress queue.

    Records shipped by daemons land in ``queue``; when the queue is full the
    *oldest* queued record is dropped (and counted — both here and on
    ``job.stats.log_records_dropped``).  A drain event scheduled
    ``drain_interval`` after the first enqueue moves everything queued into
    ``records``, the permanent per-job list the controller serves
    ``job_logs`` from; :meth:`flush` drains synchronously (used at report
    time so counts never depend on where the simulation happened to stop).

    :meth:`ship` is the job's log sink — one per job, handed to every
    instance logger through ``job.log_sink``.  The collector keeps the job's
    id and stats, not the job: the job refers to its collector, and a
    reference back would be a cycle only the garbage collector could free.
    """

    def __init__(self, store: "JobStore", job: Job, max_queue: int = 4096,
                 drain_interval: float = 0.25):
        if max_queue < 1:
            raise ValueError("log collector queue must hold at least one record")
        self.sim = store.sim
        self.store = store
        self.job_id = job.job_id
        self.job_stats = job.stats
        self.max_queue = max_queue
        self.drain_interval = drain_interval
        #: drained (permanently collected) records
        self.records: List[LogRecord] = []
        #: bounded ingress queue of (record, shard name) pairs
        self.queue: Deque[Tuple[LogRecord, Optional[str]]] = deque()
        self.dropped = 0
        self.collected = 0
        self.queue_peak = 0
        self._drain_scheduled = False

    def ship(self, record: LogRecord) -> None:
        """The job's log sink: attribute ``record`` to the shard its host is
        registered with *now* (so attribution follows failover) and enqueue."""
        store = self.store
        name = store.daemon_shard.get(record.host)
        shard = store.shards.get(name)
        if shard is not None:
            shard.stats.logs_routed += 1
        self.offer(record, name)

    def offer(self, record: LogRecord, shard: Optional[str] = None) -> bool:
        """Enqueue one record; returns ``False`` if an old record was dropped."""
        record.job_id = self.job_id
        evicted = False
        if len(self.queue) >= self.max_queue:
            self.queue.popleft()
            self.dropped += 1
            self.job_stats.log_records_dropped += 1
            evicted = True
        self.queue.append((record, shard))
        if len(self.queue) > self.queue_peak:
            self.queue_peak = len(self.queue)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.sim.schedule(self.drain_interval, self._drain)
        return not evicted

    def _drain(self) -> None:
        self._drain_scheduled = False
        self._drain_queue()

    def _drain_queue(self) -> None:
        while self.queue:
            record, shard = self.queue.popleft()
            self.records.append(record)
            self.collected += 1
            self.job_stats.log_records += 1
            if shard is not None:
                by_shard = self.job_stats.logs_by_shard
                by_shard[shard] = by_shard.get(shard, 0) + 1

    def flush(self) -> List[LogRecord]:
        """Drain synchronously and return the collected record list."""
        self._drain_queue()
        return self.records

    @property
    def pending(self) -> int:
        return len(self.queue)

    def status(self) -> Dict[str, int]:
        return {"collected": self.collected, "dropped": self.dropped,
                "pending": len(self.queue), "queue_peak": self.queue_peak,
                "max_queue": self.max_queue}


# ------------------------------------------------------------------ the store
class JobStore:
    """Shared controller state: the paper's database behind splayctl.

    Shards coordinate exclusively through this object — the daemon registry,
    job table, per-job log collectors, churn managers, shard claims and the
    placement RNG all live here, so any shard can serve any job and a failed
    shard's work can be reclaimed without losing bookkeeping.
    """

    def __init__(self, sim: Simulator, network: Network, seed: Optional[int] = None,
                 log_queue_depth: int = 4096, log_drain_interval: float = 0.25):
        self.sim = sim
        self.network = network
        self.seed = seed if seed is not None else sim.seed
        self.daemons: Dict[str, Splayd] = {}
        #: daemon ip -> name of the shard it is currently registered with
        self.daemon_shard: Dict[str, str] = {}
        self.host_failures_total = 0
        self.host_recoveries_total = 0
        self.jobs: Dict[int, Job] = {}
        #: one collector per job, created with the job
        self.collectors: Dict[int, LogCollector] = {}
        #: per-job metrics registries (repro.obs) — created lazily, and only
        #: when observability is enabled, so jobs that never record a metric
        #: pay nothing
        self.metrics: Dict[int, object] = {}
        self.churn_managers: Dict[int, ChurnManager] = {}
        #: shard name -> shard, in index order
        self.shards: Dict[str, "CtlShard"] = {}
        #: job_id -> shard currently responsible for the job
        self.claims: Dict[int, "CtlShard"] = {}
        self.log_queue_depth = log_queue_depth
        self.log_drain_interval = log_drain_interval
        self._rng = substream(self.seed, "controller")

    # ---------------------------------------------------------------- shards
    def alive_shards(self) -> List["CtlShard"]:
        return [s for s in self.shards.values() if s.alive]

    def claim(self, job: Job, shard: "CtlShard") -> None:
        self.claims[job.job_id] = shard
        shard.stats.jobs_claimed += 1
        job.stats.claimed_by.append(shard.name)

    def claimant(self, job: Job) -> "CtlShard":
        """The shard responsible for ``job``, reclaiming if the owner died."""
        shard = self.claims.get(job.job_id)
        if shard is not None and shard.alive:
            return shard
        return self._reclaim(job)

    def _reclaim(self, job: Job) -> "CtlShard":
        alive = self.alive_shards()
        if not alive:
            raise ControllerError(
                f"job #{job.job_id}: no alive controller shard left to claim it")
        shard = alive[0]  # deterministic: lowest-index survivor
        self.claims[job.job_id] = shard
        shard.stats.jobs_reclaimed += 1
        job.stats.claimed_by.append(shard.name)
        return shard

    def on_shard_failed(self, shard: "CtlShard") -> None:
        """Move a dead shard's daemons and claims to the survivors.

        Daemons are re-registered round-robin over the alive shards (in
        registration order, so the outcome is deterministic); claimed jobs
        are reclaimed lazily by :meth:`claimant` — their stats, placements
        and log collectors live on the store/job and survive untouched.
        """
        alive = self.alive_shards()
        if not alive:
            return
        orphans = [ip for ip, name in self.daemon_shard.items() if name == shard.name]
        for index, ip in enumerate(orphans):
            self.daemon_shard[ip] = alive[index % len(alive)].name

    # ---------------------------------------------------------------- daemons
    def add_daemon(self, daemon: Splayd, shard: "CtlShard") -> None:
        if daemon.ip in self.daemons:
            raise ControllerError(f"daemon already registered for {daemon.ip}")
        self.daemons[daemon.ip] = daemon
        self.daemon_shard[daemon.ip] = shard.name
        daemon.store = self

    # Host views, computed per call from ``Host.alive`` (read directly: the
    # ``Splayd.alive`` property is a frame per host).  A whole run consults
    # them a few dozen times — per plan, per host-churn action, per status
    # call — never per event, so there is nothing worth memoizing.
    def alive_daemons(self) -> List[Splayd]:
        """Alive daemons in registration order."""
        return [d for d in self.daemons.values() if d.host.alive]

    def alive_host_ips(self) -> List[str]:
        return sorted([ip for ip, d in self.daemons.items() if d.host.alive])

    def failed_host_ips(self) -> List[str]:
        return sorted([ip for ip, d in self.daemons.items() if not d.host.alive])

    def host_alive(self, ip: str) -> bool:
        daemon = self.daemons.get(ip)
        return daemon is not None and daemon.host.alive

    def shard_for_daemon(self, ip: str) -> "CtlShard":
        """The alive shard a daemon's commands travel through.

        Normally the shard the daemon is registered with; if that shard died
        (and rehoming has not caught this daemon yet) the lowest-index
        survivor serves, exactly like job reclaiming.
        """
        shard = self.shards.get(self.daemon_shard.get(ip))
        if shard is not None and shard.alive:
            return shard
        alive = self.alive_shards()
        if not alive:
            raise ControllerError("no alive controller shard")
        return alive[0]

    # ------------------------------------------------------------------- jobs
    def create_job(self, spec: JobSpec) -> Job:
        job = Job(spec, created_at=self.sim.now, job_id=len(self.jobs) + 1)
        self.jobs[job.job_id] = job
        collector = LogCollector(self, job, max_queue=self.log_queue_depth,
                                 drain_interval=self.log_drain_interval)
        self.collectors[job.job_id] = collector
        # One sink per job, resolved here once: every spawn reads it off the
        # job record instead of asking the store.
        job.log_sink = collector.ship
        return job

    def metrics_for(self, job: Job):
        """The job's metrics registry — same store-resident path as logs.

        Instance-side emitters (the RPC layer, workload apps) and the
        report aggregation both resolve the registry through the store, so
        per-job measurements survive shard failover exactly like log
        records do.  Timestamps come from the simulated clock.
        """
        existing = self.metrics.get(job.job_id)
        if existing is None:
            from repro.obs.metrics import MetricsRegistry
            sim = self.sim
            existing = MetricsRegistry(clock=lambda: sim.now)
            self.metrics[job.job_id] = existing
        return existing

    # -------------------------------------------------------------- placement
    def plan_placements(self, job: Job, count: int) -> List[Tuple[Splayd, int]]:
        """Select hosts for ``count`` new instances (no side effects yet).

        Selection is uniform over the least-loaded alive daemons with spare
        capacity (ties by a random draw over the ip-sorted pool),
        re-evaluated per instance with the instances planned so far counted
        against each daemon's free slots — the exact sequence the monolithic
        controller produced by spawning one instance at a time, but without
        touching the daemons, so the plan can then be executed in batches.
        Fewer than ``count`` placements are returned when capacity runs out.
        Instance ids come from the job's never-reused allocator, so a spawn
        that later fails leaves a gap instead of letting a future plan hand
        a live instance's id to a second node.

        Sorting every candidate per pick is O(N·H log H) for a
        whole-deployment plan — the dominant deploy-phase cost at 10k nodes —
        so daemons are bucketed by load: draw from the minimum-load bucket,
        promote the chosen daemon to the next one, O(1) amortized per pick.
        No simulator event runs between picks, so daemon liveness and true
        loads cannot shift mid-plan.  The min-load bucket ip-sorted *is* the
        sort-per-pick pool, and ``randrange(len(pool))`` consumes the RNG
        exactly like ``choice(pool)`` (one ``_randbelow`` call each) — held
        to that planner (``naive_plan`` in tests/test_gcpolicy_caches.py)
        draw for draw.
        """
        plan: List[Tuple[Splayd, int]] = []
        buckets: Dict[int, List[Splayd]] = {}
        for daemon in self.alive_daemons():  # every alive host, once per plan
            load = len(daemon.instances)
            cap = daemon.limits.max_instances
            if cap is None or load < cap:
                pool = buckets.get(load)
                if pool is None:
                    buckets[load] = [daemon]
                else:
                    pool.append(daemon)
        if not buckets:
            return plan
        available = sum(map(len, buckets.values()))
        # Buckets are ip-sorted lazily, the first time they become the
        # minimum: promotions only ever append *above* the active bucket,
        # so each bucket is sorted at most once per level pass.
        dirty = set(buckets)
        load = min(buckets)
        rng = self._rng
        for _ in range(count):
            if not available:
                break
            while load not in buckets:
                load += 1
            pool = buckets[load]
            if load in dirty:
                pool.sort(key=_daemon_ip)
                dirty.discard(load)
            daemon = pool.pop(rng.randrange(len(pool)))
            if not pool:
                del buckets[load]
            available -= 1
            plan.append((daemon, job.allocate_instance_id()))
            new_load = load + 1
            cap = daemon.limits.max_instances
            if cap is None or new_load < cap:
                buckets.setdefault(new_load, []).append(daemon)
                dirty.add(new_load)
                available += 1
        return plan


#: sort key for placement pools
_daemon_ip = operator.attrgetter("ip")


def _grouped(pairs: Iterable[Tuple[Any, Any]]) -> Dict[Any, list]:
    """Group ``(key, item)`` pairs per key; keys and items in first-seen order."""
    grouped: Dict[Any, list] = {}
    for key, item in pairs:
        items = grouped.get(key)
        if items is None:
            grouped[key] = [item]
        else:
            items.append(item)
    return grouped


@dataclass
class ShardStats:
    """Per-shard control-plane counters (reported, never digest-relevant)."""

    jobs_claimed: int = 0
    jobs_reclaimed: int = 0
    hosts_failed: int = 0
    hosts_recovered: int = 0
    batches_sent: int = 0
    commands_sent: int = 0
    instances_started: int = 0
    instances_killed: int = 0
    logs_routed: int = 0


# ------------------------------------------------------------------ the shard
class CtlShard:
    """One stateless controller front-end (one splayctl process).

    A shard holds no job state of its own: everything it needs to serve a
    request comes from (and goes back to) the shared :class:`JobStore`, so
    front-ends can be added, load-balanced or lost without the deployment
    noticing.  Commands to daemons are *batched*: each control action sends
    one ``batch_exec`` round per affected daemon instead of one call per
    instance.
    """

    def __init__(self, store: JobStore, index: int):
        self.store = store
        self.index = index
        self.name = f"ctl{index}"
        self.alive = True
        self.stats = ShardStats()
        store.shards[self.name] = self

    # ------------------------------------------------------------------- jobs
    def submit(self, spec: JobSpec) -> Job:
        """Accept a job for deployment and claim it; returns the job record."""
        job = self.store.create_job(spec)
        self.store.claim(job, self)
        return job

    def start(self, job: Job) -> List[Instance]:
        """Deploy the job: select hosts and spawn every requested instance."""
        if job.state is not JobState.PENDING:
            raise ControllerError(f"job #{job.job_id} is {job.state.value}, not pending")
        job.state = JobState.RUNNING
        instances = self.start_instances(job, job.spec.instances)
        if len(instances) < job.spec.instances:
            # Partial deployment is a failed deployment: tear the already
            # placed instances down so nothing keeps running unmanaged.
            placed = len(instances)
            self.kill_instances(instances, reason="deployment failed")
            job.state = JobState.FAILED
            raise ControllerError(
                f"job #{job.job_id}: only {placed}/{job.spec.instances} "
                f"instances could be placed")
        return instances

    def start_instances(self, job: Job, count: int) -> List[Instance]:
        """Spawn ``count`` additional instances, one command batch per daemon.

        The store plans the placements (deterministically, independent of
        the shard count), then this shard groups the plan by daemon and
        sends one ``batch_exec`` per daemon.  Fewer than ``count`` instances
        are returned when capacity runs out.
        """
        plan = self.store.plan_placements(job, count)
        started: List[Instance] = []
        for daemon, instance_ids in _grouped(plan).items():
            commands = [("spawn", job, instance_id) for instance_id in instance_ids]
            error: Optional[Exception] = None
            for outcome in self._dispatch(daemon, commands):
                if isinstance(outcome, Instance):
                    placement = Placement(instance_id=outcome.instance_id,
                                          ip=daemon.ip,
                                          port=outcome.address.port)
                    job.record_start(outcome, placement)
                    started.append(outcome)
                    self.stats.instances_started += 1
                elif (error is None and isinstance(outcome, Exception)
                      and not isinstance(outcome, SplaydError)):
                    # An application bug (e.g. a raising factory), not a
                    # placement failure: surface it — but only after every
                    # spawn that *did* succeed is recorded on the job, so
                    # nothing keeps running untracked.
                    error = outcome
            if error is not None:
                raise error
        self._check_caches()
        return started

    def _check_caches(self) -> None:
        """Sanitizer cross-check of the job and daemon tables (if installed)."""
        san = getattr(self.store.sim, "_san", None)
        if san is not None:
            san.check_store_views(self.store)

    def _dispatch(self, daemon: Splayd, commands: List[tuple]) -> List[object]:
        """One batched command round to one daemon (+ stats)."""
        self.stats.batches_sent += 1
        self.stats.commands_sent += len(commands)
        return daemon.batch_exec(commands)

    # ---------------------------------------------------------------- control
    def kill_instances(self, instances: List[Instance], reason: str = "controller stop",
                       failed: bool = False) -> None:
        """Stop several instances, batching the commands per daemon.

        A kill that raised (a failing instance cleanup) does not stop the
        round: every other victim is still killed and recorded, then the
        first failure is re-raised.
        """
        error: Optional[Exception] = None
        grouped = _grouped([(instance.daemon, instance) for instance in instances])
        for daemon, victims in grouped.items():
            commands = [("kill", instance, reason) for instance in victims]
            for instance, outcome in zip(victims, self._dispatch(daemon, commands)):
                if (isinstance(outcome, Exception)
                        and not isinstance(outcome, SplaydError)):
                    error = error or outcome
                    continue
                instance.job.record_stop(instance, failed=failed)
                self.stats.instances_killed += 1
        self._check_caches()
        if error is not None:
            raise error

    def stop(self, job: Job) -> None:
        """Stop every instance of a job and mark it stopped."""
        if job.state in (JobState.STOPPED, JobState.FAILED):
            return
        self.kill_instances(list(job.instances), reason=f"job #{job.job_id} stopped")
        job.state = JobState.STOPPED

    # ------------------------------------------------------------ host churn
    def _daemon(self, ip: str) -> Splayd:
        daemon = self.store.daemons.get(ip)
        if daemon is None:
            raise ControllerError(f"no daemon on {ip}")
        return daemon

    def fail_host(self, ip: str) -> int:
        """Take a whole daemon down: every co-located instance (of every job)
        dies and in-flight transfers are cancelled.  Returns the number of
        instances killed — 0, with nothing counted, for a host already down."""
        daemon = self._daemon(ip)
        if not daemon.alive:
            return 0
        victims = list(daemon.instances)
        try:
            # A failing instance cleanup surfaces from here only after the
            # whole host went down, so the bookkeeping below still holds.
            return daemon.fail()
        finally:
            for instance in victims:
                instance.job.record_stop(instance, failed=True)
            self.store.host_failures_total += 1
            self.stats.hosts_failed += 1
            self._check_caches()

    def recover_host(self, ip: str) -> None:
        """Bring a failed daemon back (empty, like a freshly booted splayd).

        The daemon keeps its registration (and shard assignment): placement
        sees it again immediately, so later joins can land on it.
        """
        daemon = self._daemon(ip)
        if daemon.alive:
            return
        daemon.recover()
        self.store.host_recoveries_total += 1
        self.stats.hosts_recovered += 1
        self._check_caches()

    # ---------------------------------------------------------------- failure
    def fail(self) -> None:
        """Take this shard down; the store rehomes its daemons and claims."""
        if not self.alive:
            return
        self.alive = False
        self.store.on_shard_failed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<CtlShard {self.name} {state} claimed={self.stats.jobs_claimed}>"
