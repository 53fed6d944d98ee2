"""The records of the control plane: shards, log collectors and placement.

Paper counterpart: the *splayctl* back end.  "The controller is composed of
several cooperating processes" sharing one database, which is how the
testbed keeps up with hundreds of daemons and heavy log traffic.  The
database is the :class:`~repro.runtime.controller.Controller` itself; this
module holds what it keeps and the one pure decision it makes:

* :class:`CtlShard` — one controller front-end as a record: its name,
  whether it is up, and the counters of the work it served.  Which shard
  serves a job or a host is the controller's decision, and it refers to
  nothing else.
* :class:`LogCollector` — one bounded-queue collector per job, the job's
  log sink.  Instance loggers ship records into the queue (drop-oldest when
  full, with a counted drop stat — the paper's log throttling) and a drain
  event moves them into the permanent record list.
* :func:`plan_placements` — which alive daemons take a job's next
  instances, drawn from the controller's placement RNG.

Determinism contract: nothing in this module draws randomness or schedules
simulator events in a way that depends on the number of shards.  Placement
draws from the one RNG it is handed, and log-drain events depend only on
enqueue order.  A deployment therefore produces byte-identical workload
reports for 1..N shards (asserted by ``tests/test_determinism.py``).

Public entry points: :class:`CtlShard`, :class:`LogCollector`,
:func:`plan_placements` and :class:`ControllerError` (re-exported by
:mod:`repro.runtime.controller`).
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Deque, Dict, List, Tuple

from repro.core.jobs import Job
from repro.lib.logging import LogRecord
from repro.runtime.splayd import Splayd
from repro.sim.kernel import Simulator


class ControllerError(Exception):
    """Raised on invalid job commands (unknown job, no capacity, ...)."""


#: seconds from a collector's first queued record to the drain that moves
#: its queue into the record list
LOG_DRAIN_INTERVAL = 0.25


@dataclass(eq=False, slots=True)
class CtlShard:
    """One controller front-end (one splayctl process): a record.

    A shard holds no job state: the controller serves every request from its
    own tables and counts the work on the shard that served it (reported,
    never digest-relevant), so front-ends can be lost without the
    deployment noticing.
    """

    name: str
    alive: bool = True
    jobs_claimed: int = 0
    jobs_reclaimed: int = 0
    hosts_failed: int = 0
    hosts_recovered: int = 0
    #: one command round per daemon per control action
    batches_sent: int = 0
    commands_sent: int = 0
    instances_started: int = 0
    instances_killed: int = 0
    logs_routed: int = 0


# ------------------------------------------------------------- log collection
class LogCollector:
    """Per-job log collector process with a bounded ingress queue.

    Records shipped by daemons land in ``queue``; when the queue is full the
    *oldest* queued record is dropped (and counted in ``dropped``).  A drain
    event scheduled :data:`LOG_DRAIN_INTERVAL` after the first enqueue moves
    everything queued into ``records``, the permanent per-job list the
    controller serves ``job_logs`` from; :meth:`flush` drains synchronously
    (used at report time so counts never depend on where the simulation
    happened to stop).

    The collector is the job's log sink — one per job, ``job.log_sink``,
    handed to every instance logger: a logger hands each record its budget
    admits to :meth:`ship` and counts each one it refuses in ``refused``.
    ``routes`` is the controller's daemon registry (ip -> the shard the
    daemon is registered with now).  The collector keeps the job's id, not
    the job: the job refers to its collector, and a reference back would be
    a cycle only the garbage collector could free.
    """

    def __init__(self, sim: Simulator, job: Job, routes: Dict[str, CtlShard],
                 max_queue: int = 4096):
        if max_queue < 1:
            raise ValueError("log collector queue must hold at least one record")
        self.sim = sim
        self.routes = routes
        self.job_id = job.job_id
        self.max_queue = max_queue
        #: drained (permanently collected) records
        self.records: List[LogRecord] = []
        #: bounded ingress queue
        self.queue: Deque[LogRecord] = deque()
        self.dropped = 0
        self.collected = 0
        #: records the instances' log budgets (``log_max_bytes``) refused
        self.refused = 0
        self.queue_peak = 0
        self._drain_scheduled = False

    def ship(self, record: LogRecord) -> None:
        """Count ``record`` for the shard its host is registered with *now*
        (so attribution follows failover) and enqueue it."""
        shard = self.routes.get(record.host)
        if shard is not None:
            shard.logs_routed += 1
        self.offer(record)

    def offer(self, record: LogRecord) -> bool:
        """Enqueue one record; returns ``False`` if an old record was dropped."""
        record.job_id = self.job_id
        evicted = False
        if len(self.queue) >= self.max_queue:
            self.queue.popleft()
            self.dropped += 1
            evicted = True
        self.queue.append(record)
        if len(self.queue) > self.queue_peak:
            self.queue_peak = len(self.queue)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.sim.schedule(LOG_DRAIN_INTERVAL, self._drain)
        return not evicted

    def _drain(self) -> None:
        self._drain_scheduled = False
        self._drain_queue()

    def _drain_queue(self) -> None:
        self.collected += len(self.queue)
        self.records.extend(self.queue)
        self.queue.clear()

    def flush(self) -> List[LogRecord]:
        """Drain synchronously and return the collected record list."""
        self._drain_queue()
        return self.records

    @property
    def pending(self) -> int:
        return len(self.queue)

    def status(self) -> Dict[str, int]:
        return {"collected": self.collected, "dropped": self.dropped,
                "refused": self.refused, "pending": len(self.queue),
                "queue_peak": self.queue_peak, "max_queue": self.max_queue}


# -------------------------------------------------------------- placement
def plan_placements(daemons: List[Splayd], job: Job, count: int,
                    rng: Random) -> List[Tuple[Splayd, int]]:
    """Select hosts among ``daemons`` (the alive ones, in registration
    order) for ``count`` new instances of ``job``, with no side effect but
    the draws from ``rng`` and the instance ids taken from the job.

    Selection is uniform over the least-loaded daemons with spare capacity
    (ties by a random draw over the ip-sorted pool), re-evaluated per
    instance with the instances planned so far counted against each
    daemon's free slots — the exact sequence the monolithic controller
    produced by spawning one instance at a time, but without touching the
    daemons, so the plan can then be executed one round per daemon.  Fewer
    than ``count`` placements are returned when capacity runs out.
    Instance ids come from the job's never-reused allocator, so a spawn
    that later fails leaves a gap instead of letting a future plan hand a
    live instance's id to a second node.

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
    for daemon in daemons:
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
