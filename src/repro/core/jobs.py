"""Job descriptors and placement records (the controller's unit of work).

A *job* is what a user submits to the controller: an application (here a
Python factory instead of Lua code), the number of instances to deploy, and
the restrictions the daemons must enforce (socket policy, disk quota, log
budget).  The controller selects hosts, asks their daemons to spawn
instances, and tracks the resulting placements; the churn manager then
drives instance kills and joins against the same job record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (lib -> core -> lib)
    from repro.lib.sbsocket import SocketPolicy


class JobState(enum.Enum):
    """Lifecycle of a job on the controller."""

    PENDING = "pending"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass
class JobSpec:
    """Everything the user supplies when submitting a job.

    ``app_factory`` is called once per instance with the runtime
    :class:`~repro.runtime.splayd.Instance` handle (the equivalent of the
    sandboxed Lua state receiving the ``job`` table); whatever it returns is
    stored as the instance's application object.
    """

    name: str
    app_factory: Callable[[Any], Any]
    instances: int = 1
    base_port: int = 20000
    socket_policy: Optional["SocketPolicy"] = None
    fs_max_bytes: Optional[int] = None
    fs_max_files: Optional[int] = None
    log_level: str = "INFO"
    log_max_bytes: Optional[int] = None
    churn_script: Optional[str] = None
    #: Overnet-style availability trace text (``host_id start end`` lines)
    #: replayed as host-level fail/recover churn alongside ``churn_script``
    churn_trace: Optional[str] = None
    #: free-form per-job options, exposed to instances as ``instance.options``
    options: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.instances < 1:
            raise ValueError("a job needs at least one instance")
        if not callable(self.app_factory):
            raise TypeError("app_factory must be callable")
        if not 1 <= self.base_port <= 65535:
            raise ValueError(f"base port out of range: {self.base_port}")


@dataclass(frozen=True, slots=True)
class Placement:
    """One instance's location, as recorded by the controller."""

    instance_id: int
    ip: str
    port: int

    def __str__(self) -> str:
        return f"i{self.instance_id}@{self.ip}:{self.port}"


@dataclass(slots=True)
class JobStats:
    """Aggregated per-job counters maintained by the control plane.

    All fields live on the job (the shared store's record), never on a
    controller shard, so they survive a shard failing and another shard
    claiming the job mid-run — including the log-drop count and the
    per-shard attribution maps.
    """

    instances_started: int = 0
    instances_stopped: int = 0
    instances_failed: int = 0
    churn_joins: int = 0
    #: graceful departures only ("leave" and the kill half of "replace")
    churn_leaves: int = 0
    #: abrupt "crash" victims — kept separate so benchmarks report churn
    #: composition accurately
    churn_crashes: int = 0
    #: whole-host (daemon) failures/recoveries driven by churn — a third
    #: population, distinct from both instance-level counters above: one
    #: host failure kills every co-located instance at once
    churn_host_failures: int = 0
    churn_host_recoveries: int = 0
    log_records: int = 0
    #: records evicted from the job's bounded collector queue (drop-oldest)
    log_records_dropped: int = 0
    #: collected records per controller shard (accumulates across failovers)
    logs_by_shard: Dict[str, int] = field(default_factory=dict)
    #: every shard that ever claimed this job, in claim order
    claimed_by: List[str] = field(default_factory=list)


class Job:
    """The controller-side record of one submitted job.

    ``job_id`` is supplied by the owning job store (its per-deployment
    count) so that id-derived randomness is reproducible; a process-wide
    counter here would interleave between co-hosted seeded simulations.
    """

    def __init__(self, spec: JobSpec, created_at: float = 0.0, *, job_id: int):
        spec.validate()
        self.job_id = job_id
        self.spec = spec
        self.state = JobState.PENDING
        self.created_at = created_at
        self.stats = JobStats()
        #: recorded runtime instances (handles owned by the daemons), keyed by
        #: handle in record order.  A handle leaves on ``record_stop`` only,
        #: so an instance that exited on its own stays listed (dead).  The
        #: order is digest-relevant: ``job_status`` and ``CtlShard.stop``
        #: iterate it.
        self.instances: Dict[Any, None] = {}
        #: every placement ever made, live or dead (for log attribution)
        self.placements: List[Placement] = []
        #: shared mutable state visible to all instances (e.g. bootstrap ref)
        self.shared: Dict[str, Any] = {}
        #: where this job's instance loggers ship records: its collector's
        #: ``ship``, set by the job store (None for a job outside a store)
        self.log_sink: Optional[Callable[[Any], None]] = None
        self._next_instance_id = 0
        # The alive subset of ``instances``, by instance id.  Every death
        # path funnels through the daemon's reap hook (controller kills,
        # self-exits, host failures), which calls record_death; the sanitizer
        # cross-checks the table against a from-scratch recompute and against
        # the daemons' own tables after every control action
        # (check_store_views).
        self._live: Dict[int, Any] = {}
        # Memoized id-sorted list of ``_live``, dropped on every change.
        self._live_cache: Optional[List[Any]] = None

    # ------------------------------------------------------------- bookkeeping
    def allocate_instance_id(self) -> int:
        """Hand out a never-reused instance id.

        Ids are consumed at placement-planning time and *not* returned on a
        failed spawn: a gap in ``placements`` is harmless, a reused id is
        not — applications derive their overlay identity from
        ``(job_id, instance_id)``, so a collision would put two live nodes
        at the same overlay position.
        """
        value = self._next_instance_id
        self._next_instance_id += 1
        return value

    def record_start(self, instance: Any, placement: Placement) -> None:
        self.instances[instance] = None
        self.placements.append(placement)
        # Keep the allocator ahead of manually recorded placements too.
        if placement.instance_id >= self._next_instance_id:
            self._next_instance_id = placement.instance_id + 1
        self.stats.instances_started += 1
        if instance.alive:  # an app factory may have exited already
            self._live[instance.instance_id] = instance
            self._live_cache = None

    def record_stop(self, instance: Any, failed: bool = False) -> None:
        self.instances.pop(instance, None)
        if failed:
            self.stats.instances_failed += 1
        else:
            self.stats.instances_stopped += 1
        self._live.pop(instance.instance_id, None)
        self._live_cache = None

    def record_death(self, instance: Any) -> None:
        """Drop ``instance`` from the live view (called by every death path)."""
        self._live.pop(instance.instance_id, None)
        self._live_cache = None

    # ---------------------------------------------------------------- queries
    def live_instances(self) -> List[Any]:
        """Instances whose application context is still alive, in id order.

        The list is memoized between liveness changes — callers iterate it
        on every lookup/control action, so rebuilding per call is an O(N)
        cost per event at scale.  Callers must not mutate the returned list.
        """
        cache = self._live_cache
        if cache is None:
            live = self._live
            cache = self._live_cache = [live[i] for i in sorted(live)]
        return cache

    def _recompute_live_instances(self) -> List[Any]:
        """From-scratch live view, bypassing the live table (sanitizer cross-check)."""
        live = [i for i in self.instances if i.alive]
        live.sort(key=lambda i: i.instance_id)
        return live

    @property
    def live_count(self) -> int:
        return len(self._live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job #{self.job_id} {self.spec.name} {self.state.value} live={self.live_count}>"
