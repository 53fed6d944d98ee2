"""``splayctl``: the controller, the control plane's one object.

Paper counterpart: *splayctl*.  "The controller manages applications: it
registers daemons, lets users submit jobs, selects appropriate hosts,
instructs daemons to start or stop application instances, and collects logs
and statistics" — and it is explicitly *not* one process: the paper runs
several controller front-ends behind one shared database so the testbed
keeps up with hundreds of daemons and heavy log traffic.

A :class:`Controller` is that database.  It owns the daemon registry (each
ip maps to its daemon and to the :class:`~repro.runtime.jobstore.CtlShard`
it is registered with), the jobs and the shard that claims each, the churn
managers and the placement RNG.  A shard is a record of one front-end:
daemons register round-robin across the alive shards, a job is claimed by
one on submission, and when a shard fails (:meth:`Controller.fail_shard`)
its daemons re-register with the survivors and its jobs go to the
lowest-index survivor on their next command.  Every command a control
action sends a daemon travels in one round per daemon, counted on the shard
that serves it: a job command on the shard that claims the job now, a host
command on the shard the daemon is registered with now — so users, the
harness and the churn managers (which are handed this object) all follow
failover the same way.  Placement randomness and log collection do not
depend on the shards, so the workload-visible behaviour is byte-identical
for any shard count.

The control plane itself (daemon registration, job commands) is modelled as
instantaneous — the paper's controller uses a separate reliable channel
whose latency is irrelevant to the measured application behaviour.  All
*application* traffic flows through the daemons' restricted sockets on the
simulated network.

Public entry points: :class:`Controller` (``register_daemon`` /``submit`` /
``start`` / ``start_instances`` / ``kill_instance(s)`` / ``stop`` /
``fail_host`` / ``recover_host`` / ``fail_shard`` / ``job_logs`` /
``job_status`` / ``control_plane_status``) and the re-exported
:class:`ControllerError`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.churn import ChurnManager, ChurnStats, parse_churn_script, trace_churn_actions
from repro.core.jobs import Job, JobSpec, JobState
from repro.lib.logging import LogLevel, LogRecord
from repro.net.network import Network
from repro.runtime.jobstore import ControllerError, CtlShard, LogCollector, plan_placements
from repro.runtime.splayd import Instance, Splayd, SplaydError
from repro.sim.kernel import Simulator
from repro.sim.rng import substream

__all__ = ["Controller", "ControllerError", "CtlShard", "LogCollector"]


def _grouped(pairs) -> Dict[object, list]:
    """Group ``(key, item)`` pairs per key; keys and items in first-seen order."""
    grouped: Dict[object, list] = {}
    for key, item in pairs:
        items = grouped.get(key)
        if items is None:
            grouped[key] = [item]
        else:
            items.append(item)
    return grouped


class Controller:
    """The control plane of a deployment: its tables plus N shard records.

    Parameters
    ----------
    sim / network:
        Simulation substrate.
    seed:
        Root seed for placement randomness (defaults to the simulator's).
    shards:
        Number of front-ends; daemons register round-robin across them and
        each submitted job is claimed by one of them.
    log_queue_depth:
        Bound of each per-job log collector queue (drop-oldest when full).
    """

    def __init__(self, sim: Simulator, network: Network, seed: Optional[int] = None,
                 shards: int = 1, log_queue_depth: int = 4096):
        if shards < 1:
            raise ControllerError("a controller needs at least one shard")
        self.sim = sim
        self.network = network
        self.shards: List[CtlShard] = [CtlShard(f"ctl{i}") for i in range(shards)]
        self.daemons: Dict[str, Splayd] = {}
        #: daemon ip -> the shard it is registered with now (rewritten by
        #: ``fail_shard``); every log collector routes through it
        self.daemon_shard: Dict[str, CtlShard] = {}
        self.jobs: Dict[int, Job] = {}
        #: job id -> the shard that claims the job
        self.claims: Dict[int, CtlShard] = {}
        self.churn_managers: Dict[int, ChurnManager] = {}
        self.log_queue_depth = log_queue_depth
        self._rng = substream(seed if seed is not None else sim.seed, "controller")

    # ----------------------------------------------------------------- shards
    def _alive_shard(self, turn: int) -> CtlShard:
        """The ``turn``-th alive shard, round-robin.  Turn 0 is the
        lowest-index survivor, which takes over a failed shard's work."""
        alive = [shard for shard in self.shards if shard.alive]
        if not alive:
            raise ControllerError("no alive controller shard")
        return alive[turn % len(alive)]

    def shard_for(self, job: Job) -> CtlShard:
        """The shard serving ``job``: its claimant while that one is alive,
        else the lowest-index survivor, which claims the job from then on."""
        shard = self.claims[job.job_id]
        if not shard.alive:
            shard = self.claims[job.job_id] = self._alive_shard(0)
            shard.jobs_reclaimed += 1
        return shard

    def fail_shard(self, shard: CtlShard) -> None:
        """Take ``shard`` down.  Its daemons re-register round-robin with the
        survivors, in registration order; its jobs are reclaimed by
        :meth:`shard_for` on their next command — their instances, stats
        and log collectors live on the jobs and survive untouched."""
        if not shard.alive:
            return
        shard.alive = False
        if any(s.alive for s in self.shards):
            orphans = [ip for ip, owner in self.daemon_shard.items() if owner is shard]
            for index, ip in enumerate(orphans):
                self.daemon_shard[ip] = self._alive_shard(index)

    # ---------------------------------------------------------------- daemons
    def register_daemon(self, daemon: Splayd) -> None:
        """Register a daemon (normally done by the splayd at boot)."""
        shard = self._alive_shard(len(self.daemons))
        if daemon.ip in self.daemons:
            raise ControllerError(f"daemon already registered for {daemon.ip}")
        self.daemons[daemon.ip] = daemon
        self.daemon_shard[daemon.ip] = shard

    def _host(self, ip: str) -> Tuple[Splayd, CtlShard]:
        """A host's daemon and the alive shard its commands travel through."""
        daemon = self.daemons.get(ip)
        if daemon is None:
            raise ControllerError(f"no daemon on {ip}")
        shard = self.daemon_shard[ip]
        if not shard.alive:  # only when every shard failed: fail_shard rehomes
            shard = self._alive_shard(0)
        return daemon, shard

    # Host views, computed per call from ``Host.alive`` (read directly: the
    # ``Splayd.alive`` property is a frame per host).  A whole run consults
    # them a few dozen times — per plan, per host-churn action, per status
    # call — never per event, so there is nothing worth memoizing.
    def alive_daemons(self) -> List[Splayd]:
        """Alive daemons in registration order."""
        return [d for d in self.daemons.values() if d.host.alive]

    def daemon_ips(self) -> List[str]:
        return sorted(self.daemons)

    def alive_host_ips(self) -> List[str]:
        return sorted([ip for ip, d in self.daemons.items() if d.host.alive])

    def failed_host_ips(self) -> List[str]:
        return sorted([ip for ip, d in self.daemons.items() if not d.host.alive])

    def host_alive(self, ip: str) -> bool:
        daemon = self.daemons.get(ip)
        return daemon is not None and daemon.host.alive

    # ------------------------------------------------------------------- jobs
    def submit(self, spec: JobSpec) -> Job:
        """Accept a job for deployment; an alive shard claims it at once."""
        shard = self._alive_shard(len(self.jobs))
        job = Job(spec, job_id=len(self.jobs) + 1)
        job.log_sink = LogCollector(self.sim, job, self.daemon_shard,
                                    max_queue=self.log_queue_depth)
        obs = getattr(self.sim, "_obs", None)
        if obs is not None and obs.metrics_enabled:
            # imported here: a run without metrics never loads repro.obs
            from repro.obs.metrics import MetricsRegistry
            job.metrics = MetricsRegistry(clock=self.sim.clock)
        self.jobs[job.job_id] = job
        self.claims[job.job_id] = shard
        shard.jobs_claimed += 1
        return job

    def start(self, job: Job) -> List[Instance]:
        """Deploy the job: place and spawn every requested instance.  A churn
        script and/or trace on its spec starts replaying through this
        controller (action times relative to this call); both are parsed
        before the job leaves PENDING, so a malformed one deploys nothing."""
        shard = self.shard_for(job)
        if job.state is not JobState.PENDING:
            raise ControllerError(f"job #{job.job_id} is {job.state.value}, not pending")
        spec = job.spec
        churn = None
        if spec.churn_script or spec.churn_trace:
            actions = []
            if spec.churn_script:
                actions.extend(parse_churn_script(spec.churn_script))
            if spec.churn_trace:
                # Availability traces replay as host-level fail/recover
                # actions, merged with (and replayed alongside) any script.
                actions.extend(trace_churn_actions(spec.churn_trace))
            churn = ChurnManager(self.sim, self, job, seed=self.sim.seed)
            churn.load_actions(actions)
        job.state = JobState.RUNNING
        instances = self._spawn(shard, job, spec.instances)
        if len(instances) < spec.instances:
            # Partial deployment is a failed deployment: tear the already
            # placed instances down so nothing keeps running unmanaged.
            self._kill(shard, instances, "deployment failed", False)
            job.state = JobState.FAILED
            raise ControllerError(
                f"job #{job.job_id}: only {len(instances)}/{spec.instances} "
                f"instances could be placed")
        if churn is not None:
            churn.start()
            self.churn_managers[job.job_id] = churn
        return instances

    def start_instances(self, job: Job, count: int) -> List[Instance]:
        """Spawn ``count`` more instances; fewer when capacity runs out."""
        return self._spawn(self.shard_for(job), job, count)

    def _spawn(self, shard: CtlShard, job: Job, count: int) -> List[Instance]:
        """Plan ``count`` placements (independent of the shard count), then
        send one spawn round per daemon."""
        started: List[Instance] = []
        plan = plan_placements(self.alive_daemons(), job, count, self._rng)
        for daemon, instance_ids in _grouped(plan).items():
            spawned, error = self._round(shard, partial(daemon.spawn, job), instance_ids)
            for instance in spawned.values():
                job.record_start(instance)
                started.append(instance)
            shard.instances_started += len(spawned)
            if error is not None:
                raise error
        self._check_views()
        return started

    def _round(self, shard: CtlShard, command: Callable,
               items: list) -> Tuple[dict, Optional[Exception]]:
        """One command round to one daemon: ``command(item)`` for every item,
        in order, counted on ``shard``.  Returns ``{item: result}`` of the
        commands that succeeded and the first application error (a raising
        factory or cleanup).  A daemon's refusal (:class:`SplaydError`) is
        skipped; an application error does not stop the round, so the caller
        records every success before it surfaces the error."""
        shard.batches_sent += 1
        shard.commands_sent += len(items)
        done = {}
        error: Optional[Exception] = None
        for item in items:
            try:
                done[item] = command(item)
            except SplaydError:
                continue
            except Exception as exc:  # noqa: BLE001 - raised once the round is recorded
                error = error or exc
        return done, error

    # ---------------------------------------------------------------- control
    def kill_instance(self, instance: Instance, reason: str = "controller stop",
                      failed: bool = False) -> None:
        self.kill_instances([instance], reason=reason, failed=failed)

    def kill_instances(self, instances: List[Instance],
                       reason: str = "controller stop", failed: bool = False) -> None:
        """Stop several instances of one job, one round per daemon."""
        if instances:
            self._kill(self.shard_for(instances[0].job), instances, reason, failed)

    def _kill(self, shard: CtlShard, instances: List[Instance], reason: str,
              failed: bool) -> None:
        """A kill that raised (a failing instance cleanup) does not stop the
        rounds: every other victim is still killed and recorded, then the
        first failure is raised."""
        error: Optional[Exception] = None
        for daemon, victims in _grouped([(i.daemon, i) for i in instances]).items():
            killed, round_error = self._round(
                shard, partial(daemon.stop_instance, reason=reason), victims)
            for instance in killed:
                instance.job.record_stop(instance, failed=failed)
            shard.instances_killed += len(killed)
            error = error or round_error
        self._check_views()
        if error is not None:
            raise error

    def stop(self, job: Job) -> None:
        """Stop every instance of the job and mark it stopped; the churn
        actions it has not replayed yet never fire."""
        shard = self.shard_for(job)
        if job.state not in (JobState.STOPPED, JobState.FAILED):
            self._kill(shard, list(job.instances), f"job #{job.job_id} stopped", False)
            job.state = JobState.STOPPED
        churn = self.churn_managers.get(job.job_id)
        if churn is not None:
            churn.cancel()

    def fail_host(self, ip: str) -> int:
        """Take a whole daemon down: every co-located instance (of every job)
        dies and in-flight transfers are cancelled.  Returns the number of
        instances killed — 0, with nothing counted, for a host already down."""
        daemon, shard = self._host(ip)
        if not daemon.host.alive:
            return 0
        victims = list(daemon.instances)
        try:
            # A failing instance cleanup surfaces from here only after the
            # whole host went down, so the bookkeeping below still holds.
            return daemon.fail()
        finally:
            for instance in victims:
                instance.job.record_stop(instance, failed=True)
            shard.hosts_failed += 1
            self._check_views()

    def recover_host(self, ip: str) -> None:
        """Bring a failed host back as an empty daemon: it keeps its
        registration, and placement sees it again at once."""
        daemon, shard = self._host(ip)
        if daemon.host.alive:
            return
        daemon.recover()
        shard.hosts_recovered += 1
        self._check_views()

    def _check_views(self) -> None:
        """Sanitizer cross-check of the job and daemon tables (if installed)."""
        san = getattr(self.sim, "_san", None)
        if san is not None:
            san.check_store_views(self)

    # ------------------------------------------------------------------- logs
    def job_logs(self, job: Job, level: Optional[str] = None) -> List[LogRecord]:
        """The job's newest collected records, oldest first: at most its
        collector's ``max_queue``, filtered to ``level`` and above if given.
        Counts of every record are in :meth:`job_status`."""
        records = job.log_sink.flush()
        if level is None:
            return records
        minimum = LogLevel.coerce(level)
        return [r for r in records if r.level >= minimum]

    # ---------------------------------------------------------------- metrics
    def job_metrics(self, job: Job) -> Dict[str, object]:
        """Per-job observability aggregation (digest-excluded ``metrics``).

        Mirrors :meth:`job_logs`: the registry and the log collector both
        live on the job, so the numbers are identical whatever the shard
        count and survive shard failover.
        """
        job.log_sink.flush()
        return {
            "job_id": job.job_id,
            "registry": job.metrics.snapshot() if job.metrics is not None else {},
            "log_collector": job.log_sink.status(),
        }

    # ------------------------------------------------------------------ stats
    def job_status(self, job: Job) -> Dict[str, object]:
        """Controller-side summary of one job (printed by scenarios).

        Deliberately excludes per-shard attribution: every value here is
        identical whatever the shard count, so it can feed report digests.
        The churn counts are the job's churn manager's (zero without one),
        the log counts its collector's.
        """
        collector = job.log_sink
        collector.flush()
        churn = self.churn_managers.get(job.job_id)
        churn = churn.stats if churn is not None else ChurnStats()
        # an instance that never used its socket sent nothing: none is built
        sockets = [i._socket.stats for i in job.instances if i._socket is not None]
        return {
            "job_id": job.job_id,
            "name": job.spec.name,
            "state": job.state.value,
            "live_instances": job.live_count,
            "instances_started": job.stats.instances_started,
            "instances_stopped": job.stats.instances_stopped,
            "instances_failed": job.stats.instances_failed,
            "churn_joins": churn.instances_joined,
            "churn_leaves": churn.instances_left,
            "churn_crashes": churn.instances_crashed,
            # Host-level churn counters appear only when host churn actually
            # happened: reports (and their digests) of script-only runs stay
            # byte-identical with the pre-testbeds era.
            **({"churn_host_failures": churn.hosts_failed,
                "churn_host_recoveries": churn.hosts_recovered}
               if churn.hosts_failed or churn.hosts_recovered else {}),
            "log_records": collector.collected,
            "log_records_dropped": collector.dropped,
            "bytes_sent": sum(s.bytes_sent for s in sockets),
            "messages_sent": sum(s.messages_sent for s in sockets),
        }

    def control_plane_status(self) -> Dict[str, object]:
        """Shard/collector-level summary (shard-count dependent — never put
        this inside a digest-relevant report section)."""
        return {
            "shards": [
                {
                    "name": shard.name,
                    "alive": shard.alive,
                    "daemons": sum(1 for owner in self.daemon_shard.values()
                                   if owner is shard),
                    "jobs_claimed": shard.jobs_claimed,
                    "jobs_reclaimed": shard.jobs_reclaimed,
                    "hosts_failed": shard.hosts_failed,
                    "hosts_recovered": shard.hosts_recovered,
                    "batches_sent": shard.batches_sent,
                    "commands_sent": shard.commands_sent,
                    "instances_started": shard.instances_started,
                    "instances_killed": shard.instances_killed,
                    "logs_routed": shard.logs_routed,
                }
                for shard in self.shards
            ],
            "collectors": {job_id: job.log_sink.status()
                           for job_id, job in self.jobs.items()},
            "hosts": {
                "registered": len(self.daemons),
                "down_now": len(self.failed_host_ips()),
                "failures_total": sum(s.hosts_failed for s in self.shards),
                "recoveries_total": sum(s.hosts_recovered for s in self.shards),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Controller shards={len(self.shards)} "
                f"daemons={len(self.daemons)} jobs={len(self.jobs)}>")
