"""``splayctl``: the controller, as a shardable control plane.

Paper counterpart: *splayctl*.  "The controller manages applications: it
registers daemons, lets users submit jobs, selects appropriate hosts,
instructs daemons to start or stop application instances, and collects logs
and statistics" — and it is explicitly *not* one process: the paper runs
several controller front-ends behind one shared database so the testbed
keeps up with hundreds of daemons and heavy log traffic.

This module holds the deployment-facing facade.  A :class:`Controller` owns
one shared :class:`~repro.runtime.jobstore.JobStore` (the database) plus
``shards`` stateless :class:`~repro.runtime.jobstore.CtlShard` front-ends;
daemons are registered round-robin across shards, jobs are claimed by a
shard on submission, and every command a shard issues to a daemon travels
in a per-daemon ``batch_exec`` round.  The facade is the one *router*: a job
command goes to the shard that claims the job now, a host command to the
shard the daemon is registered with now — both looked up on the store per
call, so users, the harness and the churn managers (which are handed this
object) all follow shard failover the same way.  With ``shards=1`` (the
default) the facade behaves exactly like the historical monolithic
controller, and — because placement randomness and log collection live on
the store — the workload-visible behaviour is byte-identical for any shard
count.

The control plane itself (daemon registration, job commands) is modelled as
instantaneous — the paper's controller uses a separate reliable channel
whose latency is irrelevant to the measured application behaviour.  All
*application* traffic flows through the daemons' restricted sockets on the
simulated network.

Public entry points: :class:`Controller` (``register_daemon`` /``submit`` /
``start`` / ``start_instances`` / ``kill_instance(s)`` / ``stop`` /
``fail_host`` / ``recover_host`` / ``job_logs`` / ``job_status`` /
``control_plane_status``) and the re-exported :class:`ControllerError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.churn import ChurnManager, ChurnStats, parse_churn_script, trace_churn_actions
from repro.core.jobs import Job, JobSpec
from repro.lib.logging import LogLevel, LogRecord
from repro.net.network import Network
from repro.runtime.jobstore import (
    ControllerError,
    CtlShard,
    JobStore,
    LogCollector,
)
from repro.runtime.splayd import Instance, Splayd
from repro.sim.kernel import Simulator

__all__ = ["Controller", "ControllerError", "CtlShard", "JobStore", "LogCollector"]


class Controller:
    """The control plane of a deployment: a job store plus N controller shards.

    Parameters
    ----------
    sim / network:
        Simulation substrate.
    seed:
        Root seed for placement randomness (defaults to the simulator's).
    shards:
        Number of stateless front-ends; daemons register round-robin across
        them and each submitted job is claimed by one of them.
    log_queue_depth:
        Bound of each per-job log collector queue (drop-oldest when full).
    """

    def __init__(self, sim: Simulator, network: Network, seed: Optional[int] = None,
                 shards: int = 1, log_queue_depth: int = 4096):
        if shards < 1:
            raise ControllerError("a controller needs at least one shard")
        self.sim = sim
        self.network = network
        self.store = JobStore(sim, seed=seed, log_queue_depth=log_queue_depth)
        self.shards: List[CtlShard] = [CtlShard(self.store, i) for i in range(shards)]
        self._register_rr = 0
        self._claim_rr = 0

    # ------------------------------------------------------------- delegation
    @property
    def daemons(self) -> Dict[str, Splayd]:
        return self.store.daemons

    @property
    def jobs(self) -> Dict[int, Job]:
        return self.store.jobs

    @property
    def churn_managers(self) -> Dict[int, ChurnManager]:
        return self.store.churn_managers

    def _next_shard(self, cursor: str) -> CtlShard:
        """Round-robin over alive shards (skips failed ones deterministically)."""
        alive = self.store.alive_shards()
        if not alive:
            raise ControllerError("no alive controller shard")
        index = getattr(self, cursor)
        setattr(self, cursor, index + 1)
        return alive[index % len(alive)]

    def shard_for(self, job: Job) -> CtlShard:
        """The shard currently responsible for ``job`` (reclaims if dead)."""
        return self.store.claimant(job)

    # ---------------------------------------------------------------- daemons
    def register_daemon(self, daemon: Splayd) -> None:
        """Register a daemon (normally done by the splayd at boot)."""
        self.store.add_daemon(daemon, self._next_shard("_register_rr"))

    def alive_daemons(self) -> List[Splayd]:
        return self.store.alive_daemons()

    # ------------------------------------------------------------------- jobs
    def submit(self, spec: JobSpec) -> Job:
        """Accept a job for deployment; a shard claims it immediately."""
        return self._next_shard("_claim_rr").submit(spec)

    def start(self, job: Job) -> List[Instance]:
        """Deploy the job; a churn script and/or trace on its spec starts
        replaying through this facade (action times relative to this call)."""
        instances = self.shard_for(job).start(job)
        spec = job.spec
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
            churn.start()
            self.store.churn_managers[job.job_id] = churn
        return instances

    def start_instances(self, job: Job, count: int) -> List[Instance]:
        return self.shard_for(job).start_instances(job, count)

    # ---------------------------------------------------------------- control
    def kill_instance(self, instance: Instance, reason: str = "controller stop",
                      failed: bool = False) -> None:
        self.kill_instances([instance], reason=reason, failed=failed)

    def kill_instances(self, instances: List[Instance],
                       reason: str = "controller stop", failed: bool = False) -> None:
        if not instances:
            return
        self.shard_for(instances[0].job).kill_instances(instances, reason=reason,
                                                        failed=failed)

    def stop(self, job: Job) -> None:
        """Stop the job; the churn actions it has not replayed yet never fire."""
        self.shard_for(job).stop(job)
        churn = self.store.churn_managers.get(job.job_id)
        if churn is not None:
            churn.cancel()

    def fail_host(self, ip: str) -> int:
        """Simulate a host failure (all its instances across all jobs die).

        Routed through the daemon's registered shard, which keeps the
        per-shard and store-wide failure counters.
        """
        return self.store.shard_for_daemon(ip).fail_host(ip)

    def recover_host(self, ip: str) -> None:
        """Bring a failed host back as an empty daemon (placement sees it again)."""
        self.store.shard_for_daemon(ip).recover_host(ip)

    def daemon_ips(self) -> List[str]:
        return sorted(self.store.daemons)

    def alive_host_ips(self) -> List[str]:
        return self.store.alive_host_ips()

    def failed_host_ips(self) -> List[str]:
        return self.store.failed_host_ips()

    def host_alive(self, ip: str) -> bool:
        return self.store.host_alive(ip)

    # ------------------------------------------------------------------- logs
    def job_logs(self, job: Job, level: Optional[str] = None) -> List[LogRecord]:
        records = self.store.collectors[job.job_id].flush()
        if level is None:
            return list(records)
        minimum = LogLevel.coerce(level)
        return [r for r in records if r.level >= minimum]

    # ---------------------------------------------------------------- metrics
    def metrics_for(self, job: Job):
        """Per-job metrics registry, resolved through the store (like logs)."""
        return self.store.metrics_for(job)

    def job_metrics(self, job: Job) -> Dict[str, object]:
        """Per-job observability aggregation (digest-excluded ``metrics``).

        Mirrors :meth:`job_logs`: the registry and the log collector both
        live on the shared store, so the numbers are identical whatever the
        shard count and survive shard failover.
        """
        collector = self.store.collectors[job.job_id]
        collector.flush()
        return {
            "job_id": job.job_id,
            "registry": self.store.metrics_for(job).snapshot(),
            "log_collector": collector.status(),
        }

    # ------------------------------------------------------------------ stats
    def job_status(self, job: Job) -> Dict[str, object]:
        """Controller-side summary of one job (printed by scenarios).

        Deliberately excludes per-shard attribution: every value here is
        identical whatever the shard count, so it can feed report digests.
        The churn counts are the job's churn manager's (zero without one),
        the log counts its collector's.
        """
        collector = self.store.collectors[job.job_id]
        collector.flush()
        churn = self.store.churn_managers.get(job.job_id)
        churn = churn.stats if churn is not None else ChurnStats()
        sockets = [i.socket.stats for i in job.instances]
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
                    "daemons": sum(1 for name in self.store.daemon_shard.values()
                                   if name == shard.name),
                    "jobs_claimed": shard.stats.jobs_claimed,
                    "jobs_reclaimed": shard.stats.jobs_reclaimed,
                    "hosts_failed": shard.stats.hosts_failed,
                    "hosts_recovered": shard.stats.hosts_recovered,
                    "batches_sent": shard.stats.batches_sent,
                    "commands_sent": shard.stats.commands_sent,
                    "instances_started": shard.stats.instances_started,
                    "instances_killed": shard.stats.instances_killed,
                    "logs_routed": shard.stats.logs_routed,
                }
                for shard in self.shards
            ],
            "collectors": {job_id: collector.status()
                           for job_id, collector in self.store.collectors.items()},
            "hosts": {
                "registered": len(self.store.daemons),
                "down_now": len(self.store.failed_host_ips()),
                "failures_total": sum(s.stats.hosts_failed for s in self.shards),
                "recoveries_total": sum(s.stats.hosts_recovered for s in self.shards),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Controller shards={len(self.shards)} "
                f"daemons={len(self.store.daemons)} jobs={len(self.store.jobs)}>")
