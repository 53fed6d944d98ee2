"""Control-plane scale-out: job store, controller shards, batched daemon
commands, bounded log collectors, and shard failover."""

from dataclasses import asdict

import pytest

from repro.core.jobs import JobSpec, JobState
from repro.lib.logging import LogRecord, LogLevel
from repro.net.network import Network
from repro.runtime.controller import Controller, ControllerError
from repro.runtime.jobstore import LogCollector
from repro.runtime.splayd import Splayd, SplaydError, SplaydLimits
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer


def _world(seed=0, daemons=4, max_instances=4, shards=1, **controller_kwargs):
    sim = Simulator(seed)
    network = Network(sim, seed=seed)
    controller = Controller(sim, network, seed=seed, shards=shards,
                            **controller_kwargs)
    for i in range(daemons):
        controller.register_daemon(Splayd(
            sim, network, f"10.0.0.{i + 1}",
            SplaydLimits(max_instances=max_instances)))
    return sim, network, controller


def _record(message="hello", time=0.0):
    return LogRecord(time=time, level=LogLevel.INFO, source="test", message=message)


# -------------------------------------------------------------- log collector
class TestLogCollector:
    def _collector(self, max_queue=3):
        sim = Simulator(0)
        network = Network(sim, seed=0)
        controller = Controller(sim, network, seed=0)
        job = controller.submit(JobSpec(name="j", app_factory=lambda i: None))
        return sim, job, LogCollector(controller.store, job, max_queue=max_queue)

    def test_drop_oldest_when_queue_is_full(self):
        _sim, job, collector = self._collector(max_queue=3)
        for index in range(5):
            collector.offer(_record(f"m{index}"))
        # 5 offered into a 3-slot queue: m0 and m1 evicted, newest retained.
        assert collector.dropped == 2
        assert job.stats.log_records_dropped == 2
        assert [r.message for r, _shard in collector.queue] == ["m2", "m3", "m4"]

    def test_offer_reports_eviction(self):
        _sim, _job, collector = self._collector(max_queue=1)
        assert collector.offer(_record("first")) is True
        assert collector.offer(_record("second")) is False  # evicted "first"

    def test_drain_event_moves_queue_into_records(self):
        sim, job, collector = self._collector(max_queue=10)
        collector.offer(_record("a"), shard="ctl0")
        collector.offer(_record("b"), shard="ctl1")
        assert collector.records == [] and collector.pending == 2
        sim.run(until=1.0)  # the drain event fires drain_interval after enqueue
        assert [r.message for r in collector.records] == ["a", "b"]
        assert collector.pending == 0
        assert job.stats.log_records == 2
        assert job.stats.logs_by_shard == {"ctl0": 1, "ctl1": 1}

    def test_flush_drains_synchronously(self):
        _sim, job, collector = self._collector(max_queue=10)
        collector.offer(_record("x"))
        records = collector.flush()
        assert [r.message for r in records] == ["x"]
        assert job.stats.log_records == 1

    def test_dropped_records_never_reach_the_log(self):
        sim, job, collector = self._collector(max_queue=2)
        for index in range(6):
            collector.offer(_record(f"m{index}"))
        sim.run(until=1.0)
        assert [r.message for r in collector.records] == ["m4", "m5"]
        assert collector.collected == 2
        assert collector.dropped == 4
        assert collector.queue_peak == 2

    def test_rejects_zero_capacity(self):
        sim = Simulator(0)
        network = Network(sim, seed=0)
        controller = Controller(sim, network, seed=0)
        job = controller.submit(JobSpec(name="j", app_factory=lambda i: None))
        with pytest.raises(ValueError, match="at least one"):
            LogCollector(controller.store, job, max_queue=0)


# ------------------------------------------------------------------- batching
class TestBatchedCommands:
    def test_start_sends_one_batch_per_daemon(self):
        _sim, _network, controller = _world(daemons=4, max_instances=4)
        job = controller.submit(JobSpec(name="app", app_factory=lambda i: "app",
                                        instances=8))
        instances = controller.start(job)
        assert len(instances) == 8
        shard = controller.shards[0]
        # 8 spawns over 4 daemons: one batch_exec round per daemon, not 8.
        assert shard.stats.batches_sent == 4
        assert shard.stats.commands_sent == 8
        for daemon in controller.alive_daemons():
            assert daemon.batches_received == 1
            assert daemon.commands_executed == 2

    def test_kill_instances_batches_per_daemon(self):
        _sim, _network, controller = _world(daemons=2, max_instances=4)
        job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                        instances=6))
        instances = controller.start(job)
        shard = controller.shards[0]
        batches_before = shard.stats.batches_sent
        controller.kill_instances(instances, reason="test")
        # 6 kills over 2 daemons: exactly 2 more batches.
        assert shard.stats.batches_sent == batches_before + 2
        assert job.live_count == 0
        assert job.stats.instances_stopped == 6

    def test_batch_exec_failure_does_not_abort_the_batch(self):
        sim, network, _controller = _world()
        daemon = Splayd(sim, network, "10.0.9.1", SplaydLimits(max_instances=1))
        from repro.core.jobs import Job

        job = Job(JobSpec(name="j", app_factory=lambda i: None, instances=1),
                  job_id=1)
        outcomes = daemon.batch_exec([("spawn", job, 0), ("spawn", job, 1),
                                      ("bogus-op",)])
        assert outcomes[0].__class__.__name__ == "Instance"
        assert isinstance(outcomes[1], SplaydError)  # over capacity
        assert isinstance(outcomes[2], SplaydError)  # unknown command
        assert daemon.batches_received == 1
        assert daemon.commands_executed == 3

    def test_placement_identical_to_sequential_selection(self):
        # The plan-then-batch path must place instances exactly where the
        # old spawn-one-at-a-time loop did: balanced, capacity-respecting.
        _sim, _network, controller = _world(daemons=3, max_instances=2, seed=7)
        job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                        instances=5))
        controller.start(job)
        by_host = {}
        for placement in job.placements:
            by_host[placement.ip] = by_host.get(placement.ip, 0) + 1
        assert sorted(by_host.values()) == [1, 2, 2]
        assert {p.instance_id for p in job.placements} == set(range(5))


# ----------------------------------------------------------------- sharding
class TestShards:
    def test_daemons_round_robin_across_shards(self):
        _sim, _network, controller = _world(daemons=4, shards=2)
        names = sorted(controller.store.daemon_shard.values())
        assert names == ["ctl0", "ctl0", "ctl1", "ctl1"]

    def test_controller_requires_at_least_one_shard(self):
        sim = Simulator(0)
        network = Network(sim, seed=0)
        with pytest.raises(ControllerError, match="at least one shard"):
            Controller(sim, network, shards=0)

    def test_jobs_are_claimed_round_robin(self):
        _sim, _network, controller = _world(daemons=4, shards=2, max_instances=8)
        first = controller.submit(JobSpec(name="a", app_factory=lambda i: None))
        second = controller.submit(JobSpec(name="b", app_factory=lambda i: None))
        assert controller.shard_for(first).name == "ctl0"
        assert controller.shard_for(second).name == "ctl1"
        assert first.stats.claimed_by == ["ctl0"]
        assert second.stats.claimed_by == ["ctl1"]

    def test_shard_failure_rehomes_daemons_and_claims(self):
        sim, _network, controller = _world(daemons=4, shards=2, max_instances=4)
        job = controller.submit(JobSpec(
            name="app", app_factory=lambda i: None, instances=4,
            churn_script="from 5s to 60s every 5s replace 25%\n"))
        controller.start(job)
        assert controller.shard_for(job).name == "ctl0"
        controller.shards[0].fail()
        # Daemons re-register with the survivor; the claim moves on next use.
        assert set(controller.store.daemon_shard.values()) == {"ctl1"}
        assert controller.shard_for(job).name == "ctl1"
        assert job.stats.claimed_by == ["ctl0", "ctl1"]
        assert controller.shards[1].stats.jobs_reclaimed == 1
        # Churn keeps running through the surviving shard.
        sim.run(until=90.0)
        assert job.state is JobState.RUNNING
        assert job.live_count == 4
        assert job.stats.churn_leaves > 0
        assert controller.shards[1].stats.batches_sent > 0

    def test_no_alive_shard_is_a_controller_error(self):
        _sim, _network, controller = _world(daemons=2, shards=1)
        job = controller.submit(JobSpec(name="app", app_factory=lambda i: None))
        controller.shards[0].fail()
        with pytest.raises(ControllerError, match="no alive controller shard"):
            controller.start(job)


# ------------------------------------------- log counters surviving failover
def test_log_counters_and_attribution_survive_shard_failover():
    """Regression: dropped-log counts and per-shard attribution live on the
    job (the shared store), so a shard dying and another claiming the job
    mid-run must lose nothing."""
    sim, _network, controller = _world(daemons=2, shards=2, max_instances=2,
                                       log_queue_depth=2)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=2, log_level="INFO"))
    instances = controller.start(job)
    # Both daemons log; the 2-slot queue forces drop-oldest evictions.
    for index in range(4):
        instances[0].logger.info(f"before-{index}")
    sim.run(until=1.0)  # drain
    dropped_before = job.stats.log_records_dropped
    collected_before = job.stats.log_records
    assert dropped_before == 2
    assert collected_before == 2
    by_shard_before = dict(job.stats.logs_by_shard)
    assert sum(by_shard_before.values()) == collected_before

    controller.shards[0].fail()
    assert controller.shard_for(job).name == "ctl1"

    # Logging continues: counters accumulate on top of the pre-failover
    # values, attribution now flows to the surviving shard.
    for index in range(3):
        instances[1].logger.info(f"after-{index}")
    sim.run(until=2.0)
    assert job.stats.log_records_dropped == dropped_before + 1
    assert job.stats.log_records == collected_before + 2
    for shard_name, count in by_shard_before.items():
        assert job.stats.logs_by_shard[shard_name] >= count
    assert job.stats.logs_by_shard.get("ctl1", 0) > by_shard_before.get("ctl1", 0)
    # The controller-facing log view agrees with the stats.
    assert len(controller.job_logs(job)) == job.stats.log_records
    status = controller.job_status(job)
    assert status["log_records_dropped"] == dropped_before + 1


# ------------------------------------------- the one router under failover
#: directive -> (script, what the serving shard's counters gain, the
#:               job.stats counter and its ChurnStats twin if any, their value)
ROUTED = {
    "join": ("at 10s join 2", {"instances_started": 2},
             "churn_joins", "instances_joined", 2),
    "leave": ("at 10s leave 2", {"instances_killed": 2},
              "churn_leaves", "instances_left", 2),
    "crash": ("at 10s crash 2", {"instances_killed": 2},
              "churn_crashes", "instances_crashed", 2),
    "replace": ("at 10s replace 2", {"instances_killed": 2, "instances_started": 2},
                "churn_joins", "instances_joined", 2),
    "fail": ("at 10s fail 1", {"hosts_failed": 1},
             "churn_host_failures", "hosts_failed", 1),
    "recover": ("at 2s fail 1\nat 10s recover 1", {"hosts_recovered": 1},
                "churn_host_recoveries", "hosts_recovered", 1),
    "stop": ("at 10s stop", {"instances_killed": 6},
             "instances_stopped", None, 6),
}


@pytest.mark.parametrize("kind", ROUTED)
def test_every_churn_directive_lands_through_the_surviving_shard(kind):
    script, gains, job_counter, churn_counter, value = ROUTED[kind]
    sim, _network, controller = _world(daemons=4, shards=2, max_instances=4)
    san = Sanitizer(sim, strict=True).install()
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=6, churn_script=script + "\n"))
    controller.start(job)
    dead, survivor = controller.shards
    assert controller.shard_for(job) is dead
    sim.run(until=5.0)
    dead.fail()  # the claiming shard dies before the action fires
    dead_before, survivor_before = asdict(dead.stats), asdict(survivor.stats)
    sim.run(until=15.0)
    # The manager holds the facade, and the facade routes per call: the job's
    # commands follow the claim, the host's follow the daemon's registration.
    assert asdict(dead.stats) == dead_before
    moved = {name: count - survivor_before[name]
             for name, count in asdict(survivor.stats).items()
             if count != survivor_before[name]}
    assert {name: moved.get(name) for name in gains} == gains
    assert controller.churn_managers[job.job_id].controller is controller
    churn = controller.churn_managers[job.job_id].stats
    assert churn.by_kind[kind] == 1
    assert getattr(job.stats, job_counter) == value
    if churn_counter is not None:
        assert getattr(churn, churn_counter) == value
    assert (job.state is JobState.STOPPED) == (kind == "stop")
    assert san.counts == {}


# --------------------------------------------- the one sink under sharing
def test_two_jobs_sharing_every_host_keep_their_records_and_attribution_apart():
    sim, _network, controller = _world(daemons=3, shards=3, max_instances=4)
    jobs = [controller.submit(JobSpec(name=name, app_factory=lambda i: None,
                                      instances=6, log_level="INFO"))
            for name in ("left", "right")]
    fleets = [controller.start(job) for job in jobs]
    for job, fleet in zip(jobs, fleets):
        assert {i.daemon.ip for i in fleet} == set(controller.daemon_ips())
        # one sink per job, shared by every logger of the job on every host
        assert {id(i.logger.remote_sink) for i in fleet} == {id(job.log_sink)}
        for instance in fleet:
            instance.logger.info(f"{job.spec.name} {instance.instance_id}")
    sim.run(until=1.0)
    for job in jobs:
        records = controller.job_logs(job)
        assert sorted(r.message for r in records) == sorted(
            f"{job.spec.name} {n}" for n in range(6))
        assert {r.job_id for r in records} == {job.job_id}
        # one daemon per shard, two instances of each job per daemon
        assert job.stats.logs_by_shard == {"ctl0": 2, "ctl1": 2, "ctl2": 2}
    assert [s.stats.logs_routed for s in controller.shards] == [4, 4, 4]

    # A record is attributed when it ships: after ctl1 dies, what its former
    # host emits counts for the heir.
    controller.shards[1].fail()
    assert "ctl1" not in controller.store.daemon_shard.values()
    for job, fleet in zip(jobs, fleets):
        for instance in fleet:
            instance.logger.info("after the failover")
    sim.run(until=2.0)
    for job in jobs:
        assert job.stats.logs_by_shard["ctl1"] == 2  # what it routed while alive
        assert sum(job.stats.logs_by_shard.values()) == job.stats.log_records == 12
        assert len(controller.job_logs(job)) == 12
    assert controller.shards[1].stats.logs_routed == 4
    assert sum(s.stats.logs_routed for s in controller.shards) == 24


def test_control_plane_status_reports_shards_and_collectors():
    _sim, _network, controller = _world(daemons=4, shards=2, max_instances=4)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=4))
    controller.start(job)
    plane = controller.control_plane_status()
    assert [s["name"] for s in plane["shards"]] == ["ctl0", "ctl1"]
    assert sum(s["daemons"] for s in plane["shards"]) == 4
    assert sum(s["batches_sent"] for s in plane["shards"]) > 0
    assert job.job_id in plane["collectors"]
    collector = plane["collectors"][job.job_id]
    assert set(collector) == {"collected", "dropped", "pending", "queue_peak",
                              "max_queue"}


# ------------------------------------------------- batch failure edge cases
def test_raising_app_factory_surfaces_and_leaves_no_orphans():
    """Regression: a factory raising mid-batch must still record every spawn
    that succeeded (so stop/churn can reach them) and fully reap its own
    half-built instance — nothing may keep running untracked."""
    calls = {"n": 0}

    def factory(instance):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("factory bug")
        return "ok"

    _sim, _network, controller = _world(daemons=1, max_instances=4)
    job = controller.submit(JobSpec(name="app", app_factory=factory, instances=3))
    with pytest.raises(RuntimeError, match="factory bug"):
        controller.start(job)
    daemon = controller.daemons["10.0.0.1"]
    # The failed spawn was torn down; the successful ones are all tracked.
    assert all(instance in job.instances for instance in daemon.instances)
    assert job.live_count == len(daemon.instances) == 2
    controller.stop(job)
    assert not daemon.instances
    assert daemon.has_capacity()


def test_instance_ids_are_never_reused_after_failed_spawns():
    """Regression: plan_placements consumes ids even when the spawn then
    fails, so a later join can never hand a live node's id to a second
    instance (apps derive overlay identity from (job_id, instance_id))."""
    _sim, _network, controller = _world(daemons=1, max_instances=3)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=1, base_port=65535))
    controller.start(job)  # instance 0 holds the daemon's only usable port
    assert controller.start_instances(job, 1) == []  # id 1 consumed, spawn failed
    controller.kill_instance(next(iter(job.instances)))  # frees the port
    (replacement,) = controller.start_instances(job, 1)
    assert replacement.instance_id == 2  # id 1 is gone for good, not recycled
    ids = [p.instance_id for p in job.placements]
    assert len(set(ids)) == len(ids)
