"""Runtime: splayd spawning/quotas, controller placement and log collection."""

import gc
import weakref

import pytest

from repro.apps import harness
from repro.core.blacklist import Blacklist
from repro.core.jobs import JobSpec, JobState
from repro.lib.rpc import RpcError
from repro.lib.sbfs import SandboxFSError
from repro.lib.sbsocket import SocketPolicy, SocketRestrictionError
from repro.net.address import Address
from repro.net.network import Network
from repro.runtime.controller import Controller, ControllerError
from repro.runtime.splayd import Splayd, SplaydError, SplaydLimits
from repro.sim.events_api import AppContext
from repro.sim.kernel import Simulator


def _world(seed=0, daemons=3, max_instances=2, **limit_kwargs):
    sim = Simulator(seed)
    network = Network(sim, seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(daemons):
        controller.register_daemon(Splayd(
            sim, network, f"10.0.0.{i + 1}",
            SplaydLimits(max_instances=max_instances, **limit_kwargs)))
    return sim, network, controller


def test_start_places_instances_across_daemons():
    sim, _network, controller = _world(daemons=3, max_instances=2)
    spec = JobSpec(name="app", app_factory=lambda inst: "app-object", instances=5)
    job = controller.submit(spec)
    instances = controller.start(job)
    assert len(instances) == 5
    assert job.state is JobState.RUNNING
    by_host = {}
    for instance in instances:
        by_host.setdefault(instance.me.ip, 0)
        by_host[instance.me.ip] += 1
    # Balanced placement: no daemon exceeds its 2-instance limit.
    assert all(count <= 2 for count in by_host.values())
    assert all(instance.app == "app-object" for instance in instances)


def test_start_fails_cleanly_when_capacity_is_insufficient():
    _sim, _network, controller = _world(daemons=2, max_instances=1)
    job = controller.submit(JobSpec(name="big", app_factory=lambda i: None, instances=5))
    with pytest.raises(ControllerError, match="could be placed"):
        controller.start(job)
    assert job.state is JobState.FAILED
    # Partially placed instances must not keep running unmanaged.
    assert job.live_count == 0
    assert all(daemon.has_capacity() for daemon in controller.alive_daemons())


def test_app_exiting_itself_still_tears_down_cleanly():
    sim, network, controller = _world(daemons=1, max_instances=1)

    def quitter_factory(instance):
        def _main():
            yield 1.0
            instance.events.exit()  # coroutine kills its own context

        instance.events.thread(_main)
        return "quitter"

    job = controller.submit(JobSpec(name="quitter", app_factory=quitter_factory,
                                    instances=1))
    (instance,) = controller.start(job)
    daemon = instance.daemon
    address = instance.address
    sim.run(until=2.0)
    # The self-initiated exit must run every cleanup: listener gone, slot
    # freed, instance reaped — exactly as with an external kill.
    assert not instance.alive
    assert not network.is_listening(address)
    assert instance not in daemon.instances
    assert daemon.has_capacity()


def test_daemon_refuses_spawn_beyond_local_limit():
    sim, network, _controller = _world()
    daemon = Splayd(sim, network, "10.0.9.1", SplaydLimits(max_instances=1))
    job_record = _submitted_job(sim, network)
    daemon.spawn(job_record, 0)
    with pytest.raises(SplaydError, match="capacity"):
        daemon.spawn(job_record, 1)


def _submitted_job(sim, network, **spec_kwargs):
    from repro.core.jobs import Job

    defaults = dict(name="j", app_factory=lambda i: None, instances=1)
    defaults.update(spec_kwargs)
    return Job(JobSpec(**defaults), job_id=1)


def test_merged_policy_daemon_blacklist_applies_to_instances():
    sim, network, controller = _world(
        socket_policy=SocketPolicy(blacklist=Blacklist(["10.0.0.3"])))
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=1))
    (instance,) = controller.start(job)
    with pytest.raises(SocketRestrictionError, match="blacklisted"):
        instance.socket.send("10.0.0.3:20000", "forbidden")
    future = instance.rpc.call("10.0.0.3:20000", "anything")
    sim.run()
    with pytest.raises(RpcError):
        future.result()


def test_fs_quota_is_the_stricter_of_daemon_and_job():
    _sim, _network, controller = _world(fs_max_bytes=100)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=1, fs_max_bytes=1000))
    (instance,) = controller.start(job)
    assert instance.fs.max_bytes == 100
    instance.fs.write_all("ok.txt", b"x" * 50)
    with pytest.raises(SandboxFSError, match="quota"):
        instance.fs.write_all("too-big.txt", b"x" * 100)


def test_kill_instance_tears_down_sandbox_and_frees_the_slot():
    sim, network, controller = _world(daemons=1, max_instances=1)
    # the app uses its RPC library, so the instance listens
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: i.rpc,
                                    instances=1))
    (instance,) = controller.start(job)
    daemon = instance.daemon
    address = instance.address
    assert network.is_listening(address)
    controller.kill_instance(instance, reason="test")
    assert not instance.alive
    assert not network.is_listening(address)
    assert daemon.has_capacity()
    assert job.live_count == 0
    # The freed slot can host a replacement instance.
    assert len(controller.start_instances(job, 1)) == 1


# ------------------------------------------------ libraries built on first use
def test_an_app_that_uses_no_library_holds_only_its_port():
    sim, network, controller = _world(daemons=1, max_instances=2)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=1, base_port=30000))
    (idle,) = controller.start(job)
    # no socket, no socket charge, no listener, no RPC service, no reference
    assert (idle._socket, idle._rpc, idle._me) == (None, None, None)
    assert not network.is_listening(idle.address)
    # no thread and no cleanup: the context holds neither list, only its
    # owner, whose reap is the teardown
    context = idle.context
    assert (context._processes, context._cleanups, context.owner) == (None, None, idle)
    # the port is reserved all the same, until the instance dies
    (neighbour,) = controller.start_instances(job, 1)
    assert (idle.address.port, neighbour.address.port) == (30000, 30001)
    controller.kill_instance(idle, reason="test")
    assert idle._socket is None  # the teardown built nothing either
    assert context.owner is None  # no handle <-> context cycle outlives the kill
    (replacement,) = controller.start_instances(job, 1)
    assert replacement.address.port == 30000
    # a dead sandbox loads no library
    with pytest.raises(SocketRestrictionError, match="closed"):
        idle.rpc


def test_the_first_rpc_listens_charges_one_socket_and_binds_the_metrics():
    deployment = harness.deploy("lazy", lambda i: None, nodes=2, hosts=1, seed=1,
                                join_window=0.0, warmup_grace=0.0, settle=0.0,
                                metrics=True, gc_policy="off")
    first, second = deployment.job.live_instances()
    rpc = first.rpc
    assert first.rpc is rpc and first.socket is rpc.socket
    assert deployment.network.is_listening(first.address)
    assert first.socket._open_sockets == 1
    assert rpc._metrics is deployment.job.metrics is not None
    assert first.me.address == first.address
    # only the instance that used it
    assert second._rpc is None and not deployment.network.is_listening(second.address)


def test_killing_an_instance_that_listens_frees_its_port_and_listener():
    sim, network, controller = _world(daemons=1, max_instances=1)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=1))
    (instance,) = controller.start(job)
    address = instance.address
    # first used after the spawn, so its cleanup comes after the daemon's reap
    call = instance.rpc.call("10.0.0.9:1", "anything", timeout=5.0)
    assert network.is_listening(address) and instance.rpc.pending_calls == 1
    controller.kill_instance(instance, reason="test")
    assert (address.ip, address.port) not in network._listeners
    assert instance.rpc.pending_calls == 0 and call.cancelled()
    (replacement,) = controller.start_instances(job, 1)
    assert replacement.address == address  # the port is free again
    assert replacement.rpc and network.is_listening(address)  # and so is the endpoint


def test_a_report_over_instances_without_rpc_builds_no_service():
    deployment = harness.deploy("no-rpc", lambda i: None, nodes=4, hosts=2, seed=1,
                                join_window=0.0, warmup_grace=0.0, settle=0.0,
                                metrics=True, gc_policy="off")
    instances = deployment.job.live_instances()
    report = harness.base_report("no-rpc", deployment)
    assert all(i._rpc is None and i._socket is None for i in instances)
    assert set(report["rpc"].values()) == {0}
    assert set(harness.rpc_totals(deployment.job).values()) == {0}
    assert (report["job"]["bytes_sent"], report["job"]["messages_sent"]) == (0, 0)


def test_failing_cleanup_finishes_the_teardown_and_reaches_the_caller():
    sim, network, controller = _world(daemons=1, max_instances=2)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=2))
    broken, bystander = controller.start(job)
    daemon, address = broken.daemon, broken.address
    ran = []

    def boom():
        raise RuntimeError("cleanup exploded")

    # The daemon's reap (the context's owner, which also closes the socket
    # and takes its listener down) runs first; the application's own
    # cleanup comes after the failure.
    broken.context.add_cleanup(boom)
    broken.context.add_cleanup(lambda: ran.append("app cleanup"))

    with pytest.raises(RuntimeError, match="cleanup exploded"):
        controller.kill_instances([broken, bystander], reason="test")
    assert ran == ["app cleanup"]
    assert not broken.alive
    assert not network.is_listening(address)
    assert broken not in daemon.instances
    # The failure did not stop the round: the other victim died and was
    # recorded, and both freed slots — and both freed ports — are reused.
    assert not bystander.alive
    assert job.live_count == 0
    assert job.stats.instances_stopped == 1
    replacements = controller.start_instances(job, 2)
    assert sorted(i.address.port for i in replacements) == sorted(
        [address.port, bystander.address.port])


def test_a_port_is_reserved_exactly_as_long_as_its_instance_lives():
    _sim, network, controller = _world(daemons=1, max_instances=3)
    # only the second instance builds its RPC service, and so listens
    job = controller.submit(JobSpec(name="app", instances=3, base_port=30000,
                                    app_factory=lambda i: i.address.port == 30001 and i.rpc))
    first, second, third = controller.start(job)
    assert [i.address.port for i in (first, second, third)] == [30000, 30001, 30002]
    assert not network.is_listening(first.address)
    assert network.is_listening(second.address)
    # A live instance holds its port whether or not it listens on it: the
    # daemon's instance table is the port table, the listener table only
    # adds endpoints somebody else bound.
    network.unlisten(second.address)
    assert not network.is_listening(second.address)
    controller.kill_instance(first, reason="test")
    (fourth,) = controller.start_instances(job, 1)
    assert fourth.address.port == 30000  # the dead instance's, not 30001
    controller.kill_instance(third, reason="test")
    network.listen(Address("10.0.0.1", 30002), lambda message: None)
    (fifth,) = controller.start_instances(job, 1)
    assert fifth.address.port == 30003  # 30001 is held, 30002 is bound
    assert len({i.address.port for i in job.live_instances()}) == 3


def test_host_failure_survives_a_failing_cleanup():
    _sim, _network, controller = _world(daemons=1, max_instances=3)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=3))
    first, *_rest = controller.start(job)

    def boom():
        raise RuntimeError("cleanup exploded")

    first.context.add_cleanup(boom)
    with pytest.raises(RuntimeError, match="cleanup exploded"):
        controller.fail_host("10.0.0.1")
    # Every instance of the host died, not just the ones before the failure.
    assert not any(instance.alive for instance in [first, *_rest])
    assert job.live_count == 0
    assert job.stats.instances_failed == 3
    assert not job.instances
    assert not controller.daemons["10.0.0.1"].instances
    assert controller.failed_host_ips() == ["10.0.0.1"]


def test_a_failing_reap_still_runs_every_cleanup_and_reaches_the_caller():
    ran = []

    class Owner:
        def _reap(self):
            ran.append("reap")
            raise RuntimeError("reap exploded")

    context = AppContext(Simulator(0), name="app")
    context.owner = Owner()
    context.add_cleanup(lambda: ran.append("cleanup"))
    with pytest.raises(RuntimeError, match="reap exploded"):
        context.kill()
    assert ran == ["reap", "cleanup"]
    assert not context.alive and context.owner is None


def test_host_failure_kills_all_instances_on_it():
    sim, _network, controller = _world(daemons=1, max_instances=4)
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=3))
    controller.start(job)
    killed = controller.fail_host("10.0.0.1")
    assert killed == 3
    assert job.live_count == 0
    assert job.stats.instances_failed == 3
    assert controller.alive_daemons() == []


def test_instance_logs_are_shipped_to_the_controller():
    sim, _network, controller = _world()
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=2, log_level="INFO"))
    instances = controller.start(job)
    instances[0].logger.info("hello from zero")
    instances[1].logger.warn("trouble on one")
    instances[1].logger.debug("below the level, not shipped")
    records = controller.job_logs(job)
    assert [r.message for r in records] == ["hello from zero", "trouble on one"]
    assert all(r.job_id == job.job_id for r in records)
    assert len(controller.job_logs(job, level="WARN")) == 1
    assert controller.job_status(job)["log_records"] == 2


def test_after_stop_no_daemon_refers_to_the_job_and_late_records_are_collected():
    _sim, _network, controller = _world(daemons=3, max_instances=2)
    job = controller.submit(JobSpec(name="first", app_factory=lambda i: None,
                                    instances=4, log_level="INFO"))
    instances = controller.start(job)
    instances[1].logger.info("alive and well")
    controller.stop(job)
    # A record a dying instance still emits reaches the collector: the sink
    # travels with the job record, not with the daemon.
    instances[0].logger.info("last words")
    assert [r.message for r in controller.job_logs(job)] == [
        "alive and well", "last words"]

    # A daemon must not pin every job it ever hosted.  Reference counting
    # alone (the frozen GC policy's world): once the handles are dropped, the
    # controller's own tables are all that keeps the job.
    gc.disable()
    try:
        job_id = job.job_id
        job_ref, spec_ref = weakref.ref(job), weakref.ref(job.spec)
        del job, instances
        assert job_ref() is not None
        del controller.jobs[job_id], controller.claims[job_id]
        assert job_ref() is None and spec_ref() is None
    finally:
        gc.enable()


def test_a_factory_that_exits_on_its_own_leaves_no_app_on_the_dead_handle():
    _sim, _network, controller = _world(daemons=1, max_instances=1)

    class Quitter:
        def __init__(self, instance):
            self.instance = instance
            instance.events.exit()

    job = controller.submit(JobSpec(name="app", app_factory=Quitter, instances=1))
    (instance,) = controller.start(job)
    assert not instance.alive
    assert instance.app is None  # no instance <-> app cycle on a dead handle
    assert job.live_count == 0
