"""Memory: what a node, an idle instance and a host cost, and what a death frees.

The tentpole perf work made per-instance state lazy (log buffers, RPC
stats, drop RNGs), put ``__slots__`` on the hot classes and interned host
IPs; the ceilings pin the result so a future change cannot quietly
re-inflate the footprint.  ``tracemalloc`` counts Python-allocator bytes
only — a stable, platform-independent proxy for the RSS the benchmark
measures end to end.

``tracemalloc`` does not see a C library's pages: a shared library an
import maps (OpenSSL's libcrypto under ``hashlib``) adds to RSS and to no
ceiling here.  ``tests/test_import_hygiene.py`` is the gate for those: it
fails if a whole run loads such a module.

The second half is the teardown contract: a dead application is freed by
reference counting, with the cycle collector *disabled* — the default GC
policy freezes the deployed population and all but switches the collector
off, so a dead instance left in a reference cycle is never reclaimed and
memory grows with every churn round.
"""

import gc
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError

import pytest

from repro.apps import harness
from repro.apps.chord import chord_factory
from repro.apps.dissemination import swarm_factory
from repro.apps.gossip import gossip_factory
from repro.apps.pastry import pastry_factory
from repro.core.jobs import JobSpec
from repro.net.address import Address, NodeRef
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Instance, Splayd, SplaydLimits
from repro.sim.events_api import Events
from repro.sim.futures import Future
from repro.sim.kernel import Simulator

#: committed ceiling for Python-allocated bytes per deployed node (the
#: measured footprint is ~11 KB/node; the headroom absorbs allocator and
#: version noise without letting a per-instance eager buffer sneak back in)
PER_NODE_CEILING_BYTES = 16_384


def test_thousand_node_deploy_stays_under_per_node_memory_ceiling():
    nodes = 1000
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        deployment = harness.deploy("chord-mem", chord_factory(), nodes=nodes,
                                    seed=5, join_window=30.0, settle=20.0,
                                    gc_policy="off")
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert deployment.job.stats.instances_started == nodes
    per_node = (current - base) / nodes
    assert per_node < PER_NODE_CEILING_BYTES, (
        f"{per_node:.0f} bytes/node exceeds the committed ceiling of "
        f"{PER_NODE_CEILING_BYTES} — did per-instance state become eager "
        f"again (log buffers, RPC stats, drop RNGs)?")


#: committed ceiling for Python-allocated bytes per *idle* instance: what a
#: spawn itself allocates before the application does anything — the
#: handle, its context and events API, its logger, the formatted context
#: name (shared by the logger's ``source`` and the default thread name), the
#: slotted endpoint and the daemon's and the job's table entries.  The
#: socket, the RPC service, ``me`` and the context's process and cleanup
#: lists are built on first use.  Measured 730 B on CPython 3.11; the
#: headroom covers 3.10, which reads about 6 % more.
IDLE_INSTANCE_CEILING_BYTES = 820


def test_idle_instance_stays_under_its_memory_ceiling():
    deployment = harness.deploy("idle-mem", lambda instance: None, nodes=500,
                                hosts=500, seed=5, join_window=0.0,
                                warmup_grace=0.0, settle=0.0, gc_policy="off")
    extra = 1000
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        started = deployment.controller.start_instances(deployment.job, extra)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(started) == extra
    per_instance = (current - base) / extra
    assert per_instance < IDLE_INSTANCE_CEILING_BYTES, (
        f"{per_instance:.0f} bytes per idle instance exceeds the committed "
        f"ceiling of {IDLE_INSTANCE_CEILING_BYTES} — did a spawn start "
        f"building per-instance objects an idle instance never touches?")


#: committed ceiling for Python-allocated bytes per application *thread*
#: waiting for its first step: process, ``done`` future, the event of its
#: first step, its slot in the context's process list (here the list
#: itself: each instance's first thread allocates it).  Measured 523 B on
#: CPython 3.11.
THREAD_CEILING_BYTES = 580


def _noop():
    pass


def test_thread_stays_under_its_memory_ceiling():
    deployment = harness.deploy("thread-mem", lambda instance: None, nodes=1000,
                                hosts=500, seed=5, join_window=0.0,
                                warmup_grace=0.0, settle=0.0, gc_policy="off")
    instances = deployment.job.live_instances()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for instance in instances:
            instance.events.thread(_noop, delay=1.0)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_thread = (current - base) / len(instances)
    assert per_thread < THREAD_CEILING_BYTES, (
        f"{per_thread:.0f} bytes per pending thread exceeds the committed "
        f"ceiling of {THREAD_CEILING_BYTES}")


#: committed ceiling for Python-allocated bytes per registered *host*: the
#: daemon with its instance table, the host record, latency attachment, link
#: capacities and job-store entries.  Measured 546 B on CPython 3.11 (544 on
#: 3.12, 606 on 3.10); 845 B while the daemon kept a ``__dict__`` and a
#: clock closure of its own for its instances' loggers.  It was 1,548 B
#: while every daemon also kept a reserved-port set, a sink table and a
#: second back-pointer, and ~1.87 KB with one ``SplaydLimits`` +
#: ``SocketPolicy`` pair per host.
HOST_CEILING_BYTES = 620


def test_host_stays_under_its_memory_ceiling():
    hosts = 1000
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        deployment = harness.deploy("host-mem", lambda instance: None, nodes=1,
                                    hosts=hosts, seed=5, join_window=0.0,
                                    warmup_grace=0.0, settle=0.0, gc_policy="off")
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(deployment.controller.daemon_ips()) == hosts
    per_host = (current - base) / hosts
    assert per_host < HOST_CEILING_BYTES, (
        f"{per_host:.0f} bytes per host exceeds the committed ceiling of "
        f"{HOST_CEILING_BYTES} — did a per-host copy of a shared object come back?")


# ------------------------------------------------------ what a death frees
class BootingApp:
    """Holds its handle (the instance <-> app cycle) and a boot timer."""

    def __init__(self, instance):
        self.instance = instance
        self.joined = False
        instance.events.thread(self._up, delay=0.3)

    def _up(self):
        self.joined = True


class BusyApp:
    """Leaves a callback of its own in every sandbox facility that takes one."""

    def __init__(self, instance):
        self.instance = instance
        events, rpc = instance.events, instance.rpc
        rpc.register("echo", self.echo)
        rpc.register("slow_echo", self.slow_echo)
        instance.context.add_cleanup(self._tick)
        events.periodic(self._tick, 2.0, jitter=0.5)
        events.thread(self._tick, delay=30.0)
        events.thread(self._wait_forever)
        events.thread(self._call_myself_slowly)
        events.thread(self._call_nobody, "10.9.9.9:1")

    def echo(self, value):
        return value

    def slow_echo(self, value):
        yield 40.0
        return value

    def _tick(self):
        pass

    def _wait_forever(self):
        yield Future()  # nothing ever resolves it

    def _call_myself_slowly(self):
        yield self.instance.rpc.call(self.instance.me, "slow_echo", 1, timeout=50.0)

    def _call_nobody(self, address):
        yield self.instance.rpc.call(address, "echo", 1, timeout=50.0, retries=3)


@pytest.fixture
def no_collector():
    """Reference counting only, as under the frozen ``tuned`` GC policy."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


#: committed ceiling for the Python-allocated bytes one death leaves behind:
#: the never-reused instance id, and slack in the tables the handle left.
#: Measured -122 B, table slack given back (3 B while the job kept a
#: placement record per instance ever started); it was ~1.6 KB while the
#: instance <-> app cycle kept every dead sandbox for a collector that the
#: ``tuned`` GC policy all but switches off.
PER_DEATH_CEILING_BYTES = 256


def test_memory_stays_flat_under_churn_without_the_collector(no_collector):
    nodes, rounds = 500, 10
    tracemalloc.start()
    try:
        deployment = harness.deploy("churn-mem", BootingApp, nodes=nodes,
                                    hosts=250, seed=5, join_window=0.0,
                                    warmup_grace=0.0, settle=0.0, gc_policy="off")
        controller, job, sim = deployment.controller, deployment.job, deployment.sim
        traced = []
        for _ in range(rounds):
            # a fifth of the previous round's replacements among them, killed
            # before their boot timer fires
            controller.kill_instances(job.live_instances()[::5])
            assert len(controller.start_instances(job, nodes // 5)) == nodes // 5
            sim.run(until=sim.now + 0.2)
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert job.live_count == nodes
    assert job.stats.instances_started == nodes + rounds * (nodes // 5)
    sim.run(until=sim.now + 1.0)  # past the last cancelled boot timers
    handles = sum(1 for obj in gc.get_objects()
                  if type(obj) is Instance and obj.job is job)
    assert handles == nodes, f"{handles} instance handles in memory for {nodes} live"
    deaths = (rounds - 1) * (nodes // 5)
    per_death = (traced[-1] - traced[0]) / deaths
    assert per_death < PER_DEATH_CEILING_BYTES, (
        f"{per_death:.0f} bytes stay behind per dead instance "
        f"({traced[0]} -> {traced[-1]} traced bytes over {deaths} deaths, "
        f"ceiling {PER_DEATH_CEILING_BYTES}): dead instances are not freed "
        f"by reference counting")


class LoggingBootApp:
    """Logs one line when its boot timer fires, as a booting SPLAY app does."""

    def __init__(self, instance):
        self.instance = instance
        instance.events.thread(self._up, delay=0.3)

    def _up(self):
        self.instance.logger.info(f"instance {self.instance.instance_id} up")


#: records a job's collector keeps in the test below (its queue depth)
LOG_WINDOW = 256

#: committed ceiling for the Python-allocated bytes one death leaves behind
#: once the job's log window is full: a new record pushes the oldest out,
#: and with it its message, its time and the dead instance's name.
#: Measured 14 B on CPython 3.11 (table slack); a collector that keeps
#: every record leaves 277 B.
LOGGED_DEATH_CEILING_BYTES = 64


def test_a_full_log_window_keeps_memory_flat_under_churn(no_collector):
    # the first rounds grow the job's and the daemons' tables to their
    # churn size; the rounds after them are measured
    nodes, warmup, rounds = 500, 10, 20
    tracemalloc.start()
    try:
        sim = Simulator(5)
        network = Network(sim, seed=5)
        controller = Controller(sim, network, seed=5, log_queue_depth=LOG_WINDOW)
        for index in range(nodes // 2):
            controller.register_daemon(Splayd(sim, network, f"10.0.0.{index + 1}",
                                              SplaydLimits(max_instances=4)))
        job = controller.submit(JobSpec(name="logged", app_factory=LoggingBootApp,
                                        instances=nodes, log_level="INFO"))
        controller.start(job)
        sim.run(until=1.0)  # every boot logged: the window is full
        traced = []
        for _ in range(rounds):
            controller.kill_instances(job.live_instances()[::5])
            assert len(controller.start_instances(job, nodes // 5)) == nodes // 5
            sim.run(until=sim.now + 1.0)  # the replacements boot, log and drain
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    collector = job.log_sink
    # the first boots overflow the queue; every record since was collected
    assert (collector.collected, collector.dropped) == (
        LOG_WINDOW + rounds * (nodes // 5), nodes - LOG_WINDOW)
    deaths = (rounds - warmup) * (nodes // 5)
    per_death = (traced[-1] - traced[warmup - 1]) / deaths
    assert per_death < LOGGED_DEATH_CEILING_BYTES, (
        f"{per_death:.0f} bytes stay behind per dead instance "
        f"({traced[warmup - 1]} -> {traced[-1]} traced bytes over {deaths} deaths, "
        f"ceiling {LOGGED_DEATH_CEILING_BYTES}): the collector keeps records "
        f"beyond its window")
    assert len(collector.records) == LOG_WINDOW


def _kill_by_controller(deployment, instance):
    deployment.controller.kill_instances([instance], reason="test")


def _kill_by_host_failure(deployment, instance):
    instance.daemon.fail()


def _kill_by_own_exit(deployment, instance):
    # from one of the application's own coroutines, as an application would
    instance.events.thread(instance.events.exit)


APPS = {
    "idle": lambda: BootingApp,
    "busy": lambda: BusyApp,
    "chord": chord_factory,
    "pastry": pastry_factory,
    "gossip": gossip_factory,
    "dissemination": swarm_factory,
}
KILLS = {
    "controller-kill": _kill_by_controller,
    "host-failure": _kill_by_host_failure,
    "own-exit": _kill_by_own_exit,
}


@pytest.mark.parametrize("kill", KILLS.values(), ids=KILLS.keys())
@pytest.mark.parametrize("factory", APPS.values(), ids=APPS.keys())
def test_dead_application_is_freed_by_refcount(no_collector, factory, kill):
    deployment = harness.deploy("teardown", factory(), nodes=12, hosts=6, seed=3,
                                join_window=10.0, settle=5.0, gc_policy="off")
    sim = deployment.sim
    # joined and mid-protocol: periodic tasks armed, RPCs and transfers in flight
    sim.run(until=15.0)
    instance = deployment.job.live_instances()[5]
    app = weakref.ref(instance.app)
    calls_sent = instance.rpc.stats.calls_sent
    kill(deployment, instance)
    # the kernel has to pass the dead instance's cancelled timers, which
    # still hold their callbacks
    sim.run(until=sim.now + 60.0)
    assert not instance.alive and instance.app is None
    assert app() is None, f"dead application still referenced: {gc.get_referrers(app())}"
    # the handle's counters stay readable after death
    assert instance.rpc.stats.calls_sent == calls_sent
    assert instance.me.ip == instance.daemon.ip


def _napper():
    yield 1.0


def _breaker():
    yield 1.0
    raise ValueError("ends by raising")


@pytest.mark.parametrize("target, kill_at", [(_napper, None), (_breaker, None),
                                             (_napper, 0.5)],
                         ids=["return", "exception", "kill"])
def test_an_ended_thread_leaves_its_context(target, kill_at):
    sim = Simulator(1)
    events = Events(sim)
    process = events.thread(target)
    if kill_at is not None:
        sim.schedule(kill_at, process.kill)
    assert events.context._processes == [process]
    sim.run()
    assert process.done.done() and events.context._processes == []


def test_a_returned_thread_is_freed_by_refcount(no_collector):
    sim = Simulator(1)
    events = Events(sim)
    generator = weakref.ref(events.thread(_napper)._generator)
    sim.run()
    assert events.context._processes == []
    assert generator() is None, "a returned thread's generator is still held"


def test_a_raising_thread_is_freed_by_refcount(no_collector):
    def call():
        raise ValueError("ends by raising")

    sim = Simulator(1)
    events = Events(sim)
    generator = weakref.ref(events.thread(_breaker)._generator)
    plain = weakref.ref(call)
    events.thread(call)
    del call
    sim.run()
    assert events.context._processes == []
    assert generator() is None, "a raising thread's generator is still held"
    assert plain() is None, "a raising plain callable is still held"


@pytest.mark.parametrize("factory", APPS.values(), ids=APPS.keys())
def test_a_live_context_holds_only_running_processes(factory):
    deployment = harness.deploy("running", factory(), nodes=12, hosts=6, seed=3,
                                join_window=10.0, settle=5.0, gc_policy="off")
    sim, job = deployment.sim, deployment.job
    sim.run(until=15.0)
    deployment.controller.kill_instances(job.live_instances()[::4], reason="test")
    sim.run(until=60.0)
    for instance in job.live_instances():
        context = instance.context
        for process in context._processes:
            assert not process.done.done(), f"{process} has ended but is still held"
            assert process._context is context


#: A node keeps no ``__dict__``: in CPython 3.11 one costs 296 B while a
#: class's instances share its key table, which holds at most 29 attributes,
#: and 1,584 B from the 30th on.  Before the nodes declared their slots, a
#: joined PastryNode held 29 attributes and a ChordNode 28.  The second
#: value of each case is the most slots its node declares.
@pytest.mark.parametrize("factory, most_slots", [(chord_factory, 25), (pastry_factory, 24),
                                                 (gossip_factory, 12), (swarm_factory, 20)],
                         ids=["chord", "pastry", "gossip", "dissemination"])
def test_a_joined_node_has_no_instance_dict(factory, most_slots):
    deployment = harness.deploy("attributes", factory(), nodes=12, hosts=6, seed=3,
                                join_window=10.0, settle=5.0, gc_policy="off")
    deployment.sim.run(until=15.0)
    apps = [instance.app for instance in deployment.job.live_instances()]
    assert apps and all(app.joined for app in apps)
    slots = [name for cls in type(apps[0]).__mro__
             for name in getattr(cls, "__slots__", ()) if name != "__weakref__"]
    assert len(slots) <= most_slots
    for app in apps:
        assert not hasattr(app, "__dict__"), type(app).__name__
        # every slot holds a value: none is declared for nothing
        assert [name for name in slots if not hasattr(app, name)] == []


def test_endpoints_have_no_instance_dict():
    # overlay tables hold thousands of these: a slotted frozen dataclass is
    # about 40 B smaller than one with a ``__dict__``
    address, ref = Address("10.0.0.1", 20000), NodeRef("10.0.0.1", 20000, 7)
    assert not hasattr(address, "__dict__") and not hasattr(ref, "__dict__")
    with pytest.raises(FrozenInstanceError):
        ref.port = 1
    # value semantics are the dataclass's: the id takes no part in them
    assert ref == NodeRef("10.0.0.1", 20000) and hash(ref) == hash(NodeRef("10.0.0.1", 20000))
    assert ref.address == address and address < Address("10.0.0.1", 20001)
