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

import pytest

from repro.apps import harness
from repro.apps.chord import chord_factory
from repro.apps.dissemination import swarm_factory
from repro.apps.gossip import gossip_factory
from repro.apps.pastry import pastry_factory
from repro.runtime.splayd import Instance
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
#: spawn itself allocates (context, events, logger, handle, endpoint, table
#: entries) before the application does anything; the socket, RPC service
#: and ``me`` are built on first use.  Measured 970 B on CPython 3.11 (954
#: on 3.12, 1,030 on 3.10); ~1.88 KB while every spawn built the socket,
#: the RPC service with its listener and ``me``; ~2.04 KB while a socket
#: kept a list of receivers and a bound dispatcher that called them;
#: ~2.12 KB while the context kept a timer list of its own; ~2.20 KB,
#: measured the same way, while the job kept a placement record per
#: instance and the socket counted received traffic.  It was ~2.44 KB with
#: an unlisten closure per listener and a formatted name per thread, and
#: ~4.1 KB while the sandbox FS, log sink and budget, RPC built-in table,
#: options copy and reap closure were built per instance.
IDLE_INSTANCE_CEILING_BYTES = 1_090


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
#: first step, its slot in the context's process list.  Measured ~496 B; it
#: was ~520 B while every process drew a simulator-wide id, and ~625 B while
#: every unnamed thread got a formatted ``"<context name>.thread"`` string of
#: its own.
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
