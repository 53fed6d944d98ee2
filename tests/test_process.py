"""Coroutine dispatch: a coroutine continues inside the event that completes
its future, a first step with no delay runs inside the event that spawned
it, every other resumption is one event later, and a coroutine failure no
callback observes is counted as a handler error."""

import pytest

from heap_kernel_reference import KERNELS, make_simulator, step
from repro.lib.rpc import RpcError, RpcService
from repro.lib.sbsocket import RestrictedSocket
from repro.net.address import Address
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.events_api import AppContext, Events
from repro.sim.futures import Future, FutureCancelled
from repro.sim.kernel import Simulator
from repro.sim.process import Process, ProcessKilled

SERVER = "10.0.0.2:1000"


class _Host:
    def __init__(self, ip):
        self.ip = ip
        self.alive = True


def _world(kernel="wheel"):
    """A simulator, a 10 ms network and a client / server RPC pair on it."""
    sim = make_simulator(kernel, 7)
    network = Network(sim, latency=ConstantLatency(0.010), seed=7)
    endpoints = []
    for ip in ("10.0.0.1", "10.0.0.2"):
        network.add_host(_Host(ip))
        events = Events(sim, AppContext(sim, name=f"app@{ip}"))
        socket = RestrictedSocket(network, events.context, Address(ip, 1000))
        endpoints.append((events, RpcService(socket, events)))
    return sim, network, endpoints[0], endpoints[1]


# ------------------------------------------------------------ in-place steps
@pytest.mark.parametrize("kernel", KERNELS)
def test_rpc_reply_resumes_the_caller_inside_its_delivery_event(kernel):
    sim, _network, (events, client), (_e, server) = _world(kernel)
    server.register("echo", lambda value: value)
    resumed = []

    def caller():
        value = yield client.call(SERVER, "echo", 7, timeout=5.0)
        resumed.append((value, sim.executed_events))

    events.thread(caller)      # before run(): the first step is an event
    sim.run(until=0.015)       # first step, the call's delivery; reply in flight
    assert resumed == []
    before = sim.executed_events
    assert step(sim)           # the reply's delivery, and the caller with it
    assert resumed == [(7, before + 1)]
    sim.run()
    assert sim.executed_events == before + 1
    assert client.pending_calls == 0 and sim.pending_events == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_periodic_firing_takes_its_first_step_inside_the_firing(kernel):
    sim, _network, (events, _client), _server = _world(kernel)
    steps = []

    def tick():
        steps.append(sim.executed_events)
        yield 0.5

    events.periodic(tick, interval=1.0)
    sim.run(until=2.2)
    # firing (1), its sleep (2), firing (3): no event for either first step
    assert steps == [1, 3]


@pytest.mark.parametrize("kernel", KERNELS)
def test_coroutine_rpc_handler_takes_its_first_step_inside_the_delivery(kernel):
    sim, _network, (_events, client), (_e, server) = _world(kernel)
    served = []

    def slow(value):
        served.append(sim.executed_events)
        yield 0.1
        return value + 1

    server.register("slow", slow)
    future = client.call(SERVER, "slow", 1, timeout=5.0)
    sim.run()
    assert served == [1]       # the call's delivery is the first event
    assert future.result() == 2


def test_start_before_run_steps_on_a_later_event():
    sim = Simulator(1)
    stepped = []

    def coro():
        stepped.append(sim.executed_events)
        yield None

    process = Process(sim, coro(), name="early").start()
    assert stepped == [] and sim.pending_events == 1
    sim.run()
    assert stepped == [1] and process.done.done()


def test_thread_spawned_inside_a_coroutine_steps_on_a_later_event():
    sim, _network, (events, _client), _server = _world()
    order = []

    def child():
        order.append(("child", sim.executed_events))
        yield None

    def parent():
        events.thread(child)
        order.append(("parent", sim.executed_events))
        yield 1.0

    sim.schedule(0.5, events.thread, parent)
    sim.run()
    # the parent's first step runs inside the 0.5 s event; the child's is
    # the next event, never inside the parent's generator
    assert order == [("parent", 1), ("child", 2)]


def test_a_loop_over_complete_futures_does_not_recurse():
    sim = Simulator(1)

    def loop():
        total = 0
        for i in range(100_000):
            future = Future()
            future.set_result(i)
            total += yield future
        return total

    spawned = []
    sim.schedule(0.0, lambda: spawned.append(Process(sim, loop()).start()))
    sim.run()
    assert spawned[0].done.result() == sum(range(100_000))
    # one event per complete future, plus the spawning event
    assert sim.executed_events == 100_001


def test_exit_in_an_in_place_first_step_leaves_nothing_behind():
    sim, network, (events, client), _server = _world()
    context = events.context
    closed = []

    def quitter():
        try:
            client.call(SERVER, "anything", timeout=5.0)  # in flight + its timer
            events.thread(lambda: None, delay=3.0)
            events.exit()
            yield 1.0
        finally:
            closed.append(sim.now)

    spawned = []
    sim.schedule(0.5, lambda: spawned.append(events.thread(quitter)))
    sim.run(until=0.5)
    process = spawned[0]
    assert process.done.cancelled() and closed == [0.5]
    assert not context.alive and context._processes == []
    assert client.pending_calls == 0
    assert network.stats.handler_errors == 0  # a coroutine that killed itself
    assert sim.pending_events == 1  # the call's delivery; no sleep, no timer
    sim.run()
    assert sim.pending_events == 0


def test_exit_in_a_periodic_firing_cancels_the_next_firing():
    sim, _network, (events, _client), _server = _world()
    events.periodic(events.exit, interval=1.0)
    sim.run(until=1.0)
    assert not events.context.alive
    assert sim.pending_events == 0


def test_a_kill_does_not_step_the_instances_other_coroutines():
    sim, _network, (events, _client), _server = _world()
    seen = []

    def worker():
        yield 10.0

    def watcher(process):
        try:
            yield process.done
        except ProcessKilled:
            seen.append("killed")
            raise
        except FutureCancelled:
            seen.append("stepped after its instance died")

    events.thread(watcher, events.thread(worker))
    sim.schedule(1.0, events.context.kill)
    sim.run()
    # the worker's kill cancels what the watcher waits on; the watcher is
    # killed before that resumption would have run
    assert seen == ["killed"]


def test_a_process_ended_during_its_instances_kill_is_not_looked_for():
    sim, network, (events, _client), _server = _world()
    ended, later = [], []

    def first():
        try:
            yield 10.0
        finally:
            ended.append("first")
            later[0].kill("ended by the first one's cleanup")

    def second():
        try:
            yield 10.0
        finally:
            ended.append("second")

    events.thread(first)
    later.append(events.thread(second))
    sim.schedule(1.0, events.context.kill)
    sim.run()
    # the kill walks its snapshot in start order; the second process ends
    # inside the first one's kill, and the context's new list is not touched
    assert ended == ["first", "second"]
    assert events.context._processes == []
    assert network.stats.handler_errors == 0


# ------------------------------------------------- unobserved failures count
def test_a_thread_failing_unobserved_is_a_handler_error():
    sim, network, (events, _client), _server = _world()

    def broken():
        yield 0.5
        raise ValueError("lost")

    events.thread(broken, name="app@10.0.0.1.broken")
    sim.run()
    assert network.stats.handler_errors == 1
    assert network.stats.last_errors == ["app@10.0.0.1.broken: ValueError('lost')"]


def test_a_failing_periodic_task_counts_every_firing():
    sim, network, (events, _client), _server = _world()

    def broken():
        raise KeyError("state")

    events.periodic(broken, interval=1.0)
    sim.run(until=3.5)
    assert network.stats.handler_errors == 3


def test_a_coroutine_that_raises_while_it_is_killed_is_a_handler_error():
    sim, network, (events, _client), _server = _world()

    def cleanup_raises():
        try:
            yield 10.0
        finally:
            raise RuntimeError("cleanup broke")

    def stubborn():
        try:
            yield 10.0
        except ProcessKilled:
            pass
        try:
            yield 10.0  # waits on, killed
        except GeneratorExit:
            pass
        yield 10.0  # and once more: the kill's close() cannot end it

    events.thread(cleanup_raises, name="app@10.0.0.1.cleanup")
    events.thread(stubborn, name="app@10.0.0.1.stubborn")
    sim.schedule(1.0, events.context.kill)
    sim.run()
    assert network.stats.last_errors == [
        "app@10.0.0.1.cleanup: raised while killed: RuntimeError('cleanup broke')",
        "app@10.0.0.1.stubborn: raised while closed: "
        "RuntimeError('generator ignored GeneratorExit')"]
    assert network.stats.handler_errors == 2


def test_observed_failures_are_not_handler_errors():
    sim, network, (events, client), (_e, server) = _world()

    def refuses():
        raise RpcError("no route")  # first (in-place) step: the caller's answer
        yield

    def child():
        yield 0.1
        raise ValueError("caught by the parent")

    def parent():
        try:
            yield events.thread(child).done  # observed: no handler error
        except ValueError:
            pass

    server.register("refuses", refuses)
    answer = client.call(SERVER, "refuses")
    events.thread(parent)
    sim.run()
    with pytest.raises(RpcError, match="no route"):
        answer.result()
    assert network.stats.handler_errors == 0


# ------------------------------------------------------------ what it waits on
def test_a_yielded_value_it_cannot_wait_on_raises_type_error_at_the_yield():
    sim, network, (events, _client), _server = _world()
    refused = []

    def sleeper():
        yield 1.0

    def waits_on_everything():
        other = events.thread(sleeper)
        for value in ("1.0", other, sleeper(), object()):
            try:
                yield value
            except TypeError as exc:
                refused.append(str(exc))
        yield other.done  # what a process is waited on by
        return sim.now

    waiter = events.thread(waits_on_everything)
    sim.run()
    assert waiter.done.result() == 1.0
    assert len(refused) == 4
    assert all(text.startswith("cannot wait on yielded value") for text in refused)

    def unguarded():
        yield "later"

    events.thread(unguarded, name="app@10.0.0.1.unguarded")
    sim.run()
    assert network.stats.handler_errors == 1
    assert network.stats.last_errors == [
        "app@10.0.0.1.unguarded: TypeError(\"cannot wait on yielded value 'later'\")"]
