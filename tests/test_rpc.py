"""RPC: round trips, coroutine handlers, timeouts and retries."""

import random

import pytest

from repro.lib.rpc import RpcError, RpcService, RpcTimeout
from repro.lib.sbsocket import RestrictedSocket, SocketRestrictionError
from repro.lib.serializer import estimate_size
from repro.net.address import Address, NodeRef
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.events_api import AppContext, Events
from repro.sim.futures import FutureState
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer


class _Host:
    def __init__(self, ip):
        self.ip = ip
        self.alive = True


def _endpoint(sim, network, ip, port=1000, **rpc_kwargs):
    host = _Host(ip)
    network.add_host(host)
    context = AppContext(sim, name=f"app@{ip}")
    events = Events(sim, context)
    socket = RestrictedSocket(network, context, Address(ip, port))
    rpc = RpcService(socket, events, **rpc_kwargs)
    return host, context, events, rpc


@pytest.fixture()
def world():
    sim = Simulator(7)
    network = Network(sim, latency=ConstantLatency(0.010), seed=7)
    return sim, network


def test_call_round_trip_with_plain_handler(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("add", lambda a, b: a + b)
    future = client.call("10.0.0.2:1000", "add", 2, 3)
    sim.run()
    assert future.result() == 5
    assert server.stats.calls_received == 1
    assert client.stats.replies_received == 1


def test_generator_handler_runs_as_coroutine(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")

    def slow_echo(value):
        yield 0.5  # blocks the handler coroutine, not the simulator
        return value * 2

    server.register("slow_echo", slow_echo)
    future = client.call("10.0.0.2:1000", "slow_echo", 21, timeout=5.0)
    sim.run()
    assert future.result() == 42
    assert sim.now == pytest.approx(0.52, rel=0.05)


def test_remote_exception_becomes_rpc_error(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")

    def broken():
        raise ValueError("nope")

    server.register("broken", broken)
    future = client.call("10.0.0.2:1000", "broken")
    sim.run()
    with pytest.raises(RpcError, match="nope"):
        future.result()


def test_unknown_method_is_an_error(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _endpoint(sim, network, "10.0.0.2")
    future = client.call("10.0.0.2:1000", "missing")
    sim.run()
    with pytest.raises(RpcError, match="unknown method"):
        future.result()


def test_timeout_after_all_retries(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("echo", lambda x: x)
    network.loss.set_pair_rate("10.0.0.1", "10.0.0.2", 1.0)
    future = client.call("10.0.0.2:1000", "echo", 1, timeout=0.5, retries=2)
    sim.run()
    with pytest.raises(RpcTimeout):
        future.result()
    # Three attempts (initial + 2 retries), each waiting its own timeout.
    assert sim.now == pytest.approx(1.5, rel=0.01)
    assert client.stats.retries == 2
    assert client.stats.timeouts == 1


def test_retry_succeeds_once_loss_clears(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("echo", lambda x: x)
    network.loss.set_pair_rate("10.0.0.1", "10.0.0.2", 1.0)
    # The link heals after the first attempt has already been dropped.
    sim.schedule(0.3, network.loss.set_pair_rate, "10.0.0.1", "10.0.0.2", 0.0)
    future = client.call("10.0.0.2:1000", "echo", "hi", timeout=0.5, retries=2)
    sim.run()
    assert future.result() == "hi"
    assert client.stats.retries == 1


def test_ping_reports_liveness_without_raising(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    host2, _c2, _e2, _server = _endpoint(sim, network, "10.0.0.2")
    alive = client.ping("10.0.0.2:1000", timeout=0.5)
    sim.run()
    assert alive.result() is True
    host2.alive = False
    dead = client.ping("10.0.0.2:1000", timeout=0.5)
    sim.run()
    assert dead.result() is False


def test_killed_context_cancels_outstanding_calls(world):
    sim, network = world
    _h1, context, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _endpoint(sim, network, "10.0.0.2")
    future = client.call("10.0.0.2:1000", "anything", timeout=10.0)
    sim.run(until=0.001)
    context.kill()
    assert future.state is FutureState.CANCELLED
    assert client.pending_calls == 0


def test_batch_call_runs_sub_calls_in_one_round_trip(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("add", lambda a, b: a + b)
    server.register("upper", lambda s: s.upper())
    future = client.batch_call("10.0.0.2:1000",
                               [("add", 2, 3), ("upper", "ok"), ("add", 1, 1)])
    sim.run()
    assert future.result() == [{"ok": True, "value": 5},
                               {"ok": True, "value": "OK"},
                               {"ok": True, "value": 2}]
    # One message out, one reply back — the point of batching.
    assert client.stats.calls_sent == 1
    assert server.stats.calls_received == 1
    assert server.stats.replies_sent == 1


def test_batch_call_isolates_failing_sub_calls(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")

    def broken():
        raise ValueError("nope")

    server.register("echo", lambda x: x)
    server.register("broken", broken)
    future = client.batch_call("10.0.0.2:1000",
                               [("echo", "a"), ("broken",), ("missing",),
                                ("echo", "b")])
    sim.run()
    outcomes = future.result()
    assert outcomes[0] == {"ok": True, "value": "a"}
    assert outcomes[1]["ok"] is False and "nope" in outcomes[1]["error"]
    assert outcomes[2]["ok"] is False and "unknown method" in outcomes[2]["error"]
    # A failing sub-call never aborts the rest of the batch.
    assert outcomes[3] == {"ok": True, "value": "b"}


def test_batch_call_supports_generator_sub_handlers(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")

    def slow_double(value):
        yield 0.5  # blocks only the batch coroutine, not the simulator
        return value * 2

    server.register("slow_double", slow_double)
    server.register("fast", lambda: "now")
    future = client.batch_call("10.0.0.2:1000",
                               [("slow_double", 4), ("fast",), ("slow_double", 5)],
                               timeout=5.0)
    sim.run()
    assert future.result() == [{"ok": True, "value": 8},
                               {"ok": True, "value": "now"},
                               {"ok": True, "value": 10}]
    # Two 0.5s coroutine waits ran sequentially inside the batch.
    assert sim.now > 1.0


# ------------------------------------------------- envelope sizes by arithmetic
class _SizeCheckingNetwork(Network):
    """Checks every message's declared size against the serializer's walk."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = []

    def send(self, src, dst, payload, size, kind="data", priority=0):
        assert size == estimate_size(payload), payload
        self.checked.append(payload)
        super().send(src, dst, payload, size, kind, priority)


def _random_value(rng, depth=0):
    kinds = ["int", "str", "float", "none", "bool", "ref", "address"]
    if depth < 3:
        kinds += ["list", "dict", "tuple"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.choice([0, -1, rng.randrange(10 ** rng.randrange(1, 12))])
    if kind == "str":
        return "".join(rng.choice("abcxyz_ .") for _ in range(rng.randrange(0, 12)))
    if kind == "float":
        return rng.choice([0.0, -1.5, rng.random() * 10 ** rng.randrange(-3, 6)])
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "ref":
        return NodeRef(f"10.{rng.randrange(4)}.0.{rng.randrange(1, 9)}", 20000 + rng.randrange(3),
                       rng.choice([None, rng.randrange(1 << 32)]))
    if kind == "address":
        return Address(f"10.0.{rng.randrange(4)}.1", 1000 + rng.randrange(3))
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {rng.choice(["node", "done", "k", ""]) + str(i): item
            for i, item in enumerate(items)}


def test_envelope_sizes_equal_the_serializers_walk_for_every_envelope_shape():
    rng = random.Random(20090422)
    sim = Simulator(7)
    network = _SizeCheckingNetwork(sim, latency=ConstantLatency(0.010), seed=7)
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")

    def boom(*args):
        raise ValueError(f"refused {len(args)} argument(s)")

    for name in ("echo", "", "a_rather_long_method_name"):
        server.register(name, lambda *args: list(args))
    server.register("boom", boom)
    methods = ["echo", "", "a_rather_long_method_name", "boom", "missing"]
    futures, used_ids = [], set()
    for _ in range(150):
        call_id = 0
        while call_id in used_ids or not call_id:  # 1 .. 10^7, every length
            call_id = rng.randrange(1, 10 ** rng.randrange(1, 8) + 1)
        used_ids.add(call_id)
        client._call_ids = call_id - 1
        args = [_random_value(rng) for _ in range(rng.randrange(0, 4))]
        if rng.random() < 0.25:
            calls = [(rng.choice(methods), *args) for _ in range(rng.randrange(0, 4))]
            futures.append(client.batch_call("10.0.0.2:1000", calls))
        else:
            futures.append(client.call("10.0.0.2:1000", rng.choice(methods), *args))
    sim.run()
    assert all(future.done() for future in futures)
    shapes = {(p["rpc"], p.get("ok"), p.get("method") == "__batch__")
              for p in network.checked}
    assert shapes == {("call", None, False), ("call", None, True),
                      ("reply", True, False), ("reply", False, False)}
    assert len(network.checked) == 300 == network.stats.messages_delivered


def test_a_reply_to_a_hand_made_call_with_a_non_integer_id_is_sized_the_long_way():
    sim = Simulator(7)
    network = _SizeCheckingNetwork(sim, latency=ConstantLatency(0.010), seed=7)
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("echo", lambda x: x)
    for call_id in ("seven", None, True, 2.5):
        client.socket.send("10.0.0.2:1000", {"rpc": "call", "id": call_id,
                                             "method": "echo", "args": [1]})
    sim.run()
    assert [p["id"] for p in network.checked if p["rpc"] == "reply"] == \
        ["seven", None, True, 2.5]
    assert client.stats.replies_received == 0  # nobody was waiting for those ids


def test_bytes_on_the_wire_of_a_scripted_exchange_are_pinned(world):
    sim, network = world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")

    def broken():
        raise ValueError("nope")

    server.register("add", lambda a, b: a + b)
    server.register("echo", lambda *args: list(args))
    server.register("broken", broken)
    me = NodeRef("10.0.0.1", 1000, 3405691582)
    client.call("10.0.0.2:1000", "add", 2, 3)
    client.call("10.0.0.2:1000", "echo", {"node": me, "done": False, "hops": 3},
                [me, Address("10.0.0.2", 1000), None, 1.25], "key", (1, "two"))
    client.call("10.0.0.2:1000", "broken")
    client.call("10.0.0.2:1000", "missing", True)
    client.batch_call("10.0.0.2:1000", [("add", 1, 1), ("broken",), ("echo", me)])
    client.ping("10.0.0.2:1000")
    sim.run()
    assert network.stats.messages_delivered == 12
    # measured at the parent of the arithmetic sizes (estimate_size per send)
    assert network.stats.bytes_sent == 1477


# ------------------------------------------------------------- failure paths
@pytest.fixture()
def strict_world():
    """Like ``world``, under the strict sanitizer (any violation raises)."""
    sim = Simulator(7)
    network = Network(sim, latency=ConstantLatency(0.010), seed=7)
    sanitizer = Sanitizer(sim, strict=True).install()
    sanitizer.watch_network(network)
    yield sim, network
    sanitizer.uninstall()
    assert sanitizer.violation_count == 0


def _slow_echo(delay):
    def handler(value):
        yield delay
        return value
    return handler


def test_late_reply_after_the_call_timed_out_is_ignored(strict_world):
    sim, network = strict_world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("slow", _slow_echo(1.0))
    future = client.call("10.0.0.2:1000", "slow", "late", timeout=0.3, retries=0)
    completions = []
    future.add_done_callback(completions.append)
    sim.run()
    with pytest.raises(RpcTimeout):
        future.result()
    assert len(completions) == 1
    # the reply did arrive (t ~ 1.02) and was thrown away without a trace
    assert server.stats.replies_sent == 1
    assert network.stats.messages_delivered == 2
    assert client.stats.replies_received == 0
    assert client.stats.timeouts == 1
    assert client.pending_calls == 0 and sim.pending_events == 0


def test_duplicate_reply_after_a_retry_completes_the_call_once(strict_world):
    sim, network = strict_world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("slow", _slow_echo(0.4))
    # attempt 1 is answered at t ~ 0.42, after the retry left at t = 0.3;
    # the retry's own answer (t ~ 0.72) is the duplicate
    future = client.call("10.0.0.2:1000", "slow", "once", timeout=0.3, retries=1)
    completions = []
    future.add_done_callback(lambda fut: completions.append(sim.now))
    sim.run()
    assert future.result() == "once"
    assert completions == [pytest.approx(0.42)]
    assert (client.stats.calls_sent, client.stats.retries) == (2, 1)
    assert (server.stats.calls_received, server.stats.replies_sent) == (2, 2)
    assert network.stats.messages_delivered == 4
    assert client.stats.replies_received == 1
    assert client.stats.timeouts == client.stats.remote_errors == 0
    assert client.pending_calls == 0 and sim.pending_events == 0


def test_reply_to_a_caller_killed_meanwhile_is_dropped_without_leaks(strict_world):
    sim, network = strict_world
    _h1, context, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("slow", _slow_echo(0.5))
    future = client.call("10.0.0.2:1000", "slow", "orphan", timeout=5.0, retries=2)
    sim.schedule(0.1, context.kill)
    sim.run()
    assert future.state is FutureState.CANCELLED
    assert server.stats.replies_sent == 1
    assert network.stats.messages_dropped == network.stats.drops_no_listener == 1
    assert client.stats.replies_received == 0
    # neither the 5 s timeout timer nor the table entry outlives the instance
    assert client.pending_calls == 0 and sim.pending_events == 0
    assert sim.now == pytest.approx(0.52)


def test_call_from_a_closed_socket_fails_at_once_and_counts_one_send_failure(strict_world):
    sim, network = strict_world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _endpoint(sim, network, "10.0.0.2")
    client.socket.close()
    with pytest.raises(SocketRestrictionError, match="closed"):
        client.socket.send("10.0.0.2:1000", "raw")
    future = client.call("10.0.0.2:1000", "anything", retries=3)
    with pytest.raises(RpcError, match="socket is closed"):
        future.result()
    assert client.stats.send_failures == 1
    assert (client.stats.calls_sent, client.stats.retries) == (1, 0)
    assert client.pending_calls == 0 and sim.pending_events == 0
    assert network.stats.messages_sent == 0
