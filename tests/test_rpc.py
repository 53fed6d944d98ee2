"""RPC: round trips, coroutine handlers, timeouts and retries."""

import random

import pytest

from matrix_latency import MatrixLatency
from repro.core.blacklist import Blacklist
from repro.lib.rpc import RTO_FLOOR, RTO_GRAIN, RpcError, RpcService, RpcTimeout
from repro.lib.sbsocket import RestrictedSocket, SocketPolicy, SocketRestrictionError
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

    def gives_up():
        yield 0.1
        raise RpcError("a nested call timed out")  # an outcome, not a bug

    server.register("broken", broken)
    server.register("gives_up", gives_up)
    future = client.call("10.0.0.2:1000", "broken")
    sim.run()
    with pytest.raises(RpcError, match="nope"):
        future.result()
    # ... and the raise is counted where a failing message handler is, so a
    # run cannot pass a broken handler off as a dead peer
    assert network.stats.handler_errors == 1
    assert network.stats.last_errors == ["10.0.0.2:1000 rpc broken: ValueError('nope')"]
    future = client.call("10.0.0.2:1000", "gives_up")
    sim.run()
    with pytest.raises(RpcError, match="timed out"):
        future.result()
    assert network.stats.handler_errors == 1


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
    with pytest.raises(RpcTimeout, match=r"timed out after 1.5s \(3 x 0.5s\)"):
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


# ------------------------------------------------- envelope sizes by arithmetic
class _SizeCheckingNetwork(Network):
    """Checks every message's declared size against the serializer's walk."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = []

    def send(self, src, dst, payload, size):
        assert size == estimate_size(payload), payload
        self.checked.append(payload)
        super().send(src, dst, payload, size)


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
        futures.append(client.call("10.0.0.2:1000", rng.choice(methods), *args))
    sim.run()
    assert all(future.done() for future in futures)
    shapes = {(p["rpc"], p.get("ok")) for p in network.checked}
    assert shapes == {("call", None), ("reply", True), ("reply", False)}
    assert len(network.checked) == 300 == network.stats.messages_delivered


def test_a_one_way_call_runs_its_handler_and_nothing_answers_it():
    sim = Simulator(7)
    network = _SizeCheckingNetwork(sim, latency=ConstantLatency(0.010), seed=7)
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    seen = []
    server.register("note", lambda *args: seen.append(args))
    me = NodeRef("10.0.0.1", 1000, 3405691582)
    client.send("10.0.0.2:1000", "note", 7, me, (me,), None)
    client.send("10.0.0.2:1000", "missing", "refused, and silently")
    sim.run()
    assert seen == [(7, me, (me,), None)]
    # the network checked both sizes; no reply, not even the refusal's
    assert [p["rpc"] for p in network.checked] == ["send", "send"]
    assert client.stats.calls_sent == 2 and client.pending_calls == 0
    assert server.stats.calls_received == 2 and server.stats.replies_sent == 0


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
    client.ping("10.0.0.2:1000")
    sim.run()
    assert network.stats.messages_delivered == 10
    # the serializer's sizes of these ten messages: an envelope change moves it
    assert network.stats.bytes_sent == 1065


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


def test_a_one_way_send_the_policy_refuses_counts_one_send_failure(strict_world):
    sim, network = strict_world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    heard = []
    server.register("note", heard.append)
    client.socket.policy = SocketPolicy(blacklist=Blacklist(["10.0.0.2"]))
    assert client.send("10.0.0.2:1000", "note", 1) is None
    sim.run()
    assert (client.stats.calls_sent, client.stats.send_failures) == (1, 1)
    assert client.socket.stats.messages_refused == 1
    assert heard == [] and network.stats.messages_sent == 0


def test_a_call_the_policy_refuses_fails_its_future_at_once(strict_world):
    sim, network = strict_world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _endpoint(sim, network, "10.0.0.2")
    client.socket.policy = SocketPolicy(max_total_bytes=10)
    future = client.call("10.0.0.2:1000", "anything", retries=3)
    with pytest.raises(RpcError, match="network budget exceeded"):
        future.result()
    assert (client.stats.calls_sent, client.stats.send_failures) == (1, 1)
    assert client.pending_calls == 0 and sim.pending_events == 0


def test_a_reply_the_policy_refuses_counts_one_send_failure_and_the_call_times_out(
        strict_world):
    sim, network = strict_world
    _h1, _c1, _e1, client = _endpoint(sim, network, "10.0.0.1")
    _h2, _c2, _e2, server = _endpoint(sim, network, "10.0.0.2")
    server.register("echo", lambda value: value)
    server.socket.policy = SocketPolicy(blacklist=Blacklist(["10.0.0.1"]))
    future = client.call("10.0.0.2:1000", "echo", 7, timeout=1.0, retries=0)
    sim.run()
    with pytest.raises(RpcTimeout):
        future.result()
    assert server.stats.calls_received == 1
    assert (server.stats.replies_sent, server.stats.send_failures) == (0, 1)
    assert client.stats.timeouts == 1 and client.stats.replies_received == 0
    assert network.stats.handler_errors == 0


# ------------------------------------------------------ round-trip estimate
@pytest.fixture()
def wide_world():
    """One client and three servers 100, 200 and 50 ms away (one way)."""
    sim = Simulator(7)
    delays = {("10.0.0.1", "10.0.0.2"): 0.1, ("10.0.0.1", "10.0.0.3"): 0.2,
              ("10.0.0.1", "10.0.0.4"): 0.05}
    network = Network(sim, latency=MatrixLatency(delays), seed=7)
    client = _endpoint(sim, network, "10.0.0.1")[3]
    for ip in ("10.0.0.2", "10.0.0.3", "10.0.0.4"):
        server = _endpoint(sim, network, ip)[3]
        server.register("wait", _slow_echo_of_its_argument)
    return sim, network, client


def _slow_echo_of_its_argument(delay):
    yield delay
    return delay


def _answered(sim, client, ip, delay=0.0, **kwargs):
    future = client.call(f"{ip}:1000", "wait", delay, **kwargs)
    sim.run()
    return future.result()


def test_the_first_host_gets_an_estimate_and_other_hosts_none_yet(wide_world):
    """One host tells nothing of the spread between hosts: a host not heard
    from still waits the caller's whole timeout."""
    sim, _network, client = wide_world
    assert client.rto == {} and client.rto_default == float("inf")
    _answered(sim, client, "10.0.0.2")  # R = 0.2 s
    # the host: srtt = R, plus the grain
    assert client.rto == {"10.0.0.2": pytest.approx(0.2 + RTO_GRAIN)}
    assert client.rto_default == float("inf")
    _answered(sim, client, "10.0.0.2", 0.1)
    assert client.rto_default == float("inf")


def test_later_replies_move_the_estimates_by_the_rfc_6298_steps(wide_world):
    sim, _network, client = wide_world
    _answered(sim, client, "10.0.0.2")  # R = 0.2 s
    _answered(sim, client, "10.0.0.3")  # a second host's first reply, R = 0.4 s
    # the first host's reply set srtt = R, rttvar = R / 2; this one steps them
    srtt = 7 / 8 * 0.2 + 1 / 8 * 0.4
    rttvar = 3 / 4 * 0.1 + 1 / 4 * abs(0.2 - 0.4)
    assert client.rto_default == pytest.approx(srtt + 4 * rttvar)
    assert client.rto["10.0.0.3"] == pytest.approx(0.4 + RTO_GRAIN)
    # a known host's reply moves its own estimate only: R = 0.2 + 0.8 s
    default = client.rto_default
    _answered(sim, client, "10.0.0.2", 0.8, timeout=5.0)
    assert client.rto["10.0.0.2"] == pytest.approx(7 / 8 * 0.2 + 1 / 8 * 1.0 + RTO_GRAIN)
    assert client.rto_default == default
    # ... so the next host's first reply (R = 0.1 s) steps the pair from there
    _answered(sim, client, "10.0.0.4")
    rttvar = 3 / 4 * rttvar + 1 / 4 * abs(srtt - 0.1)
    srtt = 7 / 8 * srtt + 1 / 8 * 0.1
    assert client.rto_default == pytest.approx(srtt + 4 * rttvar)


def test_a_reply_after_a_retransmission_is_no_sample(wide_world):
    """Karn's rule: the reply may answer either attempt."""
    sim, _network, client = wide_world
    _answered(sim, client, "10.0.0.2")
    rto, default = dict(client.rto), client.rto_default
    # the first attempt's reply (t ~ 0.7) completes the call after the retry
    # left at t = 0.5
    assert _answered(sim, client, "10.0.0.2", 0.5, timeout=0.5, retries=1) == 0.5
    assert client.stats.retries == 1
    assert client.rto == rto and client.rto_default == default
    # and it is not a sample of a host not heard from before either
    _answered(sim, client, "10.0.0.3", 0.5, timeout=0.5, retries=1)
    assert "10.0.0.3" not in client.rto and client.rto_default == default


def test_no_timeout_is_shorter_than_the_floor(world):
    sim, network = world  # 10 ms one way
    client = _endpoint(sim, network, "10.0.0.1")[3]
    server = _endpoint(sim, network, "10.0.0.2")[3]
    server.register("echo", lambda x: x)
    _endpoint(sim, network, "10.0.0.3")[3].register("echo", lambda x: x)
    for ip in ("10.0.0.2", "10.0.0.3"):
        client.call(f"{ip}:1000", "echo", 1)
        sim.run()
    # 20 ms + the grain (4 x 10 ms of variation is less), raised to the floor
    assert client.rto == {"10.0.0.2": RTO_FLOOR, "10.0.0.3": RTO_FLOOR}
    assert client.rto_default == RTO_FLOOR
    # the host's smoothed round trip counts as the floor less the grain: a
    # slower reply (R = 0.82 s) steps it from there
    server.register("wait", _slow_echo_of_its_argument)
    client.call("10.0.0.2:1000", "wait", 0.8, timeout=5.0)
    sim.run()
    srtt = 7 / 8 * (RTO_FLOOR - RTO_GRAIN) + 1 / 8 * 0.82
    assert client.rto["10.0.0.2"] == pytest.approx(srtt + RTO_GRAIN)
