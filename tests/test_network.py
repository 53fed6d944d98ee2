"""Network: delivery, drop paths, listener lifecycle, bulk transfers."""

import pytest

from repro.lib.sbsocket import RestrictedSocket, SocketPolicy
from repro.net.address import Address, NodeRef
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.events_api import AppContext
from repro.sim.kernel import Simulator


class _Host:
    def __init__(self, ip):
        self.ip = ip
        self.alive = True


def _net(seed=0, delay=0.010):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(delay), seed=seed)
    a, b = _Host("10.0.0.1"), _Host("10.0.0.2")
    network.add_host(a)
    network.add_host(b)
    return sim, network, a, b


def test_send_delivers_to_live_listener_after_latency():
    sim, network, _a, _b = _net()
    src, dst = Address("10.0.0.1", 1), Address("10.0.0.2", 2)
    inbox = []
    network.listen(dst, inbox.append)
    assert network.send(src, dst, {"hello": 1}, size=100) is None  # datagram
    assert inbox == [] and network.stats.messages_delivered == 0
    sim.run()
    assert len(inbox) == 1
    assert inbox[0].payload == {"hello": 1}
    assert inbox[0].src == src
    assert network.stats.messages_delivered == 1
    assert sim.now == pytest.approx(0.010, rel=0.01)


def test_send_to_dead_host_is_dropped_immediately():
    sim, network, _a, b = _net()
    b.alive = False
    network.send(Address("10.0.0.1", 1), Address("10.0.0.2", 2), "x", 10)
    assert network.stats.messages_dropped == network.stats.drops_dead_host == 1
    assert sim.pending_events == 0  # dropped at the sender, nothing in flight


def test_send_without_listener_is_dropped_on_delivery():
    sim, network, _a, _b = _net()
    network.send(Address("10.0.0.1", 1), Address("10.0.0.2", 2), "x", 10)
    assert network.stats.messages_dropped == 0  # only found out on arrival
    sim.run()
    assert network.stats.messages_dropped == network.stats.drops_no_listener == 1
    assert network.stats.messages_delivered == 0


def test_host_dying_in_flight_drops_the_message():
    sim, network, _a, b = _net()
    dst = Address("10.0.0.2", 2)
    inbox = []
    network.listen(dst, inbox.append)
    network.send(Address("10.0.0.1", 1), dst, "x", 10)
    sim.schedule(0.005, lambda: setattr(b, "alive", False))
    sim.run()
    assert inbox == []
    assert network.stats.messages_dropped == network.stats.drops_dead_host == 1


def test_loss_model_drops_everything_at_rate_one():
    sim, network, _a, _b = _net()
    network.loss.set_pair_rate("10.0.0.1", "10.0.0.2", 1.0)
    dst = Address("10.0.0.2", 2)
    inbox = []
    network.listen(dst, inbox.append)
    for i in range(5):
        network.send(Address("10.0.0.1", 1), dst, i, 10)
    sim.run()
    assert inbox == []
    assert network.stats.messages_dropped == network.stats.drops_loss == 5


def test_listener_tied_to_dead_context_stops_receiving():
    sim, network, _a, _b = _net()
    context = AppContext(sim, name="victim")
    dst = Address("10.0.0.2", 2)
    inbox = []
    network.listen(dst, inbox.append, context=context)
    context.kill()
    network.send(Address("10.0.0.1", 1), dst, "x", 10)
    sim.run()
    assert inbox == []
    assert network.stats.messages_dropped == network.stats.drops_no_listener == 1
    assert not network.is_listening(dst)


def test_a_socket_refuses_a_second_receiver_and_keeps_the_first():
    sim, network, _a, _b = _net()
    socket = RestrictedSocket(network, AppContext(sim), Address("10.0.0.2", 2),
                              policy=SocketPolicy(max_sockets=1))
    first, second = [], []
    socket.listen(first.append)
    with pytest.raises(ValueError, match="already has a receiver"):
        socket.listen(second.append)
    network.send(Address("10.0.0.1", 1), socket.local, "x", 10)
    sim.run()
    assert [message.payload for message in first] == ["x"] and second == []
    assert socket._open_sockets == 1  # the refused receiver took no slot


def test_handler_errors_are_recorded_not_raised_by_default():
    sim, network, _a, _b = _net()
    dst = Address("10.0.0.2", 2)

    def broken(_message):
        raise RuntimeError("boom")

    network.listen(dst, broken)
    network.send(Address("10.0.0.1", 1), dst, "x", 10)
    sim.run()
    assert network.stats.handler_errors == 1
    # a message whose handler raised is neither delivered nor dropped
    assert network.stats.messages_delivered == network.stats.messages_dropped == 0


def test_processing_delay_hooks_on_both_ends_add_to_the_delay():
    sim, network, _a, _b = _net()
    src, dst = Address("10.0.0.1", 1), Address("10.0.0.2", 2)
    arrivals = []
    network.listen(dst, lambda message: arrivals.append(sim.now))
    network.set_processing_delay("10.0.0.1", lambda size: size * 0.001)
    network.set_processing_delay("10.0.0.2", lambda size: 0.5)
    network.send(src, dst, "x", 10)
    sim.run()
    assert arrivals == [pytest.approx(0.010 + 0.010 + 0.5)]
    # A hook that returns a negative delay adds nothing.
    network.set_processing_delay("10.0.0.2", lambda size: -1.0)
    sent_at = sim.now
    network.send(src, dst, "x", 10)
    sim.run()
    assert arrivals[1] == pytest.approx(sent_at + 0.010 + 0.010)
    # Clearing both hooks leaves the latency alone.
    network.set_processing_delay("10.0.0.1", None)
    network.set_processing_delay("10.0.0.2", None)
    sent_at = sim.now
    network.send(src, dst, "x", 10)
    sim.run()
    assert arrivals[2] == pytest.approx(sent_at + 0.010)


# ------------------------------------------------------------------ transfers
# 1 MB over 8 Mbps access links is exactly 1 s on the uplink; one-way delay d.
DELAY, CAPACITY, NBYTES = 0.050, 8_000_000, 1_000_000


def _transfer_net():
    sim, network, _a, _b = _net(delay=DELAY)
    for ip in ("10.0.0.1", "10.0.0.2"):
        network.bandwidth.set_capacity(ip, CAPACITY, CAPACITY)
    sim.run(until=1.0)  # t0 = 1 s: the times below are not measured from zero
    return sim, network


def test_a_transfer_completes_when_its_last_byte_leaves_and_is_worth_its_arrival():
    sim, network = _transfer_net()
    t0 = sim.now
    socket = RestrictedSocket(network, AppContext(sim), Address("10.0.0.1", 1),
                              policy=SocketPolicy(max_sockets=1))
    done = socket.transfer(Address("10.0.0.2", 2), NBYTES)
    completions = []
    done.add_done_callback(lambda future: completions.append(sim.now))
    last_byte_leaves = t0 + 8 * NBYTES / CAPACITY
    sim.run(until=last_byte_leaves - 1e-6)
    assert not done.done() and socket._open_sockets == 1
    sim.run(until=last_byte_leaves)
    assert completions == [last_byte_leaves]
    assert done.result() == last_byte_leaves + DELAY  # the arrival time
    assert socket._open_sockets == 0  # the slot is free as the byte leaves
    assert sim.pending_events == 0  # no propagation event per transfer


def test_a_host_failure_before_the_last_byte_leaves_cancels_the_transfer():
    sim, network = _transfer_net()
    done = network.transfer(Address("10.0.0.1", 1), Address("10.0.0.2", 2), NBYTES)
    sim.run(until=sim.now + 0.5)
    network.bandwidth.cancel_host("10.0.0.2")
    assert done.cancelled()
    assert network.bandwidth.active_transfers == 0 and sim.pending_events == 0


@pytest.mark.parametrize("failure", ["remove_host", "splayd_fail"])
def test_both_ways_a_host_goes_down_cancel_its_transfers(failure):
    sim = Simulator(0)
    network = Network(sim, latency=ConstantLatency(DELAY))
    daemons = [Splayd(sim, network, ip, SplaydLimits())
               for ip in ("10.0.0.1", "10.0.0.2")]
    for daemon in daemons:
        network.bandwidth.set_capacity(daemon.ip, CAPACITY, CAPACITY)
    done = network.transfer(Address("10.0.0.1", 1), Address("10.0.0.2", 2), NBYTES)
    sim.run(until=0.5)
    if failure == "remove_host":
        network.remove_host("10.0.0.1")
    else:
        daemons[0].fail()
    assert done.cancelled()
    assert network.bandwidth.preemptions == 1
    assert network.bandwidth.active_transfers == 0


# --------------------------------------------------------------- NodeRef identity
def test_noderef_identity_is_the_endpoint_and_the_id_is_payload():
    # Overlay code leans on this: refs to one endpoint are one dict key and
    # compare equal whatever id they carry (Chord skips itself by id alone).
    endpoints = [("10.0.0.1", 20000), ("10.0.0.1", 20001), ("10.0.0.2", 20000)]
    refs = [NodeRef(ip, port, i) for ip, port in endpoints for i in (None, 0, 7, 1 << 31)]
    for a in refs:
        assert hash(a) == hash((a.ip, a.port))
        for b in refs:
            assert (a == b) is ((a.ip, a.port) == (b.ip, b.port))
            assert (a != b) is not (a == b)
    assert len(set(refs)) == len(endpoints)
    assert {refs[0]: "first"}[refs[1]] == "first"
    # a NodeRef never equals a look-alike of another type
    assert refs[0] != Address("10.0.0.1", 20000)
    assert refs[0] != ("10.0.0.1", 20000)
