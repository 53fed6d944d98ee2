"""Network: delivery, drop paths, listener lifecycle."""

import pytest

from repro.net.address import Address, NodeRef
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.events_api import AppContext
from repro.sim.kernel import Simulator


class _Host:
    def __init__(self, ip):
        self.ip = ip
        self.alive = True


def _net(seed=0, **kwargs):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(0.010), seed=seed, **kwargs)
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
