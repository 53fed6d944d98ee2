"""Loss: per-pair rates, locally injected sbsocket loss, RPC under lossy nets."""

import pytest

from repro.apps import harness
from repro.lib.rpc import RpcService, RpcTimeout
from repro.lib.sbsocket import RestrictedSocket, SocketPolicy
from repro.net.address import Address
from repro.net.latency import ConstantLatency
from repro.net.loss import LossModel
from repro.net.network import Network
from repro.sim.events_api import AppContext, Events
from repro.sim.futures import FutureState
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer
from repro.testbeds import get_testbed


# ------------------------------------------------------------------ LossModel
def test_rate_for_takes_the_maximum_of_all_applicable_rates():
    model = LossModel(seed=0, default_rate=0.01)
    model.set_pair_rate("10.0.0.1", "10.0.0.2", 0.5)
    model.set_host_rate("10.0.0.3", 0.2)
    assert model.rate_for("10.0.0.1", "10.0.0.2") == 0.5
    assert model.rate_for("10.0.0.2", "10.0.0.1") == 0.01  # pair rates are directed
    assert model.rate_for("10.0.0.3", "10.0.0.4") == 0.2   # host rate, either end
    assert model.rate_for("10.0.0.4", "10.0.0.3") == 0.2
    assert model.rate_for("10.0.0.4", "10.0.0.5") == 0.01
    # host rate never *lowers* a higher pair rate
    model.set_host_rate("10.0.0.1", 0.1)
    assert model.rate_for("10.0.0.1", "10.0.0.2") == 0.5


def test_rates_are_validated():
    with pytest.raises(ValueError):
        LossModel(default_rate=1.5)
    model = LossModel()
    with pytest.raises(ValueError):
        model.set_pair_rate("a", "b", -0.1)
    with pytest.raises(ValueError):
        model.set_host_rate("a", 2.0)


def test_should_drop_counts_and_is_deterministic_per_seed():
    def drops(seed):
        model = LossModel(seed=seed, default_rate=0.3)
        return [model.should_drop("a", "b") for _ in range(50)], model.evaluated

    first, evaluated = drops(4)
    assert drops(4) == (first, evaluated)
    assert evaluated == 50
    assert 0 < sum(first) < 50

    certain = LossModel(seed=1, default_rate=1.0)
    assert all(certain.should_drop("a", "b") for _ in range(5))
    lossless = LossModel(seed=1)
    assert not any(lossless.should_drop("a", "b") for _ in range(5))
    assert lossless.evaluated == 5


def test_per_pair_loss_only_affects_that_direction_on_the_network():
    sim = Simulator(2)
    network = Network(sim, latency=ConstantLatency(0.001), seed=2)

    class _Host:
        def __init__(self, ip):
            self.ip = ip
            self.alive = True

    for ip in ("10.0.0.1", "10.0.0.2"):
        network.add_host(_Host(ip))
    network.loss.set_pair_rate("10.0.0.1", "10.0.0.2", 1.0)
    received = []
    network.listen(Address("10.0.0.2", 9), received.append)
    network.listen(Address("10.0.0.1", 9), received.append)
    network.send(Address("10.0.0.1", 9), Address("10.0.0.2", 9), "x", 10)
    network.send(Address("10.0.0.2", 9), Address("10.0.0.1", 9), "y", 10)
    sim.run()
    assert [m.payload for m in received] == ["y"]
    assert network.stats.messages_dropped == network.stats.drops_loss == 1
    assert network.stats.messages_delivered == 1


# --------------------------------------------------- sbsocket injected loss
def _endpoint(sim, network, ip, port=1000, policy=None):
    class _Host:
        def __init__(self, ip):
            self.ip = ip
            self.alive = True

    network.add_host(_Host(ip))
    context = AppContext(sim, name=f"app@{ip}")
    events = Events(sim, context)
    socket = RestrictedSocket(network, context, Address(ip, port),
                              policy=policy, seed=sim.seed)
    return context, events, socket


def test_sbsocket_drop_rate_injects_loss_before_the_network():
    sim = Simulator(3)
    network = Network(sim, latency=ConstantLatency(0.001), seed=3)
    _c1, _e1, sender = _endpoint(sim, network, "10.0.0.1",
                                 policy=SocketPolicy(drop_rate=1.0))
    _c2, _e2, receiver = _endpoint(sim, network, "10.0.0.2")
    received = []
    receiver.listen(received.append)
    assert sender.send(Address("10.0.0.2", 1000), "doomed") is None
    sim.run()
    # the drop happens inside the sandbox: the network never saw the message
    assert received == []
    assert sender.stats.messages_dropped_locally == 1
    assert sender.stats.messages_sent == 1  # charged against the app's stats
    assert network.stats.messages_sent == 0


def test_sbsocket_partial_drop_rate_is_deterministic_and_counted():
    def run():
        sim = Simulator(5)
        network = Network(sim, latency=ConstantLatency(0.001), seed=5)
        _c1, _e1, sender = _endpoint(sim, network, "10.0.0.1",
                                     policy=SocketPolicy(drop_rate=0.4))
        _c2, _e2, receiver = _endpoint(sim, network, "10.0.0.2")
        received = []
        receiver.listen(received.append)
        for i in range(40):
            sender.send(Address("10.0.0.2", 1000), i)
        sim.run()
        return len(received), sender.stats.messages_dropped_locally

    delivered, dropped = run()
    assert (delivered, dropped) == run()
    assert delivered + dropped == 40
    assert 0 < dropped < 40


def test_sbsocket_drop_rate_draws_and_charges_exactly_as_before_the_inlined_checks():
    # Which messages the local drop rate lets through is a function of the
    # seed alone: the survivors below were recorded when send() still went
    # through one helper per check and returned a delivery future.
    sim = Simulator(5)
    network = Network(sim, latency=ConstantLatency(0.001), seed=5)
    sanitizer = Sanitizer(sim, strict=True).install()
    sanitizer.watch_network(network)
    try:
        _c1, _e1, sender = _endpoint(sim, network, "10.0.0.1",
                                     policy=SocketPolicy(drop_rate=0.4))
        _c2, _e2, receiver = _endpoint(sim, network, "10.0.0.2")
        received = []
        receiver.listen(received.append)
        for i in range(40):
            sender.send(Address("10.0.0.2", 1000), i)
        sim.run()
    finally:
        sanitizer.uninstall()
    assert [m.payload for m in received] == [0, 1, 7, 9, 10, 14, 16, 17, 18, 19, 20,
                                             21, 23, 25, 28, 31, 35, 37, 38]
    assert sender.stats.messages_dropped_locally == 21
    # every message is charged to the sender, only the survivors to the network
    assert (sender.stats.messages_sent, sender.stats.bytes_sent) == (40, 470)
    assert (network.stats.messages_sent, network.stats.bytes_sent) == (19, 224)
    assert network.loss.evaluated == 19  # one loss-model draw per message sent on


# ------------------------------------------------------ RPC on lossy testbeds
def test_rpc_retries_recover_from_a_lossy_link():
    sim = Simulator(11)
    network = Network(sim, latency=ConstantLatency(0.005),
                      loss=LossModel(seed=11, default_rate=0.4), seed=11)
    _c1, events1, socket1 = _endpoint(sim, network, "10.0.0.1")
    _c2, events2, socket2 = _endpoint(sim, network, "10.0.0.2")
    client = RpcService(socket1, events1)
    server = RpcService(socket2, events2)
    server.register("echo", lambda v: v)
    futures = [client.call("10.0.0.2:1000", "echo", i, timeout=0.5, retries=5)
               for i in range(20)]
    sim.run()
    assert all(f.state is FutureState.DONE for f in futures)
    assert [f.result() for f in futures] == list(range(20))
    assert client.stats.retries > 0  # loss forced retransmissions
    assert network.stats.messages_dropped > 0


def test_rpc_times_out_when_the_link_is_fully_lossy():
    sim = Simulator(12)
    network = Network(sim, latency=ConstantLatency(0.005),
                      loss=LossModel(seed=12, default_rate=1.0), seed=12)
    _c1, events1, socket1 = _endpoint(sim, network, "10.0.0.1")
    _c2, events2, socket2 = _endpoint(sim, network, "10.0.0.2")
    client = RpcService(socket1, events1)
    server = RpcService(socket2, events2)
    server.register("echo", lambda v: v)
    future = client.call("10.0.0.2:1000", "echo", 1, timeout=0.2, retries=2)
    sim.run()
    assert future.state is FutureState.FAILED
    with pytest.raises(RpcTimeout):
        future.result()
    assert client.stats.timeouts == 1
    assert client.stats.retries == 2


def test_rpc_survives_the_planetlab_testbed_substrate_loss():
    """The planetlab preset's 2% substrate loss is absorbed by RPC retries."""
    sim = Simulator(21)
    ips = harness.host_ips(4)
    built = get_testbed("planetlab").builder(sim, ips, 21)
    network = built.network
    assert network.loss.default_rate > 0
    _c1, events1, socket1 = _endpoint(sim, network, ips[0])
    _c2, events2, socket2 = _endpoint(sim, network, ips[1])
    client = RpcService(socket1, events1)
    server = RpcService(socket2, events2)
    server.register("echo", lambda v: v)
    futures = [client.call(f"{ips[1]}:1000", "echo", i, timeout=2.0, retries=3)
               for i in range(100)]
    sim.run()
    assert all(f.state is FutureState.DONE for f in futures)
    # the substrate did drop messages; retries hid every loss from the app
    assert network.stats.messages_dropped > 0
    assert client.stats.retries > 0
    assert client.stats.timeouts == 0
