"""Blacklist matching and socket policy enforcement."""

import pytest

from repro.core.blacklist import Blacklist
from repro.lib.sbsocket import (
    RestrictedSocket,
    SocketPolicy,
    SocketRestrictionError,
)
from repro.net.address import Address
from repro.net.network import Network
from repro.sim.events_api import AppContext
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer


def test_blacklist_exact_and_cidr_matching():
    blacklist = Blacklist(["10.0.0.5", "192.168.1.0/24"])
    assert blacklist.is_forbidden("10.0.0.5")
    assert not blacklist.is_forbidden("10.0.0.6")
    assert blacklist.is_forbidden("192.168.1.1")
    assert blacklist.is_forbidden("192.168.1.254")
    assert not blacklist.is_forbidden("192.168.2.1")


def test_blacklist_wildcard_and_hostnames():
    assert Blacklist(["*"]).is_forbidden("1.2.3.4")
    named = Blacklist(["badhost"])
    assert named.is_forbidden("badhost")
    assert not named.is_forbidden("goodhost")


def test_blacklist_merge_is_a_union():
    merged = Blacklist(["10.0.0.1"]).merged_with(Blacklist(["10.1.0.0/16"]))
    assert merged.is_forbidden("10.0.0.1")
    assert merged.is_forbidden("10.1.2.3")
    assert not merged.is_forbidden("10.2.0.1")


def test_malformed_cidr_rejected():
    with pytest.raises(ValueError):
        Blacklist(["10.0.0.0/40"])
    with pytest.raises(ValueError):
        Blacklist(["nonsense/8"])


def test_policy_merge_unions_both_blacklists():
    local = SocketPolicy(blacklist=Blacklist(["10.9.0.0/16"]))
    remote = SocketPolicy(blacklist=Blacklist(["10.0.0.5"]))
    merged = local.merged_with(remote)
    assert merged.blacklist.is_forbidden("10.9.1.2")
    assert merged.blacklist.is_forbidden("10.0.0.5")


def test_policy_merge_keeps_the_stricter_limit():
    local = SocketPolicy(max_total_bytes=1000, drop_rate=0.1,
                        blacklist=Blacklist(["10.0.0.9"]))
    remote = SocketPolicy(max_total_bytes=500, max_sockets=2, drop_rate=0.05)
    merged = local.merged_with(remote)
    assert merged.max_total_bytes == 500
    assert merged.max_sockets == 2
    assert merged.drop_rate == 0.1
    assert merged.blacklist.is_forbidden("10.0.0.9")


def test_restricted_socket_refuses_blacklisted_destination():
    sim = Simulator()
    network = Network(sim)

    class _Host:
        ip, alive = "10.0.0.1", True

    network.add_host(_Host())
    context = AppContext(sim)
    policy = SocketPolicy(blacklist=Blacklist(["10.9.0.0/16"]))
    socket = RestrictedSocket(network, context, Address("10.0.0.1", 1), policy=policy)
    with pytest.raises(SocketRestrictionError, match="blacklisted"):
        socket.send("10.9.1.2:2000", "payload")
    assert socket.stats.messages_refused == 1


def test_restricted_socket_enforces_traffic_budget():
    sim = Simulator()
    network = Network(sim)

    class _Host:
        ip, alive = "10.0.0.1", True

    network.add_host(_Host())
    context = AppContext(sim)
    socket = RestrictedSocket(network, context, Address("10.0.0.1", 1),
                              policy=SocketPolicy(max_total_bytes=50))
    socket.send("10.0.0.1:9", "x", size=40)
    with pytest.raises(SocketRestrictionError, match="budget"):
        socket.send("10.0.0.1:9", "x", size=40)


# --------------------------------- the checks, as send() applies them inline
@pytest.fixture()
def strict_socket():
    """Factory of sockets on 10.0.0.1, under the strict sanitizer."""
    sim = Simulator()
    network = Network(sim)

    class _Host:
        ip, alive = "10.0.0.1", True

    network.add_host(_Host())
    sanitizer = Sanitizer(sim, strict=True).install()
    sanitizer.watch_network(network)
    inbox = []
    network.listen(Address("10.0.0.1", 9), inbox.append)

    def make(policy=None):
        return RestrictedSocket(network, AppContext(sim), Address("10.0.0.1", 1),
                                policy=policy)

    yield sim, network, inbox, make
    sanitizer.uninstall()
    assert sanitizer.violation_count == 0


def test_a_refused_destination_is_neither_charged_nor_sent(strict_socket):
    sim, network, inbox, make = strict_socket
    socket = make(SocketPolicy(blacklist=Blacklist(["10.9.0.0/16"])))
    with pytest.raises(SocketRestrictionError, match="blacklisted"):
        socket.send("10.9.1.2:2000", "payload")
    assert (socket.stats.messages_refused, socket.stats.messages_sent,
            socket.stats.bytes_sent) == (1, 0, 0)
    assert network.stats.messages_sent == 0 and sim.pending_events == 0
    # the same policy lets every other destination through
    assert socket.send("10.0.0.1:9", "fine", size=30) is None
    sim.run()
    assert [m.payload for m in inbox] == ["fine"]
    assert (socket.stats.messages_sent, socket.stats.bytes_sent) == (1, 30)


def test_the_byte_budget_is_inclusive_and_a_refused_message_is_not_charged(strict_socket):
    sim, network, inbox, make = strict_socket
    socket = make(SocketPolicy(max_total_bytes=100))
    socket.send("10.0.0.1:9", "a", size=60)
    socket.send("10.0.0.1:9", "b", size=40)  # lands exactly on the limit
    with pytest.raises(SocketRestrictionError, match="budget exceeded: 101 > 100"):
        socket.send("10.0.0.1:9", "c", size=1)
    assert (socket.stats.messages_refused, socket.stats.messages_sent,
            socket.stats.bytes_sent) == (1, 2, 100)
    sim.run()
    assert [m.payload for m in inbox] == ["a", "b"]
    assert network.stats.bytes_sent == 100


def test_a_policy_tightened_mid_run_applies_to_the_next_send(strict_socket):
    sim, network, inbox, make = strict_socket
    socket = make()  # unrestricted: no enforcement helper has anything to do
    socket.send("10.0.0.1:9", "before", size=500)
    socket.policy = socket.policy.merged_with(
        SocketPolicy(max_total_bytes=600, blacklist=Blacklist(["10.0.0.1"])))
    with pytest.raises(SocketRestrictionError, match="blacklisted"):
        socket.send("10.0.0.1:9", "after", size=10)
    socket.policy = SocketPolicy(max_total_bytes=600)
    with pytest.raises(SocketRestrictionError, match="budget"):
        socket.send("10.0.0.1:9", "after", size=101)
    assert socket.stats.messages_refused == 2
    sim.run()
    assert [m.payload for m in inbox] == ["before"]


def test_a_closed_or_killed_socket_refuses_before_any_policy_check(strict_socket):
    sim, network, _inbox, make = strict_socket
    policy = SocketPolicy(blacklist=Blacklist(["*"]), max_total_bytes=0)
    closed = make(policy)
    closed.close()
    killed = make(policy)
    killed.context.kill()
    for socket in (closed, killed):
        with pytest.raises(SocketRestrictionError, match="closed"):
            socket.send("10.0.0.1:9", "x")
        assert socket.stats.messages_refused == 0
    assert network.stats.messages_sent == 0
