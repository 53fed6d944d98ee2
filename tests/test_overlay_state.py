"""Application-layer state: the node base, the leaf set and the member directory.

Pastry's leaf set is two bounded sorted arrays updated by insertion and every
application's rendezvous list is a keyed :class:`Membership`.  Three
properties are pinned here: a pick, a cleanup or a re-learned reference
costs a constant number of reference comparisons and no sort whatever the
overlay size; every order, draw and table the applications derive from the
two structures is exactly what the re-sort / re-scan code they replaced
produced (the reference models below *are* that code, kept only in this
file); and a reply handed to a remote caller never changes afterwards.
Before them, the contract of ``harness.OverlayNode`` — handlers by name,
founder or one draw, directory cleanup — once for the four applications.
"""

import random
import weakref

import pytest

from repro.apps import dissemination, harness
from repro.apps import pastry as pastry_module
from repro.apps.chord import ChordNode, chord_factory
from repro.apps.chord import expected_owner as chord_owner
from repro.apps.dissemination import SwarmNode, swarm_factory
from repro.apps.gossip import GossipNode, gossip_factory
from repro.apps.pastry import PastryNode, pastry_factory
from repro.apps.pastry import expected_owner as pastry_owner
from repro.core.jobs import JobSpec
from repro.lib.misc import Membership
from repro.lib.ring import (
    between,
    digit_at,
    hash_key,
    ring_distance,
    shared_prefix_length,
)
from repro.lib.rpc import RpcService, RpcTimeout
from repro.net.address import NodeRef
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.futures import FutureCancelled, FutureState
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.sanitizer import Sanitizer
from repro.sim.rng import substream
from test_memory import no_collector  # noqa: F401 - fixture: gc.disable() around the test
from test_pastry import _repair_every

BITS = 16
BASE_BITS = 4


def _deploy(factory, nodes=3, seed=0, **options):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(0.010), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        ip = f"10.0.0.{i + 1}"
        controller.register_daemon(
            Splayd(sim, network, ip, SplaydLimits(max_instances=3)))
        network.bandwidth.set_capacity(ip, 10_000_000.0, 10_000_000.0)
    job = controller.submit(JobSpec(
        name="app", app_factory=factory, instances=nodes,
        options={"bits": BITS, "base_bits": BASE_BITS, "join_window": 5.0, **options}))
    controller.start(job)
    return sim, controller, job


def _ref(index, bits=BITS):
    ip, port = f"10.{1 + index // 250}.{index % 250}.1", 20000 + index % 3
    return NodeRef(ip, port, hash_key(f"{ip}:{port}", bits))


# ------------------------------------------------------------- the node base
@pytest.mark.parametrize("node_class", [ChordNode, PastryNode, GossipNode, SwarmNode],
                         ids=lambda node_class: node_class.__name__)
def test_the_node_base_keeps_its_contract_for_every_application(no_collector, node_class):
    join_window = 5.0  # what _deploy hands every instance
    sim, controller, job = _deploy(node_class.factory(), nodes=4)
    instances = job.live_instances()

    # every _rpc_<name> method is served as <name>, and nothing else is
    app = instances[0].app
    served = {name[5:]: getattr(app, name) for name in dir(node_class)
              if name.startswith("_rpc_")}
    assert served and instances[0].rpc._handlers == served

    # the job's first instance founds without drawing; every later one has
    # drawn its join delay, once, from its own substream
    for index, instance in enumerate(instances):
        fresh = substream(sim.seed, node_class.label, job.job_id, instance.instance_id)
        if index:
            fresh.uniform(0.0, join_window)
        assert instance.app._rng.getstate() == fresh.getstate()
        assert instance.app.joined is (index == 0)

    # a kill takes the node out of the directory and frees it by refcount
    sim.run(until=20.0)
    members = job.shared[node_class.label + "_members"]
    assert {i.app.me for i in instances} == set(members)  # everyone joined
    victim = instances[2]
    me, app = victim.app.me, weakref.ref(victim.app)
    controller.kill_instances([victim], reason="test")
    sim.run(until=sim.now + 60.0)  # past its cancelled timers
    assert me not in members and len(members) == 3
    assert app() is None


def test_chord_and_pastry_share_one_lookup_walk():
    assert ChordNode.lookup is PastryNode.lookup
    assert ChordNode._rpc_walk is PastryNode._rpc_walk
    assert ChordNode._walk is PastryNode._walk


# ------------------------------------------------------ the forwarded walk
def _strict(sim, controller):
    sanitizer = Sanitizer(sim, strict=True).install()
    sanitizer.watch_network(controller.network)
    return sanitizer


def _walking(sim, app, key):
    """Start ``app.lookup(key)``; the box gets the result (or the error) and
    the time it came."""
    box = {}

    def _gen():
        try:
            box["result"] = yield from app.lookup(key)
        except (FutureCancelled, harness.LookupFailed) as exc:
            box["error"] = exc
        box["at"] = sim.now

    Process(sim, _gen(), name="test-lookup").start()
    return box


def _deadline(app):
    """When a lookup of ``app`` started now gives its forwarded walk up: a
    path twice its mean at one smoothed round trip a hop, and one hop's
    retransmissions."""
    stats = app.stats
    path = min(2 * stats.hops_total / stats.lookups_completed, app.max_hops)
    return (path * min(harness.HOP_TIMEOUT, app.rpc._srtt)
            + harness.HOP_TIMEOUT * (1 + harness.HOP_RETRIES))


def _run_for(sim, box, patience):
    deadline = sim.now + patience
    while "at" not in box and sim.now < deadline:
        sim.run(until=sim.now + 0.001)


def _nothing_left(apps, sim):
    """No node holds a walk's pending call, lookup or deadline (a
    maintenance call may be in flight at any instant)."""
    assert not any(call.method in ("walk", "step", "claim")
                   for app in apps for call in app.rpc._pending.values())
    assert not any(app._lookups for app in apps)
    assert not any(getattr(entry[2].callback, "__self__", None) in apps
                   and not entry[2].cancelled for entry in sim._queue
                   if getattr(entry[2].callback, "__name__", "") == "_expired")


@pytest.mark.parametrize("node_class", [ChordNode, PastryNode],
                         ids=lambda node_class: node_class.__name__)
def test_a_lookup_asking_k_remote_nodes_takes_k_plus_two_delays_not_two_k_plus_two(
        node_class):
    delay = 0.010  # _deploy's ConstantLatency
    sim, _controller, job = _deploy(node_class.factory(), nodes=40)
    sim.run(until=80.0)
    origin = job.live_instances()[0].app
    asked = set()
    for key in range(1, 1 << BITS, 1 << (BITS - 6)):
        box = _walking(sim, origin, key)
        started = sim.now
        _run_for(sim, box, 1.0)
        owner, hops = box["result"]
        # hops: our own step, one per remote node that stepped (k), the claim
        remote = hops - 2
        if remote < 1 or owner == origin.me:  # (our own claim is no message)
            continue
        asked.add(remote)
        # k forwards, the claim (none when the last hop owns the key) and the
        # answer; the 10 Mbps access links add a little to every message
        forwarded = box["at"] - started
        assert forwarded <= (remote + 2) * delay * 1.05
        walk = Process(sim, origin._walk(key), name="test-walk")
        started = sim.now
        walk.start()
        while not walk.done.done():
            sim.run(until=sim.now + 0.001)
        # the iterative walk: a round trip per remote node asked
        assert walk.done.result() == (owner, hops)
        assert sim.now - started >= 2 * (remote + 1) * delay
    assert max(asked) >= 2
    assert origin.stats.walks_recovered == 0


@pytest.mark.parametrize("node_class", [ChordNode, PastryNode],
                         ids=lambda node_class: node_class.__name__)
def test_an_origin_killed_mid_walk_leaves_no_call_timer_or_lookup_behind(node_class):
    sim, controller, job = _deploy(node_class.factory(), nodes=12)
    sanitizer = _strict(sim, controller)
    try:
        sim.run(until=80.0)
        apps = [instance.app for instance in job.live_instances()]
        origin = apps[0]
        box = _walking(sim, origin, (origin.me.id + (1 << (BITS - 1))) % (1 << BITS))
        sim.run(until=sim.now + 0.015)  # the walk has left the origin
        assert origin._lookups and "at" not in box
        controller.kill_instance(origin.instance, failed=True)
        sim.run(until=sim.now + 10.0)
        assert isinstance(box["error"], FutureCancelled)
        _nothing_left(apps, sim)
        assert sanitizer.violation_count == 0
    finally:
        sanitizer.uninstall()


@pytest.mark.parametrize("node_class", [ChordNode, PastryNode],
                         ids=lambda node_class: node_class.__name__)
def test_an_answer_that_comes_after_the_recovery_answered_is_dropped(
        monkeypatch, node_class):
    sim, controller, job = _deploy(node_class.factory(), nodes=12)
    sanitizer = _strict(sim, controller)
    try:
        sim.run(until=80.0)
        apps = [instance.app for instance in job.live_instances()]
        origin = apps[0]
        # hold the walk's answer back until the iterative walk has answered
        held = []
        send = Network.send

        def holding(network, src, dst, payload, size):
            if payload.get("method") == "found" and not held:
                held.append((network, src, dst, payload, size))
                return
            send(network, src, dst, payload, size)

        monkeypatch.setattr(Network, "send", holding)
        key = (origin.me.id + (1 << (BITS - 1))) % (1 << BITS)
        box = _walking(sim, origin, key)
        started = sim.now
        _run_for(sim, box, _deadline(origin) + 10.0)
        assert held and origin.stats.walks_recovered == 1
        assert box["at"] - started > _deadline(origin)
        late = held[0][3]["args"]
        assert tuple(late[2:4]) == box["result"]  # the same answer, too late
        send(*held[0])
        sim.run(until=sim.now + 5.0)
        assert box["result"][0] == origin.me or box["result"][0] in {a.me for a in apps}
        _nothing_left(apps, sim)
        assert sanitizer.violation_count == 0
    finally:
        sanitizer.uninstall()


def _first_hops(job, origin, node_class):
    """``(key, node, owner)`` for every key whose walk leaves ``origin`` for
    a node that does not own it, in key order."""
    by_ref = {instance.app.me: instance.app for instance in job.live_instances()}
    owner_of = {ChordNode: chord_owner, PastryNode: pastry_owner}[node_class]
    for key in range(1, 1 << BITS, 97):
        reply = origin._rpc_step(key, [])
        node, owner = NodeRef.coerce(reply["node"]), owner_of(job, key, BITS)
        if not reply["done"] and node not in (origin.me, owner):
            yield key, by_ref[node], owner


def _first_hop(job, origin, node_class):
    return next(_first_hops(job, origin, node_class))


def _way_around(job, origin, key, node, owner):
    """True when the walk of ``key`` from ``origin`` that avoids ``node``
    steps straight on to ``owner``."""
    by_ref = {instance.app.me: instance.app for instance in job.live_instances()}
    current, avoid = origin, [node.me.id]
    for _hop in range(8):
        reply = current._rpc_step(key, avoid)
        step = NodeRef.coerce(reply["node"])
        if reply["done"]:
            return step == owner
        if step in (current.me, origin.me, node.me):
            return False
        current = by_ref[step]
    return False


def _iterative_walk(sim, app, key):
    """``app._walk(key)`` run to its end; its done future."""
    walk = Process(sim, app._walk(key), name="test-walk")
    walk.start()
    sim.run(until=sim.now + 5.0)
    return walk.done


def _answers_held(monkeypatch):
    """Every forwarded walk's ``found`` answer is held back, not sent."""
    held = []
    send = Network.send

    def holding(network, src, dst, payload, size):
        if type(payload) is dict and payload.get("method") == "found":
            held.append((network, src, dst, payload, size))
            return
        send(network, src, dst, payload, size)

    monkeypatch.setattr(Network, "send", holding)
    return held, send


@pytest.mark.parametrize("node_class", [ChordNode, PastryNode],
                         ids=lambda node_class: node_class.__name__)
def test_the_iterative_walk_avoids_a_node_whose_step_names_itself(node_class):
    sim, _controller, job = _deploy(node_class.factory(), nodes=16)
    sim.run(until=80.0)
    origin = job.live_instances()[0].app
    key, stuck, owner = next(hop for hop in _first_hops(job, origin, node_class)
                             if _way_around(job, origin, *hop))
    asked = []

    def no_progress(key, avoid):
        asked.append(list(avoid))
        return {"node": stuck.me, "done": False}

    stuck.rpc._handlers["step"] = no_progress
    assert _iterative_walk(sim, origin, key).result()[0] == owner
    assert asked == [[]]  # asked once, then avoided from the origin on


@pytest.mark.parametrize("walk", ["forwarded", "iterative"])
def test_a_walk_fails_once_the_origins_own_step_names_the_origin(monkeypatch, walk):
    # Every other node's step names itself, so the origin avoids its routes
    # one by one until a Chord step of its own falls back to the origin.
    sim, _controller, job = _deploy(ChordNode.factory(), nodes=16)
    sim.run(until=80.0)
    apps = [instance.app for instance in job.live_instances()]
    origin = apps[0]
    key = (origin.me.id + (1 << (BITS - 1))) % (1 << BITS)
    named = []
    own_step = ChordNode._rpc_step

    def stepping(self, key, avoid=None):
        if self is not origin:
            return {"node": self.me, "done": False}
        reply = own_step(self, key, avoid)
        named.append(NodeRef.coerce(reply["node"]))
        return reply

    monkeypatch.setattr(ChordNode, "_rpc_step", stepping)
    for app in apps[1:]:
        app.rpc._handlers["step"] = app._rpc_step
    if walk == "forwarded":
        box = _walking(sim, origin, key)
        _run_for(sim, box, 5.0)
        error = box.get("error")
        assert isinstance(error, harness.LookupFailed)
    else:
        with pytest.raises(harness.LookupFailed) as raised:
            _iterative_walk(sim, origin, key).result()
        error = raised.value
    assert len(named) > 2 and named[-1] == origin.me
    assert named.count(origin.me) == 1  # asked once, not until the budget is spent
    # the failure names its cause, not the hop budget it did not spend: each
    # remote node named took the origin's step and its own, and then the
    # origin's last step named the origin
    assert "no route left" in str(error) and "exceeded" not in str(error)
    assert error.hops == 2 * len(named) - 1 < origin.max_hops


@pytest.mark.parametrize("node_class", [ChordNode, PastryNode],
                         ids=lambda node_class: node_class.__name__)
def test_an_iterative_walk_that_spends_its_hop_budget_raises(node_class):
    sim, _controller, job = _deploy(node_class.factory(), nodes=16)
    sim.run(until=80.0)
    origin = job.live_instances()[0].app
    key, _stuck, _owner = _first_hop(job, origin, node_class)
    origin.max_hops = 1  # the origin's own step spends it
    with pytest.raises(harness.LookupFailed, match="exceeded 1 hops"):
        _iterative_walk(sim, origin, key).result()


@pytest.mark.parametrize("node_class", [ChordNode, PastryNode],
                         ids=lambda node_class: node_class.__name__)
def test_a_recovery_that_spends_its_hop_budget_fails_the_lookup(monkeypatch, node_class):
    sim, controller, job = _deploy(node_class.factory(), nodes=12)
    sanitizer = _strict(sim, controller)
    try:
        sim.run(until=80.0)
        apps = [instance.app for instance in job.live_instances()]
        origin = apps[0]
        key, _stuck, _owner = _first_hop(job, origin, node_class)
        held, _send = _answers_held(monkeypatch)
        failed, patience = origin.stats.lookups_failed, _deadline(origin) + 10.0
        box = _walking(sim, origin, key)
        sim.run(until=sim.now + 0.001)  # the walk has left with its budget
        origin.max_hops = 1  # the recovery's: the origin's own step spends it
        _run_for(sim, box, patience)
        assert held and origin.stats.walks_recovered == 1
        assert isinstance(box.get("error"), harness.LookupFailed)
        assert origin.stats.lookups_failed == failed + 1 and not origin._lookups
        assert sanitizer.violation_count == 0
    finally:
        sanitizer.uninstall()


@pytest.mark.parametrize("node_class", [ChordNode, PastryNode],
                         ids=lambda node_class: node_class.__name__)
def test_a_forwarded_answer_that_comes_during_the_recovery_ends_it(monkeypatch, node_class):
    sim, controller, job = _deploy(node_class.factory(), nodes=12)
    sanitizer = _strict(sim, controller)
    try:
        sim.run(until=80.0)
        apps = [instance.app for instance in job.live_instances()]
        origin = apps[0]
        key, _stuck, owner = _first_hop(job, origin, node_class)
        held, send = _answers_held(monkeypatch)
        box = _walking(sim, origin, key)
        deadline = sim.now + _deadline(origin) + 10.0
        while origin.stats.walks_recovered == 0 and sim.now < deadline:
            sim.run(until=sim.now + 0.001)
        (entry,) = origin._lookups.values()
        recovery = entry[1].__self__  # what the lookup stops: the recovery's kill
        assert held and not recovery.done.done()  # its first call is on its way
        send(*held[0])  # the forwarded answer, one delay before that reply
        _run_for(sim, box, 1.0)
        assert box["result"][0] == owner
        assert recovery.done.state is FutureState.CANCELLED
        sim.run(until=sim.now + 5.0)  # past the recovery's reply
        _nothing_left(apps, sim)
        assert sanitizer.violation_count == 0
    finally:
        sanitizer.uninstall()


@pytest.mark.parametrize("node_class", [ChordNode, PastryNode],
                         ids=lambda node_class: node_class.__name__)
def test_chord_and_pastry_share_one_liveness_table(monkeypatch, node_class):
    sim, _controller, job = _deploy(node_class.factory(), nodes=8)
    sim.run(until=60.0)
    app = job.live_instances()[0].app
    following, watched = app.neighbours()
    assert watched != app.me and app._watched[0] == watched
    sent = []
    calling = RpcService.call

    def recording(service, dst, method, *args, **kwargs):
        if service is app.rpc and method in ("__ping__", "leafset"):
            sent.append((NodeRef.coerce(dst), method))
        return calling(service, dst, method, *args, **kwargs)

    monkeypatch.setattr(RpcService, "call", recording)

    # one probe per endpoint: a second suspicion of the watched neighbour,
    # and Pastry's probe of the leaf a repair caller skipped (that same
    # neighbour), wait for the confirming call in flight; another endpoint's
    # confirmation runs at once
    timeout = RpcTimeout("missed its RTO")
    app._unanswered(watched, timeout, True, False)
    app._unanswered(watched, timeout, True, False)
    if node_class is PastryNode:
        app._skipped(app._sides[1][1], (app.me,), ())
    app._unanswered(following, timeout, True, False)
    assert app._probing == {(watched.ip, watched.port), (following.ip, following.port)}
    sim.run(until=sim.now + 0.5)
    assert sent == [(watched, "__ping__"), (following, "__ping__")]
    assert not app._probing
    if node_class is PastryNode:  # and a skipped-leaf probe beside a confirmation
        app._unanswered(following, timeout, True, False)
        app._skipped(app._sides[1][1], (app.me,), ())
        assert app._probing == {(watched.ip, watched.port), (following.ip, following.port)}
        sim.run(until=sim.now + 0.5)
        assert sent[2:] == [(following, "__ping__"), (watched, "leafset")]

    # a call from an endpoint found dead brings it back
    app._dead[following.ip, following.port] = None
    app._heard(following)
    assert (following.ip, following.port) not in app._dead

    # a call from the watched neighbour restarts its silence window; one from
    # another node does not
    app._watched = (watched, 0.0)
    app._rpc_notify(following)
    assert app._watched == (watched, 0.0)
    app._rpc_notify(watched)
    assert app._watched == (watched, sim.now)

    # a nearer node becomes the watched neighbour, with a fresh window
    app._watched = (watched, 0.0)
    nearer = NodeRef("10.9.9.9", 20000, (app.me.id - 1) % (1 << BITS))
    assert between(nearer.id, watched.id, app.me.id)
    app._rpc_notify(nearer)
    assert app.neighbours()[1] == nearer and app._watched == (nearer, sim.now)


# ------------------------------------------------------------------ scan-free
@pytest.fixture
def comparisons(monkeypatch):
    """Counts every Python-level ``NodeRef == NodeRef`` the code under test makes."""
    count = [0]
    plain = NodeRef.__eq__

    def counting(self, other):
        count[0] += 1
        return plain(self, other)

    monkeypatch.setattr(NodeRef, "__eq__", counting)
    return count


@pytest.mark.parametrize("factory, directory, pick", [
    pytest.param(chord_factory, "chord_members", "_pick_member",
                 id="chord_factory-chord_members-_pick_member"),
    pytest.param(pastry_factory, "pastry_members", "_pick_member",
                 id="pastry_factory-pastry_members-_pick_member"),
    pytest.param(swarm_factory, "swarm_members", "_pick_member",
                 id="swarm_factory-swarm_members-_pick_member"),
    pytest.param(gossip_factory, "gossip_members", "_reseed",
                 id="gossip_factory-gossip_members-_reseed"),
])
def test_picks_and_cleanup_compare_a_constant_number_of_members(
        comparisons, factory, directory, pick):
    # A filtered copy of the list compares every member to the picker on
    # every pick, and list.remove walks half of it on every cleanup.
    sim, controller, job = _deploy(factory())
    sim.run(until=20.0)
    crowd = 2000
    members = job.shared[directory]
    for index in range(crowd):
        members.add(_ref(index, bits=32))
    instances = job.live_instances()
    assert len(members) == crowd + len(instances)

    picks = 50
    comparisons[0] = 0
    for _ in range(picks):
        getattr(instances[0].app, pick)()
    assert comparisons[0] <= 4 * picks, (
        f"{comparisons[0]} reference comparisons for {picks} x {pick} among "
        f"{len(members)} members: the directory is being scanned")

    comparisons[0] = 0
    controller.kill_instances([instances[1]], reason="test")
    assert instances[1].me not in members
    assert len(members) == crowd + len(instances) - 1
    assert comparisons[0] <= 8
    # the renumbering after a removal is not a scan of comparisons either
    comparisons[0] = 0
    getattr(instances[0].app, pick)()
    assert comparisons[0] <= 4


def test_learning_a_held_reference_sorts_nothing_and_keeps_the_snapshots(monkeypatch):
    _sim, _controller, job = _deploy(pastry_factory(), nodes=1)
    app = job.live_instances()[0].app
    for index in range(40):
        app._learned(_ref(index))
    assert len(app.leaves) == pastry_module.DEFAULT_LEAF_SET_SIZE
    views = (app._sides[0], app._sides[1], app._leaf_nodes())
    far = max((_ref(i) for i in range(40, 400)),
              key=lambda n: min(ring_distance(app.me.id, n.id, BITS),
                                ring_distance(n.id, app.me.id, BITS)))

    sorts = [0]

    def counting_sorted(*args, **kwargs):
        sorts[0] += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(pastry_module, "sorted", counting_sorted, raising=False)
    for held in list(app.leaves.values()) * 5:
        app._learned(NodeRef(held.ip, held.port, held.id))
    app._learned(far)  # farther than both tails of a saturated set
    assert (far.ip, far.port) not in app.leaves
    assert sorts[0] == 0
    assert (app._sides[0], app._sides[1], app._leaf_nodes()) == views
    assert app._sides[0] is views[0] and app._sides[1] is views[1]  # not rebuilt


# ----------------------------------------------------------- order equivalence
def _leaf_set_of(monkeypatch, capacity):
    """Pastry nodes hold ``capacity`` leaves, half of them a side."""
    monkeypatch.setattr(pastry_module, "DEFAULT_LEAF_SET_SIZE", capacity)
    monkeypatch.setattr(pastry_module, "LEAF_HALF", capacity // 2)


class SortedLeafModel:
    """The re-sort-per-reference leaf set and scan-all-slots table it replaced."""

    def __init__(self, me, bits, base_bits, leaf_half):
        self.me, self.bits, self.base_bits = me, bits, base_bits
        self.digits = bits // base_bits
        self.leaf_half = leaf_half
        self.leaves = {}
        self.table = [[None] * (1 << base_bits) for _ in range(self.digits)]

    def leaf_nodes(self):
        return sorted(self.leaves.values(), key=lambda n: (n.ip, n.port))

    def cw(self):
        return sorted(self.leaves.values(),
                      key=lambda n: (ring_distance(self.me.id, n.id, self.bits),
                                     n.ip, n.port))[: self.leaf_half]

    def ccw(self):
        return sorted(self.leaves.values(),
                      key=lambda n: (ring_distance(n.id, self.me.id, self.bits),
                                     n.ip, n.port))[: self.leaf_half]

    def leaf_covers(self, key):
        cw, ccw = self.cw(), self.ccw()
        if not cw and not ccw:
            return True
        if len(self.leaves) < 2 * self.leaf_half:
            return True
        low = ccw[-1].id if ccw else self.me.id
        high = cw[-1].id if cw else self.me.id
        return between(key, low, high, include_low=True, include_high=True)

    def known_nodes(self):
        known = {(n.ip, n.port): n for n in self.leaves.values()}
        for table_row in self.table:
            for entry in table_row:
                if entry is not None:
                    known.setdefault((entry.ip, entry.port), entry)
        return [known[k] for k in sorted(known)]

    def learned(self, node):
        if node is None or node.id is None or node == self.me:
            return
        self.leaves[(node.ip, node.port)] = node
        keep = ({(n.ip, n.port) for n in self.cw()}
                | {(n.ip, n.port) for n in self.ccw()})
        if len(keep) < len(self.leaves):
            self.leaves = {k: v for k, v in self.leaves.items() if k in keep}
        row = shared_prefix_length(node.id, self.me.id, self.digits, self.base_bits)
        if row < self.digits:
            column = digit_at(node.id, row, self.digits, self.base_bits)
            if self.table[row][column] is None:
                self.table[row][column] = node

    def note_dead(self, node):
        if node == self.me:
            return
        self.leaves.pop((node.ip, node.port), None)
        for table_row in self.table:
            for column, entry in enumerate(table_row):
                if entry == node:
                    table_row[column] = None


@pytest.mark.parametrize("seed", range(12))
def test_incremental_leaf_set_matches_the_sorting_model(monkeypatch, seed):
    rng = random.Random(seed)
    _leaf_set_of(monkeypatch, rng.choice([2, 4, 8]))
    _sim, _controller, job = _deploy(pastry_factory(), nodes=1, seed=seed)
    app = job.live_instances()[0].app
    model = SortedLeafModel(app.me, BITS, BASE_BITS, pastry_module.LEAF_HALF)
    # a small pool so references recur, saturate the set and die while held;
    # one shares our identifier (no routing-table slot), one has none
    pool = [_ref(index) for index in range(rng.choice([6, 14, 40]))]
    pool.append(NodeRef("10.9.9.9", 20000, app.me.id))
    extras = [app.me, NodeRef("10.9.9.8", 20000, None)]

    for _step in range(400):
        if rng.random() < 0.75:
            node = rng.choice(pool + extras)
            app._learned(node)
            model.learned(node)
        else:
            node = rng.choice(pool + [app.me])
            app._note_dead(node)
            model.note_dead(node)
        assert set(app.leaves) == set(model.leaves)
        assert all(app.leaves[k].id == model.leaves[k].id for k in model.leaves)
        assert list(app._sides[0]) == model.cw()
        assert list(app._sides[1]) == model.ccw()
        assert list(app._leaf_nodes()) == model.leaf_nodes()
        assert list(app._known_nodes()) == model.known_nodes()
        assert app.table == model.table
        edges = [n.id + delta for n in model.leaf_nodes() for delta in (-1, 0, 1)]
        for key in edges + [rng.randrange(1 << BITS) for _ in range(8)]:
            key %= 1 << BITS
            assert app._leaf_covers(key) == model.leaf_covers(key)


class MemoFreePastry(PastryNode):
    """Pastry whose memo of folded-in references never remembers: every
    reference takes the whole path through ``_learned``."""

    _known = property(lambda self: {}, lambda self, value: None)


def _routing_view(app):
    """Everything the memo could change, by ``(ip, port, id)``."""
    def triple(node):
        return None if node is None else (node.ip, node.port, node.id)

    watched, heard = app._watched
    return {"leaves": [triple(n) for n in app.leaves.values()],
            "sides": [[triple(n) for n in side] for side in app._sides],
            "table": [[triple(n) for n in row] for row in app.table],
            "dead": list(app._dead), "probing": sorted(app._probing),
            "watched": (triple(watched), heard), "factor": app.refresh.factor,
            "reported": app.stats.deaths_reported}


@pytest.mark.parametrize("seed", range(12))
def test_the_memo_of_folded_in_references_changes_nothing(monkeypatch, seed):
    rng = random.Random(seed)
    _leaf_set_of(monkeypatch, rng.choice([2, 4, 8]))
    app, model = [
        _deploy(factory, nodes=1, seed=seed)[2].live_instances()[0].app
        for factory in (pastry_factory(), MemoFreePastry.factory())]
    me, size = app.me, 1 << BITS
    assert (model.me.ip, model.me.port, model.me.id) == (me.ip, me.port, me.id)
    # a small pool, so the very objects recur, saturate the set and die while
    # held; one shares our identifier, and one has none
    pool = [_ref(index) for index in range(rng.choice([6, 14, 40]))]
    pool.append(NodeRef("10.9.9.9", 20000, me.id))
    odd = [me, NodeRef(me.ip, me.port, me.id), NodeRef("10.9.9.8", 20000, None)]

    def reference():
        """A pooled object, mostly; else an equal copy, a dict or an odd one."""
        node, draw = rng.choice(pool), rng.random()
        if draw < 0.15:
            return NodeRef(node.ip, node.port, node.id)
        if draw < 0.2:
            return node.to_dict()
        return rng.choice(odd) if draw < 0.3 else node

    for step in range(400):
        for node in (app, model):
            node.refresh.factor = 2  # a stir reads as 1 afterwards
        action = rng.random()
        if action < 0.45:  # a reply or a request carrying a leaf set or a row
            entries = tuple(reference() for _ in range(rng.randrange(9)))
            calls = [(node._adopt, entries) for node in (app, model)]
        elif action < 0.6:  # a call from the node
            entry = reference()
            calls = [(node._heard, entry) for node in (app, model)]
        elif action < 0.8:  # a call to the node got no answer
            entry = rng.choice(pool + [me])
            calls = [(node._note_dead, entry) for node in (app, model)]
        else:  # a repair call whose death list names leaves of ours
            caller = rng.choice(pool)
            reach = (me.id - caller.id) % size
            # mostly a caller that holds us as its nearest clockwise leaf
            leaves = tuple(n for n in rng.sample(pool, rng.randrange(1, 6))
                           if rng.random() < 0.2
                           or not 0 < (n.id - caller.id) % size < reach) + (me,)
            dead = tuple((n.ip, n.port) for n in rng.sample(
                pool, rng.randrange(len(pool) // 2)) + list(app._sides[1]))
            if rng.random() < 0.5:  # the watched neighbour has been silent
                for node in (app, model):
                    node._watched = (node._watched[0], node.events.now() - 60.0)
            calls = [(node._rpc_leafset, caller, leaves, dead) for node in (app, model)]
        for call, *args in calls:
            call(*args)
        assert _routing_view(app) == _routing_view(model), f"step {step}: {calls[0]}"


@pytest.mark.parametrize("seed", range(12))
def test_directory_matches_the_list_it_replaced(seed):
    rng = random.Random(seed)
    pool = [_ref(index) for index in range(rng.choice([3, 10, 60]))]
    members, model = Membership(), []
    draws, model_draws = random.Random(seed + 100), random.Random(seed + 100)

    for _step in range(600):
        who = rng.choice(pool)
        action = rng.random()
        if action < 0.35:                    # join; a re-join goes to the end
            members.add(who)
            if who not in model:
                model.append(who)
        elif action < 0.55:                  # leave (maybe never joined)
            members.discard(who)
            if who in model:
                model.remove(who)
        else:                                # pick peers, as the apps do
            others = members.without(who)
            model_others = [m for m in model if m != who]
            assert len(others) == len(model_others)
            assert bool(others) == bool(model_others)
            if model_others:
                assert draws.choice(others) is model_draws.choice(model_others)
                count = rng.randrange(len(model_others) + 1)
                picked = draws.sample(others, count)
                assert picked == model_draws.sample(model_others, count)
            assert list(others) == model_others
        assert list(members) == model
        assert len(members) == len(model)
        assert (who in members) == (who in model)
    assert draws.random() == model_draws.random()  # same number of draws consumed


# ------------------------------------------------------- by-reference payloads
def _call(sim, app, callee, method, *args):
    box = {}

    def _gen():
        box["reply"] = yield app.rpc.call(callee.me, method, *args, timeout=5.0)

    process = Process(sim, _gen(), name="test-call")
    process.start()
    sim.run(until=sim.now + 10.0)
    process.done.result()
    return box["reply"]


def test_a_held_pastry_reply_does_not_change_when_the_callee_does(monkeypatch):
    _repair_every(monkeypatch, 2.0)
    sim, _controller, job = _deploy(pastry_factory(), nodes=10)
    sim.run(until=60.0)
    caller, callee = [i.app for i in job.live_instances()[:2]]
    leafset = _call(sim, caller, callee, "leafset", caller.me)
    dump = _call(sim, caller, callee, "table_dump")
    row_index = next(r for r, entries in enumerate(callee.table) if any(entries))
    row = _call(sim, caller, callee, "row", row_index)
    held_leafset, held_dump, held_row = list(leafset), list(dump), list(row)
    assert held_leafset and held_dump and held_row

    for node in held_leafset[:2] + held_dump[:2] + held_row[:1]:
        callee._note_dead(node)
    for index in range(100, 140):
        callee._learned(_ref(index))

    assert list(callee._rpc_leafset(caller.me)) != held_leafset
    assert list(callee._rpc_table_dump()) != held_dump
    assert list(callee._rpc_row(row_index)) != held_row
    assert list(leafset) == held_leafset
    assert list(dump) == held_dump
    assert list(row) == held_row


def test_a_held_have_reply_does_not_change_when_the_callee_fetches_more(monkeypatch):
    monkeypatch.setattr(dissemination, "POLL_INTERVAL", 0.5)
    sim, _controller, job = _deploy(swarm_factory(), nodes=4, chunks=16,
                                    chunk_size=262144)
    apps = [i.app for i in job.live_instances()]
    callee = None
    while callee is None:  # advance until some downloader is part-way through
        sim.run(until=sim.now + 0.5)
        callee = next((a for a in apps if 0 < len(a.have) < a.chunks), None)
    caller = next(a for a in apps if a is not callee)
    have = _call(sim, caller, callee, "have")
    held = list(have)
    sim.run(until=400.0)
    assert callee.complete and 0 < len(held) < callee.chunks
    assert list(have) == held


def test_a_held_fetch_reply_bitfield_does_not_change_when_the_uploader_fetches_more(
        monkeypatch):
    monkeypatch.setattr(dissemination, "POLL_INTERVAL", 0.5)
    sim, _controller, job = _deploy(swarm_factory(), nodes=4, chunks=16,
                                    chunk_size=262144)
    apps = [i.app for i in job.live_instances()]
    uploader = None
    while uploader is None:  # advance until some downloader is part-way through
        sim.run(until=sim.now + 0.5)
        uploader = next((a for a in apps if 0 < len(a.have) < a.chunks), None)
    caller = next(a for a in apps if a is not uploader)
    reply = _call(sim, caller, uploader, "fetch", [min(uploader.have)], caller.me)
    assert reply["ok"]
    have = reply["have"]
    held = list(have)
    sim.run(until=400.0)
    assert uploader.complete and 0 < len(held) < uploader.chunks
    assert list(have) == held
