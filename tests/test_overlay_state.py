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

from repro.apps import pastry as pastry_module
from repro.apps.chord import ChordNode, chord_factory
from repro.apps.dissemination import SwarmNode, swarm_factory
from repro.apps.gossip import GossipNode, gossip_factory
from repro.apps.pastry import PastryNode, pastry_factory
from repro.core.jobs import JobSpec
from repro.lib.misc import Membership
from repro.lib.ring import (
    between,
    digit_at,
    hash_key,
    ring_distance,
    shared_prefix_length,
)
from repro.net.address import NodeRef
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import substream
from test_memory import no_collector  # noqa: F401 - fixture: gc.disable() around the test

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
    assert len(app.leaves) == app.leaf_set_size
    views = (app._cw(), app._ccw(), app._leaf_nodes())
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
    assert (app._cw(), app._ccw(), app._leaf_nodes()) == views
    assert app._cw() is views[0] and app._ccw() is views[1]  # not rebuilt


# ----------------------------------------------------------- order equivalence
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
def test_incremental_leaf_set_matches_the_sorting_model(seed):
    rng = random.Random(seed)
    leaf_set_size = rng.choice([2, 4, 8])
    _sim, _controller, job = _deploy(pastry_factory(), nodes=1, seed=seed,
                                     leaf_set_size=leaf_set_size)
    app = job.live_instances()[0].app
    model = SortedLeafModel(app.me, BITS, BASE_BITS, app.leaf_half)
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
        assert list(app._cw()) == model.cw()
        assert list(app._ccw()) == model.ccw()
        assert list(app._leaf_nodes()) == model.leaf_nodes()
        assert list(app._known_nodes()) == model.known_nodes()
        assert app.table == model.table
        edges = [n.id + delta for n in model.leaf_nodes() for delta in (-1, 0, 1)]
        for key in edges + [rng.randrange(1 << BITS) for _ in range(8)]:
            key %= 1 << BITS
            assert app._leaf_covers(key) == model.leaf_covers(key)


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
def _call(sim, app, callee, method):
    box = {}

    def _gen():
        box["reply"] = yield app.rpc.call(callee.me, method, timeout=5.0)

    process = Process(sim, _gen(), name="test-call")
    process.start()
    sim.run(until=sim.now + 10.0)
    process.done.result()
    return box["reply"]


def test_a_held_pastry_reply_does_not_change_when_the_callee_does():
    sim, _controller, job = _deploy(pastry_factory(), nodes=10, repair_interval=2.0)
    sim.run(until=60.0)
    caller, callee = [i.app for i in job.live_instances()[:2]]
    leafset = _call(sim, caller, callee, "leafset")
    dump = _call(sim, caller, callee, "table_dump")
    held_leafset, held_dump = list(leafset), list(dump)
    assert held_leafset and held_dump

    for node in held_leafset[:2] + held_dump[:2]:
        callee._note_dead(node)
    for index in range(100, 140):
        callee._learned(_ref(index))

    assert list(callee._rpc_leafset()) != held_leafset
    assert list(callee._rpc_table_dump()) != held_dump
    assert list(leafset) == held_leafset
    assert list(dump) == held_dump


def test_a_held_have_reply_does_not_change_when_the_callee_fetches_more():
    sim, _controller, job = _deploy(swarm_factory(), nodes=4, chunks=16,
                                    chunk_size=262144, poll_interval=0.5)
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
