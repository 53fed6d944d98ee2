"""Chord: ring formation, lookup correctness, and recovery under churn."""

import math

import pytest

from matrix_latency import MatrixLatency
from repro.apps import chord, harness
from repro.apps.chord import (CHECK_PREDECESSOR_INTERVAL, SUCCESSOR_LIST_SIZE, ChordNode,
                              LookupFailed, chord_factory, expected_owner)
from repro.core.jobs import JobSpec
from repro.lib.ring import ring_add, ring_distance
from repro.lib.rpc import RpcError, RpcService
from repro.net.address import NodeRef
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.futures import FutureCancelled
from repro.sim.kernel import Simulator
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import substream
from test_overlay_state import _deadline, _walking
from test_pastry import _dropping_first

BITS = 16
#: the most nodes a far finger is chosen from (``chord.FINGER_CANDIDATES``)
CANDIDATES = 6


@pytest.fixture(autouse=True)
def _short_periods(monkeypatch):
    """The tests' rings stabilize and fix fingers every 2 s."""
    monkeypatch.setattr(chord, "STABILIZE_INTERVAL", 2.0)
    monkeypatch.setattr(chord, "FIX_FINGERS_INTERVAL", 2.0)


def _module_periods(monkeypatch):
    """The periods a deployed ring runs at."""
    monkeypatch.setattr(chord, "STABILIZE_INTERVAL", 5.0)
    monkeypatch.setattr(chord, "FIX_FINGERS_INTERVAL", 4.0)


def _deploy(nodes=10, seed=0, churn_script=None, latency=None, slots=3, **options):
    sim = Simulator(seed)
    network = Network(sim, latency=latency or ConstantLatency(0.010), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        controller.register_daemon(
            Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=slots)))
    spec = JobSpec(
        name="chord",
        app_factory=chord_factory(),
        instances=nodes,
        churn_script=churn_script,
        options={"bits": BITS, "join_window": 10.0, **options},
    )
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def _members(job):
    return sorted(job.shared["chord_members"], key=lambda m: m.id)


def _expected_owner(job, key):
    return min(_members(job),
               key=lambda m: (ring_distance(key, m.id, BITS), m.ip, m.port))


def _run_lookup(sim, app, key, patience=60.0):
    box = {}

    def _gen():
        owner, hops = yield from app.lookup(key)
        box["owner"], box["hops"] = owner, hops

    process = Process(sim, _gen(), name="test-lookup")
    process.start()
    sim.run(until=sim.now + patience)
    assert process.done.done(), "lookup did not terminate"
    process.done.result()  # re-raise lookup failures
    return box["owner"], box["hops"]


def _live_apps(job):
    return [i.app for i in job.live_instances() if i.app.joined]


def test_ring_converges_to_the_sorted_id_order():
    sim, _controller, job = _deploy(nodes=10)
    sim.run(until=60.0)
    members = _members(job)
    assert len(members) == 10
    apps = {a.me.id: a for a in _live_apps(job)}
    for index, member in enumerate(members):
        expected_successor = members[(index + 1) % len(members)]
        assert apps[member.id].successors[0].id == expected_successor.id
        expected_predecessor = members[index - 1]
        assert apps[member.id].predecessor.id == expected_predecessor.id
    assert harness.consistency(job) == 1.0


def test_lookups_find_the_correct_owner_from_every_node():
    sim, _controller, job = _deploy(nodes=8)
    sim.run(until=60.0)
    keys = [0, 1, 17, 4096, 65535, 30000]
    for app in _live_apps(job):
        for key in keys:
            owner, hops = _run_lookup(sim, app, key)
            expected = _expected_owner(job, key)
            assert (owner.ip, owner.port) == (expected.ip, expected.port), (
                f"lookup({key}) from {app.me} returned {owner}, wanted {expected}")
            assert hops <= app.max_hops


def test_lookup_of_a_nodes_own_id_returns_that_node():
    sim, _controller, job = _deploy(nodes=6)
    sim.run(until=60.0)
    apps = _live_apps(job)
    target = apps[2]
    owner, _hops = _run_lookup(sim, apps[0], target.me.id)
    assert (owner.ip, owner.port) == (target.me.ip, target.me.port)


def test_ring_recovers_and_routes_correctly_after_crashes():
    sim, controller, job = _deploy(nodes=10, churn_script="at 70s crash 30%\n")
    sim.run(until=60.0)
    assert job.live_count == 10
    sim.run(until=140.0)  # crash at 70s, then re-stabilization time
    assert job.live_count == 7
    members = _members(job)
    assert len(members) == 7
    rng_keys = [3, 900, 12345, 54321, 65000]
    for app in _live_apps(job):
        for key in rng_keys:
            owner, _hops = _run_lookup(sim, app, key)
            expected = _expected_owner(job, key)
            assert (owner.ip, owner.port) == (expected.ip, expected.port)


def test_churned_in_nodes_integrate_into_the_ring():
    sim, _controller, job = _deploy(nodes=6, churn_script="at 70s join 3\n")
    sim.run(until=150.0)
    assert job.live_count == 9
    members = _members(job)
    assert len(members) == 9
    # A key owned by a newcomer must resolve to it from an old node.
    newcomers = [m for m in members
                 if m.id not in {a.me.id for a in _live_apps(job)[:1]}]
    assert newcomers
    app = _live_apps(job)[0]
    for member in members:
        owner, _hops = _run_lookup(sim, app, member.id)
        assert (owner.ip, owner.port) == (member.ip, member.port)


def test_same_seed_builds_the_same_ring():
    def fingerprint(seed):
        sim, _controller, job = _deploy(nodes=8, seed=seed)
        sim.run(until=60.0)
        return tuple((m.ip, m.port, m.id) for m in _members(job))

    assert fingerprint(5) == fingerprint(5)


# ------------------------------------------------------ maintenance traffic
def _converged(nodes=10, until=60.0, **options):
    sim, controller, job = _deploy(nodes=nodes, **options)
    sim.run(until=until)
    assert harness.consistency(job) == 1.0
    return sim, controller, job


def _run_until(sim, condition, deadline, step=0.05):
    """Advance in small slices until ``condition()``; the time it held, or None."""
    while sim.now < deadline:
        if condition():
            return sim.now
        sim.run(until=sim.now + step)
    return sim.now if condition() else None


def test_ring_consistency_sees_a_wrong_pointer():
    sim, _controller, job = _converged(nodes=8)
    apps = _live_apps(job)
    apps[0].successors = [apps[0].me]
    assert harness.consistency(job) == 7 / 8


def _counting_calls(monkeypatch):
    """Count the calls every node sends, by method; a predecessor check
    (``RpcService.ping``) counts as ``ping``.  Returns the counts and the
    ``__ping__`` calls sent to a host the caller had already timed."""
    sent, timed = {}, []
    calling, pinging = RpcService.a_call, RpcService.ping

    def counting(service, dst, method, *args, **kwargs):
        sent[method] = sent.get(method, 0) + 1
        if method == "__ping__" and dst.ip in service.rto:
            timed.append(dst)
        return calling(service, dst, method, *args, **kwargs)

    def checking(service, dst, timeout=None):
        sent["ping"] = sent.get("ping", 0) + 1
        return pinging(service, dst, timeout)

    monkeypatch.setattr(RpcService, "a_call", counting)
    monkeypatch.setattr(RpcService, "call", counting)
    monkeypatch.setattr(RpcService, "ping", checking)
    return sent, timed


def test_a_quiet_ring_spends_one_rpc_per_stabilize_round_and_never_pings(monkeypatch):
    sim, _controller, job = _converged(nodes=16, until=80.0)
    apps = _live_apps(job)
    sim.run(until=sim.now + 2.5)  # one more round each: every list is full
    rounds = sum(app.stats.maintenance_rounds for app in apps)
    held = [app._last_reply for app in apps]
    sent, _timed = _counting_calls(monkeypatch)
    replies, reads = [], []
    for app in apps:
        def serving(node, *seen, serve=app._rpc_stabilize):
            replies.append(serve(node, *seen))
            return replies[-1]

        monkeypatch.setitem(app.rpc._handlers, "stabilize", serving)
    reading = ChordNode._read_fingers
    monkeypatch.setattr(ChordNode, "_read_fingers",
                        lambda node: reads.append(node) or reading(node))
    sim.run(until=sim.now + 100.0)
    rounds = sum(app.stats.maintenance_rounds for app in apps) - rounds
    assert rounds >= 16 * 100.0 / 2.5  # every node stabilized all along
    assert sent["stabilize"] == rounds
    assert not {"get_predecessor", "successor_list", "notify", "ping", "__ping__"} & set(sent)
    # a lookup's calls are the forwarded walk's hops (its claim and answer
    # are one-way sends); a kept far finger is checked by ``successors``
    assert set(sent) <= {"stabilize", "walk", "successors"}
    assert harness.consistency(job) == 1.0
    # nothing changed: every reply is the bare stamp the caller sent, and no
    # round merged a list or read the fingers again
    assert len(replies) == rounds
    assert all(type(reply) is tuple for reply in replies)
    assert all(app._last_reply is before for app, before in zip(apps, held))
    assert reads == []


def _stabilize_call(sim, app, node, seen):
    """What ``node`` answers ``app``'s stabilize call carrying ``seen``; the
    simulation runs only until the answer is in."""
    answer = app.rpc.call(node, "stabilize", app.me, *seen, timeout=1.0)
    _run_until(sim, answer.done, sim.now + 1.0, step=0.001)
    return answer.result()


def test_a_direct_write_to_the_predecessor_shows_in_the_next_reply():
    sim, _controller, job = _converged(nodes=10)
    apps = {a.me: a for a in _live_apps(job)}
    app = _live_apps(job)[0]
    successor = app.successors[0]
    stamp = _stabilize_call(sim, app, successor, ())["stamp"]
    assert _stabilize_call(sim, app, successor, stamp) == stamp  # nothing new
    ghost = NodeRef(app.me.ip, app.me.port + 1000, id=ring_add(app.me.id, 1, BITS))
    apps[successor].predecessor = ghost  # no handler, no bump by hand
    reply = _stabilize_call(sim, app, successor, stamp)
    assert reply["predecessor"] == ghost and reply["stamp"] != stamp
    assert _stabilize_call(sim, app, successor, reply["stamp"]) == reply["stamp"]
    # so does a list written whole, even one equal to the old
    apps[successor].successors = list(apps[successor].successors)
    assert type(_stabilize_call(sim, app, successor, reply["stamp"])) is dict


def test_a_replacement_at_a_reused_endpoint_gets_the_full_state_whatever_its_version():
    # One slot per host: the replacement lands on the endpoint it replaces.
    sim, controller, job = _deploy(nodes=10, slots=1)
    sim.run(until=60.0)
    app = _live_apps(job)[0]
    peer, heard, _merged = app._last_reply
    assert peer == app.successors[0]
    (victim,) = [i for i in job.live_instances() if i.app.me == peer]
    controller.kill_instance(victim, reason="replace")
    sim.run(until=sim.now + 1.0)
    (fresh,) = controller.start_instances(job, 1)
    _run_until(sim, lambda: fresh.app is not None, sim.now + 5.0)
    replacement = fresh.app
    assert replacement.me == peer and fresh.instance_id != victim.instance_id
    # The new process changes its state once per call, so its version counts
    # through the one we hold: whatever it reaches, we get the full state.
    _incarnation, version = heard["stamp"]
    assert version < 32
    for change in range(32):
        ghost = NodeRef(peer.ip, peer.port + 1000 + change, id=ring_add(peer.id, -1, BITS))
        replacement.predecessor = ghost  # nearer than we are: kept
        reply = replacement._rpc_stabilize(app.me, *heard["stamp"])
        assert type(reply) is dict and reply["predecessor"] is ghost


def test_fingers_read_off_the_successor_list_are_the_true_owners():
    sim, _controller, job = _converged(nodes=12)
    read_off = 0
    for app in _live_apps(job):
        app.fingers = [None] * BITS
        app._read_fingers()  # what every stabilize round ends with: no RPC
        read_off += app._covered
        for index in range(BITS):
            start = ring_add(app.me.id, 1 << index, BITS)
            if index < app._covered:
                assert app.fingers[index] == expected_owner(job, start, BITS)
            else:  # beyond the list's reach: the far-finger refresh's lookup
                assert app.fingers[index] is None
                assert ring_distance(app.me.id, app.successors[-1].id, BITS) < 1 << index
    assert read_off >= 12 * 8  # most of a 12-node ring's fingers


def test_a_quiet_ring_backs_its_far_finger_lookups_off_and_never_pings(monkeypatch):
    sim, _controller, job = _converged(nodes=16)
    apps = _live_apps(job)
    assert any(app._covered < BITS for app in apps)  # some fingers are far
    assert all(None not in app.fingers for app in apps)  # and every one is set
    sent, _timed = _counting_calls(monkeypatch)
    looked_up = []
    looking_up = ChordNode.lookup

    def recording(node, key, maintenance=False):
        looked_up.append((node, key))
        return looking_up(node, key, maintenance)

    monkeypatch.setattr(ChordNode, "lookup", recording)
    checks = []
    for _half in range(2):
        checked = sent.get("successors", 0)
        sim.run(until=sim.now + 150.0)
        checks.append(sent.get("successors", 0) - checked)
        assert harness.consistency(job) == 1.0
    assert not {"__ping__", "ping"} & set(sent)
    # a finger kept in its interval is checked, less and less often, and
    # never looked up again; only an interval that holds no node is, its
    # finger the first node past it
    assert checks[0] > checks[1] > 0
    for node, start in looked_up:
        width = ring_distance(node.me.id, start, BITS)
        assert width == 1 << (width.bit_length() - 1) >= 1 << node._covered
        assert ring_distance(start, expected_owner(job, start, BITS).id, BITS) >= width
    assert all(app.refresh.factor == harness.BACKOFF_CAP for app in apps)


def test_a_dead_finger_resets_the_back_off_of_the_far_finger_refresh():
    sim, controller, job = _converged(nodes=16, until=80.0)
    sim.run(until=500.0)
    longest = BITS * 2.0 * 1.25  # a far finger's round-robin wait at factor 1
    app, index = next(
        (app, index) for app in _live_apps(job) for index in range(app._covered, BITS)
        if app.fingers[index] not in (*app.successors, app.predecessor)
        and app.refresh._current.time > sim.now + 2 * longest)
    assert app.refresh.factor == harness.BACKOFF_CAP
    (victim,) = [i for i in job.live_instances() if i.app.me == app.fingers[index]]
    controller.kill_instance(victim, failed=True)
    start = ring_add(app.me.id, 1 << index, BITS)
    noticed = app.stats.dead_nodes_noticed
    # a lookup of the finger's key ends in a claim to the dead owner
    Process(sim, app.lookup(start), name="test-lookup").start()
    reset = _run_until(sim, lambda: app.refresh.factor == 1, sim.now + 30.0)
    assert reset is not None and app.stats.dead_nodes_noticed == noticed + 1
    # and the refresh is brought forward to its factor-1 wait: it repairs the
    # finger long before the factor-8 run would have come up
    repaired = _run_until(sim, lambda: app.fingers[index] == expected_owner(
        job, start, BITS), reset + longest + 5.0)
    assert repaired is not None


def _drive(sim, generator, patience=30.0):
    """Run one coroutine of a node to its end; its result."""
    process = Process(sim, generator, name="test-coroutine")
    process.start()
    sim.run(until=sim.now + patience)
    assert process.done.done(), "the coroutine did not end"
    return process.done.result()


def _candidates(job, app, index):
    """The nodes finger ``index`` is chosen from: the owner of its start and
    the members after it in its interval, never us, at most
    ``CANDIDATES``; and the start."""
    start = ring_add(app.me.id, 1 << index, BITS)
    members = _members(job)
    owner = expected_owner(job, start, BITS)
    at = members.index(owner)
    candidates = [owner]
    for step in range(1, CANDIDATES):
        node = members[(at + step) % len(members)]
        if node == app.me or ring_distance(start, node.id, BITS) >= 1 << index:
            break
        candidates.append(node)
    return candidates, start


def test_a_far_finger_is_the_candidate_of_its_interval_with_the_lowest_rto(monkeypatch):
    sent, timed = _counting_calls(monkeypatch)
    draw = substream(7, "delays")
    hosts = [f"10.0.0.{i + 1}" for i in range(16)]
    latency = MatrixLatency({(a, b): draw.uniform(0.02, 0.25)
                             for n, a in enumerate(hosts) for b in hosts[n + 1:]})
    sim, _controller, job = _deploy(nodes=16, latency=latency)
    # the node right after the first six of one node's widest interval — a
    # far one: its successor list does not reach it — is the nearest to it,
    # so a seventh candidate would be chosen
    apps = [instance.app for instance in job.live_instances()]
    half = 1 << (BITS - 1)
    for app in apps:
        ring = sorted((ring_distance(app.me.id, other.me.id, BITS), other.me)
                      for other in apps if other is not app)
        far = [node for distance, node in ring if distance >= half]
        if ring[SUCCESSOR_LIST_SIZE - 1][0] < half and len(far) > CANDIDATES:
            seventh = far[CANDIDATES]
            break
    else:
        raise AssertionError("no node has seven nodes in its far widest interval")
    for host in hosts:
        latency.delays.pop((host, app.me.ip), None)
        latency.delays[(app.me.ip, host)] = 0.02 if host == seventh.ip else 0.15
    sim.run(until=120.0)
    assert harness.consistency(job) == 1.0
    assert sent["__ping__"] > 0 and timed == []  # a probe only times a new host
    chosen = differs = 0
    for app in _live_apps(job):
        for index in range(app._covered, BITS):
            candidates, start = _candidates(job, app, index)
            # what the refresh set: a node of the interval, within the first six
            assert app.fingers[index] in candidates
            # chosen again now, with every candidate's round trip known
            finger = _drive(sim, app._nearest(candidates[0], start, 1 << index))
            rto = [app.rpc.rto.get(node.ip, math.inf) for node in candidates]
            assert finger == candidates[rto.index(min(rto))]
            chosen += 1
            differs += finger != candidates[0]
    assert timed == []
    assert chosen >= 16 and differs > 0  # the owner is not always the nearest


def _kept_far_finger(job):
    """A node, a far finger it keeps in its interval that is no neighbour of
    its, and that finger's instance; the node's refresh is stopped, so that
    the test runs its rounds."""
    for app in _live_apps(job):
        for index in range(app._covered, BITS):
            finger = app.fingers[index]
            start = ring_add(app.me.id, 1 << index, BITS)
            if (ring_distance(start, finger.id, BITS) < 1 << index
                    and finger not in (*app.successors, app.predecessor)):
                app.refresh.cancel()
                (instance,) = [i for i in job.live_instances() if i.app.me == finger]
                return app, index, instance
    raise AssertionError("no kept far finger")


def test_a_kept_finger_that_dies_is_purged_and_the_next_round_chooses_again():
    sim, controller, job = _converged(nodes=16)
    app, index, victim = _kept_far_finger(job)
    controller.kill_instance(victim, failed=True)
    noticed, looked_up = app.stats.dead_nodes_noticed, app.stats.lookups_started
    app._next_finger = index
    _drive(sim, app._fix_fingers())
    assert app.fingers[index] is None
    assert app.stats.dead_nodes_noticed == noticed + 1
    assert app.stats.lookups_started == looked_up
    app._next_finger = index
    _drive(sim, app._fix_fingers())
    assert app.stats.lookups_started == looked_up + 1
    assert app.fingers[index] in _candidates(job, app, index)[0]


def test_a_kept_finger_whose_endpoint_has_not_joined_is_cleared_not_counted_dead():
    sim, _controller, job = _converged(nodes=16)
    app, index, finger = _kept_far_finger(job)
    finger.app.joined = False  # a new process at the endpoint, not in the ring yet
    app.refresh.factor = harness.BACKOFF_CAP
    noticed = app.stats.dead_nodes_noticed
    app._next_finger = index
    _drive(sim, app._fix_fingers())
    assert app.fingers[index] is None
    assert app.stats.dead_nodes_noticed == noticed
    assert app.refresh.factor == 1  # the refresh is stirred


def test_a_crashed_predecessor_is_dropped_once_silent_for_one_check_period(monkeypatch):
    _module_periods(monkeypatch)
    sim, controller, job = _converged(nodes=10)
    app = _live_apps(job)[0]
    predecessor = app.predecessor
    (victim,) = [i for i in job.live_instances() if i.app.me == predecessor]
    heard = app._watched[1]
    assert sim.now - heard < chord.STABILIZE_INTERVAL * 1.25  # it calls us
    controller.kill_instance(victim, failed=True)
    bound = (heard + CHECK_PREDECESSOR_INTERVAL
             + 1.25 * CHECK_PREDECESSOR_INTERVAL + harness.HOP_TIMEOUT)
    dropped = _run_until(sim, lambda: app.predecessor != predecessor, bound + 30.0)
    assert dropped is not None and dropped <= bound


def test_a_crashed_successor_is_replaced_by_the_next_list_entry(monkeypatch):
    _module_periods(monkeypatch)
    sim, controller, job = _converged(nodes=10)
    app = _live_apps(job)[0]
    successor, next_entry = app.successors[:2]
    (victim,) = [i for i in job.live_instances() if i.app.me == successor]
    crashed = sim.now
    controller.kill_instance(victim, failed=True)
    replaced = _run_until(sim, lambda: app.successors[0] != successor,
                          crashed + 30.0)
    assert replaced is not None and replaced <= crashed + 2 * chord.STABILIZE_INTERVAL
    assert app.successors[0] == next_entry


@pytest.mark.parametrize("seed", [0, 3])
def test_a_crash_burst_heals_within_the_predecessor_check_bound(monkeypatch, seed):
    _module_periods(monkeypatch)
    sim, _controller, job = _deploy(nodes=40, seed=seed,
                                    churn_script="at 100s crash 10%\n")
    sim.run(until=99.0)
    assert harness.consistency(job) == 1.0
    crashed = _run_until(sim, lambda: job.live_count == 36, 110.0)
    assert crashed is not None and harness.consistency(job) < 1.0
    app = _live_apps(job)[0]
    # the bound of the three fixed-period tasks this replaces: a dead
    # predecessor dropped within a silent period plus a 1.25-period check and
    # the ping, then the new predecessor's stabilize call
    bound = (2.25 * CHECK_PREDECESSOR_INTERVAL + harness.HOP_TIMEOUT
             + 1.25 * chord.STABILIZE_INTERVAL)
    healed = _run_until(sim, lambda: harness.consistency(job) == 1.0, crashed + 60.0)
    assert healed is not None and healed <= crashed + bound


def test_a_walked_candidate_that_does_not_answer_leaves_the_last_answering_node(
        monkeypatch):
    _module_periods(monkeypatch)
    sim, _controller, job = _converged(nodes=10)
    apps = {a.me: a for a in _live_apps(job)}
    app = _live_apps(job)[0]
    successor = app.successors[0]
    # A node between us and our successor that announced itself to the
    # successor and died before our walk reached it: no listener answers.
    ghost = NodeRef(app.me.ip, app.me.port + 1000,
                    id=ring_add(app.me.id, 1, BITS))
    apps[successor].predecessor = ghost
    noticed = app.stats.dead_nodes_noticed
    rounds = app.stats.maintenance_rounds
    _run_until(sim, lambda: app.stats.maintenance_rounds > rounds, sim.now + 10.0)
    sim.run(until=sim.now + 2 * harness.HOP_TIMEOUT * (1 + harness.HOP_RETRIES) + 0.5)
    assert app.stats.dead_nodes_noticed == noticed + 1  # the ghost, by its timeout
    assert app.successors[0] == successor
    assert ghost not in app.successors


def _hop_waits(monkeypatch, app):
    """``(method, timeout)`` of the ``step`` and ``claim`` calls ``app`` sends
    from now on (the iterative walk's, which recovers a lookup)."""
    waits = []
    calling = RpcService.a_call

    def recording(service, dst, method, *args, **kwargs):
        if service is app.rpc and method in ("step", "claim"):
            waits.append((method, kwargs["timeout"]))
        return calling(service, dst, method, *args, **kwargs)

    monkeypatch.setattr(RpcService, "call", recording)
    return waits


def test_a_hop_waits_its_host_rto_and_never_longer_than_hop_timeout(monkeypatch):
    sim, _controller, job = _converged(nodes=10)
    app = _live_apps(job)[0]
    rpc = app.rpc
    waits = _hop_waits(monkeypatch, app)

    def walk(key, rto, default):
        rpc.rto.clear()
        rpc.rto.update(rto)
        rpc.rto_default = default
        del waits[:]
        yield from app._walk(key)

    inf = float("inf")
    # the successor's id is a local step and a claim to the successor; the
    # predecessor's id starts with a step to the closest preceding finger
    for key, method in ((app.successors[0].id, "claim"), (app.predecessor.id, "step")):
        first = app._rpc_step(key, [])["node"]
        for rto, default, expected in (
                ({first.ip: 0.25}, 0.3, 0.25),  # the host's own
                ({}, 0.3, 0.3),  # a host not heard from: the service-wide
                ({first.ip: 10.0}, 0.3, harness.HOP_TIMEOUT),  # at most HOP_TIMEOUT
                ({}, inf, harness.HOP_TIMEOUT)):  # no sample yet: HOP_TIMEOUT
            walker = Process(sim, walk(key, rto, default), name="test-lookup")
            walker.start()
            sim.run(until=sim.now + 5.0)
            walker.done.result()
            assert waits[0] == (method, expected)
    assert app.stats.hops_suspected == 0


def test_a_hop_that_misses_the_full_hop_timeout_is_purged_without_a_confirming_call(
        monkeypatch):
    sim, controller, job = _converged(nodes=10)
    app = _live_apps(job)[0]
    successor = app.successors[0]
    (victim,) = [i for i in job.live_instances() if i.app.me == successor]
    controller.kill_instance(victim, failed=True)
    waits = _hop_waits(monkeypatch, app)
    noticed = app.stats.dead_nodes_noticed

    def walk():
        app.rpc.rto.clear()
        app.rpc.rto_default = float("inf")
        return (yield from app._walk(successor.id))

    walker = Process(sim, walk(), name="test-lookup")
    walker.start()
    sim.run(until=sim.now + (1 + harness.HOP_RETRIES) * harness.HOP_TIMEOUT + 1.0)
    assert walker.done.result()[0] != successor
    assert waits[0] == ("claim", harness.HOP_TIMEOUT)
    assert app.stats.hops_suspected == app.stats.suspects_dead == 0
    assert app.stats.dead_nodes_noticed > noticed
    assert successor not in app.successors


# ------------------------------------------------------- the forwarded walk
def _route(apps, origin, key):
    """What the forwarded walk of ``key`` from ``origin`` does on a quiet
    ring, read off the steps with no message: the nodes that step it and the
    owner the last one names."""
    by_ref = {app.me: app for app in apps}
    path = [origin]
    while True:
        response = path[-1]._rpc_step(key, [])
        if response["done"]:
            return path, response["node"]
        path.append(by_ref[response["node"]])


def _far_key(apps, origin, remote_hops):
    """A key whose walk from ``origin`` steps at ``remote_hops`` other nodes
    at least, with its path and owner."""
    for key in range(1, 1 << BITS, 97):
        path, owner = _route(apps, origin, key)
        if len(path) > remote_hops:
            return key, path, owner
    raise AssertionError("no key that far")


def _lookup_messages(monkeypatch):
    """``(sender, method)`` of every lookup message any node sends from now
    on: the forwarded walk's calls and one-way sends, the iterative walk's
    calls."""
    sent = []
    calling, sending = RpcService.a_call, RpcService.send

    def recording_call(service, dst, method, *args, **kwargs):
        if method in ("walk", "step", "claim"):
            sent.append((service.socket.local, method))
        return calling(service, dst, method, *args, **kwargs)

    def recording_send(service, dst, method, *args):
        sent.append((service.socket.local, method))
        return sending(service, dst, method, *args)

    monkeypatch.setattr(RpcService, "a_call", recording_call)
    monkeypatch.setattr(RpcService, "call", recording_call)
    monkeypatch.setattr(RpcService, "send", recording_send)
    return sent


def test_a_lost_forward_is_sent_again_by_the_hop_after_its_rto_and_the_origin_sends_nothing(
        monkeypatch):
    sim, _controller, job = _converged(nodes=16)
    apps = _live_apps(job)
    origin = apps[0]
    key, path, _owner = _far_key(apps, origin, 2)
    hop, following = path[1], path[2]
    lost = _dropping_first(monkeypatch, hop.me, following.me, "walk")
    sent = _lookup_messages(monkeypatch)
    retries = hop.rpc.stats.retries
    started = sim.now
    box = _walking(sim, origin, key)
    _run_until(sim, lambda: "result" in box, started + 5.0, step=0.01)
    assert box["result"][0] == _expected_owner(job, key)
    assert lost == [started + 0.010]  # one leg after the start
    assert hop.rpc.stats.retries == retries + 1
    # the origin sent its first forward and nothing more: no second walk
    assert [method for sender, method in sent if sender == origin.me.address] == ["walk"]
    assert origin.stats.walks_recovered == 0
    # the hop waited its RTO to the next hop (the floor here), not HOP_TIMEOUT
    assert box["at"] - started < 0.020 * len(path) + 0.3


def test_a_retransmitted_walk_is_passed_on_once(monkeypatch):
    sim, _controller, job = _converged(nodes=16)
    apps = _live_apps(job)
    origin = apps[0]
    key, path, _owner = _far_key(apps, origin, 2)
    hop, following = path[1], path[2]
    # the following node's acknowledgement of the walk is lost: the hop sends
    # the walk again, and the following node gets it twice
    acks = []
    send = Network.send

    def losing_ack(network, src, dst, payload, size):
        if (not acks and (src.ip, src.port) == (following.me.ip, following.me.port)
                and (dst.ip, dst.port) == (hop.me.ip, hop.me.port)
                and type(payload) is dict and payload.get("rpc") == "reply"
                and payload.get("ok") and payload.get("value") is None):
            acks.append(network.sim.now)
            return
        send(network, src, dst, payload, size)

    monkeypatch.setattr(Network, "send", losing_ack)
    sent = _lookup_messages(monkeypatch)
    retries = hop.rpc.stats.retries
    box = _walking(sim, origin, key)
    _run_until(sim, lambda: "result" in box, sim.now + 5.0, step=0.01)
    sim.run(until=sim.now + 2 * harness.HOP_TIMEOUT)  # past the retransmission
    assert acks and hop.rpc.stats.retries == retries + 1
    assert box["result"][0] == _expected_owner(job, key)
    # it passed the walk on once: the second copy was dropped
    assert len([method for sender, method in sent
                if sender == following.me.address]) == 1
    assert origin.stats.walks_recovered == 0


def test_an_answer_for_another_key_is_dropped():
    sim, _controller, job = _converged(nodes=16)
    apps = _live_apps(job)
    origin = apps[0]
    key, _path, _owner = _far_key(apps, origin, 2)
    box = _walking(sim, origin, key)
    sim.run(until=sim.now + 0.001)  # the walk has left the origin
    (lookup_id,) = origin._lookups
    # the answer to the same lookup id of an earlier process at this endpoint
    origin._rpc_found(lookup_id, (key + 1) % (1 << BITS), apps[1].me, 1)
    assert lookup_id in origin._lookups and "result" not in box
    _run_until(sim, lambda: "result" in box, sim.now + 5.0, step=0.01)
    assert box["result"][0] == _expected_owner(job, key)


def test_a_walk_that_spends_its_hop_budget_fails_at_once():
    sim, _controller, job = _converged(nodes=16)
    apps = _live_apps(job)
    origin = apps[0]
    key, _path, _owner = _far_key(apps, origin, 3)
    origin.max_hops = 2  # the budget travels with the walk
    box = {}

    def _gen():
        try:
            yield from origin.lookup(key)
        except LookupFailed as exc:
            box["error"] = exc
        box["at"] = sim.now

    started = sim.now
    Process(sim, _gen(), name="test-lookup").start()
    _run_until(sim, lambda: "at" in box, started + 5.0, step=0.01)
    assert isinstance(box.get("error"), LookupFailed)
    # the node that spent the budget answered: no deadline, no iterative walk
    assert box["at"] - started < 0.1
    assert origin.stats.walks_recovered == 0 and not origin._lookups


def test_a_walk_lost_with_the_hop_that_held_it_is_recovered_by_the_iterative_walk(
        monkeypatch):
    sim, controller, job = _converged(nodes=16)
    apps = _live_apps(job)
    origin = apps[0]
    key, path, _owner = _far_key(apps, origin, 2)
    hop, following = path[1], path[2]
    # the hop's forward is lost, and the hop dies before it sends it again
    lost = _dropping_first(monkeypatch, hop.me, following.me, "walk")
    started = sim.now
    box = _walking(sim, origin, key)
    _run_until(sim, lambda: bool(lost), started + 1.0, step=0.001)
    controller.kill_instance(hop.instance, failed=True)
    deadline = _deadline(origin)
    # longer than one hop's retransmissions by a path of round trips
    assert deadline > (1 + harness.HOP_RETRIES) * harness.HOP_TIMEOUT + 2 * 0.020
    _run_until(sim, lambda: "result" in box, started + deadline + 30.0)
    assert box["result"][0] == _expected_owner(job, key)
    assert origin.stats.walks_recovered == 1
    # the iterative walk ran once the deadline passed, and answered at once
    assert deadline < box["at"] - started < deadline + 1.0
    assert not origin._lookups


def test_a_walk_run_for_a_joiner_counts_as_maintenance_wherever_it_sends(monkeypatch):
    sim, _controller, job = _converged(nodes=16)
    apps = _live_apps(job)
    bootstrap = apps[0]
    key, _path, _owner = _far_key(apps, bootstrap, 2)
    sent = _lookup_messages(monkeypatch)
    calling = RpcService.a_call  # the recorder: count stabilize rounds and pings too
    maintenance_calls = []

    def counting(service, dst, method, *args, **kwargs):
        if method in ("stabilize", "__ping__"):
            maintenance_calls.append(method)
        return calling(service, dst, method, *args, **kwargs)

    monkeypatch.setattr(RpcService, "a_call", counting)
    monkeypatch.setattr(RpcService, "call", counting)
    before = sum(app.stats.maintenance_rpcs for app in apps)
    # what a joiner's find_successor call runs at the node it asks
    walk = Process(sim, bootstrap._rpc_find_successor(key), name="test-join-walk")
    walk.start()
    _run_until(sim, walk.done.done, sim.now + 5.0, step=0.01)
    assert walk.done.result() == _expected_owner(job, key)
    walked = [method for _sender, method in sent]
    assert walked.count("walk") >= 3 and walked.count("found") == 1
    # every message of the walk, at the node that sent it, and nothing else
    assert (sum(app.stats.maintenance_rpcs for app in apps) - before
            == len(walked) + len(maintenance_calls))


def test_a_joiner_is_spliced_into_the_ring_within_three_stabilize_periods():
    sim, _controller, job = _deploy(nodes=8, churn_script="at 70s join 1\n")
    sim.run(until=60.0)
    assert harness.consistency(job) == 1.0
    old = {app.me for app in _live_apps(job)}
    joined = _run_until(sim, lambda: len(_live_apps(job)) == 9, 120.0)
    assert joined is not None
    (newcomer,) = [app for app in _live_apps(job) if app.me not in old]
    healed = _run_until(sim, lambda: harness.consistency(job) == 1.0,
                        joined + 30.0)
    assert healed is not None
    assert healed <= joined + 3 * chord.STABILIZE_INTERVAL
    members = _members(job)
    assert newcomer.me in members


# ------------------------------------------------------ the workload driver
def _stream(monkeypatch, sim, job, raising):
    """Run ``harness.lookup_stream`` with every lookup raising ``raising``."""
    def _broken_lookup(self, key):
        raise raising
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(ChordNode, "lookup", _broken_lookup)
    results = []
    driver = Process(sim, harness.lookup_stream(
        sim, job, 3, 0.25, BITS, substream(0, "test"), results,
        lambda job, key: expected_owner(job, key, BITS)))
    driver.start()
    sim.run(until=sim.now + 5.0)
    return driver, results


@pytest.mark.parametrize("raising", [
    LookupFailed("no route"), RpcError("timed out"), FutureCancelled(),
    ProcessKilled("origin killed")])
def test_lookup_stream_records_churn_failures_as_failed_lookups(monkeypatch, raising):
    sim, _controller, job = _deploy(nodes=4)
    sim.run(until=30.0)
    driver, results = _stream(monkeypatch, sim, job, raising)
    assert driver.done.result() is None
    assert [(r.completed, r.correct) for r in results] == [(False, False)] * 3


def test_lookup_stream_lets_any_other_exception_fail_the_driver(monkeypatch):
    sim, _controller, job = _deploy(nodes=4)
    sim.run(until=30.0)
    driver, results = _stream(monkeypatch, sim, job, KeyError("a bug, not churn"))
    assert results == []
    with pytest.raises(KeyError):
        driver.done.result()
