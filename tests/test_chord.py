"""Chord: ring formation, lookup correctness, and recovery under churn."""

import pytest

from repro.apps import harness
from repro.apps.chord import LookupFailed, chord_factory, expected_owner
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

BITS = 16


def _deploy(nodes=10, seed=0, churn_script=None, **options):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(0.010), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        controller.register_daemon(
            Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=3)))
    spec = JobSpec(
        name="chord",
        app_factory=chord_factory(),
        instances=nodes,
        churn_script=churn_script,
        options={"bits": BITS, "join_window": 10.0,
                 "stabilize_interval": 2.0, "fix_fingers_interval": 2.0, **options},
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


def test_a_quiet_ring_spends_one_rpc_per_stabilize_round_and_never_pings(monkeypatch):
    sim, _controller, job = _converged(nodes=16, until=80.0)
    apps = _live_apps(job)
    rounds = sum(app.stats.maintenance_rounds for app in apps)
    sent = {}
    calling = RpcService.a_call

    def counting(service, dst, method, *args, **kwargs):
        sent[method] = sent.get(method, 0) + 1
        return calling(service, dst, method, *args, **kwargs)

    monkeypatch.setattr(RpcService, "a_call", counting)
    monkeypatch.setattr(RpcService, "call", counting)
    sim.run(until=sim.now + 100.0)
    rounds = sum(app.stats.maintenance_rounds for app in apps) - rounds
    assert rounds >= 16 * 100.0 / 2.5  # every node stabilized all along
    assert sent["stabilize"] == rounds
    assert not {"get_predecessor", "successor_list", "notify", "__ping__"} & set(sent)
    assert set(sent) <= {"stabilize", "step", "claim"}
    assert harness.consistency(job) == 1.0


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
    sent = {}
    calling = RpcService.a_call

    def counting(service, dst, method, *args, **kwargs):
        sent[method] = sent.get(method, 0) + 1
        return calling(service, dst, method, *args, **kwargs)

    monkeypatch.setattr(RpcService, "a_call", counting)
    far_lookups = []
    for _half in range(2):
        started = sum(app.stats.lookups_started for app in apps)
        sim.run(until=sim.now + 150.0)
        far_lookups.append(sum(app.stats.lookups_started for app in apps) - started)
        assert harness.consistency(job) == 1.0
    assert "__ping__" not in sent
    assert far_lookups[0] > far_lookups[1]


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


def test_a_crashed_predecessor_is_dropped_once_silent_for_one_check_period():
    sim, controller, job = _converged(nodes=10, stabilize_interval=5.0,
                                      fix_fingers_interval=4.0)
    app = _live_apps(job)[0]
    predecessor = app.predecessor
    (victim,) = [i for i in job.live_instances() if i.app.me == predecessor]
    heard = app._watched[1]
    assert sim.now - heard < app.stabilize_interval * 1.25  # it calls us
    controller.kill_instance(victim, failed=True)
    bound = (heard + app.check_predecessor_interval
             + 1.25 * app.check_predecessor_interval + app.hop_timeout)
    dropped = _run_until(sim, lambda: app.predecessor != predecessor, bound + 30.0)
    assert dropped is not None and dropped <= bound


def test_a_crashed_successor_is_replaced_by_the_next_list_entry():
    sim, controller, job = _converged(nodes=10, stabilize_interval=5.0,
                                      fix_fingers_interval=4.0)
    app = _live_apps(job)[0]
    successor, next_entry = app.successors[:2]
    (victim,) = [i for i in job.live_instances() if i.app.me == successor]
    crashed = sim.now
    controller.kill_instance(victim, failed=True)
    replaced = _run_until(sim, lambda: app.successors[0] != successor,
                          crashed + 30.0)
    assert replaced is not None and replaced <= crashed + 2 * app.stabilize_interval
    assert app.successors[0] == next_entry


@pytest.mark.parametrize("seed", [0, 3])
def test_a_crash_burst_heals_within_the_predecessor_check_bound(seed):
    sim, _controller, job = _deploy(nodes=40, seed=seed, stabilize_interval=5.0,
                                    fix_fingers_interval=4.0,
                                    churn_script="at 100s crash 10%\n")
    sim.run(until=99.0)
    assert harness.consistency(job) == 1.0
    crashed = _run_until(sim, lambda: job.live_count == 36, 110.0)
    assert crashed is not None and harness.consistency(job) < 1.0
    app = _live_apps(job)[0]
    # the bound of the three fixed-period tasks this replaces: a dead
    # predecessor dropped within a silent period plus a 1.25-period check and
    # the ping, then the new predecessor's stabilize call
    bound = (2.25 * app.check_predecessor_interval + app.hop_timeout
             + 1.25 * app.stabilize_interval)
    healed = _run_until(sim, lambda: harness.consistency(job) == 1.0, crashed + 60.0)
    assert healed is not None and healed <= crashed + bound


def test_a_walked_candidate_that_does_not_answer_leaves_the_last_answering_node():
    sim, _controller, job = _converged(nodes=10, stabilize_interval=5.0,
                                       fix_fingers_interval=4.0)
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
    sim.run(until=sim.now + 2 * app.hop_timeout * (1 + app.hop_retries) + 0.5)
    assert app.stats.dead_nodes_noticed == noticed + 1  # the ghost, by its timeout
    assert app.successors[0] == successor
    assert ghost not in app.successors


def _hop_waits(monkeypatch, app):
    """``(method, timeout)`` of the ``step`` and ``claim`` calls ``app`` sends
    from now on."""
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
        yield from app.lookup(key)

    inf = float("inf")
    # the successor's id is a local step and a claim to the successor; the
    # predecessor's id starts with a step to the closest preceding finger
    for key, method in ((app.successors[0].id, "claim"), (app.predecessor.id, "step")):
        first = app._rpc_step(key, [])["node"]
        for rto, default, expected in (
                ({first.ip: 0.25}, 0.3, 0.25),  # the host's own
                ({}, 0.3, 0.3),  # a host not heard from: the service-wide
                ({first.ip: 10.0}, 0.3, app.hop_timeout),  # at most hop_timeout
                ({}, inf, app.hop_timeout)):  # no sample yet: hop_timeout
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
        return (yield from app.lookup(successor.id))

    walker = Process(sim, walk(), name="test-lookup")
    walker.start()
    sim.run(until=sim.now + (1 + app.hop_retries) * app.hop_timeout + 1.0)
    assert walker.done.result()[0] != successor
    assert waits[0] == ("claim", app.hop_timeout)
    assert app.stats.hops_suspected == app.stats.suspects_dead == 0
    assert app.stats.dead_nodes_noticed > noticed
    assert successor not in app.successors


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
    assert healed <= joined + 3 * newcomer.stabilize_interval
    members = _members(job)
    assert newcomer.me in members


# ------------------------------------------------------ the workload driver
def _stream(sim, job, raising):
    """Run ``harness.lookup_stream`` with every lookup raising ``raising``."""
    def _broken_lookup(key):
        raise raising
        yield  # pragma: no cover - makes this a generator

    for app in _live_apps(job):
        app.lookup = _broken_lookup
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
def test_lookup_stream_records_churn_failures_as_failed_lookups(raising):
    sim, _controller, job = _deploy(nodes=4)
    sim.run(until=30.0)
    driver, results = _stream(sim, job, raising)
    assert driver.done.result() is None
    assert [(r.completed, r.correct) for r in results] == [(False, False)] * 3


def test_lookup_stream_lets_any_other_exception_fail_the_driver():
    sim, _controller, job = _deploy(nodes=4)
    sim.run(until=30.0)
    driver, results = _stream(sim, job, KeyError("a bug, not churn"))
    assert results == []
    with pytest.raises(KeyError):
        driver.done.result()
