"""Chord: ring formation, lookup correctness, and recovery under churn."""

import pytest

from repro.apps import harness
from repro.apps.chord import LookupFailed, chord_factory, expected_owner
from repro.core.jobs import JobSpec
from repro.lib.ring import ring_distance
from repro.lib.rpc import RpcError
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.futures import FutureCancelled
from repro.sim.kernel import Simulator
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import substream

BITS = 16


def _deploy(nodes=10, seed=0, churn_script=None):
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
                 "stabilize_interval": 2.0, "fix_fingers_interval": 2.0},
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
        lambda job, key: expected_owner(job, key, BITS), failure=LookupFailed))
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
