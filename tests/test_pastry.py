"""Pastry: prefix routing, leaf-set ownership, and recovery under churn."""

import random
from collections import Counter

import pytest

from repro.apps import harness, pastry
from repro.apps.pastry import SILENCE, PastryNode, pastry_factory
from repro.core.jobs import JobSpec
from repro.lib.ring import numeric_distance, shared_prefix_length
from repro.lib.rpc import RTO_FLOOR, RpcError, RpcService
from repro.net.address import NodeRef
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator
from repro.sim.process import Process

BITS = 16
BASE_BITS = 4


def _repair_every(monkeypatch, seconds):
    """Repair leaf sets every ``seconds``; the silence window follows, as
    the module derives it."""
    monkeypatch.setattr(pastry, "REPAIR_INTERVAL", seconds)
    monkeypatch.setattr(pastry, "SILENCE", 1.25 * seconds + harness.HOP_TIMEOUT)


def _probe_tables_every(monkeypatch, seconds):
    monkeypatch.setattr(pastry, "TABLE_PROBE_INTERVAL", seconds)


@pytest.fixture(autouse=True)
def _short_periods(monkeypatch):
    """The tests' rings repair every 2 s and probe a table row every 3 s."""
    _repair_every(monkeypatch, 2.0)
    _probe_tables_every(monkeypatch, 3.0)


def _deploy(nodes=10, seed=0, churn_script=None, factory=pastry_factory,
            slots=3, **options):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(0.010), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        controller.register_daemon(
            Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=slots)))
    spec = JobSpec(
        name="pastry",
        app_factory=factory(),
        instances=nodes,
        churn_script=churn_script,
        options={"bits": BITS, "base_bits": BASE_BITS, "join_window": 10.0, **options},
    )
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def _members(job):
    return sorted(job.shared["pastry_members"], key=lambda m: m.id)


def _expected_owner(job, key):
    return min(_members(job),
               key=lambda m: (numeric_distance(key, m.id, BITS), m.id, m.ip, m.port))


def _live_apps(job):
    return [i.app for i in job.live_instances() if i.app.joined]


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


def test_a_direct_deploy_refuses_bits_that_are_no_multiple_of_base_bits():
    # the scenario refuses them before it deploys; the node checks the same way
    with pytest.raises(ValueError) as excinfo:
        _deploy(nodes=2, factory=lambda: PastryNode.factory(bits=30, base_bits=4))
    assert str(excinfo.value) == "bits (30) must be a multiple of base_bits (4)"


def test_every_node_joins_and_builds_leaf_sets():
    sim, _controller, job = _deploy(nodes=10)
    sim.run(until=60.0)
    members = _members(job)
    assert len(members) == 10
    for app in _live_apps(job):
        assert app.joined
        assert len(app.leaves) >= 1
        assert any(entry is not None for row in app.table for entry in row)


def test_lookups_find_the_numerically_closest_owner_from_every_node():
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


def test_mean_hops_stay_logarithmic_in_the_routing_base():
    # O(log_{2^b} N) route hops plus a constant for the final claim check:
    # for N=16, b=4 that bound is 1 + small constant — assert generously.
    import math

    sim, _controller, job = _deploy(nodes=16)
    sim.run(until=90.0)
    apps = _live_apps(job)
    total_hops = 0
    count = 0
    for app in apps[:4]:
        for key in (11, 222, 3333, 44444, 55555):
            _owner, hops = _run_lookup(sim, app, key)
            total_hops += hops
            count += 1
    mean = total_hops / count
    bound = math.log(16, 2 ** BASE_BITS) + 3.0
    assert mean <= bound, f"mean hops {mean:.2f} above O(log_16 N) bound {bound:.2f}"


def test_overlay_recovers_and_routes_correctly_after_crashes():
    sim, _controller, job = _deploy(nodes=10, churn_script="at 70s crash 30%\n")
    sim.run(until=60.0)
    assert job.live_count == 10
    sim.run(until=150.0)  # crash at 70s, then leaf-set repair time
    assert job.live_count == 7
    members = _members(job)
    assert len(members) == 7
    for app in _live_apps(job):
        for key in (3, 900, 12345, 54321, 65000):
            owner, _hops = _run_lookup(sim, app, key)
            expected = _expected_owner(job, key)
            assert (owner.ip, owner.port) == (expected.ip, expected.port)


def test_churned_in_nodes_become_routable_owners():
    sim, _controller, job = _deploy(nodes=6, churn_script="at 70s join 3\n")
    sim.run(until=160.0)
    assert job.live_count == 9
    members = _members(job)
    assert len(members) == 9
    app = _live_apps(job)[0]
    for member in members:
        owner, _hops = _run_lookup(sim, app, member.id)
        assert (owner.ip, owner.port) == (member.ip, member.port)


def test_same_seed_builds_the_same_overlay():
    def fingerprint(seed):
        sim, _controller, job = _deploy(nodes=8, seed=seed)
        sim.run(until=60.0)
        return tuple((m.ip, m.port, m.id) for m in _members(job))

    assert fingerprint(5) == fingerprint(5)


def test_closest_and_rare_case_order_nodes_by_numeric_distance():
    """``_closest`` and ``_rare_case`` compute the distance in their loops:
    they pick what ``numeric_distance`` and the (distance, id, ip, port)
    order pick, wrap-around keys included."""
    sim, _controller, job = _deploy(nodes=10)
    sim.run(until=60.0)
    rng = random.Random(7)
    size = 1 << BITS
    for app in _live_apps(job):
        def order(node, key):
            return (numeric_distance(key, node.id, BITS), node.id, node.ip, node.port)

        known = app._known_nodes()
        keys = [0, size - 1, app.me.id, *(rng.randrange(size) for _ in range(40)),
                *((node.id + delta) % size for node in known for delta in (-1, 1))]
        for key in keys:
            avoided = {node.id for node in known if rng.random() < 0.3}
            leaves = [n for n in app.leaves.values() if n.id not in avoided]
            assert app._closest(key, avoided) == min(leaves + [app.me],
                                                     key=lambda n: order(n, key))
            row = rng.randrange(BITS // BASE_BITS)
            mine = numeric_distance(key, app.me.id, BITS)
            closer = [n for n in known if n.id not in avoided and n != app.me
                      and shared_prefix_length(key, n.id, BITS // BASE_BITS,
                                               BASE_BITS) >= row
                      and numeric_distance(key, n.id, BITS) < mine]
            expected = min(closer, key=lambda n: order(n, key)) if closer else None
            assert app._rare_case(key, row, avoided) == expected


# ------------------------------------------------------ maintenance traffic
def _run_until(sim, condition, deadline, step=0.05):
    """Advance in small slices until ``condition()``; the time it held, or None."""
    while sim.now < deadline:
        if condition():
            return sim.now
        sim.run(until=sim.now + step)
    return sim.now if condition() else None


def _run(sim, generator, patience):
    process = Process(sim, generator, name="test-maintenance")
    process.start()
    sim.run(until=sim.now + patience)
    assert process.done.done()
    process.done.result()


class _CountingPastry(PastryNode):
    """Counts its table-maintenance periods and the back-off factor each began at."""

    table_periods = 0
    factors: tuple = ()

    def _table_maintenance(self):
        self.table_periods += 1
        self.factors += (self.refresh.factor,)
        yield from super()._table_maintenance()


class _MutedPastry(PastryNode):
    """Runs no leaf-set repair round while its endpoint is in ``muted``."""

    muted: frozenset = frozenset()

    def _leafset_repair(self):
        if self.me not in self.muted:
            yield from super()._leafset_repair()


def _recording(monkeypatch):
    """Every RPC sent from now on, as ``(calling service, callee, method)``."""
    sent = []
    calling = RpcService.a_call

    def recording(service, dst, method, *args, **kwargs):
        sent.append((service, NodeRef.coerce(dst), method))
        return calling(service, dst, method, *args, **kwargs)

    monkeypatch.setattr(RpcService, "a_call", recording)
    monkeypatch.setattr(RpcService, "call", recording)
    return sent


def _calls(sent, app, callee):
    """The methods ``app`` called on ``callee``, in order."""
    return [method for service, dst, method in sent
            if service is app.rpc and dst == callee]


def _neighbours(job):
    """A converged ring's apps by endpoint, and one app to watch."""
    assert harness.consistency(job) == 1.0
    apps = {app.me: app for app in _live_apps(job)}
    return apps, next(iter(apps.values()))


def test_a_quiet_ring_sends_one_leafset_per_repair_round_and_one_row_per_table_period(
        monkeypatch):
    sim, _controller, job = _deploy(nodes=16, factory=_CountingPastry.factory)
    sim.run(until=80.0)
    assert harness.consistency(job) == 1.0
    apps = _live_apps(job)
    rounds = sum(app.stats.maintenance_rounds for app in apps)
    periods = sum(app.table_periods for app in apps)
    sent = _recording(monkeypatch)
    sim.run(until=sim.now + 100.0)
    rounds = sum(app.stats.maintenance_rounds for app in apps) - rounds
    periods = sum(app.table_periods for app in apps) - periods
    methods = Counter(method for _service, _dst, method in sent)
    assert rounds >= 16 * 100.0 / 2.5
    # the table probe backs off on a quiet ring: at least 2x on average
    assert 16 <= periods <= 16 * 100.0 / (2 * 3.0)
    # one exchange per neighbour pair: each node calls its clockwise leaf only
    assert methods["leafset"] == rounds
    assert methods["row"] == periods
    assert set(methods) == {"leafset", "row"}  # no notify, ping, probe or lookup
    assert harness.consistency(job) == 1.0


def test_a_crashed_leaf_reaches_its_clockwise_neighbour_on_a_death_list_not_by_a_call(
        monkeypatch):
    sim, controller, job = _deploy(nodes=16)
    sim.run(until=80.0)
    apps, app = _neighbours(job)
    victim = apps[app._sides[1][0]]
    caller = apps[victim._sides[1][0]]
    # crash the victim just after its call: the app's silence window has its
    # whole length to run while the caller's round finds the death
    before = app._watched[1]
    assert _run_until(sim, lambda: app._watched[1] > before, sim.now + 5.0)
    heard = app._watched[1]
    # a report that comes within a failing exchange's time of the victim's
    # last call is checked by a probe; this one comes later
    sim.run(until=heard + 0.5)
    sent = _recording(monkeypatch)
    controller.kill_instance(victim.instance, failed=True)
    noticed, reported = app.stats.dead_nodes_noticed, app.stats.deaths_reported
    # two timed-out tries on the victim, then one round trip to the app
    _run(sim, caller._leafset_repair(), patience=2 * harness.HOP_TIMEOUT + 0.1)
    assert (victim.me.ip, victim.me.port) not in app.leaves
    assert app._sides[1][0] == caller.me and caller._sides[0][0] == app.me
    assert app.stats.deaths_reported == reported + 1
    assert app.stats.dead_nodes_noticed == noticed
    assert _calls(sent, app, victim.me) == []
    assert sim.now < heard + pastry.SILENCE


def test_a_live_leaf_the_caller_skipped_is_probed_kept_and_taught_to_it(monkeypatch):
    sim, _controller, job = _deploy(nodes=16)
    sim.run(until=80.0)
    apps, app = _neighbours(job)
    skipped = app._sides[1][0]
    caller = apps[app._sides[1][1]]
    # the caller never learned the node between it and the app
    caller._forget(skipped)
    del caller._dead[skipped.ip, skipped.port]
    assert caller._sides[0][0] == app.me
    sent = _recording(monkeypatch)
    noticed, reported = app.stats.dead_nodes_noticed, app.stats.deaths_reported
    _run(sim, caller._leafset_repair(), patience=0.1)  # a few round trips
    assert _calls(sent, app, skipped) == ["leafset"]  # probed once
    assert not app._probing
    assert app._sides[1][0] == skipped  # not purged on hearsay
    assert (app.stats.dead_nodes_noticed, app.stats.deaths_reported) == (noticed, reported)
    assert caller._sides[0][0] == skipped  # learned from the app's reply
    assert harness.consistency(job) == 1.0


def test_a_reported_leaf_that_called_since_is_probed_kept_and_taken_back(monkeypatch):
    sim, _controller, job = _deploy(nodes=16)
    sim.run(until=80.0)
    apps, app = _neighbours(job)
    survivor = app._sides[1][0]
    caller = apps[app._sides[1][1]]
    before = app._watched[1]
    assert _run_until(sim, lambda: app._watched[1] > before, sim.now + 5.0)
    # the caller's exchange with the survivor failed (its replies were lost),
    # and the survivor called the app right after
    caller._note_dead(survivor)
    assert caller._sides[0][0] == app.me
    reported = app.stats.deaths_reported
    sent = _recording(monkeypatch)
    _run(sim, caller._leafset_repair(), patience=0.1)
    assert app._sides[1][0] == survivor and app.stats.deaths_reported == reported
    assert _calls(sent, app, survivor) == ["leafset"]  # checked by a probe
    assert caller._sides[0][0] == survivor  # taken back from the app's reply
    assert (survivor.ip, survivor.port) not in caller._dead
    assert harness.consistency(job) == 1.0


def test_a_silent_counter_clockwise_neighbour_is_probed_and_purged(monkeypatch):
    assert SILENCE == 1.25 * 5.0 + 1.5  # 7.75 s: the module's own value, no knob
    _repair_every(monkeypatch, 5.0)
    sim, controller, job = _deploy(nodes=16, factory=_MutedPastry.factory)
    sim.run(until=80.0)
    apps, app = _neighbours(job)
    victim = apps[app._sides[1][0]]
    # nobody reports the death: the victim's own counter-clockwise
    # neighbour, which would find it, runs no repair round
    monkeypatch.setattr(_MutedPastry, "muted", frozenset({victim._sides[1][0]}))
    sent = _recording(monkeypatch)
    reported = app.stats.deaths_reported
    controller.kill_instance(victim.instance, failed=True)
    crashed = sim.now
    purged = _run_until(sim, lambda: (victim.me.ip, victim.me.port) not in app.leaves,
                        crashed + 60.0)
    assert purged is not None
    assert purged <= crashed + (pastry.SILENCE + 1.25 * pastry.REPAIR_INTERVAL
                                + 2 * harness.HOP_TIMEOUT)
    assert _calls(sent, app, victim.me) == ["leafset"]
    assert app.stats.deaths_reported == reported


def test_a_node_whose_every_leaf_died_joins_again_through_the_directory(monkeypatch):
    sim, _controller, job = _deploy(nodes=10)
    sim.run(until=60.0)
    _apps, app = _neighbours(job)
    for leaf in list(app.leaves.values()):
        app._forget(leaf)
    app._dead.clear()
    assert app._sides == [(), ()] and harness.consistency(job) < 1.0
    sent = _recording(monkeypatch)
    _run(sim, app._leafset_repair(), patience=1.0)  # a few round trips
    # the join's calls: the owner of our id (ourselves), its leaf set, and
    # the routing tables of the member asked and of that owner
    assert [(dst, method) for service, dst, method in sent if service is app.rpc] == [
        (sent[0][1], "find_owner"), (app.me, "leafset"),
        (sent[0][1], "table_dump"), (app.me, "table_dump")]
    assert app.leaves
    assert harness.consistency(job) == 1.0


def test_the_table_probe_wait_doubles_while_rows_teach_nothing_and_resets_on_a_dead_entry():
    sim, _controller, job = _deploy(nodes=16, factory=_CountingPastry.factory)
    sim.run(until=200.0)
    assert harness.consistency(job) == 1.0
    app = _live_apps(job)[0]
    # from its last change on, each round began at twice the previous factor
    quiet = app.factors[len(app.factors) - 1 - app.factors[::-1].index(1):]
    assert len(quiet) >= 5
    assert quiet == tuple(min(harness.BACKOFF_CAP, 2 ** i) for i in range(len(quiet)))

    # the next probe goes to an entry that died: the wait is one period again
    row, column = app._slot(app.me.id ^ (1 << (BITS - 1)))
    ghost = NodeRef("10.9.9.9", 9, id=app.me.id ^ (1 << (BITS - 1)))
    app.table[row][column] = ghost
    app._rng.choice = lambda options: (row, column)
    periods = app.table_periods
    probed = _run_until(sim, lambda: app.table_periods > periods, sim.now + 300.0)
    del app._rng.choice  # later rounds pick at random again
    unanswered = (1 + harness.HOP_RETRIES) * harness.HOP_TIMEOUT  # the probe's two attempts
    sim.run(until=probed + unanswered + 0.5)
    assert app.table[row][column] is None and app.refresh.factor == 1
    again = _run_until(sim, lambda: app.table_periods > periods + 1, sim.now + 30.0)
    assert again is not None and again <= probed + unanswered + 1.25 * 3.0


def test_a_row_reply_fills_only_empty_slots_of_that_row(monkeypatch):
    # no maintenance at all: only the probe under test changes the table
    _repair_every(monkeypatch, 1000.0)
    _probe_tables_every(monkeypatch, 1000.0)
    sim, _controller, job = _deploy(nodes=16)
    sim.run(until=80.0)
    apps = {app.me: app for app in _live_apps(job)}
    app = next(iter(apps.values()))
    column, probed = next((c, e) for c, e in enumerate(app.table[0]) if e)
    remote = [e for e in apps[probed].table[0] if e is not None]
    theirs = {app._slot(e.id): e for e in remote
              if e != app.me and app._slot(e.id)[0] == 0}
    held_column = next(c for c, _e in theirs if c != column)
    held = NodeRef("10.9.9.9", 9, id=held_column << (BITS - BASE_BITS))
    app.table[0] = [None] * len(app.table[0])
    app.table[0][column], app.table[0][held_column] = probed, held
    app._known = {app.me.id: app.me}  # the row was emptied behind the memo's back
    app._rng.choice = lambda options: (0, column)

    _run(sim, app._table_maintenance(), patience=0.05)  # one round trip
    assert app.table[0][held_column] is held  # an occupied slot is kept
    for (row, slot_column), entry in theirs.items():
        if slot_column != held_column:
            assert app.table[row][slot_column] == entry
    assert sum(e is not None for e in app.table[0]) == len(theirs | {
        (0, column): probed, (0, held_column): held})


def test_a_row_probe_that_gets_no_reply_purges_the_entry(monkeypatch):
    _probe_tables_every(monkeypatch, 1000.0)
    sim, _controller, job = _deploy(nodes=16)
    sim.run(until=80.0)
    app = _live_apps(job)[0]
    row, column = app._slot(app.me.id ^ (1 << (BITS - 1)))
    ghost = NodeRef("10.9.9.9", 9, id=app.me.id ^ (1 << (BITS - 1)))
    app.table[row][column] = ghost
    app._rng.choice = lambda options: (row, column)
    noticed = app.stats.dead_nodes_noticed

    _run(sim, app._table_maintenance(),
         patience=(1 + harness.HOP_RETRIES) * harness.HOP_TIMEOUT + 0.5)
    assert app.table[row][column] is None
    assert app.stats.dead_nodes_noticed == noticed + 1


def _dropping_first(monkeypatch, caller, callee, method):
    """Lose the first ``method`` call ``caller`` sends to ``callee``, as the
    substrate would; the list holds the time it was lost."""
    lost = []
    send = Network.send

    def lossy(network, src, dst, payload, size):
        if (not lost and (src.ip, src.port) == (caller.ip, caller.port)
                and (dst.ip, dst.port) == (callee.ip, callee.port)
                and type(payload) is dict and payload.get("method") == method):
            lost.append(network.sim.now)
            return
        send(network, src, dst, payload, size)

    monkeypatch.setattr(Network, "send", lossy)
    return lost


def test_a_row_probe_whose_first_request_is_lost_keeps_the_entry(monkeypatch):
    _probe_tables_every(monkeypatch, 1000.0)
    sim, _controller, job = _deploy(nodes=16)
    sim.run(until=80.0)
    app = _live_apps(job)[0]
    row, column, entry = next((r, c, e) for r, cells in enumerate(app.table)
                              for c, e in enumerate(cells) if e is not None)
    app._rng.choice = lambda options: (row, column)
    noticed, retries = app.stats.dead_nodes_noticed, app.rpc.stats.retries
    lost = _dropping_first(monkeypatch, app.me, entry, "row")

    _run(sim, app._table_maintenance(),
         patience=(1 + harness.HOP_RETRIES) * harness.HOP_TIMEOUT + 0.5)
    assert lost and app.rpc.stats.retries == retries + 1
    assert app.table[row][column] == entry
    assert app.stats.dead_nodes_noticed == noticed


# ------------------------------------------- lookups that wait a learned RTO
def test_a_hop_whose_first_request_is_lost_costs_one_rto_on_planetlab(monkeypatch):
    deployment = harness.deploy("pastry", pastry_factory(), nodes=30, hosts=15, seed=2,
                                testbed="planetlab", duration="short")
    sim, network = deployment.sim, deployment.network
    sim.run(until=deployment.warmup_end)
    # an origin whose nearest clockwise leaf (called every repair round, so
    # its round trip is known) is near; the key is that leaf's own id: the
    # iterative walk (a lookup's recovery) is the local step and one claim
    origin, owner = next(
        (app, app._sides[0][0]) for app in harness.joined_apps(deployment.job)
        if app._sides[0] and network.one_way_delay(app.me.ip, app._sides[0][0].ip) < 0.1)
    assert origin.rpc.rto[owner.ip] < 0.3
    lost = _dropping_first(monkeypatch, origin.me, owner, "claim")
    started = sim.now
    walk = Process(sim, origin._walk(owner.id), name="test-lookup")
    walk.start()
    finished = _run_until(sim, walk.done.done, started + 5.0, step=0.01)
    assert walk.done.result() == (owner, 2) and lost == [started]
    # the claim went again after its RTO, not after HOP_TIMEOUT (1.5 s)
    assert finished - started < 0.5


def test_a_forwarded_claim_whose_first_attempt_is_lost_costs_one_rto_on_planetlab(
        monkeypatch):
    # Pastry refuses the walk before a node joins, so a claim is a call: the
    # node that sends it (here the origin, whose own step named the owner)
    # sends it again after its RTO
    deployment = harness.deploy("pastry", pastry_factory(), nodes=30, hosts=15, seed=2,
                                testbed="planetlab", duration="short")
    sim, network = deployment.sim, deployment.network
    sim.run(until=deployment.warmup_end)
    origin, owner = next(
        (app, app._sides[0][0]) for app in harness.joined_apps(deployment.job)
        if app._sides[0] and network.one_way_delay(app.me.ip, app._sides[0][0].ip) < 0.1)
    assert origin.rpc.rto[owner.ip] < 0.3
    lost = _dropping_first(monkeypatch, origin.me, owner, "walk")
    started = sim.now
    walk = Process(sim, origin.lookup(owner.id), name="test-lookup")
    walk.start()
    finished = _run_until(sim, walk.done.done, started + 5.0, step=0.01)
    assert walk.done.result() == (owner, 2) and lost == [started]
    assert finished - started < 0.5
    assert origin.stats.walks_recovered == 0


def test_a_live_peer_slower_than_its_rto_is_suspected_but_never_purged_by_a_lookup():
    sim, controller, job = _deploy(nodes=12)
    sim.run(until=80.0)
    apps = _live_apps(job)
    slow = apps[0].me
    origins = [app for app in apps if app.me.ip != slow.ip]
    assert all(app.rpc.rto.get(slow.ip, app.rpc.rto_default) == RTO_FLOOR
               for app in origins)
    # every message to or from the host waits 350 ms more: 20 ms round trips
    # become 720 ms, past the 0.4 s two attempts at the RTO wait, short of
    # the 1.5 s hop timeout a confirming call waits
    controller.network.set_processing_delay(slow.ip, lambda _size: 0.35)
    noticed = [app.stats.dead_nodes_noticed for app in origins]
    holders = [app for app in origins if slow in app.leaves.values()]
    for origin in origins:
        _run_lookup(sim, origin, slow.id, patience=5.0)
    sim.run(until=sim.now + (1 + harness.HOP_RETRIES) * harness.HOP_TIMEOUT)
    assert sum(app.stats.hops_suspected for app in origins) > 0
    assert [app.stats.suspects_dead for app in origins] == [0] * len(origins)
    assert [app.stats.dead_nodes_noticed for app in origins] == noticed
    assert holders and all(slow in app.leaves.values() for app in holders)


def test_a_crashed_peer_is_purged_once_its_one_confirming_call_fails(monkeypatch):
    # no maintenance: only the walks' verdicts purge anything
    _repair_every(monkeypatch, 1000.0)
    _probe_tables_every(monkeypatch, 1000.0)
    sim, controller, job = _deploy(nodes=12)
    sim.run(until=80.0)
    origin = _live_apps(job)[0]
    victim = origin._sides[0][0]
    rpc = origin.rpc
    assert rpc.rto.get(victim.ip, rpc.rto_default) < harness.HOP_TIMEOUT
    (instance,) = [i for i in job.live_instances() if i.app.me == victim]
    controller.kill_instance(instance, failed=True)
    sent = _recording(monkeypatch)
    noticed = origin.stats.dead_nodes_noticed
    # two walks to the dead owner's key: both suspect it, one call confirms
    walks = [Process(sim, origin.lookup(victim.id), name="test-lookup")
             for _walk in range(2)]
    for walk in walks:
        walk.start()
    sim.run(until=sim.now + 1.0)
    assert all(walk.done.done() and walk.done.result()[0] != victim for walk in walks)
    assert origin.stats.hops_suspected == 2
    assert victim in origin.leaves.values()  # no purge on a shortened deadline
    sim.run(until=sim.now + (1 + harness.HOP_RETRIES) * harness.HOP_TIMEOUT)
    assert _calls(sent, origin, victim).count("__ping__") == 1
    assert origin.stats.suspects_dead == 1
    assert origin.stats.dead_nodes_noticed == noticed + 1
    assert victim not in origin.leaves.values()


# ------------------------------------------------------ joining and routing
def _call(sim, app, dst, method, *args):
    box = {}

    def _gen():
        try:
            box["reply"] = yield app.rpc.call(dst, method, *args, timeout=1.0,
                                              retries=0)
        except RpcError as exc:
            box["error"] = exc

    _run(sim, _gen(), patience=1.5)
    return box


def test_a_replacement_at_the_same_endpoint_answers_no_routing_until_joined():
    # One slot per host: the replacement lands on the endpoint it replaces.
    sim, controller, job = _deploy(nodes=12, slots=1, join_window=20.0)
    sim.run(until=80.0)
    origin, *_others, victim = _live_apps(job)
    key = victim.me.id
    controller.kill_instance(victim.instance, reason="replace")
    sim.run(until=sim.now + 1.0)
    (fresh,) = controller.start_instances(job, 1)
    _run_until(sim, lambda: fresh.app is not None, sim.now + 5.0)
    replacement = fresh.app
    assert replacement.me == victim.me and not replacement.joined

    for method, args in (("step", (key, [])), ("claim", (key,)),
                         ("walk", (key, (), 0, origin.max_hops, 0, origin.me, 1, 0))):
        assert "error" in _call(sim, origin, replacement.me, method, *args)
        assert not replacement.joined
    deadline = sim.now + 120.0
    while not replacement.joined and sim.now < deadline:
        box = {}

        def _gen():
            try:
                box["owner"], _hops = yield from origin.lookup(key)
            except RpcError:
                pass

        process = Process(sim, _gen(), name="test-lookup")
        process.start()
        _run_until(sim, lambda: process.done.done(), sim.now + 30.0)
        if not replacement.joined and "owner" in box:
            assert box["owner"] != replacement.me
    assert replacement.joined
    assert controller.network.stats.handler_errors == 0
    owner, _hops = _run_lookup(sim, origin, key)
    assert owner == replacement.me


# ------------------------------------------------------------ leaf oracle
def test_leaf_consistency_sees_a_wrong_neighbour():
    sim, _controller, job = _deploy(nodes=8)
    sim.run(until=60.0)
    assert harness.consistency(job) == 1.0
    app = _live_apps(job)[0]
    app._sides[0] = app._sides[0][1:]
    assert harness.consistency(job) == 7 / 8


# A repair period outlasts the leafset call's timeout (1.5 s, one retry)
# at the default 5 s: the one a node spends noticing each dead neighbour.
@pytest.mark.parametrize("seed", [0, 4])
def test_leaf_sets_heal_within_three_repair_periods_of_a_crash(monkeypatch, seed):
    _repair_every(monkeypatch, 5.0)
    sim, _controller, job = _deploy(nodes=20, seed=seed,
                                    churn_script="at 80s crash 10%\n")
    sim.run(until=79.0)
    assert harness.consistency(job) == 1.0
    crashed = _run_until(sim, lambda: job.live_count == 18, 90.0)
    assert crashed is not None and harness.consistency(job) < 1.0
    healed = _run_until(sim, lambda: harness.consistency(job) == 1.0, crashed + 30.0)
    assert healed is not None and healed <= crashed + 3 * 5.0


@pytest.mark.parametrize("seed", [0, 1])
def test_leaf_sets_heal_within_three_repair_periods_of_a_replace_wave(monkeypatch, seed):
    # One slot per host: each replacement reuses the endpoint of the node it
    # replaces, and is bounced off until it has joined.
    _repair_every(monkeypatch, 5.0)
    sim, _controller, job = _deploy(nodes=20, seed=seed, slots=1,
                                    churn_script="at 80s replace 20%\n")
    sim.run(until=79.0)
    assert harness.consistency(job) == 1.0
    before = {(i.app.me, i.instance_id) for i in job.live_instances()}
    joined = _run_until(sim, lambda: len(_live_apps(job)) == 20 and before != {
        (i.app.me, i.instance_id) for i in job.live_instances()}, 140.0)
    assert joined is not None
    after = {app.me for app in _live_apps(job)}
    assert after == {me for me, _instance in before}  # the same endpoints
    healed = _run_until(sim, lambda: harness.consistency(job) == 1.0, joined + 30.0)
    assert healed is not None and healed <= joined + 3 * 5.0
