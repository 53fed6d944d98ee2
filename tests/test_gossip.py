"""Gossip: Cyclon view maintenance and epidemic broadcast coverage."""

import pytest

from repro.apps import gossip
from repro.apps.gossip import gossip_factory
from repro.core.jobs import JobSpec
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator


@pytest.fixture(autouse=True)
def _short_periods(monkeypatch):
    """The tests' nodes shuffle every 2 s and pull every 3 s."""
    monkeypatch.setattr(gossip, "SHUFFLE_INTERVAL", 2.0)
    monkeypatch.setattr(gossip, "AE_INTERVAL", 3.0)


def _deploy(nodes=12, seed=0, churn_script=None, **options):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(0.010), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        controller.register_daemon(
            Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=3)))
    spec = JobSpec(
        name="gossip",
        app_factory=gossip_factory(),
        instances=nodes,
        churn_script=churn_script,
        options={"join_window": 5.0, **options},
    )
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def _apps(job):
    return [i.app for i in job.live_instances() if i.app.joined]


def test_views_fill_up_and_respect_the_capacity():
    sim, _controller, job = _deploy(nodes=12)
    sim.run(until=60.0)
    apps = _apps(job)
    assert len(apps) == 12
    for app in apps:
        assert 1 <= len(app.view) <= app.view_size
        assert all(entry[0] != app.me for entry in app.view.values())


def test_shuffling_spreads_membership_beyond_the_bootstrap():
    sim, _controller, job = _deploy(nodes=12)
    sim.run(until=90.0)
    # Union of everyone's view should cover (almost) the whole membership:
    # Cyclon converges towards a uniform random graph, not a star.
    seen = set()
    for app in _apps(job):
        seen.update(key for key in app.view)
    assert len(seen) >= 10


def test_broadcast_reaches_every_member():
    sim, _controller, job = _deploy(nodes=12)
    sim.run(until=60.0)
    apps = _apps(job)
    apps[0].publish("hello")
    sim.run(until=sim.now + 30.0)
    delivered = [a for a in apps if "hello" in a.store]
    assert len(delivered) == len(apps)
    hops = [a.store["hello"].hops for a in apps]
    assert max(hops) >= 1  # it actually travelled
    origin_record = apps[0].store["hello"]
    assert origin_record.via == "publish" and origin_record.hops == 0


def test_anti_entropy_recovers_nodes_that_missed_the_push():
    # Tiny fanout on a larger group: eager push alone will miss nodes, so
    # full coverage demonstrates the anti-entropy pull path.
    sim, _controller, job = _deploy(nodes=16, fanout=1)
    sim.run(until=60.0)
    apps = _apps(job)
    apps[0].publish("m")
    sim.run(until=sim.now + 60.0)
    delivered = [a for a in apps if "m" in a.store]
    assert len(delivered) == len(apps)
    assert any(a.store["m"].via == "anti-entropy" for a in apps)


def test_broadcast_survives_churn_and_reaches_joiners():
    sim, _controller, job = _deploy(
        nodes=12, churn_script="at 40s crash 25%\nat 50s join 3\n")
    sim.run(until=30.0)
    _apps(job)[0].publish("early")
    sim.run(until=150.0)
    apps = _apps(job)
    assert job.live_count == 12
    # Joiners arrived after the publish; anti-entropy must backfill them.
    missing = [a for a in apps if "early" not in a.store]
    assert missing == []


def test_same_seed_same_deliveries():
    def fingerprint(seed):
        sim, _controller, job = _deploy(nodes=10, seed=seed)
        sim.run(until=40.0)
        _apps(job)[0].publish("x")
        sim.run(until=90.0)
        return tuple(sorted((a.me.ip, a.me.port, round(a.store["x"].received_at, 9),
                             a.store["x"].hops)
                            for a in _apps(job) if "x" in a.store))

    assert fingerprint(3) == fingerprint(3)
