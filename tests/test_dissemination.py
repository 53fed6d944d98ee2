"""Dissemination: chunk swarming drives the flow-level bandwidth model."""

from repro.apps.dissemination import run_dissemination_scenario, swarm_factory
from repro.apps.harness import RunConfig, deterministic_report_view
from repro.core.jobs import JobSpec
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator

CHUNKS = 8
CHUNK_SIZE = 32768


def _deploy(nodes=8, seed=0, churn_script=None, link_bps=10_000_000.0, **options):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(0.010), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        ip = f"10.0.0.{i + 1}"
        controller.register_daemon(
            Splayd(sim, network, ip, SplaydLimits(max_instances=3)))
        network.bandwidth.set_capacity(ip, link_bps, link_bps)
    spec = JobSpec(
        name="swarm",
        app_factory=swarm_factory(),
        instances=nodes,
        churn_script=churn_script,
        options={"chunks": CHUNKS, "chunk_size": CHUNK_SIZE,
                 "join_window": 5.0, "poll_interval": 0.5, **options},
    )
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def _apps(job):
    return [i.app for i in job.live_instances() if i.app.joined]


def test_first_instance_seeds_and_everyone_completes():
    sim, _controller, job = _deploy(nodes=8)
    sim.run(until=200.0)
    apps = _apps(job)
    seeds = [a for a in apps if a.is_seed]
    assert len(seeds) == 1
    assert all(a.complete for a in apps), (
        [(str(a.me), len(a.have)) for a in apps if not a.complete])
    for app in apps:
        if not app.is_seed:
            assert app.completed_at is not None and app.completed_at > app.started_at
            assert app.stats.chunks_fetched == CHUNKS


def test_chunks_travel_through_the_bandwidth_model():
    sim, _controller, job = _deploy(nodes=6)
    network = next(iter(job.instances)).daemon.network
    sim.run(until=200.0)
    downloaders = [a for a in _apps(job) if not a.is_seed]
    fetched = sum(a.stats.chunks_fetched for a in downloaders)
    assert fetched == CHUNKS * len(downloaders)
    # Every fetched chunk is one bulk transfer, not a control message.
    assert network.stats.transfers_started >= fetched
    assert network.bandwidth.completed >= fetched


def test_constrained_links_slow_the_swarm_down():
    def completion_span(link_bps):
        sim, _controller, job = _deploy(nodes=6, link_bps=link_bps)
        sim.run(until=400.0)
        apps = [a for a in _apps(job) if not a.is_seed]
        assert apps and all(a.complete for a in apps)
        return max(a.completed_at - a.started_at for a in apps)

    fast = completion_span(50_000_000.0)
    slow = completion_span(500_000.0)
    assert slow > fast, (slow, fast)


def test_swarm_survives_crash_churn():
    sim, _controller, job = _deploy(nodes=8, churn_script="at 30s crash 25%\n")
    sim.run(until=300.0)
    apps = _apps(job)
    assert job.live_count == 6
    assert all(a.complete for a in apps)


def test_scenario_runner_reports_completion_and_is_deterministic():
    config = RunConfig(nodes=10, hosts=5, seed=2, join_window=10.0, settle=20.0)
    first = run_dissemination_scenario(config, chunks=6, chunk_size=16384)
    second = run_dissemination_scenario(config, chunks=6, chunk_size=16384)
    assert (deterministic_report_view(first)
            == deterministic_report_view(second))
    measured = first["measured"]
    assert measured["issued"] == 9  # every downloader (the seed is excluded)
    assert measured["success_rate"] == 1.0
    assert first["workload"]["transfers_completed"] >= 9 * 6
    assert first["cdf_samples_ms"] == sorted(first["cdf_samples_ms"])
