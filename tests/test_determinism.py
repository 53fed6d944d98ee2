"""Property-style determinism: same seed, same results — across repeated
runs in one Python process (pids, call ids and transfer ids must not leak
between simulations) and across the event kernel and its heap oracle."""

import json
from dataclasses import replace

from heap_kernel_reference import use_kernel
from repro.apps.chord import run_chord_scenario
from repro.apps.harness import DIGEST_EXCLUDED_KEYS, RunConfig
from repro.core.jobs import JobSpec
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator

SCENARIO = RunConfig(nodes=12, hosts=8, seed=11, churn=True,
                     join_window=30.0, settle=40.0)


def _normalised(report: dict) -> str:
    # Strip the same sections the report digest excludes: they carry
    # machine-/wall-clock-dependent numbers (gc pauses, phase walls) by
    # design — everything else must be byte-identical.
    data = {k: v for k, v in report.items() if k not in DIGEST_EXCLUDED_KEYS}
    return json.dumps(data, sort_keys=True, default=str)


def test_chord_scenario_is_identical_when_run_twice_in_one_process():
    first = run_chord_scenario(SCENARIO, lookups=15)
    second = run_chord_scenario(SCENARIO, lookups=15)
    assert first["events_executed"] == second["events_executed"]
    assert first["measured"] == second["measured"]
    assert first["under_churn"] == second["under_churn"]
    assert first["churn"] == second["churn"]
    assert _normalised(first) == _normalised(second)


def test_chord_scenario_is_identical_across_kernels(monkeypatch):
    kernel = run_chord_scenario(SCENARIO, lookups=15)
    use_kernel(monkeypatch, "heap")
    heap = run_chord_scenario(SCENARIO, lookups=15)
    assert _normalised(kernel) == _normalised(heap)


def test_churn_victim_sets_are_identical_across_in_process_runs():
    def victims():
        sim = Simulator(5)
        network = Network(sim, seed=5)
        controller = Controller(sim, network, seed=5)
        for i in range(4):
            controller.register_daemon(
                Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=4)))
        spec = JobSpec(name="noop", app_factory=lambda instance: object(),
                       instances=10,
                       churn_script="at 5s crash 30%\nat 10s leave 2\n")
        job = controller.submit(spec)
        controller.start(job)
        before = {i.instance_id for i in job.live_instances()}
        sim.run(until=20.0)
        after = {i.instance_id for i in job.live_instances()}
        churn = controller.churn_managers[job.job_id].stats
        return tuple(sorted(before - after)), churn.instances_crashed, churn.instances_left

    assert victims() == victims()


def test_gossip_report_digest_is_identical_across_controller_shard_counts():
    """Controller scale-out must be invisible to the workload: sharding the
    control plane changes batching and log routing, never results."""
    from repro.apps.gossip import run_gossip_scenario
    from repro.apps.harness import report_digest

    config = RunConfig(nodes=12, hosts=8, seed=11, churn=True, duration="short")
    single = run_gossip_scenario(config, broadcasts=12)
    sharded = run_gossip_scenario(replace(config, ctl_shards=4), broadcasts=12)
    assert report_digest(single) == report_digest(sharded)
    # The workload-level sections agree in full, not just in hash.
    for key in ("measured", "job", "churn", "network", "rpc",
                "events_executed", "log_records_collected"):
        assert single[key] == sharded[key], key
    # The control plane itself did differ (that's the thing being scaled).
    assert single["ctl_shards"] == 1 and sharded["ctl_shards"] == 4
    assert len(sharded["control_plane"]["shards"]) == 4
