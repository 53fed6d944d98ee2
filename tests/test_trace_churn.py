"""Host-level churn: fail/recover directives, availability traces, counters."""

from pathlib import Path

import pytest

from repro.core.churn import (
    ChurnManager,
    ChurnScriptError,
    parse_availability_trace,
    parse_churn_script,
    synthetic_availability_trace,
    trace_churn_actions,
)
from repro.core.jobs import JobSpec
from repro.net.network import Network
from repro.runtime.controller import Controller, ControllerError
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator

TRACES_DIR = Path(__file__).resolve().parent.parent / "traces"


# ------------------------------------------------------------------- parsing
def test_trace_parses_and_merges_overlapping_intervals():
    intervals = parse_availability_trace("""
        # comments and blanks are fine
        a 0 100
        a 90 150          # overlaps the first interval
        b 20 40
        b 60 80
    """)
    assert intervals == {"a": [(0.0, 150.0)], "b": [(20.0, 40.0), (60.0, 80.0)]}


def test_malformed_traces_are_rejected():
    for bad in ("a 10", "a 10 20 30", "a ten 20", "a 30 10", "a -5 10"):
        with pytest.raises(ChurnScriptError):
            parse_availability_trace(bad)


def test_trace_actions_cover_late_start_gaps_and_early_death():
    actions = trace_churn_actions("""
        late 50 300       # down from 0, comes up at 50
        gappy 0 100       # blips 100..150
        gappy 150 300
        early 0 120       # dies at 120 and stays down
        steady 0 300      # up the whole time
    """)
    by_host = {}
    for action in actions:
        by_host.setdefault(action.host, []).append((action.time, action.kind))
    assert by_host["late"] == [(0.0, "fail"), (50.0, "recover")]
    assert by_host["gappy"] == [(100.0, "fail"), (150.0, "recover")]
    assert by_host["early"] == [(120.0, "fail")]
    assert "steady" not in by_host  # never churns
    assert [a.time for a in actions] == sorted(a.time for a in actions)


def test_synthetic_trace_is_deterministic_and_starts_all_hosts_up():
    first = synthetic_availability_trace(hosts=5, duration=200.0, seed=4)
    second = synthetic_availability_trace(hosts=5, duration=200.0, seed=4)
    assert first == second
    assert first != synthetic_availability_trace(hosts=5, duration=200.0, seed=5)
    intervals = parse_availability_trace(first)
    assert len(intervals) == 5
    assert all(spans[0][0] == 0.0 for spans in intervals.values())


def test_bundled_trace_matches_its_generator_parameters():
    # The committed file must stay regenerable: tools/gen_availability_trace.py
    # with its defaults produces it byte for byte.
    bundled = (TRACES_DIR / "synthetic_overnet.trace").read_text()
    regenerated = synthetic_availability_trace(hosts=6, duration=300.0, seed=9,
                                               mean_up=150.0, mean_down=40.0)
    assert bundled == regenerated


def test_fail_and_recover_parse_in_scripts_and_windows():
    actions = parse_churn_script("""
        at 10s fail 2
        at 20s fail 25%
        at 30s recover 1
        from 60s to 120s every 60s fail 1
    """)
    assert [(a.time, a.kind) for a in actions] == [
        (10.0, "fail"), (20.0, "fail"), (30.0, "recover"),
        (60.0, "fail"), (120.0, "fail")]
    assert actions[1].fraction == pytest.approx(0.25)
    assert all(a.host is None for a in actions)


# ------------------------------------------------------------ controller side
def _deploy(seed=0, instances=10, hosts=5, shards=1, churn_script=None,
            churn_trace=None, slots=6):
    sim = Simulator(seed)
    network = Network(sim, seed=seed)
    controller = Controller(sim, network, seed=seed, shards=shards)
    for i in range(hosts):
        controller.register_daemon(
            Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=slots)))
    spec = JobSpec(name="noop", app_factory=lambda instance: object(),
                   instances=instances, churn_script=churn_script,
                   churn_trace=churn_trace)
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def test_fail_host_kills_instances_and_recover_makes_it_placeable_again():
    sim, controller, job = _deploy(instances=10, hosts=5)
    victim = controller.daemon_ips()[0]
    before = job.live_count
    on_victim = sum(1 for i in job.instances
                    if i.alive and i.daemon.ip == victim)
    assert on_victim > 0
    killed = controller.fail_host(victim)
    assert killed == on_victim
    assert job.live_count == before - on_victim
    assert controller.failed_host_ips() == [victim]
    assert not controller.host_alive(victim)
    assert job.stats.instances_failed == on_victim
    # placement skips the dead host
    started = controller.start_instances(job, 2)
    assert all(i.daemon.ip != victim for i in started)
    # recovery brings it back, empty, and placement prefers the empty host
    controller.recover_host(victim)
    assert controller.failed_host_ips() == []
    refill = controller.start_instances(job, 2)
    assert all(i.daemon.ip == victim for i in refill)
    assert controller.host_alive(victim)
    assert controller.store.host_failures_total == 1
    assert controller.store.host_recoveries_total == 1


def test_failing_a_down_host_and_recovering_an_up_host_count_nothing():
    sim, controller, job = _deploy(instances=10, hosts=5)
    victim = controller.daemon_ips()[0]
    shard = controller.store.shard_for_daemon(victim)
    assert controller.fail_host(victim) > 0
    failed = job.stats.instances_failed
    assert controller.fail_host(victim) == 0  # already down: not a failure
    controller.recover_host(victim)
    controller.recover_host(victim)  # already up: not a recovery
    hosts = controller.control_plane_status()["hosts"]
    assert (hosts["down_now"], hosts["failures_total"], hosts["recoveries_total"]) == (0, 1, 1)
    assert (shard.stats.hosts_failed, shard.stats.hosts_recovered) == (1, 1)
    assert job.stats.instances_failed == failed


def test_fail_host_on_unknown_ip_is_a_controller_error():
    _sim, controller, _job = _deploy()
    with pytest.raises(ControllerError, match="no daemon"):
        controller.fail_host("203.0.113.1")
    with pytest.raises(ControllerError, match="no daemon"):
        controller.recover_host("203.0.113.1")


def test_script_driven_host_churn_counts_separately_from_instance_churn():
    sim, controller, job = _deploy(
        instances=10, hosts=5,
        churn_script="at 5s crash 2\nat 10s fail 2\nat 20s recover 1\n")
    sim.run(until=30.0)
    churn = controller.churn_managers[job.job_id]
    # instance-level and host-level churn are distinct populations
    assert churn.stats.instances_crashed == 2
    assert churn.stats.hosts_failed == 2
    assert churn.stats.hosts_recovered == 1
    assert job.stats.churn_crashes == 2
    assert job.stats.churn_host_failures == 2
    assert job.stats.churn_host_recoveries == 1
    # host-failure instance deaths are failures, never churn_crashes
    assert job.stats.instances_failed > 2
    status = controller.job_status(job)
    assert status["churn_host_failures"] == 2
    assert status["churn_host_recoveries"] == 1


def test_job_status_omits_host_counters_when_no_host_churn_happened():
    sim, controller, job = _deploy(instances=6, churn_script="at 5s crash 2\n")
    sim.run(until=10.0)
    status = controller.job_status(job)
    assert "churn_host_failures" not in status
    assert "churn_host_recoveries" not in status


def test_trace_driven_job_replays_host_churn_deterministically():
    trace = "t0 0 20\nt0 40 100\nt1 0 60\n"

    def run():
        sim, controller, job = _deploy(instances=8, hosts=4, churn_trace=trace)
        sim.run(until=120.0)
        churn = controller.churn_managers[job.job_id]
        return (churn.stats.hosts_failed, churn.stats.hosts_recovered,
                tuple(sorted(controller.failed_host_ips())),
                job.stats.churn_host_failures, job.stats.churn_host_recoveries)

    first = run()
    # t0 blips (fail@20, recover@40) then dies at the 100s horizon... which
    # IS the horizon, so it stays up; t1 dies at 60 and stays down.
    assert first[0] == 2 and first[1] == 1
    assert len(first[2]) == 1
    assert first == run()


def test_host_counters_survive_controller_shard_failover():
    sim, controller, job = _deploy(
        instances=8, hosts=4, shards=2,
        churn_script="at 5s fail 1\nat 15s fail 1\nat 25s recover 2\n")
    sim.run(until=10.0)
    assert job.stats.churn_host_failures == 1
    # the claiming shard dies mid-run; churn keeps flowing via the survivor
    controller.shards[0].fail()
    sim.run(until=30.0)
    assert job.stats.churn_host_failures == 2
    assert job.stats.churn_host_recoveries == 2
    assert controller.failed_host_ips() == []


def test_script_and_trace_compose_on_one_job():
    sim, controller, job = _deploy(
        instances=8, hosts=4,
        churn_script="at 10s crash 2\n", churn_trace="t0 0 30\n t1 0 80\n")
    sim.run(until=90.0)
    assert job.stats.churn_crashes == 2
    # t0 fails at 30 (before the 80s horizon), t1 is up through the horizon
    assert job.stats.churn_host_failures == 1


def test_chord_replays_the_bundled_trace_end_to_end():
    from repro.apps.chord import run_chord_scenario
    from repro.apps.harness import RunConfig

    trace = (TRACES_DIR / "synthetic_overnet.trace").read_text()
    report = run_chord_scenario(
        RunConfig(nodes=16, hosts=8, seed=0, duration="short",
                  churn_trace=trace), lookups=12)
    # host-level fail/recover events are visible in Job.stats / the report
    assert report["job"]["churn_host_failures"] > 0
    assert report["job"]["churn_host_recoveries"] > 0
    assert report["churn"]["hosts_failed"] > 0
    assert report["job"]["churn_crashes"] == 0  # populations stay separate
    assert report["measured"]["success_rate"] >= 0.9
