"""Churn: script parsing and deterministic replay against a job."""

import pytest

from repro.apps.scenarios import main
from repro.core.churn import ChurnManager, ChurnScriptError, parse_churn_script
from repro.core.jobs import JobSpec
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.jobstore import LOG_DRAIN_INTERVAL
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator


def test_parse_point_events_with_units_and_comments():
    actions = parse_churn_script("""
        # warmup, then kill things
        at 30s join 10
        at 2m leave 5
        at 2m crash 10%
        at 300s stop
    """)
    assert [(a.time, a.kind) for a in actions] == [
        (30.0, "join"), (120.0, "leave"), (120.0, "crash"), (300.0, "stop")]
    assert actions[1].count == 5
    assert actions[2].fraction == pytest.approx(0.10)


def test_window_expands_into_discrete_actions():
    actions = parse_churn_script("from 60s to 180s every 60s replace 2\n")
    assert [(a.time, a.kind, a.count) for a in actions] == [
        (60.0, "replace", 2), (120.0, "replace", 2), (180.0, "replace", 2)]


def test_percentage_resolves_against_live_count():
    (action,) = parse_churn_script("at 10s crash 10%")
    assert action.resolve_count(50) == 5
    assert action.resolve_count(3) == 1  # at least one victim when any live
    assert action.resolve_count(0) == 0


def test_malformed_scripts_are_rejected():
    for bad in ("at 10s frobnicate 3", "from 10s until 20s join 1",
                "leave 5", "at tens join 1", "at 10s crash 150%"):
        with pytest.raises((ChurnScriptError, ValueError)):
            parse_churn_script(bad)


@pytest.mark.parametrize("line, why", [
    ("at 5s dance 1", "unknown directive: dance"),
    ("at 5s crash 140%", "out of range"),
    ("from 30s to 10s every 5s leave 1", "forward in time"),
    ("when 5s crash 1", "'at' or 'from'"),
    ("at 5s crash -3", "negative"),
    ("at 5s stop now please", "expected"),
    ("at 5s crash 1 2 3", "expected"),
], ids=["unknown-kind", "percentage", "window", "head", "negative-count",
        "trailing-after-stop", "trailing-after-amount"])
def test_every_malformed_line_is_an_error_that_names_its_line(line, why,
                                                              tmp_path, capsys):
    # Nothing malformed is accepted in silence (a negative count used to
    # replay as a no-op, trailing tokens were ignored), and every error says
    # where it is — in a script with a comment and a good line before it.
    script = f"# churn\nat 1s join 1\n  {line}  # here\n"
    with pytest.raises(ChurnScriptError, match=why) as caught:
        parse_churn_script(script)
    assert str(caught.value).startswith(f"line 3: cannot parse '  {line}  # here'")
    # The command line reports the same thing as one line, not a traceback.
    path = tmp_path / "bad.churn"
    path.write_text(script)
    assert main(["chord", "--nodes", "10", "--churn-script", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid churn script {path}: {caught.value}\n"


def _deploy(seed=0, instances=10, churn_script=None):
    sim = Simulator(seed)
    network = Network(sim, seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(5):
        controller.register_daemon(
            Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=6)))
    spec = JobSpec(name="noop", app_factory=lambda instance: object(),
                   instances=instances, churn_script=churn_script)
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def test_churn_manager_replays_leaves_and_joins():
    sim, controller, job = _deploy(
        instances=10, churn_script="at 10s leave 3\nat 20s join 2\n")
    assert job.live_count == 10
    sim.run(until=15.0)
    assert job.live_count == 7
    sim.run(until=25.0)
    assert job.live_count == 9
    churn = controller.churn_managers[job.job_id]
    assert churn.stats.instances_left == 3
    assert churn.stats.instances_joined == 2
    # Graceful leaves are clean stops, not failures.
    assert job.stats.instances_stopped == 3
    assert job.stats.instances_failed == 0


def test_replace_keeps_population_steady():
    sim, controller, job = _deploy(
        instances=10, churn_script="from 10s to 50s every 10s replace 20%\n")
    sim.run(until=60.0)
    assert job.live_count == 10
    churn = controller.churn_managers[job.job_id]
    assert churn.stats.instances_left == churn.stats.instances_joined == 10
    # replace kills are graceful departures, never crashes
    assert churn.stats.instances_crashed == 0


def test_crashes_and_graceful_leaves_are_counted_separately():
    sim, controller, job = _deploy(
        instances=10, churn_script="at 10s crash 3\nat 20s leave 2\n")
    sim.run(until=30.0)
    churn = controller.churn_managers[job.job_id]
    assert churn.stats.instances_crashed == 3
    assert churn.stats.instances_left == 2
    # the controller surfaces the split in job_status
    status = controller.job_status(job)
    assert status["churn_crashes"] == 3
    assert status["churn_leaves"] == 2


def test_victim_selection_is_deterministic_per_seed():
    def victims(seed):
        sim, controller, job = _deploy(seed=seed, instances=8,
                                       churn_script="at 5s crash 50%\n")
        before = {i.instance_id for i in job.live_instances()}
        sim.run(until=6.0)
        after = {i.instance_id for i in job.live_instances()}
        assert job.stats.instances_failed == len(before - after)  # crash = failure
        return tuple(sorted(before - after))

    assert victims(3) == victims(3)


def test_stop_directive_stops_the_job():
    from repro.core.jobs import JobState

    sim, _controller, job = _deploy(instances=4, churn_script="at 5s stop\n")
    sim.run(until=10.0)
    assert job.state is JobState.STOPPED
    assert job.live_count == 0


def test_a_stopped_job_leaves_no_churn_timers_behind():
    sim, controller, job = _deploy(
        instances=4,
        churn_script="at 50s crash 1\nat 100s join 1\nat 500s fail 1\n")
    job.live_instances()[0].logger.info("so there is a log drain to wait for")
    sim.run(until=10.0)
    controller.stop(job)
    drained = sim.run(until=sim.now + LOG_DRAIN_INTERVAL)
    # Nothing is left to fire: the three actions were cancelled with the job,
    # so an unbounded run returns at once instead of walking the clock to
    # t=500 through three no-ops.
    assert sim.pending_events == 0
    assert sim.run() == drained
    churn = controller.churn_managers[job.job_id]
    assert churn.stats.actions_applied == 0  # still readable after the stop


def test_the_stop_directive_cancels_the_actions_scripted_after_it():
    sim, controller, job = _deploy(
        instances=4, churn_script="at 5s stop\nat 50s join 2\nat 90s crash 1\n")
    assert sim.run() < 50.0
    assert sim.pending_events == 0
    assert controller.churn_managers[job.job_id].stats.by_kind == {"stop": 1}
