"""Small-size repetitions: same seed, same simulated results; new seed, new inputs."""

import time

import pytest

import inputs
import run


def repetition(workload: str, seed: int) -> dict:
    small = inputs.make_inputs(workload, seed, small=True)
    return run.run_child(small, deadline=time.perf_counter() + 120.0)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_simulated_results(workload):
    first, second = repetition(workload, 5), repetition(workload, 5)
    assert first["sim"] == second["sim"]
    assert first["slice_events"] == second["slice_events"]
    assert first["sim"]["ok"] >= 1
    assert first["setup_slices"] >= 1 and len(first["durations"]) > first["setup_slices"]
    assert all(duration > 0 for duration in first["durations"])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert inputs.make_inputs(workload, 5) == inputs.make_inputs(workload, 5)
    assert inputs.make_inputs(workload, 5) != inputs.make_inputs(workload, 6)


def test_a_different_seed_gives_a_different_run():
    assert repetition("chord_steady", 5)["sim"] != repetition("chord_steady", 6)["sim"]


def test_churn_workloads_exercise_churn_even_when_small():
    pastry = repetition("pastry_churn_planetlab", 5)["sim"]["counters"]
    assert pastry["core.churn.actions_applied"] > 0
    idle = repetition("deploy_churn_idle", 5)["sim"]["counters"]
    assert idle["runtime.instances_killed"] > 0


def test_traced_repetition_accounts_for_every_layer():
    small = inputs.make_inputs("dissemination_swarm", 5, small=True)
    traced = run.run_child(small, deadline=time.perf_counter() + 120.0, profile=True)
    assert set(traced["layers"]) == set(run.LAYERS)
    assert traced["layers"]["net.bandwidth"]["calls"] > 0
    assert traced["layers"]["apps.workload"]["self_ms"] > 0


def test_invalid_repetition_is_reported_not_measured():
    small = inputs.make_inputs("dissemination_swarm", 5, small=True)
    small["horizon"] = 4.0  # nobody can finish by then
    with pytest.raises(run.Invalid, match="hard cap"):
        run.run_child(small, deadline=time.perf_counter() + 120.0)
