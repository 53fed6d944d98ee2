"""The scenario list, the workload declarations and the shared harness plumbing."""

import pytest

from repro.apps import harness, registry
from repro.apps.harness import RunConfig
from repro.apps.scenarios import _parser
from repro.core.churn import parse_churn_script


def test_builtin_workloads_are_registered():
    names = registry.scenario_names()
    for expected in ("chord", "pastry", "gossip", "dissemination"):
        assert expected in names


@pytest.mark.parametrize("name", registry.scenario_names())
def test_a_declaration_gives_the_cli_and_the_runner_the_same_defaults(name):
    spec = registry.get_spec(name)
    args = _parser().parse_args([name])
    run = spec(RunConfig())
    assert args.min_success == spec.min_success and 0.0 < spec.min_success <= 1.0
    for param, default, _help in spec.params:
        assert getattr(args, param) == getattr(run, param) == default
    # --churn replays the declaration's own script, which must parse
    churned = spec(RunConfig(churn=True)).config
    assert churned.churn_script == spec.default_churn_script
    assert parse_churn_script(spec.default_churn_script)
    # the declaration is the one place that says what --churn means
    with pytest.raises(ValueError, match="churn_script"):
        RunConfig(churn=True).resolved()
    with pytest.raises(TypeError, match="spacing"):
        spec.runner(RunConfig(), spacing=0.5)


def test_unknown_scenario_raises_a_helpful_error():
    with pytest.raises(KeyError) as excinfo:
        registry.get_spec("kademlia")
    assert type(excinfo.value) is KeyError
    assert "chord, pastry, gossip, dissemination" in str(excinfo.value)


# ------------------------------------------------------------------- harness
def test_host_ips_keep_the_historical_layout_in_the_first_block():
    ips = harness.host_ips(3)
    assert ips == ["10.0.0.1", "10.0.1.1", "10.0.2.1"]
    assert harness.host_ips(257)[256] == "10.1.0.1"


def test_host_ips_roll_over_into_additional_blocks_beyond_65536():
    ips = harness.host_ips(65538)
    assert ips[65535] == "10.255.255.1"
    assert ips[65536] == "11.0.0.1"
    assert ips[65537] == "11.0.1.1"
    assert len(set(ips)) == len(ips)  # no silent reuse


def test_host_ips_raise_a_clear_error_above_the_plan_limit():
    with pytest.raises(ValueError) as excinfo:
        harness.host_ips(harness.MAX_HOSTS + 1)
    assert "at most" in str(excinfo.value)


def test_write_cdf_emits_latency_fraction_pairs(tmp_path):
    path = tmp_path / "cdf.csv"
    count = harness.write_cdf(str(path), [30.0, 10.0, 20.0, 40.0])
    assert count == 4
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "latency_ms,fraction"
    assert lines[1] == "10.0,0.25"
    assert lines[-1] == "40.0,1.0"


def test_scaled_windows_short_preset_shrinks_both_windows():
    full_join, full_settle = harness.scaled_windows(100, None, None, "full")
    short_join, short_settle = harness.scaled_windows(100, None, None, "short")
    assert short_join < full_join and short_settle < full_settle
    # Explicit values always win over the preset.
    assert harness.scaled_windows(100, 7.0, 9.0, "short") == (7.0, 9.0)
    with pytest.raises(ValueError):
        harness.scaled_windows(10, None, None, "weekend")
    assert harness.scaled_ops(100, "short") < 100
    assert harness.scaled_ops(100, "full") == 100


def test_summarise_counts_completed_and_correct_separately():
    results = [
        harness.OpResult(key=1, started_at=0.0, latency=0.5, hops=3,
                         completed=True, correct=True),
        harness.OpResult(key=2, started_at=0.0, latency=1.5, hops=5,
                         completed=True, correct=False),
        harness.OpResult(key=3, started_at=0.0, latency=0.0, hops=0,
                         completed=False, correct=False),
    ]
    summary = harness.summarise(results)
    assert summary["issued"] == 3
    assert summary["completed"] == 2
    assert summary["correct"] == 1
    assert summary["success_rate"] == pytest.approx(1 / 3)
    assert summary["latency_max_ms"] == pytest.approx(1500.0)
    assert summary["hops_max"] == 5
