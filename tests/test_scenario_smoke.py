"""End-to-end smoke: every registered scenario meets its acceptance bar."""

import pytest

from repro.apps.chord import run_chord_scenario
from repro.apps.gossip import run_gossip_scenario
from repro.apps.harness import RunConfig, deterministic_report_view
from repro.apps.pastry import run_pastry_scenario
from repro.apps.scenarios import main

FLAGSHIP = RunConfig(nodes=20, hosts=10, seed=0, churn=True)
STABLE = RunConfig(nodes=10, hosts=5, seed=1, join_window=20.0, settle=40.0)


@pytest.mark.slow
def test_chord_scenario_under_churn_meets_the_bar():
    report = run_chord_scenario(FLAGSHIP, lookups=60)
    measured = report["measured"]
    assert measured["issued"] == 60
    assert measured["success_rate"] >= 0.99
    assert measured["latency_p50_ms"] > 0
    churn = report["churn"]
    assert churn is not None and churn["actions_applied"] > 0
    # the default script has both a crash burst and replace windows, and the
    # two populations are tracked separately
    assert report["job"]["churn_leaves"] > 0
    assert report["job"]["churn_crashes"] > 0
    assert report["log_records_collected"] > 0


def test_chord_scenario_without_churn_is_perfect_and_deterministic():
    first = run_chord_scenario(STABLE, lookups=30)
    second = run_chord_scenario(STABLE, lookups=30)
    assert first["measured"]["success_rate"] == 1.0
    assert (deterministic_report_view(first)
            == deterministic_report_view(second))


@pytest.mark.slow
def test_pastry_scenario_under_churn_meets_the_bar():
    report = run_pastry_scenario(FLAGSHIP, lookups=60)
    measured = report["measured"]
    assert measured["issued"] == 60
    assert measured["success_rate"] >= 0.95
    assert report["churn"] is not None and report["churn"]["actions_applied"] > 0
    # Pastry's promise: O(log_{2^b} N) routing (plus the claim confirmation).
    assert measured["hops_mean"] <= 6.0


def test_pastry_scenario_without_churn_is_perfect_and_deterministic():
    first = run_pastry_scenario(STABLE, lookups=30)
    second = run_pastry_scenario(STABLE, lookups=30)
    assert first["measured"]["success_rate"] == 1.0
    assert (deterministic_report_view(first)
            == deterministic_report_view(second))


def test_gossip_scenario_reaches_full_coverage_and_is_deterministic():
    config = RunConfig(nodes=12, hosts=6, seed=1, join_window=15.0, settle=30.0)
    first = run_gossip_scenario(config, broadcasts=20)
    second = run_gossip_scenario(config, broadcasts=20)
    assert first["measured"]["success_rate"] == 1.0
    assert first["workload"]["delivery_ratio_min"] == 1.0
    assert (deterministic_report_view(first)
            == deterministic_report_view(second))


def test_scenario_cli_short_duration_smoke_writes_cdf(tmp_path):
    # The CI smoke matrix path: every subcommand with --duration short.
    cdf = tmp_path / "cdf.csv"
    status = main(["gossip", "--nodes", "12", "--hosts", "6",
                   "--duration", "short", "--cdf", str(cdf)])
    assert status == 0
    lines = cdf.read_text().strip().splitlines()
    assert lines[0] == "latency_ms,fraction"
    assert len(lines) > 1


def test_scenario_cli_exits_nonzero_below_min_success(tmp_path, capsys):
    status = main(["chord", "--nodes", "10", "--hosts", "5", "--duration",
                   "short", "--min-success", "1.01"])
    assert status == 2
    assert "FAIL" in capsys.readouterr().err


def test_scenario_cli_rejects_unreadable_and_malformed_churn_files(tmp_path, capsys):
    base = ["chord", "--nodes", "10", "--duration", "short"]
    assert main(base + ["--churn-script", str(tmp_path / "missing")]) == 2
    assert "error: cannot read churn script" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("at noon crash everything\n")
    assert main(base + ["--churn-script", str(bad)]) == 2
    assert f"error: invalid churn script {bad}" in capsys.readouterr().err
    assert main(base + ["--churn-trace", str(bad)]) == 2
    assert f"error: invalid churn trace {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gossip", "--hosts", "0"],
    ["chord", "--nodes", "0"],
    ["chord", "--ctl-shards", "0"],
    ["pastry", "--bits", "30"],
    ["chord", "--join-window", "-5"],
    ["chord", "--settle", "-50"],
    ["bench", "--ctl-shards", "0"],
    ["bench", "--nodes", "20", "0"],
], ids=" ".join)
def test_cli_rejects_a_malformed_command_line_with_one_error_line(argv, capsys):
    # each of these used to end in a traceback (ZeroDivisionError, ValueError,
    # ControllerError) or, the negative windows, to run silently
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
