"""End-to-end smoke: every registered scenario meets its acceptance bar."""

import importlib.util
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from repro.apps import harness, registry
from repro.apps.chord import ChordNode, run_chord_scenario
from repro.apps.gossip import run_gossip_scenario
from repro.apps.harness import RunConfig, deterministic_report_view
from repro.apps.pastry import run_pastry_scenario
from repro.apps.scenarios import _parser, main

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
    assert first["handler_errors"] == {"count": 0, "last": []}
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


def test_scenario_cli_prints_host_time_and_peak_rss_after_the_network_line(capsys):
    assert main(["chord", "--nodes", "10", "--hosts", "5", "--duration",
                 "short", "--min-success", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    after = lines[[line.startswith("network: ") for line in lines].index(True) + 1]
    assert re.fullmatch(r"host: deploy \d+\.\d\d s, run \d+\.\d\d s, "
                        r"drain \d+\.\d\d s; peak RSS [1-9]\d* KB", after)


def test_the_cli_has_no_bench_subcommand(capsys):
    # the size sweep is two rows of tools/digest_matrix.py
    with pytest.raises(SystemExit) as exited:
        main(["bench"])
    assert exited.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


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
    ["chord", "--hosts", "7667713"],
    ["chord", "--nodes", "16000000"],
], ids=" ".join)
def test_cli_rejects_a_malformed_command_line_with_one_error_line(argv, capsys):
    # each of these used to end in a traceback (ZeroDivisionError, ValueError,
    # ControllerError) or, the negative windows, to run silently
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


_REPO = Path(__file__).resolve().parent.parent
_QUOTING = ["README.md", "docs/*.md", ".claude/skills/verify/SKILL.md",
            ".github/workflows/ci.yml"]
_COMMAND = "python -m repro.apps.scenarios"


def _quoted_commands():
    """``(file, argv)`` of every scenarios command the docs and CI quote.

    Shell continuation lines are joined; a command in a markdown code span
    runs to the closing backtick (even across a line break), anywhere else
    to the end of its line. A command templated by CI (``${{ ... }}``) and
    a bare mention of the CLI are left out.
    """
    for pattern in _QUOTING:
        for path in sorted(_REPO.glob(pattern)):
            text = re.sub(r"\\\n\s*", " ", path.read_text(encoding="utf-8"))
            for found in re.finditer(re.escape(_COMMAND), text):
                line_start = text.rfind("\n", 0, found.start()) + 1
                in_span = text.count("`", line_start, found.start()) % 2 == 1
                end = text.find("`" if in_span else "\n", found.end())
                argv = shlex.split(text[found.end():end if end >= 0 else len(text)],
                                   comments=True)
                if argv and "${{" not in " ".join(argv):
                    yield str(path.relative_to(_REPO)), argv


def test_every_registered_scenario_has_a_leg_in_the_ci_smoke_matrix():
    # the matrix is a hand-written list: a new workload must be added to it
    workflow = (_REPO / ".github/workflows/ci.yml").read_text(encoding="utf-8")
    matrix = workflow[workflow.index("\n  scenarios:\n"):workflow.index("\n  digest-matrix:\n")]
    legs = set(re.findall(r'^\s+args: "(\S+)', matrix, re.M))
    assert set(registry.scenario_names()) <= legs


def test_every_quoted_scenarios_command_parses(capsys):
    # A flag that leaves the CLI must leave the docs that teach it too.
    commands = list(_quoted_commands())
    assert {where for where, _argv in commands} >= {
        "README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}
    parser = _parser()
    rejected = []
    for where, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(f"{where}: {' '.join(argv)}: "
                            f"{capsys.readouterr().err.strip().splitlines()[-1]}")
    assert rejected == []


# ------------------------------------------------------------ handler errors
def _broken_stabilize(self, node):
    raise KeyError("stabilize is broken")


def test_scenario_cli_fails_a_run_whose_rpc_handler_raises(monkeypatch, capsys):
    # The caller of a raising handler gets an RpcError, and Chord purges the
    # callee as dead: without the count, a broken handler passed for churn.
    monkeypatch.setattr(ChordNode, "_rpc_stabilize", _broken_stabilize)
    status = main(["chord", "--nodes", "10", "--hosts", "5", "--duration",
                   "short", "--min-success", "0"])
    captured = capsys.readouterr()
    assert status == 2
    assert re.search(r"^handler errors: [1-9][0-9]*$", captured.out, re.M)
    assert "rpc stabilize: KeyError('stabilize is broken')" in captured.err
    assert "FAIL: message or RPC handlers raised" in captured.err


def test_the_benchmark_refuses_a_run_whose_rpc_handler_raises(monkeypatch):
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    monkeypatch.setattr(sys, "path", [str(bench)] + sys.path)  # restored after
    spec = importlib.util.spec_from_file_location("bench_child", bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    from inputs import make_inputs

    deployments = []
    deploy = harness.deploy

    def recording(*args, **kwargs):
        deployments.append(deploy(*args, **kwargs))
        return deployments[-1]

    monkeypatch.setattr(harness, "deploy", recording)
    monkeypatch.setattr(ChordNode, "_rpc_stabilize", _broken_stabilize)
    try:
        with pytest.raises(child.Invalid, match="message handler errors"):
            child.run(make_inputs("chord_steady", 0, small=True),
                      child.SliceClock(time.perf_counter(), 0.0), None)
    finally:
        for deployment in deployments:  # the child's tuned GC policy
            deployment.gc_policy.disengage()
