"""Repo tools: the CDF plotter (stdlib fallback) and the trace generator."""

import importlib.util
import json
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_TOOLS = _REPO / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _write_cdf_csv(path, samples):
    from repro.apps.harness import write_cdf

    write_cdf(str(path), samples)


def test_plot_cdf_reads_the_harness_csv_format(tmp_path):
    plot_cdf = _load("plot_cdf")
    csv_path = tmp_path / "cdf.csv"
    _write_cdf_csv(csv_path, [10.0, 20.0, 30.0, 40.0])
    xs, ys = plot_cdf.read_cdf(str(csv_path))
    assert xs == [10.0, 20.0, 30.0, 40.0]
    assert ys == [0.25, 0.5, 0.75, 1.0]


def test_plot_cdf_svg_fallback_renders_every_curve(tmp_path):
    plot_cdf = _load("plot_cdf")
    curves = [("stable", [5.0, 10.0], [0.5, 1.0]),
              ("churn", [5.0, 40.0], [0.5, 1.0])]
    out = plot_cdf._plot_svg(curves, str(tmp_path / "plot.png"), "title")
    assert out.endswith(".svg")  # extension is corrected for the fallback
    svg = Path(out).read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "stable" in svg and "churn" in svg
    assert "latency (ms)" in svg


def test_plot_cdf_main_plots_multiple_files(tmp_path, capsys):
    plot_cdf = _load("plot_cdf")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_cdf_csv(first, [1.0, 2.0])
    _write_cdf_csv(second, [3.0, 4.0, 5.0])
    out = tmp_path / "figure.svg"
    status = plot_cdf.main([str(first), str(second), "--out", str(out),
                            "--labels", "one", "two"])
    assert status == 0
    assert out.exists()
    assert "2 curve(s), 5 samples" in capsys.readouterr().out


def test_plot_cdf_main_rejects_label_count_mismatch(tmp_path, capsys):
    plot_cdf = _load("plot_cdf")
    csv_path = tmp_path / "a.csv"
    _write_cdf_csv(csv_path, [1.0])
    status = plot_cdf.main([str(csv_path), "--labels", "a", "b"])
    assert status == 2
    assert "label" in capsys.readouterr().err


def test_gen_availability_trace_defaults_reproduce_the_bundled_file(tmp_path, capsys):
    gen = _load("gen_availability_trace")
    out = tmp_path / "trace.txt"
    status = gen.main(["--out", str(out)])
    assert status == 0
    assert out.read_text() == (_REPO / "traces" / "synthetic_overnet.trace").read_text()


def _write_scale_csv(path):
    from repro.apps.scenarios import BENCH_CSV_COLUMNS, write_bench_csv

    rows = [
        {"row_type": "kernel", "kernel": "wheel", "nodes": 50},  # skipped
        {"row_type": "scale", "workload": "chord", "kernel": "wheel",
         "nodes": 1000, "hosts": 500, "events_executed": 500000,
         "events_per_sec": 50000.0, "wall_sec": 10.0, "peak_rss_kb": 200000},
        {"row_type": "scale", "workload": "chord", "kernel": "wheel",
         "nodes": 5000, "hosts": 2500, "events_executed": 2500000,
         "events_per_sec": 45000.0, "wall_sec": 55.0, "peak_rss_kb": 800000},
    ]
    write_bench_csv(str(path), rows)
    assert BENCH_CSV_COLUMNS[0] == "row_type"


def test_plot_scale_reads_only_scale_rows_and_derives_ratios(tmp_path, capsys):
    plot_scale = _load("plot_scale")
    csv_path = tmp_path / "bench_scale.csv"
    _write_scale_csv(csv_path)
    rows = plot_scale.read_scale_rows(str(csv_path))
    assert [int(r["nodes"]) for r in rows] == [1000, 5000]
    status = plot_scale.main([str(csv_path)])
    out = capsys.readouterr().out
    assert status == 0
    assert "1000" in out and "5000" in out
    # 200000/1000 = 200 KB/node at 1k; 800000/5000 = 160 KB/node at 5k
    assert "KB-per-node ratio: 0.80x" in out
    assert "events/sec ratio (scale_efficiency): 0.90x" in out
    # 1e6/50000 = 20 us/event at 1k; 1e6/45000 = 22.22 at 5k
    assert "per-event cost: 20.00 -> 22.22 us/event" in out


def test_plot_scale_rejects_csv_without_scale_rows(tmp_path, capsys):
    plot_scale = _load("plot_scale")
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("row_type,nodes\nkernel,50\n")
    status = plot_scale.main([str(csv_path)])
    assert status == 2
    assert "no scale rows" in capsys.readouterr().err


def test_work_counter_gate_fails_only_above_the_ceiling():
    gate = _load("check_work_counters")
    metrics = {name: {"value": value, "unit": "count"} for name, value in
               (("apps.workload.calls", 700), ("lib.ring.calls", 300), ("other.calls", 5))}
    counters = ["apps.workload.calls", "lib.ring.calls"]
    assert gate.over_ceiling(metrics, counters, 1000) == (1000, False)
    assert gate.over_ceiling(metrics, counters, 999) == (1000, True)
    assert gate.over_ceiling(metrics, counters, 5000) == (1000, False)


def test_work_counter_ceilings_name_declared_benchmark_counters():
    import json

    spec = json.loads((_TOOLS / "work_counter_ceilings.json").read_text())
    contract = json.loads((_REPO / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in contract["per_layer"]}
    workloads = {workload["name"] for workload in contract["workloads"]}
    assert spec["workloads"]
    for workload, gates in spec["workloads"].items():
        assert workload in workloads and gates
        for gate in gates:
            assert set(gate["counters"]) <= declared
            assert gate["ceiling"] > 0
    swarm = [set(gate["counters"]) for gate in spec["workloads"]["dissemination_swarm"]]
    assert {"net.network.calls"} in swarm
    assert {"net.bandwidth.calls", "net.bwalloc.calls"} in swarm
    # the control plane: every layer deploy_churn_idle spends its time in
    (control,) = spec["workloads"]["deploy_churn_idle"]
    assert set(control["counters"]) == {
        "runtime.controller.calls", "runtime.jobstore.calls",
        "runtime.splayd.calls", "core.jobs.calls", "core.churn.calls",
        "lib.logging.calls"}
    assert control["ceiling"] <= 978_195  # the sum before the facts were kept once


# --------------------------------------------------------------------- ab.py
def _canned_run(op_host_ms, setup_s, rss, events_per_ok_op=232.5, failed=0):
    """stdout of one ``benchmarks/run.py --trace 0`` invocation."""
    metrics = {"setup_s": (setup_s, "s"), "op_host_ms": (op_host_ms, "ms"),
               "peak_rss_mb": (rss, "MB"), "ok_rate": (1.0, "ratio"),
               "events_per_ok_op": (events_per_ok_op, "count"),
               "sim_op_p50_ms": (1570.8, "sim_ms"),
               "sim_op_tail_ms": (2440.6, "sim_ms")}
    result = {"correct": True, "attempted": 1200, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return ("# workload=chord_steady seed=0 trace=0 nproc=4\n"
            "# repetitions=3 host_s=[4.1, 4.2, 4.1]\n"
            f"op_host_ms    {op_host_ms!r} ms\n" + json.dumps(result) + "\n")


def test_ab_reports_medians_wins_and_verdicts_from_canned_result_lines():
    ab = _load("ab")
    contract = json.loads((_REPO / "BENCHMARK.json").read_text())
    # op_host_ms: the change is 20 % slower on every seed (bound 15 %): worse.
    # setup_s: the parent's own IQR (> 25 %) hides a +10 % median: unresolved.
    # peak_rss_mb: +1 % against a 5 % bound, two wins of four: not worse.
    parent = [ab.parse_result(_canned_run(*run)) for run in
              [(1.00, 1.0, 40.0), (1.02, 1.6, 40.2), (0.98, 0.9, 40.1),
               (1.01, 1.5, 40.3)]]
    change = [ab.parse_result(_canned_run(*run)) for run in
              [(1.20, 1.1, 40.5), (1.22, 1.7, 40.1), (1.18, 1.0, 40.6),
               (1.21, 1.6, 40.2)]]
    assert parent[0]["attempted"] == 1200 and parent[0]["op_host_ms"] == 1.00
    lines, failed = ab.report("chord_steady", contract["end_to_end"],
                              parent, change, seeds=[0, 1, 2, 3])
    text = "\n".join(lines)
    assert failed  # one metric is worse
    assert "chord_steady (4 pairs, seeds 0, 1, 2, 3):" in lines[0]
    (op_line,) = [line for line in lines if line.startswith("  op_host_ms")]
    assert "0/4 better" in op_line and "bound 15 %" in op_line
    assert "(+19.9 %" in op_line and op_line.endswith(": worse")
    assert "0:1/1.2 1:1.02/1.22 2:0.98/1.18 3:1.01/1.21" in text  # every run
    (setup_line,) = [line for line in lines if line.startswith("  setup_s")]
    assert setup_line.endswith(": unresolved")
    (rss_line,) = [line for line in lines if line.startswith("  peak_rss_mb")]
    assert "2/4 better" in rss_line and rss_line.endswith(": not worse")
    for name in ("ok_rate", "events_per_ok_op", "sim_op_p50_ms",
                 "sim_op_tail_ms", "attempted", "failed"):
        assert f"  {name}: exactly equal per seed on 4/4 pairs" in lines

    # A simulated metric that moves for one seed is a failure by itself,
    # however small; so is one more failed operation.
    moved = [dict(run) for run in parent]
    moved[2]["events_per_ok_op"] += 0.5
    moved[1]["failed"] = 1
    lines, failed = ab.report("chord_steady", contract["end_to_end"],
                              parent, moved, seeds=[0, 1, 2, 3])
    assert failed
    assert sum(line.endswith(": DIFFERS") for line in lines) == 2
    # Identical sides: nothing fails, host metrics are simply not worse.
    lines, failed = ab.report("chord_steady", contract["end_to_end"],
                              parent, parent, seeds=[0, 1, 2, 3])
    assert not failed


def test_ab_spread_rule_yields_to_a_clean_sweep():
    # The parent's IQR exceeds the bound, but every run of the change beats
    # every run of the parent: that is resolved, and not worse.
    ab = _load("ab")
    metric = {"name": "setup_s", "better": "lower", "bound": 0.25}
    row = ab.compare(metric, [1.0, 1.6, 0.9, 1.5], [0.5, 0.6, 0.4, 0.7])
    assert row["spread"] > 0.25 and row["verdict"] == "not worse"
    assert row["wins"] == 4
    higher = {"name": "x", "better": "higher", "bound": 0.1}
    assert ab.compare(higher, [1.0, 1.0], [0.8, 0.8])["verdict"] == "worse"
    assert ab.compare(higher, [1.0, 1.0], [1.2, 1.0])["wins"] == 1
