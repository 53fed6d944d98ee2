"""Repo tools: the CDF plotter (stdlib fallback), the trace generator, the
benchmark and matrix drivers and the line tracer."""

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

    # Identical sides: nothing fails, host metrics are simply not worse.
    lines, failed = ab.report("chord_steady", contract["end_to_end"],
                              parent, parent, seeds=[0, 1, 2, 3])
    assert not failed


def _simulated_verdicts(ab, parent, change):
    contract = json.loads((_REPO / "BENCHMARK.json").read_text())
    lines, failed = ab.report("chord_steady", contract["end_to_end"],
                              parent, change, seeds=list(range(len(parent))))
    verdicts = {line.split(":")[0].strip(): line.split("): ")[-1]
                for line in lines[1:] if line.startswith("  ") and "): " in line}
    return verdicts, failed


def test_ab_judges_a_simulated_metric_that_moves_on_purpose_against_its_bound():
    ab = _load("ab")
    parent = [ab.parse_result(_canned_run(1.0, 1.0, 40.0)) for _ in range(4)]

    def moved(**values):
        return [dict(run, **values) for run in parent]

    # events_per_ok_op 232.5: -20 % is better, +5 % is within its 8 % bound,
    # +10 % is over it; only the last fails the tool
    verdicts, failed = _simulated_verdicts(ab, parent, moved(events_per_ok_op=186.0))
    assert verdicts["events_per_ok_op"] == "DIFFERS, better" and not failed
    verdicts, failed = _simulated_verdicts(ab, parent, moved(events_per_ok_op=244.1))
    assert verdicts["events_per_ok_op"] == "DIFFERS, not worse" and not failed
    verdicts, failed = _simulated_verdicts(ab, parent, moved(events_per_ok_op=255.8))
    assert verdicts["events_per_ok_op"] == "worse" and failed
    # one seed moving leaves the median where it was: not worse, but named
    one_seed = moved()
    one_seed[2]["events_per_ok_op"] += 0.5
    verdicts, failed = _simulated_verdicts(ab, parent, one_seed)
    assert verdicts["events_per_ok_op"] == "DIFFERS, not worse" and not failed
    assert "ok_rate" not in verdicts  # still exactly equal per seed

    # the operation counts go by their totals: one failure more is worse
    # wherever it falls, one fewer is better
    more = moved()
    more[1]["failed"] = 1
    verdicts, failed = _simulated_verdicts(ab, parent, more)
    assert verdicts["failed"] == "worse" and failed
    verdicts, failed = _simulated_verdicts(ab, more, parent)
    assert verdicts["failed"] == "DIFFERS, better" and not failed


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


# -------------------------------------------------------------- seed_sweep.py
def test_seed_sweep_prints_each_seeds_measured_line_then_the_total(capsys):
    sweep = _load("seed_sweep")
    status = sweep.main(["chord --nodes 6 --duration short --lookups 12", "--seeds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert lines[0].startswith("chord --nodes 6 --duration short --lookups 12, seeds 0..1")
    assert [line.split(": ")[0] for line in lines[1:]] == [
        "seed 0", "seed 1", "total", "median p50", "median p95", "median maintenance",
        "median bytes"]
    per_seed = [tuple(map(int, line.split(": ")[1].split("/"))) for line in lines[1:3]]
    assert all(issued == 12 for _correct, issued in per_seed)
    assert lines[3] == "total: {}/24".format(sum(correct for correct, _ in per_seed))


def test_seed_sweep_reads_the_p50_and_prints_its_median_per_tree(capsys, monkeypatch):
    sweep = _load("seed_sweep")
    report = ("measured downloads: 142/142 correct -> success rate 100.00%\n"
              "downloads under churn: 40/40 correct (100.0%), latency p50=9999ms p95=1ms\n"
              "download latency: mean=5100ms p50=4960ms p95=6924ms max=7001ms\n")
    # no maintenance line: a swarm keeps no overlay; and no network line here
    assert sweep.parse(report) == (142, 142, 4960, 6924, None, None)
    assert sweep.parse(report.replace("p50=4960ms", "")) is None
    assert sweep.parse(report.replace("p95=6924ms", "")) is None
    # Three seeds on two trees: the median of each tree's own p50s and p95s.
    runs = {"HEAD~1": iter([(6874, 10897), (6814, 9000), (7000, 11000)]),
            "here": iter([(4960, 6924), (4869, 9100), (5100, 8000)])}
    monkeypatch.setattr(sweep, "export_ref", lambda ref, path: None)
    monkeypatch.setattr(sweep, "measured", lambda tree, command, seed: (
        10, 10, *next(runs["here" if tree == sweep._REPO else "HEAD~1"]), None, None))
    assert sweep.main(["dissemination --churn", "--seeds", "3", "--ref", "HEAD~1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["total: 30/30 | 30/30", "median p50: 4960ms | 6874ms",
                          "median p95: 8000ms | 10897ms"]


def test_seed_sweep_reads_the_maintenance_line_and_prints_its_median_per_tree(
        capsys, monkeypatch):
    sweep = _load("seed_sweep")
    report = ("measured lookups: 197/200 correct -> success rate 98.50%\n"
              "lookup latency: mean=1100ms p50=1076ms p95=1850ms max=3000ms\n"
              "lookup hops: mean=3.10 max=7\n"
              "maintenance: 0.194 RPCs per node per second while measuring "
              "(5820 RPCs, 150 nodes, 200 s)\n")
    assert sweep.parse(report) == (197, 200, 1076, 1850, 0.194, None)
    runs = {"HEAD~1": iter([0.252, 0.261, 0.249]), "here": iter([0.194, 0.201, 0.19])}
    monkeypatch.setattr(sweep, "export_ref", lambda ref, path: None)
    monkeypatch.setattr(sweep, "measured", lambda tree, command, seed: (
        200, 200, 1000, 2000, next(runs["here" if tree == sweep._REPO else "HEAD~1"]),
        None))
    assert sweep.main(["chord --churn", "--seeds", "3", "--ref", "HEAD~1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "median maintenance: 0.194 | 0.252 RPCs per node per second"


def test_seed_sweep_reads_the_network_bytes_and_prints_their_median_per_tree(
        capsys, monkeypatch):
    sweep = _load("seed_sweep")
    report = ("measured lookups: 200/200 correct -> success rate 100.00%\n"
              "lookup latency: mean=1100ms p50=1076ms p95=1850ms max=3000ms\n"
              "network: 38907 sent, 38907 delivered, 0 dropped, 10400123 bytes\n")
    assert sweep.parse(report) == (200, 200, 1076, 1850, None, 10400123)
    runs = {"HEAD~1": iter([11863945, 11866423, 11882249]),
            "here": iter([6297664, 6300000, 6290000])}
    monkeypatch.setattr(sweep, "export_ref", lambda ref, path: None)
    monkeypatch.setattr(sweep, "measured", lambda tree, command, seed: (
        200, 200, 1000, 2000, None, next(runs["here" if tree == sweep._REPO else "HEAD~1"])))
    assert sweep.main(["chord --nodes 150", "--seeds", "3", "--ref", "HEAD~1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "median bytes: 6297664 | 11866423"


# --------------------------------------------------------------- heal_time.py
def test_heal_time_prints_each_seeds_heal_times_then_the_medians(capsys):
    heal = _load("heal_time")
    status = heal.main(["pastry", "--nodes", "40", "--at", "200", "--seeds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert lines[0].startswith("pastry: 40 nodes, crash 10% at 200 s; seconds "
                               "until consistency >= 0.99 / = 1.0")
    assert [line.split(": ")[0] for line in lines[1:]] == ["seed 0", "median"]
    to_most, to_all = (float(t) for t in lines[1].split(": ")[1].split(" / "))
    assert 0 < to_most <= to_all < heal.HORIZON_S
    assert lines[2].split(": ")[1] == lines[1].split(": ")[1]  # one seed: its own median


# ------------------------------------------------------------ digest_matrix.py
_CANNED_REPORT = """\
=== SPLAY scenario: chord (seed=3, nodes=40, hosts=20, bits=32) ===
virtual time: 540s   events: 40101
measured lookups: 200/200 correct -> success rate 100.00%
network: 18000 sent, 17990 delivered, 10 dropped, 2977958 bytes
host: deploy 0.25 s, run 0.50 s, drain 1.25 s; peak RSS 52000 KB
report digest: ace2c0254677d1c6
"""


def test_digest_matrix_covers_the_committed_contract():
    matrix = _load("digest_matrix")
    configs = matrix.configurations()
    assert len(configs) == len(set(configs)) == 22
    assert configs[-2:] == list(matrix.SCALE)
    assert not any("--bw-alloc" in config for config in configs)
    committed = json.loads((_REPO / "DIGESTS.json").read_text())
    assert list(committed) == configs
    # the host line is information: the row holds only what is deterministic
    assert matrix.parse_row(_CANNED_REPORT) == {
        "digest": "ace2c0254677d1c6", "events_executed": 40101, "bytes_sent": 2977958}
    assert matrix.host_note(_CANNED_REPORT, 40101) == (
        "host: deploy 0.25 s, run 0.50 s, drain 1.25 s; peak RSS 52000 KB; "
        "20,050 events per wall second")


def test_every_digest_matrix_row_is_a_valid_scenarios_command_line():
    # a mistyped flag fails here, not two minutes into a matrix run
    from repro.apps.scenarios import _parser

    parser = _parser()
    for config in _load("digest_matrix").configurations():
        assert parser.parse_args(config.split()).min_success == 0


def test_digest_matrix_names_every_row_that_moved_is_missing_or_extra():
    matrix = _load("digest_matrix")
    row = {"digest": "a", "events_executed": 1, "bytes_sent": 2}
    expected = {"chord": row, "pastry": row, "gone": row}
    actual = {"chord": row, "pastry": dict(row, digest="b", bytes_sent=3), "new": row}
    assert matrix.differences(expected, actual) == [
        "gone: in DIGESTS.json, not in the matrix",
        "new: not in DIGESTS.json",
        "pastry: digest a -> b, bytes_sent 2 -> 3",
    ]
    assert matrix.differences(expected, expected) == []


def test_digest_matrix_row_of_this_tree_matches_the_committed_file():
    # one row run for real, so a change that moves Chord's results without
    # updating DIGESTS.json fails here and not only in the CI matrix leg
    matrix = _load("digest_matrix")
    config = "chord --nodes 40 --seed 3 --min-success 0"
    committed = json.loads((_REPO / "DIGESTS.json").read_text())
    assert matrix.run(config) == committed[config]


def test_linecov_reports_exactly_the_lines_no_call_reached(tmp_path):
    linecov = _load("linecov")
    source = tmp_path / "sample.py"
    source.write_text(
        "def used(n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        total += i\n"
        "    return total\n"
        "\n"
        "\n"
        "def unused(flag):\n"
        "    if flag:\n"
        "        return 1\n"
        "    return (\n"
        "        2\n"
        "    )\n")
    tracer = linecov.LineTracer([source])
    namespace = {}
    code = compile(source.read_text(), str(source), "exec")
    with tracer.tracing():
        exec(code, namespace)  # noqa: S102 - the sample module's own lines
        assert namespace["used"](3) == 3
    executable = sorted(linecov.executable_lines(source))
    missing = [line for line in executable if line not in tracer.reached[str(source)]]
    assert missing == [9, 10, 11, 12]  # unused's body; its def line ran
    assert linecov.ranges(missing, executable) == "9-12"
    assert linecov.ranges([2, 5], [1, 2, 3, 5]) == "2, 5"


def test_linecov_reports_against_the_lines_it_read_before_the_runs(tmp_path):
    linecov = _load("linecov")
    source = tmp_path / "sample.py"
    source.write_text("def used():\n    return 1\n\n\ndef unused():\n    return 2\n")
    tracer = linecov.LineTracer([source])
    namespace = {}
    code = compile(source.read_text(), str(source), "exec")
    with tracer.tracing():
        exec(code, namespace)  # noqa: S102 - the sample module's own lines
        assert namespace["used"]() == 1
    # an edit after the snapshot shifts every line of the file by two
    source.write_text("import os\nimport sys\n" + source.read_text())
    assert sorted(linecov.executable_lines(source)) == [1, 2, 3, 4, 7, 8]
    assert tracer.executable[str(source)] == [1, 2, 5, 6]
    assert tracer.unreached(str(source)) == [6]  # unused's body
