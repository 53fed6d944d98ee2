"""The ``scenarios bench`` harness: sweep, CSV/JSON schema, exact baseline gate."""

import csv
import json

import pytest

from repro.apps.harness import RunConfig
from repro.apps.scenarios import (
    BENCH_CSV_COLUMNS,
    _aggregate_seed_rows,
    _kernel_timer_churn,
    check_bench_regression,
    mean_ci95,
    run_bench,
    write_bench_csv,
)


def test_run_bench_produces_rows_for_every_grid_cell(tmp_path):
    summary = run_bench(nodes_list=[8], churn_rates=[0.0, 0.05],
                        config=RunConfig(seed=3), lookups=5,
                        micro_duration=2.0, quiet=True)
    rows = summary["rows"]
    scenario_rows = [r for r in rows if r["row_type"] == "scenario"]
    kernel_rows = [r for r in rows if r["row_type"] == "kernel"]
    assert [r["churn_rate"] for r in scenario_rows] == [0.0, 0.05]
    assert len(kernel_rows) == 1  # one microbench cell per ring size
    assert all(r["kernel"] == "wheel" for r in rows)
    for row in scenario_rows:
        assert row["workload"] == "chord"  # the active workload is recorded
        assert row["hosts"] == 8
        assert row["events_executed"] > 0
        assert row["events_per_sec"] > 0
        assert 0.0 <= row["success_rate"] <= 1.0
        assert row["report_digest"]

    csv_path = tmp_path / "bench.csv"
    write_bench_csv(str(csv_path), rows)
    with open(csv_path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(rows)
    assert list(parsed[0].keys()) == BENCH_CSV_COLUMNS

    json_blob = json.dumps(summary, sort_keys=True)  # must be serialisable
    assert "rows" in json.loads(json_blob)


def test_run_bench_sweeps_host_counts_and_other_workloads():
    summary = run_bench(nodes_list=[10], churn_rates=[0.0],
                        config=RunConfig(seed=3), lookups=5,
                        micro_duration=1.0, quiet=True,
                        workload="pastry", hosts_list=[4, 8])
    scenario_rows = [r for r in summary["rows"] if r["row_type"] == "scenario"]
    assert len(scenario_rows) == 2  # one per host count
    assert {r["hosts"] for r in scenario_rows} == {4, 8}
    assert all(r["workload"] == "pastry" for r in scenario_rows)
    assert summary["config"]["workload"] == "pastry"
    assert summary["config"]["hosts"] == [4, 8]


def test_mean_ci95_uses_student_t_for_small_samples():
    mean, ci = mean_ci95([10.0])
    assert (mean, ci) == (10.0, 0.0)  # one sample: no interval
    mean, ci = mean_ci95([8.0, 12.0])
    assert mean == 10.0
    # n=2: t(df=1)=12.706, s=2*sqrt(2)... half-width = 12.706 * 2 = 25.412
    assert ci == pytest.approx(12.706 * 2.0, rel=1e-6)
    mean, ci = mean_ci95([10.0, 10.0, 10.0, 10.0])
    assert (mean, ci) == (10.0, 0.0)  # zero variance


def test_aggregate_seed_rows_means_perf_and_keeps_the_first_digest():
    per_seed = [
        {"seed": 0, "wall_sec": 1.0, "virtual_time": 100.0, "events_executed": 1000,
         "events_per_sec": 1000.0, "wall_per_virtual_sec": 0.01,
         "success_rate": 1.0, "latency_p50_ms": 10.0, "latency_p95_ms": 20.0,
         "hops_mean": 3.0, "report_digest": "aaaa"},
        {"seed": 1, "wall_sec": 3.0, "virtual_time": 100.0, "events_executed": 2000,
         "events_per_sec": 2000.0, "wall_per_virtual_sec": 0.03,
         "success_rate": 0.9, "latency_p50_ms": 30.0, "latency_p95_ms": 40.0,
         "hops_mean": 5.0, "report_digest": "bbbb"},
    ]
    row = _aggregate_seed_rows(per_seed)
    assert row["seeds"] == 2
    assert row["seed"] == 0
    assert row["events_per_sec"] == 1500.0
    assert row["events_per_sec_ci95"] > 0
    assert row["success_rate"] == pytest.approx(0.95)
    assert row["latency_p50_ms"] == pytest.approx(20.0)
    assert row["events_executed"] == 1500
    assert row["report_digest"] == "aaaa"  # digests are per-seed values


def test_run_bench_multi_seed_emits_means_with_ci():
    summary = run_bench(nodes_list=[8], churn_rates=[0.0],
                        config=RunConfig(seed=3), seeds=2, lookups=5,
                        micro_duration=1.0, quiet=True)
    (row,) = [r for r in summary["rows"] if r["row_type"] == "scenario"]
    assert row["seeds"] == 2
    assert row["events_per_sec"] > 0
    assert row["events_per_sec_ci95"] >= 0
    assert summary["config"]["seeds"] == 2


def test_run_bench_records_the_testbed_in_every_scenario_row():
    summary = run_bench(nodes_list=[8], churn_rates=[0.0],
                        config=RunConfig(seed=3, testbed="cluster"),
                        lookups=5, micro_duration=1.0, quiet=True)
    scenario_rows = [r for r in summary["rows"] if r["row_type"] == "scenario"]
    assert all(r["testbed"] == "cluster" for r in scenario_rows)
    assert summary["config"]["testbed"] == "cluster"


def test_kernel_timer_churn_is_deterministic_per_kernel(monkeypatch):
    from heap_kernel_reference import HeapSimulator

    wheel = _kernel_timer_churn(nodes=10, duration=5.0)
    # identical workloads: the heap oracle executes exactly the same events
    monkeypatch.setattr("repro.apps.scenarios.Simulator", HeapSimulator)
    heap = _kernel_timer_churn(nodes=10, duration=5.0)
    assert wheel["events_executed"] == heap["events_executed"] > 0


_BASE_ROW = {"row_type": "scenario", "workload": "chord", "kernel": "wheel",
             "nodes": 20, "churn_rate": 0.0, "seed": 0, "seeds": 1,
             "events_executed": 70_030, "messages_sent": 36_398,
             "report_digest": "f80bb554bef0b435", "wall_sec": 1.0,
             "events_per_sec": 70_030.0, "peak_rss_kb": 40_000, "jobs": 1}


def test_check_bench_regression_is_exact_on_deterministic_columns():
    baseline = {"rows": [
        _BASE_ROW,
        dict(_BASE_ROW, row_type="kernel", workload="", churn_rate=""),
        dict(_BASE_ROW, nodes=999),  # cell absent from the current run: ignored
    ]}
    same = {"rows": [dict(_BASE_ROW),
                     dict(_BASE_ROW, row_type="kernel", workload="",
                          churn_rate="")]}
    failures, notes = check_bench_regression(same, baseline)
    assert failures == [] and len(notes) == 2
    # One more event, one message fewer: a failure that names both columns
    # (and only those) with the baseline's and the run's values.
    moved = {"rows": [dict(_BASE_ROW, events_executed=70_031,
                           messages_sent=36_397)]}
    (failure,), _notes = check_bench_regression(moved, baseline)
    assert "events_executed 70030 -> 70031" in failure
    assert "messages_sent 36398 -> 36397" in failure
    assert "report_digest" not in failure and "wall_sec" not in failure
    # A column one side lacks is a difference too (a schema change must
    # regenerate the baseline, not slip through).
    extra = {"rows": [dict(_BASE_ROW, bytes_sent=1)]}
    (failure,), _notes = check_bench_regression(extra, baseline)
    assert "bytes_sent None -> 1" in failure


def test_check_bench_regression_reports_wall_columns_as_information():
    # The machine's speed is not a verdict: 4x slower, 3x the RSS, another
    # worker count — no failure, but the ratios are reported.
    baseline = {"rows": [dict(_BASE_ROW, row_type="scale")]}
    slow = {"rows": [dict(_BASE_ROW, row_type="scale", wall_sec=4.0,
                          events_per_sec=17_507.5, peak_rss_kb=120_000,
                          jobs=2)]}
    failures, (note,) = check_bench_regression(slow, baseline)
    assert failures == []
    assert "wall 4.00x" in note and "events/sec 0.25x" in note
    assert "peak RSS 3.00x" in note


def test_check_bench_regression_fails_when_no_cell_is_shared():
    # Regression: a baseline for another grid (or another seed) used to pass
    # vacuously — every cell was skipped and nothing was compared.
    baseline = {"rows": [dict(_BASE_ROW, nodes=50), dict(_BASE_ROW, seed=9)]}
    failures, notes = check_bench_regression({"rows": [_BASE_ROW]}, baseline)
    assert notes == []
    assert len(failures) == 1 and "nothing was checked" in failures[0]
    failures, _notes = check_bench_regression({"rows": []}, baseline)
    assert len(failures) == 1


def test_bench_cli_writes_csv_and_json(tmp_path, capsys):
    from repro.apps.scenarios import main

    csv_path = tmp_path / "bench.csv"
    json_path = tmp_path / "BENCH_kernel.json"
    status = main(["bench", "--nodes", "8", "--churn-rates", "0",
                   "--lookups", "5", "--micro-duration", "2",
                   "--csv", str(csv_path), "--json", str(json_path), "--quiet"])
    assert status == 0
    assert csv_path.exists() and json_path.exists()
    summary = json.loads(json_path.read_text())
    assert summary["config"]["nodes"] == [8]
    out = capsys.readouterr().out
    assert "wrote" in out

    # --check against the file just written: every cell shared, every
    # deterministic column equal, wall ratios printed as information.
    recheck = ["bench", "--nodes", "8", "--churn-rates", "0", "--lookups", "5",
               "--micro-duration", "2", "--csv", str(csv_path),
               "--json", str(tmp_path / "again.json"), "--quiet"]
    assert main(recheck + ["--check", str(json_path)]) == 0
    assert "information only" in capsys.readouterr().out
    # A perturbed baseline cell and a disjoint baseline both exit non-zero.
    summary["rows"][0]["messages_sent"] += 1
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(summary))
    assert main(recheck + ["--check", str(perturbed)]) == 4
    assert "messages_sent" in capsys.readouterr().err
    for row in summary["rows"]:
        row["nodes"] = 9
    perturbed.write_text(json.dumps(summary))
    assert main(recheck + ["--check", str(perturbed)]) == 4
    assert "nothing was checked" in capsys.readouterr().err


def test_run_bench_jobs_pool_matches_serial_byte_for_byte():
    """The --jobs contract: pooled runs differ from serial only in timing."""
    from repro.apps.scenarios import BENCH_TIMING_COLUMNS, deterministic_row_view

    kwargs = dict(nodes_list=[8, 10], churn_rates=[0.0],
                  config=RunConfig(seed=3), lookups=5, micro_duration=1.0,
                  quiet=True)
    serial = run_bench(jobs=1, **kwargs)
    pooled = run_bench(jobs=4, **kwargs)
    assert [deterministic_row_view(r) for r in serial["rows"]] == \
           [deterministic_row_view(r) for r in pooled["rows"]]
    assert all(r["jobs"] == 4 for r in pooled["rows"])
    assert all(r["jobs"] == 1 for r in serial["rows"])
    # Digests are part of the deterministic view, but assert explicitly:
    # worker processes must reproduce the serial reports bit-for-bit.
    serial_digests = [r["report_digest"] for r in serial["rows"]
                      if r["row_type"] == "scenario"]
    pooled_digests = [r["report_digest"] for r in pooled["rows"]
                      if r["row_type"] == "scenario"]
    assert serial_digests == pooled_digests
    # Timing columns exist on every row (masked above; --check reports them
    # as information only).
    for row in pooled["rows"]:
        assert BENCH_TIMING_COLUMNS <= set(row)


def test_run_scale_bench_records_peak_rss_per_cell():
    from repro.apps.scenarios import run_scale_bench

    summary = run_scale_bench(scales=[30], jobs=1, config=RunConfig(seed=3),
                              lookups=5, quiet=True)
    (row,) = summary["rows"]
    assert row["row_type"] == "scale"
    assert row["workload"] == "chord"
    assert row["nodes"] == 30
    assert row["virtual_time"] > 0
    assert row["events_executed"] > 0
    assert row["peak_rss_kb"] > 0  # measured in the cell's own fresh worker
    assert row["report_digest"]
    assert summary["bench"] == "scale"
    assert summary["config"]["scales"] == [30]


def test_scale_windows_grow_with_log10_of_the_node_count():
    from repro.apps.scenarios import (SCALE_JOIN_WINDOW, SCALE_SETTLE,
                                      scale_windows)

    # The 1k reference cell keeps the historical fixed windows...
    assert scale_windows(1000) == (SCALE_JOIN_WINDOW, SCALE_SETTLE)
    # ...and a 10x ring gets exactly one extra decade: doubled windows.
    assert scale_windows(10000) == (2 * SCALE_JOIN_WINDOW, 2 * SCALE_SETTLE)
    join_5k, settle_5k = scale_windows(5000)
    assert SCALE_JOIN_WINDOW < join_5k < 2 * SCALE_JOIN_WINDOW
    assert SCALE_SETTLE < settle_5k < 2 * SCALE_SETTLE
    # Sub-reference sizes never shrink below the base windows.
    assert scale_windows(100) == (SCALE_JOIN_WINDOW, SCALE_SETTLE)


def test_scale_efficiency_is_largest_over_smallest_events_per_sec():
    from repro.apps.scenarios import scale_efficiency

    rows = [
        {"row_type": "scale", "nodes": 1000, "events_per_sec": 50_000.0},
        {"row_type": "scale", "nodes": 5000, "events_per_sec": 40_000.0},
        {"row_type": "scale", "nodes": 10000, "events_per_sec": 35_000.0},
        {"row_type": "scenario", "nodes": 50, "events_per_sec": 1.0},
    ]
    assert scale_efficiency(rows) == pytest.approx(0.7)
    assert scale_efficiency(rows[:1]) is None  # one size: no ratio
    assert scale_efficiency([]) is None


def test_bench_rows_carry_phase_wall_columns():
    from repro.apps.scenarios import run_scale_bench

    summary = run_scale_bench(scales=[30], jobs=1, config=RunConfig(seed=3),
                              lookups=5, quiet=True)
    (row,) = summary["rows"]
    for column in ("wall_deploy_s", "wall_run_s", "wall_drain_s"):
        assert column in BENCH_CSV_COLUMNS
        assert isinstance(row[column], float)
    # Phase attribution covers (almost) the whole cell wall: the slices are
    # the same sim.run calls the cell times, so nothing big goes missing.
    assert row["wall_deploy_s"] + row["wall_run_s"] + row["wall_drain_s"] <= \
        row["wall_sec"] * 1.05
    assert summary["scale_efficiency"] is None  # single size: no ratio
