"""The ``scenarios bench`` size sweep: CSV/JSON schema, workers, exact baseline gate."""

import csv
import json
import os

import pytest

from repro.apps.harness import RunConfig
from repro.apps.scenarios import (
    BENCH_CSV_COLUMNS,
    BENCH_TIMING_COLUMNS,
    _fresh_workers,
    check_bench_regression,
    deterministic_row_view,
    main,
    run_scale_bench,
)


_BASE_ROW = {"workload": "chord", "nodes": 20, "seed": 0,
             "events_executed": 70_030, "messages_sent": 36_398,
             "report_digest": "f80bb554bef0b435", "wall_sec": 1.0,
             "events_per_sec": 70_030.0, "peak_rss_kb": 40_000, "jobs": 1}


def test_check_bench_regression_is_exact_on_deterministic_columns():
    baseline = {"rows": [
        _BASE_ROW,
        dict(_BASE_ROW, nodes=30),
        dict(_BASE_ROW, nodes=999),  # cell absent from the current run: ignored
    ]}
    same = {"rows": [dict(_BASE_ROW), dict(_BASE_ROW, nodes=30)]}
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
    baseline = {"rows": [_BASE_ROW]}
    slow = {"rows": [dict(_BASE_ROW, wall_sec=4.0,
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


def _bench(tmp_path, *extra):
    return main(["bench", "--scales", "20", "--lookups", "5", "--quiet",
                 "--csv", str(tmp_path / "bench.csv"), *extra])


def test_bench_cli_writes_csv_and_json(tmp_path, capsys, monkeypatch):
    json_path = tmp_path / "summary.json"
    assert _bench(tmp_path, "--json", str(json_path)) == 0
    with open(tmp_path / "bench.csv", newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert [row["nodes"] for row in parsed] == ["20"]
    assert list(parsed[0]) == BENCH_CSV_COLUMNS
    summary = json.loads(json_path.read_text())
    assert summary["config"]["scales"] == [20]
    assert "wrote 1 rows" in capsys.readouterr().out

    # --check against the file just written: every cell shared, every
    # deterministic column equal, wall ratios printed as information.
    assert _bench(tmp_path, "--check", str(json_path)) == 0
    assert "information only" in capsys.readouterr().out
    # A perturbed baseline cell exits 4 and names the column — and the
    # baseline is left as it was. Regression: --json used to default to
    # BENCH_scale.json and was written before --check read it, so the
    # committed baseline was replaced by the run and compared with itself.
    monkeypatch.chdir(tmp_path)
    summary["rows"][0]["messages_sent"] += 1
    baseline = tmp_path / "BENCH_scale.json"
    baseline.write_text(json.dumps(summary))
    before = baseline.read_bytes()
    assert _bench(tmp_path, "--check", "BENCH_scale.json") == 4
    assert "messages_sent" in capsys.readouterr().err
    assert baseline.read_bytes() == before
    # A baseline that shares no cell with the run checked nothing: exit 4.
    summary["rows"][0]["nodes"] = 21
    baseline.write_text(json.dumps(summary))
    assert _bench(tmp_path, "--check", str(baseline)) == 4
    assert "nothing was checked" in capsys.readouterr().err


def test_scale_bench_jobs_pool_matches_one_worker_byte_for_byte():
    """The --jobs contract: more workers change only the timing columns."""
    kwargs = dict(scales=[20, 30], config=RunConfig(seed=3), lookups=5, quiet=True)
    one = run_scale_bench(jobs=1, **kwargs)
    two = run_scale_bench(jobs=2, **kwargs)
    assert [deterministic_row_view(r) for r in one["rows"]] == \
           [deterministic_row_view(r) for r in two["rows"]]
    assert [r["nodes"] for r in two["rows"]] == [20, 30]  # cell order kept
    assert [r["jobs"] for r in one["rows"]] == [1, 1]
    assert [r["jobs"] for r in two["rows"]] == [2, 2]
    # Digests are part of the deterministic view, but assert explicitly:
    # worker processes must reproduce each other's reports bit-for-bit.
    assert [r["report_digest"] for r in one["rows"]] == \
           [r["report_digest"] for r in two["rows"]]
    # Timing columns exist on every row (masked above; --check reports them
    # as information only).
    for row in two["rows"]:
        assert BENCH_TIMING_COLUMNS <= set(row)


def test_every_scale_cell_gets_a_fresh_worker_process():
    # On every supported Python (3.10 has no per-child task limit on the
    # executor, whose fallback shared workers and so summed peak RSS): two
    # tasks on one worker slot run in two processes, neither of them this one.
    with _fresh_workers(1) as pool:
        pids = pool.starmap(os.getpid, [()] * 2, chunksize=1)
    assert len(set(pids)) == 2 and os.getpid() not in pids


def test_run_scale_bench_records_peak_rss_per_cell():
    summary = run_scale_bench(scales=[30], jobs=1, config=RunConfig(seed=3),
                              lookups=5, quiet=True)
    (row,) = summary["rows"]
    assert set(row) == set(BENCH_CSV_COLUMNS)  # every column, and no other
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
        {"nodes": 5000, "events_per_sec": 40_000.0},
        {"nodes": 1000, "events_per_sec": 50_000.0},
        {"nodes": 10000, "events_per_sec": 35_000.0},
    ]
    assert scale_efficiency(rows) == pytest.approx(0.7)
    assert scale_efficiency(rows[:1]) is None  # one size: no ratio
    assert scale_efficiency([]) is None


def test_bench_rows_carry_phase_wall_columns():
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
