"""BENCHMARK.json agrees with the code and stays inside the contract's limits."""

import json
import os
import re

import pytest

import inputs
import run
from conftest import ROOT_DIR

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_exact_top_level_keys(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks"]
    assert contract["command"] == ["python3", "benchmarks/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60


def test_workloads_match_the_code(contract):
    workloads = contract["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(inputs.WORKLOADS)
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_end_to_end_metrics_match_the_code(contract):
    metrics = contract["end_to_end"]
    assert 1 <= len(metrics) <= 16
    assert {m["name"]: m["unit"] for m in metrics} == run.END_TO_END
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in metrics if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in metrics)


def test_per_layer_metrics_match_the_code(contract):
    metrics = contract["per_layer"]
    assert 1 <= len(metrics) <= 128
    assert {m["name"]: m["unit"] for m in metrics} == run.per_layer_units()
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")


def test_names_are_used_once(contract):
    names = ([w["name"] for w in contract["workloads"]]
             + [m["name"] for m in contract["end_to_end"]]
             + [m["name"] for m in contract["per_layer"]])
    assert len(names) == len(set(names))
