"""Observability subsystem: metrics math, flight-recorder ring, tracer
export, profiler attribution — and the load-bearing guarantee that enabling
any combination of ``--metrics`` / ``--trace-out`` / ``--profile`` never
changes a report digest, on either kernel, for every workload."""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from heap_kernel_reference import KERNELS, use_kernel
from repro.apps.harness import RunConfig
from repro.obs import (
    COUNT_BOUNDS,
    FlightRecorder,
    Histogram,
    KernelProfiler,
    MetricsRegistry,
    Observability,
    Tracer,
    callback_label,
    log_bucket_bounds,
)
from repro.sim.kernel import Simulator

_REPO = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, _REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _trace_by_host(path):
    """A trace file's complete events per host track, read by the one loader
    (``tools/trace_summary.py``, which rejects a malformed document)."""
    summary = _load_tool("trace_summary")
    return summary.spans_by_host(summary.load_events(str(path)))


# ------------------------------------------------------------- bucket math
def test_log_bucket_bounds_are_fixed_log_spaced():
    bounds = log_bucket_bounds(1.0, 1000.0, per_decade=1)
    assert bounds == [1.0, 10.0, 100.0, 1000.0]
    fine = log_bucket_bounds(1.0, 10.0, per_decade=4)
    assert len(fine) == 5
    # Log-spaced: constant ratio between neighbours.
    ratios = [fine[i + 1] / fine[i] for i in range(len(fine) - 1)]
    assert all(abs(r - ratios[0]) < 1e-9 for r in ratios)


def test_histogram_bucket_index_and_overflow():
    histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
    assert histogram.bucket_index(0.5) == 0
    assert histogram.bucket_index(1.0) == 0    # bounds are inclusive uppers
    assert histogram.bucket_index(5.0) == 1
    assert histogram.bucket_index(100.0) == 2
    assert histogram.bucket_index(1e9) == 3    # overflow bucket
    for value in (0.5, 5.0, 50.0, 500.0):
        histogram.observe(value, now=1.0)
    assert histogram.count == 4
    assert histogram.min == 0.5 and histogram.max == 500.0
    data = histogram.to_dict()
    assert data["buckets"]["+Inf"] == 1
    assert data["count"] == 4


def test_histogram_percentile_returns_rank_bucket_upper_bound():
    histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
    for _ in range(90):
        histogram.observe(5.0)     # bucket <= 10.0
    for _ in range(10):
        histogram.observe(50.0)    # bucket <= 100.0
    assert histogram.percentile(0.50) == 10.0
    assert histogram.percentile(0.95) == 50.0  # the bucket's bound is past the max
    # Overflow samples report the observed max, not +Inf.
    histogram.observe(9999.0)
    assert histogram.percentile(1.0) == 9999.0


def test_histogram_percentile_is_never_above_the_largest_observation():
    single = Histogram("h")  # the default latency bounds
    single.observe(0.0011)
    assert single.percentile(0.50) == 0.0011  # its bucket's bound is 0.00178
    spread = Histogram("h")
    for value in (0.20, 0.21, 0.22):
        spread.observe(value)
    assert spread.percentile(0.50) == spread.percentile(0.95) == 0.22  # not 0.316
    assert spread.to_dict()["p50"] <= spread.to_dict()["max"]


def test_empty_histogram_percentile_is_zero():
    assert Histogram("h", bounds=(1.0,)).percentile(0.5) == 0.0


def test_registry_snapshot_is_sorted_and_sim_time_stamped():
    clock_value = [0.0]
    registry = MetricsRegistry(clock=lambda: clock_value[0])
    clock_value[0] = 3.5
    registry.inc("z.counter")
    registry.observe("a.histogram", 2.0, COUNT_BOUNDS)
    snapshot = registry.snapshot()
    assert list(snapshot) == sorted(snapshot)
    assert snapshot["z.counter"]["last_update"] == 3.5
    assert len(registry) == 2 and "a.histogram" in registry


# ----------------------------------------------------------- flight recorder
def _cb():
    return None


def test_ring_wraparound_keeps_last_capacity_entries_oldest_first():
    ring = FlightRecorder(capacity=8)
    for seq in range(20):
        ring.push_event(float(seq), seq, _cb, origin=None)
    assert ring.total == 20
    assert len(ring) == 8
    entries = ring.entries()
    assert [entry[2] for entry in entries] == list(range(12, 20))
    rendered = ring.snapshot(last=3)
    assert len(rendered) == 3
    assert "seq=19" in rendered[-1]
    assert callback_label(_cb) in rendered[-1]


def test_ring_renders_spans_and_partial_fill():
    ring = FlightRecorder(capacity=4)
    ring.push_span(1.25, "10.0.0.1", "rpc.step", 0.002)
    lines = ring.dump_lines(header="ctx")
    assert lines[0].startswith("ctx: last 1 of 1")
    assert "host=10.0.0.1" in lines[1] and "2.000ms" in lines[1]


# ------------------------------------------------------------------ profiler
def test_profiler_aggregates_bound_methods_by_function():
    profiler = KernelProfiler()

    class App:
        def step(self):
            return None

    first, second = App(), App()
    profiler.add(first.step, 0.002)
    profiler.add(second.step, 0.001)
    profiler.add(_cb, 0.004)
    section = profiler.section(top_n=5)
    assert section["events"] == 3
    assert section["sites"] == 2
    top = section["top"]
    assert top[0]["site"].endswith("_cb") and top[0]["wall_s"] == 0.004
    step_row = top[1]
    assert step_row["events"] == 2
    assert "App.step" in step_row["site"]
    table = KernelProfiler.format_table(section)
    assert "3 events" in table[0]
    assert any("App.step" in line for line in table)


# -------------------------------------------------------------------- tracer
def test_chrome_trace_has_one_named_track_per_host(tmp_path):
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    tracer.add("10.0.0.2", "rpc.step", 1.0, 0.25, cat="rpc", args={"k": 1})
    tracer.add("10.0.0.1", "lookup", 0.5, 1.5, cat="lookup")
    tracer.add("10.0.0.2", "serve.step", 1.1, 0.0)
    path = tmp_path / "trace.json"
    assert tracer.write(str(path)) == 3

    document = json.loads(path.read_text())
    events = document["traceEvents"]
    meta = [e for e in events if e.get("ph") == "M"]
    complete = [e for e in events if e.get("ph") == "X"]
    assert {m["args"]["name"] for m in meta} == {"10.0.0.1", "10.0.0.2"}
    assert len({m["pid"] for m in meta}) == 2      # one pid track per host
    assert len(complete) == 3
    span = next(e for e in complete if e["name"] == "rpc.step")
    assert span["ts"] == 1.0e6 and span["dur"] == 0.25e6  # microseconds
    assert span["args"] == {"k": 1}

    by_host = _trace_by_host(path)
    assert sorted(by_host) == ["10.0.0.1", "10.0.0.2"]
    assert len(by_host["10.0.0.2"]) == 2


def test_tracer_bounds_span_count():
    tracer = Tracer(clock=lambda: 0.0, max_spans=2)
    for index in range(5):
        tracer.add("h", "s", float(index), 0.1)
    assert len(tracer.spans) == 2 and tracer.dropped == 3


# ------------------------------------------------------- structured logging
def test_logger_records_carry_host_and_structured_fields():
    from repro.lib.logging import LogLevel, SplayLogger

    logger = SplayLogger(source="job1/i1", level="INFO", host="10.0.0.9",
                         clock=lambda: 12.5)
    record = logger.info("joined ring", ring=7, hops=3)
    assert record.host == "10.0.0.9"
    assert record.time == 12.5
    assert record.fields == {"ring": 7, "hops": 3}
    assert logger.debug("below threshold") is None
    logger.set_level(LogLevel.ERROR)
    assert logger.warn("suppressed", detail=1) is None


# ------------------------------------------------- sanitizer ring integration
def test_sanitizer_violation_report_includes_ring_context():
    from repro.sim.sanitizer import Sanitizer

    sim = Simulator(0)
    sanitizer = Sanitizer(sim).install()
    obs = Observability(sim).install()
    sanitizer.recorder = obs.recorder
    sim.schedule(1.0, _cb)
    sim.schedule(2.0, _cb)
    sim.run()
    sanitizer.record("clock", "injected breach", provenance="test")
    violation = sanitizer.violations[0]
    assert violation.ring, "ring context missing from violation"
    rendered = violation.render()
    assert "ring (last" in rendered
    assert callback_label(_cb) in rendered
    assert any("ring (last" in line
               for line in sanitizer.summary()["reports"])


# --------------------------------------------------------- digest neutrality
_CHURNING = RunConfig(nodes=10, hosts=6, seed=3, churn=True, duration="short")
#: workload -> (run config, the runner's workload parameters)
_WORKLOADS = {
    "chord": (_CHURNING, dict(lookups=12)),
    "pastry": (_CHURNING, dict(lookups=12)),
    "gossip": (_CHURNING, dict(broadcasts=8)),
    "dissemination": (RunConfig(nodes=8, hosts=6, seed=3, duration="short"),
                      dict(chunks=6)),
}


def _runner(workload):
    from repro.apps import chord, dissemination, gossip, pastry

    return {"chord": chord.run_chord_scenario,
            "pastry": pastry.run_pastry_scenario,
            "gossip": gossip.run_gossip_scenario,
            "dissemination": dissemination.run_dissemination_scenario}[workload]


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_observability_flags_never_change_the_digest(workload, kernel,
                                                     tmp_path, monkeypatch):
    """Metrics + tracing + profiling on vs everything off: byte-identical
    digests for every workload on both kernels (the core guarantee)."""
    from repro.apps.harness import report_digest

    use_kernel(monkeypatch, kernel)
    config, params = _WORKLOADS[workload]
    runner = _runner(workload)
    plain = runner(config, **params)
    trace_path = tmp_path / f"{workload}.json"
    observed = runner(replace(config, metrics=True, trace_out=str(trace_path),
                              profile=True), **params)
    assert report_digest(plain) == report_digest(observed)
    for key in ("metrics", "trace", "profile", "flight_recorder"):
        assert key not in plain
        assert observed.get(key), key
    assert observed["metrics"]["enabled"] is True
    assert observed["metrics"]["kernel"]["events_dispatched"] \
        == observed["events_executed"]
    assert trace_path.exists()


@pytest.mark.parametrize("workload", ["chord", "pastry"])
def test_fifty_node_churning_chord_acceptance(workload, tmp_path):
    """The issue's acceptance gate: a 50-node churning run of either DHT
    with every flag on matches the flags-off digest, the trace is
    Perfetto-shaped (one named pid track per host, complete events with us
    timestamps), and the one lookup walk explains itself the same way for
    both: a span per completed lookup, its counters in the job registry."""
    from repro.apps import registry
    from repro.apps.harness import report_digest

    runner = registry.get_spec(workload).runner
    config = RunConfig(nodes=50, hosts=25, seed=7, churn=True, duration="short")
    plain = runner(config, lookups=25)
    trace_path = tmp_path / f"{workload}50.json"
    observed = runner(
        replace(config, metrics=True, trace_out=str(trace_path), profile=True),
        lookups=25)
    assert report_digest(plain) == report_digest(observed)

    by_host = _trace_by_host(trace_path)
    assert len(by_host) >= 2            # one track per traced host
    spans = [span for spans in by_host.values() for span in spans]
    assert spans
    assert all(span["ph"] == "X" for span in spans)
    names = {span["name"] for span in spans}
    assert any(name.startswith("rpc.") for name in names)
    assert any(name.startswith("serve.") for name in names)
    # Per-job metrics flowed into the job's one registry.
    registry_section = observed["metrics"]["job"]["registry"]
    assert any(name.startswith("rpc.latency_s.") for name in registry_section)
    # The lookup-level span, one per completed lookup (the measured ones, the
    # probes under churn, the joins' and the maintenance's), with its key
    # and hop count; the same lookups counted and their hops observed.
    lookups = [span for span in spans if span["name"] == "lookup"]
    assert len(lookups) >= observed["measured"]["completed"] > 0
    assert all(span["args"]["hops"] >= 1 and "key" in span["args"]
               for span in lookups)
    assert observed["trace"]["dropped"] == 0
    assert registry_section["lookup.completed"]["value"] == len(lookups)
    assert registry_section["lookup.hops"]["count"] == len(lookups)
    # Profile attributes wall time to module:qualname sites.
    top = observed["profile"]["top"]
    assert top and all(":" in row["site"] for row in top)


@pytest.mark.parametrize("workload", ["chord", "pastry"])
def test_a_walk_that_spends_its_hop_budget_says_so(monkeypatch, workload):
    """``max_hops=2`` is a local step plus one remote answer: a key owned
    far away fails with ``harness.LookupFailed``, a ``lookup.failed`` span
    and the ``lookup.failed`` counter."""
    from repro.apps import harness, pastry
    from repro.apps.chord import ChordNode
    from repro.apps.pastry import PastryNode
    from repro.sim.process import Process

    # binary digits and a two-node leaf set: Pastry needs several hops too
    monkeypatch.setattr(pastry, "DEFAULT_LEAF_SET_SIZE", 2)
    monkeypatch.setattr(pastry, "LEAF_HALF", 1)
    factory = {
        "chord": ChordNode.factory(),
        "pastry": PastryNode.factory(base_bits=1),
    }[workload]
    failure = harness.LookupFailed
    deployment = harness.deploy(workload, factory, nodes=30, hosts=15, seed=4,
                                duration="short", metrics=True,
                                trace_out="unwritten")
    sim, job = deployment.sim, deployment.job
    sim.run(until=deployment.warmup_end)
    origin = job.live_instances()[3].app
    origin.max_hops = 2  # its maintenance lookups run on this budget as well
    outcomes = {}

    def _walks():
        for key in range(0, 1 << origin.bits, 1 << (origin.bits - 4)):
            try:
                outcomes[key] = yield from origin.lookup(key)
            except failure as exc:
                outcomes[key] = exc

    driver = Process(sim, _walks(), name="test.walks")
    driver.start()
    sim.run(until=sim.now + 120.0)
    driver.done.result()
    failed = {key: outcome for key, outcome in outcomes.items()
              if isinstance(outcome, failure)}
    assert failed and len(failed) < len(outcomes) == 16
    assert all("exceeded 2 hops" in str(error) for error in failed.values())
    spans = [span for span in deployment.observability.tracer.spans
             if span[3] == "lookup.failed"]
    assert all(span[2] == origin.me.ip and span[5]["hops"] == 2 for span in spans)
    assert set(failed) <= {span[5]["key"] for span in spans}
    counted = job.metrics.snapshot()["lookup.failed"]
    assert counted["value"] == len(spans) == origin.stats.lookups_failed


def test_rpc_bytes_per_method_add_up_to_the_bytes_the_network_carried():
    """``rpc.bytes.<method>`` counts every call attempt and one-way send,
    ``rpc.bytes.<method>.reply`` every reply: on a Chord ring, where all
    traffic is RPC, they sum to the network's ``bytes_sent``."""
    from repro.apps import harness
    from repro.apps.chord import ChordNode

    deployment = harness.deploy("chord", ChordNode.factory(), nodes=12, hosts=6,
                                seed=2, duration="short", metrics=True)
    deployment.sim.run(until=deployment.warmup_end + 30.0)
    snapshot = deployment.job.metrics.snapshot()
    sizes = {name[len("rpc.bytes."):]: metric["value"]
             for name, metric in snapshot.items() if name.startswith("rpc.bytes.")}
    assert sum(sizes.values()) == deployment.network.stats.bytes_sent > 0
    assert sizes["stabilize"] > 0 and sizes["stabilize.reply"] > 0
    # the joins' walks end in the owner's one-way answer: sent, never answered
    assert sizes["found"] > 0 and "found.reply" not in sizes
    # with metrics off nothing is counted: there is no registry to count in
    plain = harness.deploy("chord", ChordNode.factory(), nodes=4, hosts=2, seed=2,
                           duration="short")
    instances = plain.job.live_instances()
    assert plain.job.metrics is None
    assert instances and all(instance.rpc._metrics is None for instance in instances)


def test_metrics_identical_across_kernels(monkeypatch):
    """The metrics themselves (not just the digest) are kernel-independent."""
    from repro.apps.chord import run_chord_scenario

    config = RunConfig(nodes=10, hosts=6, seed=5, duration="short", metrics=True)
    kernel = run_chord_scenario(config, lookups=10)["metrics"]
    use_kernel(monkeypatch, "heap")
    heap = run_chord_scenario(config, lookups=10)["metrics"]
    assert kernel["network"] == heap["network"]
    assert kernel["rpc"] == heap["rpc"]
    assert kernel["job"]["registry"] == heap["job"]["registry"]
    assert kernel["kernel"] == heap["kernel"]


# ----------------------------------------------------------- CLI + tool smoke

def test_scenarios_cli_writes_metrics_and_trace_artifacts(tmp_path, capsys):
    from repro.apps.scenarios import main

    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    status = main(["chord", "--nodes", "10", "--hosts", "6", "--seed", "3",
                   "--duration", "short", "--lookups", "10",
                   "--min-success", "0.0",
                   "--metrics-out", str(metrics_path),
                   "--trace-out", str(trace_path), "--profile",
                   "--log-level", "WARN"])
    out = capsys.readouterr().out
    assert status == 0
    assert "metrics:" in out and "trace:" in out and "profile:" in out
    metrics = json.loads(metrics_path.read_text())
    assert metrics["enabled"] is True and "network" in metrics

    summary = _load_tool("trace_summary")
    assert summary.main([str(trace_path)]) == 0
    tool_out = capsys.readouterr().out
    assert "host track(s)" in tool_out and "p95_ms" in tool_out


def test_trace_summary_rejects_garbage(tmp_path, capsys):
    summary = _load_tool("trace_summary")
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    assert summary.main([str(bad)]) == 1
    assert summary.main([str(tmp_path / "missing.json")]) == 1
    empty = tmp_path / "empty.json"
    empty.write_text("{\"traceEvents\": []}")
    assert summary.main([str(empty)]) == 1
    capsys.readouterr()


def test_trace_summary_exits_quietly_when_its_reader_goes_away(tmp_path):
    """``trace_summary.py T | head``: a closed stdout is not a summarising error."""
    import subprocess

    tracer = Tracer(clock=lambda: 0.0)
    tracer.add("10.0.0.1", "lookup", 0.5, 1.5, cat="lookup")
    trace_path = tmp_path / "trace.json"
    tracer.write(str(trace_path))
    tool = subprocess.Popen(
        [sys.executable, str(_REPO / "tools" / "trace_summary.py"), str(trace_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    tool.stdout.close()  # before the interpreter is even up
    assert tool.stderr.read() == ""
    assert tool.wait() == 0
