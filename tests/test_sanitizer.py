"""Runtime sanitizer: every injected violation class is caught (with event
provenance), clean runs record nothing, and enabling the sanitizer never
changes a report digest (it is observation-only by construction)."""

from dataclasses import replace
from heapq import heappush
from types import SimpleNamespace

import pytest

from heap_kernel_reference import make_simulator
from repro.apps.harness import RunConfig
from repro.net.address import Address
from repro.net.bandwidth import BandwidthModel
from repro.net.network import Network
from repro.sim import futures as futures_module
from repro.sim.futures import Future
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Process
from repro.sim.sanitizer import Sanitizer, SanitizerError


@pytest.fixture(autouse=True)
def _reset_future_hook():
    yield
    futures_module._misuse_hook = None


def _installed(kernel="wheel"):
    sim = make_simulator(kernel)
    return sim, Sanitizer(sim).install()


# ------------------------------------------------------------ clock violation
@pytest.mark.parametrize("kernel", ["heap", "wheel"])
def test_past_dated_event_is_caught_with_provenance(kernel):
    sim, san = _installed(kernel)

    def marker():
        return None

    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, marker)
    sim.run(until=1.5)
    assert sim.now == 1.5
    # Corrupt the pending event so it claims a time before "now".
    event.time = 0.5
    if kernel == "wheel":
        # Reposition it the way a buggy scheduler would: as an immediately
        # ready entry carrying the stale timestamp.
        sim._cursor.clear()
        heappush(sim._cursor, (0.5, event.seq, event))
    sim.run()
    assert san.counts.get("clock") == 1
    violation = san.violations[0]
    assert violation.kind == "clock"
    assert "marker" in violation.detail
    # Provenance: the origin stamped when the event was scheduled.
    assert "scheduled t=2.0" in violation.provenance


def test_monotonic_execution_records_nothing():
    sim, san = _installed()
    for delay in (3.0, 1.0, 2.0, 0.0):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert san.violations == []


# -------------------------------------------------------- future legality
def test_double_set_result_is_caught():
    sim, san = _installed()
    future = Future(name="reply")
    future.set_result(1)
    future.set_result(2)
    assert san.counts.get("future") == 1
    violation = san.violations[0]
    assert "set_result" in violation.detail and "reply" in violation.detail


def test_set_exception_after_completion_is_caught_with_event_provenance():
    sim, san = _installed()
    future = Future(name="call-7")

    def misuse():
        future.set_result("ok")
        future.set_exception(RuntimeError("late timeout"))

    sim.schedule(1.0, misuse)
    sim.run()
    assert san.counts.get("future") == 1
    violation = san.violations[0]
    # The offending completion is attributed to the executing event.
    assert "misuse" in violation.provenance
    assert "t=1.0" in violation.provenance


def test_cancel_of_a_done_future_is_a_benign_no_op():
    sim, san = _installed()
    future = Future(name="done")
    future.set_result(1)
    assert future.cancel() is False
    assert san.violations == []


# -------------------------------------------------------- free-list integrity
def test_recycling_a_live_pending_event_is_caught():
    sim, san = _installed()
    live = sim.schedule(5.0, lambda: None)
    assert live.pending
    sim._free.append(live)  # aliasing bug: recycled while still scheduled
    sim.schedule(1.0, lambda: None)
    assert san.counts.get("free_list") == 1
    assert "live pending event" in san.violations[0].detail


def test_unscrubbed_free_list_entry_is_caught():
    sim, san = _installed()

    def stale_callback():
        return None

    dead = ScheduledEvent(1.0, 999, stale_callback, (), sim, sim._epoch)
    dead.fired = True  # dead, but its callback was never scrubbed
    sim._free.append(dead)
    sim.schedule(1.0, lambda: None)
    assert san.counts.get("free_list") == 1
    assert "unscrubbed" in san.violations[0].detail
    assert "stale_callback" in san.violations[0].detail


def test_normal_free_list_recycling_records_nothing():
    sim, san = _installed()
    # Fired events are scrubbed and recycled by the kernel itself; churning
    # through many schedule/run cycles must not trip the checker.
    for _ in range(50):
        sim.schedule(0.01, lambda: None)
        sim.run()
    assert san.violations == []


# ---------------------------------------------------------- process stepping
def test_double_resumption_of_a_process_is_caught():
    sim, san = _installed()

    def coro():
        yield 5.0

    process = Process(sim, coro(), name="worker-3")
    process.start()
    sim.run(until=1.0)  # first step ran; the 5 s sleep event is armed
    process._step(None, None)  # a second resumption path races the sleep
    assert san.counts.get("process") == 1
    violation = san.violations[0]
    assert "worker-3" in violation.detail
    assert "still pending" in violation.detail


def test_normal_process_lifecycle_records_nothing():
    sim, san = _installed()

    def coro():
        yield 1.0
        yield None
        return "done"

    process = Process(sim, coro(), name="clean")
    process.start()
    sim.run()
    assert process.done.result() == "done"
    assert san.violations == []


# ------------------------------------------------------- listener consistency
def test_listener_surviving_its_removed_host_is_caught():
    sim, san = _installed()
    network = Network(sim)
    san.watch_network(network)
    for ip in ("10.0.0.1", "10.0.0.2"):
        network.add_host(SimpleNamespace(ip=ip, alive=True))
        network.listen(Address(ip, 20000), lambda message: None)
    # Bypass remove_host (the bug): the host vanishes, its listener stays.
    network.hosts.pop("10.0.0.1")
    network.remove_host("10.0.0.2")  # a correct removal runs the check
    assert san.counts.get("listener") == 1
    assert "10.0.0.1:20000" in san.violations[0].detail


def test_correct_host_removal_records_nothing():
    sim, san = _installed()
    network = Network(sim)
    san.watch_network(network)
    network.add_host(SimpleNamespace(ip="10.0.0.1", alive=True))
    network.listen(Address("10.0.0.1", 20000), lambda message: None)
    network.remove_host("10.0.0.1")
    assert san.violations == []


# ------------------------------------------------------- flow conservation
def test_overcommitted_link_allocation_is_caught():
    sim, san = _installed()
    model = BandwidthModel(sim)
    model._san = san
    model.set_capacity("10.0.0.1", 1_000_000, 1_000_000)
    model.set_capacity("10.0.0.2", 1_000_000, 1_000_000)
    # Corrupt the allocator: it hands every flow far more than any link has.
    class Overcommit:
        name = "overcommit"

        def allocate(self, flows, links):
            for flow in flows:
                flow.rate_bps = 5_000_000.0

    model._allocator = Overcommit()
    model.transfer("10.0.0.1", "10.0.0.2", 1_000_000)
    assert san.counts.get("bandwidth") == 2  # uplink of src, downlink of dst
    assert "against capacity" in san.violations[0].detail


def test_link_holding_a_dead_transfer_is_caught():
    """A finished flow left on a link would be walked, filled and kept alive."""
    sim, san = _installed()
    model = BandwidthModel(sim)
    model._san = san
    model.set_capacity("10.0.0.1", 1_000_000, 1_000_000)
    dead = model.transfer("10.0.0.1", "10.0.0.2", 1_000)
    sim.run()
    assert dead.done.done() and san.violations == []
    dead.down.flows.append(dead)  # the removal path "forgot" the downlink
    model.transfer("10.0.0.1", "10.0.0.3", 1_000)
    assert san.counts.get("bandwidth_table") == 1
    assert "10.0.0.2 downlink lists 1 flows, live set has 0" in san.violations[0].detail


def test_link_capacity_out_of_step_with_the_configured_one_is_caught():
    sim, san = _installed()
    model = BandwidthModel(sim)
    model._san = san
    model.set_capacity("10.0.0.1", 1_000_000, 1_000_000)
    model.transfer("10.0.0.1", "10.0.0.2", 1_000_000)
    assert san.violations == []
    model.capacities["10.0.0.1"] = (500_000.0, 1_000_000.0)  # bypasses set_capacity
    model.transfer("10.0.0.1", "10.0.0.3", 1_000_000)
    details = [v.detail for v in san.violations]
    assert any("configured capacity is 500000.0" in d for d in details)
    assert any("against capacity 500000.0" in d for d in details)


def test_max_min_fair_allocation_records_nothing():
    sim, san = _installed()
    model = BandwidthModel(sim)
    model._san = san
    for index in range(1, 5):
        model.set_capacity(f"10.0.0.{index}", 1_000_000, 1_000_000)
    for src in range(1, 5):
        for dst in range(1, 5):
            if src != dst:
                model.transfer(f"10.0.0.{src}", f"10.0.0.{dst}", 250_000)
    sim.run()
    assert model.completed == 12
    assert san.violations == []


# ------------------------------------------------------------- strict mode
def test_strict_mode_raises_on_the_first_violation():
    sim = Simulator(0)
    san = Sanitizer(sim, strict=True).install()
    future = Future(name="strict")
    future.set_result(1)
    with pytest.raises(SanitizerError, match="set_result"):
        future.set_result(2)


def test_uninstall_detaches_all_hooks():
    sim, san = _installed()
    san.uninstall()
    assert sim._san is None
    future = Future()
    future.set_result(1)
    future.set_result(2)  # no sanitizer: silent no-op, as before
    assert san.violations == []


# ----------------------------------------------- observation-only guarantee
def test_chord_report_digest_is_byte_identical_with_sanitizer_on():
    """The --sanitize flag must never change results: same seed, same digest,
    and a clean run records zero violations (the acceptance gate for the
    whole subsystem)."""
    from repro.apps.chord import run_chord_scenario
    from repro.apps.harness import report_digest

    config = RunConfig(nodes=12, hosts=8, seed=11, churn=True,
                       join_window=30.0, settle=40.0)
    plain = run_chord_scenario(config, lookups=15)
    sanitized = run_chord_scenario(replace(config, sanitize=True), lookups=15)
    assert "sanitizer" not in plain
    assert sanitized["sanitizer"]["enabled"] is True
    assert sanitized["sanitizer"]["violations"] == 0
    assert report_digest(plain) == report_digest(sanitized)
    # Full workload sections agree, not just the hash.
    for key in ("measured", "job", "churn", "network", "rpc",
                "events_executed"):
        assert plain[key] == sanitized[key], key
