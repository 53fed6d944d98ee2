"""Pluggable bandwidth allocators: differential harness, oracle, priorities.

Three layers of assurance over :mod:`repro.net.bwalloc`:

* a **differential workload harness**: one seeded random flow workload
  (arrivals, sizes, priorities, cancellations, host failures, time advances)
  replayed against every registered allocator under the strict runtime
  sanitizer, asserting the invariants every strategy must share;
* an **oracle**: the connected-component recomputation must produce
  *bit-identical* rate vectors to a brute-force global recompute
  (``bwalloc_reference.GlobalRecomputeModel``) after every step of a long
  random script, for every allocator;
* **priority semantics**: fixed-priority starvation/resumption,
  priority-queue weighted shares, and the churning-chord digest pin proving
  ``--bw-alloc max-min`` still reproduces pre-refactor reports byte for
  byte on both kernels.
"""

import random

import pytest

from bwalloc_reference import GlobalRecomputeModel
from heap_kernel_reference import KERNELS, make_simulator, use_kernel
from repro.apps import harness
from repro.apps.chord import run_chord_scenario
from repro.apps.harness import RunConfig
from repro.net.bandwidth import BandwidthModel
from repro.net.bwalloc import (
    BULK,
    CONTROL,
    LOOKUP,
    UnknownAllocatorError,
    allocator_names,
    make_allocator,
)
from repro.sim.sanitizer import Sanitizer, SanitizerError

CAP_BPS = 10_000_000
PRIORITIES = [CONTROL, LOOKUP, BULK]

#: the flagship churn digest pinned in tests/test_testbeds.py — captured on
#: the commit *before* the allocator refactor; ``--bw-alloc max-min`` must
#: keep producing exactly this
PRE_REFACTOR_CHURN_DIGEST = "a4225db7940032d4"


def _model(seed=0, allocator="max-min", model_class=BandwidthModel, hosts=12,
           kernel="wheel", sanitize=False):
    sim = make_simulator(kernel, seed)
    model = model_class(sim)
    model.configure(allocator)
    ips = harness.host_ips(hosts)
    for ip in ips:
        model.set_capacity(ip, CAP_BPS, CAP_BPS)
    sanitizer = None
    if sanitize:
        sanitizer = Sanitizer(sim, strict=True).install()
        model._san = sanitizer
    return sim, model, ips, sanitizer


def _assert_capacity_respected(model):
    """Sum of allocated rates on every access link <= its capacity."""
    load = {}
    for transfer in model._active:
        if transfer.rate_bps <= 0:
            continue
        load[("up", transfer.src_ip)] = (
            load.get(("up", transfer.src_ip), 0.0) + transfer.rate_bps)
        load[("down", transfer.dst_ip)] = (
            load.get(("down", transfer.dst_ip), 0.0) + transfer.rate_bps)
    for (direction, ip), total in load.items():
        up, down = model.capacity(ip)
        capacity = up if direction == "up" else down
        assert total <= capacity * (1.0 + 1e-6), \
            f"{direction}link of {ip}: {total} > {capacity}"


def _workload_script(rng, steps, hosts):
    """One seeded random flow workload as replayable pure-data actions."""
    script = []
    live_guess = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.5 or live_guess == 0:
            src, dst = rng.sample(range(hosts), 2)
            size = rng.choice([0, 10_000, 100_000, 1_000_000])
            script.append(("add", src, dst, size, rng.choice(PRIORITIES)))
            live_guess += 1
        elif roll < 0.72:
            script.append(("cancel", rng.randrange(live_guess)))
        elif roll < 0.82:
            script.append(("fail", rng.randrange(hosts)))
            live_guess = max(0, live_guess - 2)
        else:
            script.append(("advance", round(rng.uniform(0.01, 0.4), 3)))
    return script


def _apply(action, sim, model, ips, transfers):
    kind = action[0]
    if kind == "add":
        _, src, dst, size, priority = action
        transfers.append(
            model.transfer(ips[src], ips[dst], size, priority=priority))
    elif kind == "cancel":
        model.cancel_transfer(transfers[action[1] % len(transfers)])
    elif kind == "fail":
        model.cancel_host(ips[action[1]])
    else:
        sim.run(until=sim.now + action[1])


# ----------------------------------------------------- differential harness
@pytest.mark.parametrize("allocator", allocator_names())
@pytest.mark.parametrize("seed", [3, 11])
def test_random_workload_invariants_hold_for_every_allocator(allocator, seed):
    """Arrivals/cancels/host failures against the shared contract.

    The strict sanitizer raises on the first capacity or flow-table breach,
    so every recomputation is checked, not just the final state; the
    explicit assertions cover completion and byte accounting.
    """
    sim, model, ips, _ = _model(seed=seed, allocator=allocator, sanitize=True)
    rng = random.Random(seed)
    transfers = []
    for action in _workload_script(rng, steps=120, hosts=len(ips)):
        _apply(action, sim, model, ips, transfers)
        _assert_capacity_respected(model)
    sim.run()  # drain: every surviving flow must finish

    assert transfers
    assert model.active_transfers == 0
    completed = [t for t in transfers if t.done.done() and not t.done.cancelled()]
    preempted = [t for t in transfers if t.done.cancelled()]
    # Every flow either completed or was preempted — none left dangling.
    assert len(completed) + len(preempted) == len(transfers)
    assert model.completed == len(completed)
    assert model.preemptions == len(preempted)
    # Total bytes accounted: the model's completed-byte counter is exactly
    # the sum over completed flows, and the per-class split re-adds to it.
    assert model.bytes_completed == sum(t.total_bytes for t in completed)
    assert sum(model.bytes_completed_by_class.values()) == model.bytes_completed
    assert sum(model.preemptions_by_class.values()) == model.preemptions


def test_strict_sanitizer_catches_a_corrupted_flow_table():
    """The new flow-table check fires when adjacency and reality diverge."""
    sim, model, ips, _ = _model(sanitize=True)
    model.transfer(ips[0], ips[1], 1_000_000)
    model._uplinks[ips[0]].flows.clear()  # simulate a bookkeeping bug
    with pytest.raises(SanitizerError, match="flow table"):
        model.transfer(ips[2], ips[3], 1_000_000)


# ------------------------------------------------------------------- oracle
@pytest.mark.parametrize("allocator", allocator_names())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_incremental_rates_bit_identical_to_global_oracle(allocator, seed):
    """Component-walk recomputation == brute-force global, at every step.

    Two models replay the identical 220-step script, the shipped one and the
    :class:`GlobalRecomputeModel` brute force; after every step the full
    ``(transfer_id, rate_bps, remaining_bytes)`` state must match with
    ``==`` — bit-identical floats, not approximately equal ones.
    """
    sim_inc, model_inc, ips, _ = _model(seed=seed, allocator=allocator)
    sim_ref, model_ref, _, _ = _model(seed=seed, allocator=allocator,
                                      model_class=GlobalRecomputeModel)
    rng = random.Random(1000 + seed)
    script = _workload_script(rng, steps=220, hosts=len(ips))
    inc_transfers, ref_transfers = [], []
    for step, action in enumerate(script):
        _apply(action, sim_inc, model_inc, ips, inc_transfers)
        _apply(action, sim_ref, model_ref, ips, ref_transfers)
        inc_state = [(t.transfer_id, t.rate_bps, t.remaining_bytes)
                     for t in model_inc._active]
        ref_state = [(t.transfer_id, t.rate_bps, t.remaining_bytes)
                     for t in model_ref._active]
        assert inc_state == ref_state, f"divergence after step {step}: {action}"
    sim_inc.run()
    sim_ref.run()
    assert model_inc.completed == model_ref.completed
    assert model_inc.bytes_completed == model_ref.bytes_completed
    assert [t.done.result() for t in inc_transfers if not t.done.cancelled()] \
        == [t.done.result() for t in ref_transfers if not t.done.cancelled()]


def test_incremental_touches_fewer_flows_than_global():
    """The point of the component walk: disjoint flows are left alone."""
    sim, model, ips, _ = _model(hosts=8)
    for i in range(0, 8, 2):
        model.transfer(ips[i], ips[i + 1], 1_000_000_000)
    # Four pairwise-disjoint flows: the last arrival's component is itself.
    assert model.reallocations == 4
    assert model.flows_allocated == 4  # 1 + 1 + 1 + 1
    model._reallocate()  # no seeds: the full recompute
    assert model.flows_allocated == 8  # ... which touches all four flows


# -------------------------------------------------------- priority semantics
def test_fixed_priority_starves_bulk_until_control_drains():
    sim, model, ips, _ = _model(allocator="fixed-priority", hosts=3)
    control = model.transfer(ips[0], ips[1], 10_000_000, priority=CONTROL)
    bulk = model.transfer(ips[0], ips[2], 1_000_000, priority=BULK)
    # CONTROL saturates the shared 10 Mbps uplink; BULK is starved outright.
    assert control.rate_bps == CAP_BPS
    assert bulk.rate_bps == 0.0
    sim.run(until=4.0)
    assert not control.done.done() and bulk.rate_bps == 0.0
    sim.run(until=8.5)  # control (10 MB at 10 Mbps) completes at t = 8 s
    assert control.done.done()
    # ... and its completion resumes the starved flow at full rate.
    assert bulk.rate_bps == CAP_BPS
    sim.run()
    assert bulk.done.done() and not bulk.done.cancelled()


def test_fixed_priority_lookup_outranks_bulk_but_not_control():
    sim, model, ips, _ = _model(allocator="fixed-priority", hosts=4)
    control = model.transfer(ips[0], ips[1], 4_000_000, priority=CONTROL)
    lookup = model.transfer(ips[0], ips[2], 4_000_000, priority=LOOKUP)
    bulk = model.transfer(ips[0], ips[3], 4_000_000, priority=BULK)
    assert control.rate_bps == CAP_BPS
    assert lookup.rate_bps == 0.0 and bulk.rate_bps == 0.0
    sim.run(until=3.3)  # control drains at t = 3.2 s; lookup takes over
    assert control.done.done()
    assert lookup.rate_bps == CAP_BPS and bulk.rate_bps == 0.0


def test_priority_queue_shares_follow_class_weights():
    """One flow per class on a shared uplink splits it 4 : 2 : 1."""
    sim, model, ips, _ = _model(allocator="priority-queue", hosts=4)
    control = model.transfer(ips[0], ips[1], 50_000_000, priority=CONTROL)
    lookup = model.transfer(ips[0], ips[2], 50_000_000, priority=LOOKUP)
    bulk = model.transfer(ips[0], ips[3], 50_000_000, priority=BULK)
    assert control.rate_bps == pytest.approx(CAP_BPS * 4 / 7)
    assert lookup.rate_bps == pytest.approx(CAP_BPS * 2 / 7)
    assert bulk.rate_bps == pytest.approx(CAP_BPS * 1 / 7)
    # Weighted max-min still fills the bottleneck completely and no class
    # starves: everyone makes progress.
    total = control.rate_bps + lookup.rate_bps + bulk.rate_bps
    assert total == pytest.approx(CAP_BPS)


def test_priority_queue_redistributes_when_a_class_leaves():
    sim, model, ips, _ = _model(allocator="priority-queue", hosts=4)
    control = model.transfer(ips[0], ips[1], 1_000_000, priority=CONTROL)
    bulk = model.transfer(ips[0], ips[2], 50_000_000, priority=BULK)
    assert control.rate_bps == pytest.approx(CAP_BPS * 4 / 5)
    assert bulk.rate_bps == pytest.approx(CAP_BPS * 1 / 5)
    sim.run(until=1.1)  # control (1 MB at 8 Mbps) finishes at t = 1 s
    assert control.done.done()
    assert bulk.rate_bps == pytest.approx(CAP_BPS)


def test_fair_share_splits_equally_without_redistribution():
    sim, model, ips, _ = _model(allocator="fair-share", hosts=4)
    model.set_capacity(ips[1], CAP_BPS, 2_000_000)  # narrow downlink
    narrow = model.transfer(ips[0], ips[1], 1_000_000)
    wide = model.transfer(ips[0], ips[2], 1_000_000)
    # Equal split per link: both get uplink/2; the narrow flow is further
    # capped by its 2 Mbps downlink, and fair-share does NOT hand the
    # stranded 3 Mbps back to the other flow (max-min would).
    assert narrow.rate_bps == pytest.approx(2_000_000)
    assert wide.rate_bps == pytest.approx(CAP_BPS / 2)


def test_priority_classes_are_recorded_per_class():
    sim, model, ips, _ = _model(hosts=6)
    done = model.transfer(ips[0], ips[1], 1_000_000, priority=CONTROL)
    model.transfer(ips[2], ips[3], 1_000_000, priority=BULK)
    victim = model.transfer(ips[4], ips[5], 1_000_000, priority=BULK)
    model.cancel_transfer(victim)
    sim.run()
    assert done.done.done()
    stats = model.class_stats()
    assert stats["control"] == {"bytes_completed": 1_000_000.0, "preemptions": 0}
    assert stats["bulk"] == {"bytes_completed": 1_000_000.0, "preemptions": 1}
    assert "lookup" not in stats  # empty classes stay out of the section


# ----------------------------------------------------------------- registry
def test_registry_lists_max_min_first_and_rejects_unknown_names():
    names = allocator_names()
    assert names[0] == "max-min"
    assert set(names) == {"max-min", "fair-share", "fixed-priority",
                          "priority-queue"}
    with pytest.raises(UnknownAllocatorError, match="max-min"):
        make_allocator("wfq")


def test_configure_switches_allocator_mid_run_and_recomputes():
    sim, model, ips, _ = _model(allocator="max-min", hosts=3)
    control = model.transfer(ips[0], ips[1], 50_000_000, priority=CONTROL)
    bulk = model.transfer(ips[0], ips[2], 50_000_000, priority=BULK)
    assert control.rate_bps == pytest.approx(CAP_BPS / 2)
    model.configure(allocator="fixed-priority")
    assert model.allocator_name == "fixed-priority"
    assert control.rate_bps == CAP_BPS and bulk.rate_bps == 0.0


# ------------------------------------------------------------- digest parity
@pytest.mark.slow
@pytest.mark.parametrize("kernel", KERNELS)
def test_churning_chord_max_min_digest_matches_pre_refactor(kernel, monkeypatch):
    """``--bw-alloc max-min`` reproduces the pre-refactor flagship report.

    Same configuration as the pinned churn digest in tests/test_testbeds.py,
    with the allocator requested explicitly and, on wheel, the brute-force
    recompute in the model's place — neither the refactor, the priority
    threading nor the component walk may move a single byte.
    """
    if kernel == "wheel":
        monkeypatch.setattr(BandwidthModel, "_component",
                            GlobalRecomputeModel._component)
    use_kernel(monkeypatch, kernel)
    report = run_chord_scenario(
        RunConfig(nodes=12, hosts=8, seed=11, churn=True, join_window=30.0,
                  settle=40.0, bw_alloc="max-min"), lookups=15)
    assert harness.report_digest(report) == PRE_REFACTOR_CHURN_DIGEST
