"""Max-min bandwidth fill: differential harness, oracle, digest pin.

Three layers of assurance over :mod:`repro.net.bwalloc`:

* a **differential workload harness**: one seeded random flow workload
  (arrivals, sizes, cancellations, host failures, time advances)
  replayed under the strict runtime sanitizer, asserting the model's
  invariants;
* an **oracle**: the connected-component recomputation must produce
  *bit-identical* rate vectors to a brute-force global recompute
  (``bwalloc_reference.GlobalRecomputeModel``) after every step of a long
  random script;
* the churning-chord digest pin proving the model still reproduces
  pre-refactor reports byte for byte on both kernels.
"""

import random

import pytest

from bwalloc_reference import GlobalRecomputeModel
from heap_kernel_reference import KERNELS, make_simulator, use_kernel
from repro.apps import harness
from repro.apps.chord import run_chord_scenario
from repro.apps.harness import RunConfig
from repro.net.bandwidth import BandwidthModel
from repro.sim.sanitizer import Sanitizer, SanitizerError

CAP_BPS = 10_000_000

#: the flagship churn digest pinned in tests/test_testbeds.py — captured on
#: the commit *before* the allocator refactor; the max-min fill must
#: keep producing exactly this (re-captured, with that pin, when Chord's
#: maintenance protocol changed, when coroutines began to resume inside
#: the event completing their future, when Chord's maintenance backed off,
#: when lookup hops began to wait the peer's learned RTO, when a lookup
#: became a walk forwarded from hop to hop, when a far finger became the
#: nearest of a few nodes of its interval, and when a quiet stabilize round
#: began to answer with a bare version stamp; the allocator code did not move)
PRE_REFACTOR_CHURN_DIGEST = "ffdb5a65d5cc9442"


def _model(seed=0, model_class=BandwidthModel, hosts=12, kernel="wheel",
           sanitize=False):
    sim = make_simulator(kernel, seed)
    model = model_class(sim)
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
            script.append(("add", src, dst, size))
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
        _, src, dst, size = action
        transfers.append(model.transfer(ips[src], ips[dst], size))
    elif kind == "cancel":
        model.cancel_transfer(transfers[action[1] % len(transfers)])
    elif kind == "fail":
        model.cancel_host(ips[action[1]])
    else:
        sim.run(until=sim.now + action[1])


# ----------------------------------------------------- differential harness
@pytest.mark.parametrize("seed", [3, 11])
def test_random_workload_invariants_hold_for_every_allocator(seed):
    """Arrivals/cancels/host failures against the shared contract.

    The strict sanitizer raises on the first capacity or flow-table breach,
    so every recomputation is checked, not just the final state; the
    explicit assertions cover completion and byte accounting.
    """
    sim, model, ips, _ = _model(seed=seed, sanitize=True)
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
    # the sum over completed flows.
    assert model.bytes_completed == sum(t.total_bytes for t in completed)


def test_strict_sanitizer_catches_a_corrupted_flow_table():
    """The new flow-table check fires when adjacency and reality diverge."""
    sim, model, ips, _ = _model(sanitize=True)
    model.transfer(ips[0], ips[1], 1_000_000)
    model._uplinks[ips[0]].flows.clear()  # simulate a bookkeeping bug
    with pytest.raises(SanitizerError, match="flow table"):
        model.transfer(ips[2], ips[3], 1_000_000)


# ------------------------------------------------------------------- oracle
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_incremental_rates_bit_identical_to_global_oracle(seed):
    """Component-walk recomputation == brute-force global, at every step.

    Two models replay the identical 220-step script, the shipped one and the
    :class:`GlobalRecomputeModel` brute force; after every step the full
    ``(transfer_id, rate_bps, remaining_bytes)`` state must match with
    ``==`` — bit-identical floats, not approximately equal ones.
    """
    sim_inc, model_inc, ips, _ = _model(seed=seed)
    sim_ref, model_ref, _, _ = _model(seed=seed, model_class=GlobalRecomputeModel)
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


# ------------------------------------------------------------- digest parity
@pytest.mark.slow
@pytest.mark.parametrize("kernel", KERNELS)
def test_churning_chord_max_min_digest_matches_pre_refactor(kernel, monkeypatch):
    """The max-min fill reproduces the pre-refactor flagship report.

    Same configuration as the pinned churn digest in tests/test_testbeds.py,
    with, on the kernel, the brute-force recompute in the model's place — neither the refactor nor the
    component walk may move a single byte.
    """
    if kernel == "wheel":
        monkeypatch.setattr(BandwidthModel, "_component",
                            GlobalRecomputeModel._component)
    use_kernel(monkeypatch, kernel)
    report = run_chord_scenario(
        RunConfig(nodes=12, hosts=8, seed=11, churn=True, join_window=30.0,
                  settle=40.0), lookups=15)
    assert harness.report_digest(report) == PRE_REFACTOR_CHURN_DIGEST
