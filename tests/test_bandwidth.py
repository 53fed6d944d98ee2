"""Bandwidth model: max-min fairness and transfer accounting."""

import pytest

from heap_kernel_reference import KERNELS, make_simulator
from repro.net.bandwidth import BandwidthModel
from repro.net.bwalloc import BULK, CONTROL, allocator_names
from repro.net.network import Network
from repro.sim.kernel import Simulator


class _RiggedAllocator:
    """The seam the stall tests use: the real allocator runs, then ``rig``
    edits the rates it wrote — ``_reallocate`` around it stays the real one."""

    def __init__(self, model, rig):
        self.inner = model._allocator
        self.name = self.inner.name
        self.rig = rig

    def allocate(self, flows, links):
        self.inner.allocate(flows, links)
        self.rig(flows)


def _no_flow_on_any_link(bw):
    return not any(link.flows for table in (bw._uplinks, bw._downlinks)
                   for link in table.values())


def test_equal_flows_share_the_bottleneck_uplink():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)  # 8 Mbps uplink = 1 MB/s
    one_mb = 1_000_000
    t1 = bw.transfer("A", "B", one_mb)
    t2 = bw.transfer("A", "C", one_mb)
    assert t1.rate_bps == pytest.approx(4_000_000)
    assert t2.rate_bps == pytest.approx(4_000_000)
    sim.run()
    # Two 1 MB flows sharing 1 MB/s finish together at t = 2 s.
    assert t1.done.result() == pytest.approx(2.0)
    assert t2.done.result() == pytest.approx(2.0)
    assert bw.completed == 2


def test_max_min_gives_leftover_capacity_to_unconstrained_flow():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    bw.set_capacity("B", None, 2_000_000)  # B's downlink is the narrow link
    t_ab = bw.transfer("A", "B", 10_000_000)
    t_ac = bw.transfer("A", "C", 10_000_000)
    # Progressive filling: A->B capped at 2 Mbps by B's downlink; A->C takes
    # the remaining 6 Mbps of A's uplink.
    assert t_ab.rate_bps == pytest.approx(2_000_000)
    assert t_ac.rate_bps == pytest.approx(6_000_000)


def test_rates_rebalance_when_a_flow_completes():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    short = bw.transfer("A", "B", 500_000)
    long = bw.transfer("A", "C", 2_000_000)
    sim.run(until=1.01)  # short flow (0.5 MB at 0.5 MB/s) finishes at t = 1 s
    assert short.done.done()
    assert long.rate_bps == pytest.approx(8_000_000)
    sim.run()
    # long: 0.5 MB in the first second, the remaining 1.5 MB at 1 MB/s.
    assert long.done.result() == pytest.approx(2.5)


def test_cancel_host_aborts_its_transfers():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    doomed = bw.transfer("A", "B", 1_000_000)
    other = bw.transfer("C", "D", 1_000_000)
    assert bw.cancel_host("A") == 1
    assert doomed.done.cancelled()
    sim.run()
    assert other.done.done() and not other.done.cancelled()


def test_two_flow_shared_uplink_with_zero_rate_assignment_does_not_crash():
    """Regression: _reallocate computed min() over positive-rate flows only;
    a zero-rate assignment (shared uplink exhausted by a bottlenecked flow or
    float dust) made the generator empty and min() raise ValueError — and the
    stalled flow never completed.  The guard must survive the degenerate
    state and re-tick the stalled flow once capacity frees."""
    sim = Simulator()
    bw = BandwidthModel(sim)
    forced = {"zero": True}

    def starve_the_last(flows):
        if forced["zero"] and len(flows) > 1:
            flows[-1].rate_bps = 0.0  # the shared uplink left nothing for the last flow

    bw._allocator = _RiggedAllocator(bw, starve_the_last)
    bw.set_capacity("A", 8_000_000, None)
    healthy = bw.transfer("A", "B", 1_000_000)
    stalled = bw.transfer("A", "C", 1_000_000)
    assert stalled.rate_bps == 0.0
    assert healthy.rate_bps > 0.0
    sim.run(until=9.0)
    # The healthy flow completes; its completion frees the uplink and the
    # next reallocation (no longer forced to zero) revives the stalled flow.
    assert healthy.done.done()
    forced["zero"] = False
    bw._reallocate()
    assert stalled.rate_bps > 0.0
    sim.run()
    assert stalled.done.done()
    assert bw.completed == 2


def test_all_flows_zero_rate_schedules_no_tick_and_recovers():
    sim = Simulator()
    bw = BandwidthModel(sim)
    real = bw._allocator

    def stall_all(flows):
        for flow in flows:
            flow.rate_bps = 0.0

    bw._allocator = _RiggedAllocator(bw, stall_all)
    bw.set_capacity("A", 8_000_000, None)
    stalled = bw.transfer("A", "B", 1_000_000)  # must not raise ValueError
    assert stalled.rate_bps == 0.0
    assert sim.pending_events == 0  # no completion tick for a fully stalled set
    bw._allocator = real  # capacity "frees": restore the real allocator
    bw._reallocate()
    sim.run()
    assert stalled.done.result() == pytest.approx(1.0)


def test_shared_uplink_two_flows_complete_with_fair_timing():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("S", 8_000_000, None)     # 1 MB/s shared uplink
    bw.set_capacity("D1", None, 2_000_000)    # D1 downlink bottleneck
    narrow = bw.transfer("S", "D1", 1_000_000)
    wide = bw.transfer("S", "D2", 1_500_000)
    assert narrow.rate_bps == pytest.approx(2_000_000)
    assert wide.rate_bps == pytest.approx(6_000_000)
    sim.run()
    assert narrow.done.done() and wide.done.done()
    assert bw.completed == 2


def test_transfer_progress_accounting():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)  # 1 MB/s
    transfer = bw.transfer("A", "B", 2_000_000)
    sim.run(until=1.0)
    # Trigger a progress update by starting another flow at t = 1 s.
    bw.transfer("A", "C", 1)
    assert transfer.bytes_transferred() == pytest.approx(1_000_000, rel=0.01)
    assert transfer.started_at == 0.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_bytes_transferred_accrues_between_rate_recomputes(kernel):
    """Regression: the settled byte count only moves when rates change.

    A flow cruising at a steady rate saw ``bytes_transferred()`` stuck at
    the value of the *last* recomputation — stale by up to a whole
    completion interval.  Passing ``now`` extrapolates along the current
    rate from the last settlement and clamps at the transfer size.
    """
    sim = make_simulator(kernel)
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)  # 1 MB/s
    transfer = bw.transfer("A", "B", 2_000_000)
    sim.run(until=1.0)
    # No rate change since t = 0: the settled value is the stale zero ...
    assert transfer.bytes_transferred() == 0.0
    # ... while the time-aware form accrues along the allocated rate.
    assert transfer.bytes_transferred(sim.now) == pytest.approx(1_000_000)
    sim.run(until=1.5)
    assert transfer.bytes_transferred(sim.now) == pytest.approx(1_500_000)
    sim.run()
    assert transfer.done.result() == pytest.approx(2.0)
    assert transfer.bytes_transferred(sim.now) == transfer.total_bytes
    # Extrapolating past completion clamps instead of overshooting.
    assert transfer.bytes_transferred(sim.now + 60.0) == transfer.total_bytes


@pytest.mark.parametrize("kernel", KERNELS)
def test_cancellation_from_completion_callback_mid_recompute(kernel):
    """A completion callback cancelling another flow re-enters _reallocate.

    The outer recomputation's partition pass has already run when the
    future's callbacks fire; the nested cancel must not corrupt the flow
    table, double-count, or strand the bystander flow.
    """
    sim = make_simulator(kernel)
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    short = bw.transfer("A", "B", 500_000)
    victim = bw.transfer("A", "C", 4_000_000)
    bystander = bw.transfer("A", "D", 4_000_000)
    short.done.add_done_callback(lambda fut: bw.cancel_transfer(victim))
    sim.run()
    assert short.done.done() and not short.done.cancelled()
    assert victim.done.cancelled()
    assert bystander.done.done() and not bystander.done.cancelled()
    assert bw.completed == 2 and bw.preemptions == 1
    assert bw.active_transfers == 0
    assert _no_flow_on_any_link(bw)  # nested removal left no stale adjacency
    assert bw.bytes_completed == short.total_bytes + bystander.total_bytes


@pytest.mark.parametrize("allocator", allocator_names())
def test_transfer_finishing_below_the_clock_resolution_completes(allocator):
    """Regression: 10 bytes over an unlimited path at t=5000 s need 8e-14 s,
    and ``5000.0 + 8e-14 == 5000.0`` — the completion tick used to re-fire at
    the same instant with nothing elapsed, settle nothing and re-arm itself
    forever, so the transfer's future never resolved."""
    sim = Simulator(0)
    model = BandwidthModel(sim)
    model.configure(allocator=allocator)
    sim.run(until=5000.0)
    tiny = model.transfer("A", "B", 10)
    # Done as far as the clock can tell, within the call: no event needed.
    assert tiny.done.done() and tiny.done.result() == 5000.0
    assert model.completed == 1 and model.bytes_completed == 10
    assert model.active_transfers == 0 and sim.pending_events == 0
    # A flow the clock *can* time is untouched by a sub-resolution neighbour:
    # same rate, same completion instant, one completion tick.
    model.set_capacity("C", 8_000_000, None)
    timed = model.transfer("C", "D", 1_000_000)
    model.transfer("A", "B", 10)
    assert timed.rate_bps == 8_000_000 and not timed.done.done()
    for _ in range(10):  # bounded: a livelock must fail, not hang
        if not sim.step():
            break
    assert timed.done.result() == 5001.0
    assert model.completed == 3 and sim.pending_events == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_zero_byte_transfer_completes_immediately(kernel):
    sim = make_simulator(kernel)
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    empty = bw.transfer("A", "B", 0)
    assert empty.done.done() and empty.done.result() == sim.now
    assert bw.completed == 1
    assert bw.active_transfers == 0  # never entered the allocation set
    assert empty.bytes_transferred() == 0.0
    assert empty.bytes_transferred(5.0) == 0.0  # nothing to extrapolate
    # A zero-byte transfer must not disturb concurrent flows' rates.
    flow = bw.transfer("A", "C", 1_000_000)
    bw.transfer("A", "D", 0)
    assert flow.rate_bps == pytest.approx(8_000_000)
    sim.run()
    assert bw.completed == 3


@pytest.mark.parametrize("kernel", KERNELS)
def test_simultaneous_completions_resolve_in_one_deterministic_tick(kernel):
    """Two identical flows finish at the same instant on both kernels.

    One completion tick must retire both (bit-equal finish times, no
    zero-length follow-up interval), and the tie-break — partition order =
    start order — is the same under the wheel and the heap.
    """
    sim = make_simulator(kernel)
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    first = bw.transfer("A", "B", 1_000_000)
    second = bw.transfer("A", "C", 1_000_000)
    sim.run()
    assert first.done.result() == second.done.result()  # exact, not approx
    assert first.done.result() == pytest.approx(2.0)
    assert bw.completed == 2 and bw.active_transfers == 0
    assert _no_flow_on_any_link(bw)


# ------------------------------------------------------------- link objects
def test_capacity_change_mid_run_reaches_flows_and_messages():
    """One ``set_capacity`` must move both readers of a host's capacity.

    The link objects fill against their own ``capacity`` field and
    ``Network.send`` probes the model's capacity table; a change that
    reached only one of them would let transfer rates and message
    transmission times disagree about the same access link.
    """
    sim = Simulator()
    network = Network(sim)
    bw = network.bandwidth
    for ip in ("A", "B", "C"):
        network.add_host(type("Host", (), {"ip": ip, "alive": True})())
        bw.set_capacity(ip, 8_000_000, 8_000_000)
    first = bw.transfer("A", "B", 4_000_000)
    assert first.rate_bps == 8_000_000
    sim.run(until=1.0)
    bw.set_capacity("A", 2_000_000, 8_000_000)  # A's uplink shrinks mid-flow
    assert bw.capacity("A") == (2_000_000, 8_000_000)
    assert first.up.capacity == 2_000_000
    # The next recompute touching the link sees it ...
    second = bw.transfer("A", "C", 1_000_000)
    assert first.rate_bps == 1_000_000 and second.rate_bps == 1_000_000
    # ... and so does the very next message: 1000 bytes over 2 Mbps = 4 ms.
    from repro.net.address import Address
    arrivals = []
    network.listen(Address("B", 1), lambda message: arrivals.append(sim.now))
    sent_at = sim.now
    network.send(Address("A", 1), Address("B", 1), "x", size=1000)
    sim.run(until=sent_at + 1.0)
    base = network.one_way_delay("A", "B")
    assert arrivals == [pytest.approx(sent_at + base + 0.004)]
    # A host that never carried a flow has no link objects to update.
    bw.set_capacity("C", 1_000_000, 1_000_000)
    assert "C" not in bw._uplinks and bw._downlinks["C"].capacity == 1_000_000


def test_host_failure_cancels_both_directions_in_id_order_with_one_recompute():
    sim = Simulator()
    bw = BandwidthModel(sim)
    for ip in "ABCD":
        bw.set_capacity(ip, 8_000_000, 8_000_000)
    inbound_1 = bw.transfer("B", "A", 1_000_000)
    outbound_1 = bw.transfer("A", "C", 1_000_000)
    bystander = bw.transfer("C", "D", 1_000_000)
    inbound_2 = bw.transfer("D", "A", 1_000_000)
    outbound_2 = bw.transfer("A", "B", 1_000_000)
    order = []
    for transfer in (inbound_1, outbound_1, bystander, inbound_2, outbound_2):
        transfer.done.add_done_callback(
            lambda fut, t=transfer: order.append(t.transfer_id))
    before = bw.reallocations
    assert bw.cancel_host("A") == 4
    assert order == [1, 2, 4, 5]  # transfer_id order, not uplink-then-downlink
    assert bw.reallocations == before + 1
    assert bw.preemptions == 4 and bw.active_transfers == 1
    assert bystander.rate_bps == 8_000_000
    assert bw.cancel_host("A") == 0  # nothing left to cancel, no recompute
    assert bw.reallocations == before + 1
    sim.run()
    assert bystander.done.done() and not bystander.done.cancelled()
    assert _no_flow_on_any_link(bw)


@pytest.mark.parametrize("allocator", allocator_names())
def test_transfer_started_from_a_completion_callback(allocator):
    """``done.set_result`` runs callbacks inline: ``transfer()`` re-enters
    ``_reallocate`` while the outer recompute has left the tables but not yet
    allocated.  The chained flow must be allocated, the bystander must get
    the freed capacity, and the tables must come out consistent."""
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.configure(allocator=allocator)
    for ip in "ABCD":
        bw.set_capacity(ip, 8_000_000, 8_000_000)
    chained = []
    short = bw.transfer("A", "B", 500_000, priority=CONTROL)
    bystander = bw.transfer("A", "C", 4_000_000, priority=BULK)
    short.done.add_done_callback(
        lambda fut: chained.append(bw.transfer("D", "C", 1_000_000, priority=CONTROL)))
    sim.run()
    (follow_up,) = chained
    assert follow_up.started_at == short.done.result()
    for transfer in (short, bystander, follow_up):
        assert transfer.done.done() and not transfer.done.cancelled()
    assert bw.completed == 3 and bw.active_transfers == 0
    assert bw.bytes_completed == 5_500_000
    assert _no_flow_on_any_link(bw)
    # The chained flow shared C's downlink with the bystander from the
    # instant it started: nobody was left on a rate from before the change.
    assert bw._downlinks["C"].peak_flows == 2


def test_idle_link_does_not_keep_a_finished_transfer_alive():
    import gc

    from repro.net.bandwidth import Transfer

    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    bw.transfer("A", "B", 1_000)
    bw.cancel_transfer(bw.transfer("A", "C", 1_000_000))
    sim.run()
    uplink = bw._uplinks["A"]
    assert uplink.flows == [] and uplink.peak_flows == 2
    gc.collect()
    # Transfers point at their links for good; nothing may point back.
    assert not [obj for obj in gc.get_objects()
                if isinstance(obj, Transfer) and obj.up is uplink]


def test_busiest_links_on_a_scripted_three_host_exchange():
    """``bytes_carried`` counts completed transfers only, per direction;
    ``peak_flows`` is the most flows that shared the link at one instant."""
    sim = Simulator()
    bw = BandwidthModel(sim)
    for ip in "ABC":
        bw.set_capacity(ip, 8_000_000, 8_000_000)
    bw.transfer("A", "B", 3_000_000)
    bw.transfer("A", "C", 1_000_000)
    bw.transfer("B", "C", 2_000_000)
    aborted = bw.transfer("C", "A", 5_000_000)
    sim.run(until=0.5)
    bw.cancel_transfer(aborted)  # carried nothing: it never completed
    sim.run()
    bw.transfer("A", "B", 0)  # zero-byte transfers never cross a link
    assert bw.busiest_links() == [
        {"host": "A", "direction": "up", "bytes_carried": 4_000_000, "peak_flows": 2},
        {"host": "B", "direction": "down", "bytes_carried": 3_000_000, "peak_flows": 1},
        {"host": "C", "direction": "down", "bytes_carried": 3_000_000, "peak_flows": 2},
        {"host": "B", "direction": "up", "bytes_carried": 2_000_000, "peak_flows": 1},
    ]
    assert bw.busiest_links(1) == bw.busiest_links()[:1]
