"""Kernel: virtual clock, event ordering, determinism, timer wheel.

``KERNELS`` runs each behavioural test on the timer wheel and on the heap
oracle of ``tests/heap_kernel_reference.py`` ("heap"), so the contract the
wheel is held to is stated by a second, independent implementation.
"""

import random

import pytest

from heap_kernel_reference import KERNELS, make_simulator
from repro.sim.kernel import Simulator


@pytest.mark.parametrize("kernel", KERNELS)
def test_same_instant_events_fire_in_schedule_order(kernel):
    sim = make_simulator(kernel)
    order = []
    sim.schedule(1.0, order.append, "a")
    sim.schedule(1.0, order.append, "b")
    sim.schedule(0.5, order.append, "c")
    sim.schedule(1.0, order.append, "d")
    sim.run()
    assert order == ["c", "a", "b", "d"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_until_advances_clock_without_firing_later_events(kernel):
    sim = make_simulator(kernel)
    fired = []
    sim.schedule(5.0, fired.append, "late")
    assert sim.run(until=2.0) == 2.0
    assert fired == []
    assert sim.now == 2.0
    sim.run()
    assert fired == ["late"]
    assert sim.now == 5.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_cancelled_events_do_not_fire(kernel):
    sim = make_simulator(kernel)
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(1.0, fired.append, "y")
    event.cancel()
    sim.run()
    assert fired == ["y"]
    assert not event.pending


@pytest.mark.parametrize("kernel", KERNELS)
def test_cannot_schedule_in_the_past(kernel):
    sim = make_simulator(kernel)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("kernel", KERNELS)
def test_event_callbacks_scheduling_more_events(kernel):
    sim = make_simulator(kernel)
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 3:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    assert ticks == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("kernel", KERNELS)
def test_two_seeded_runs_produce_identical_traces(kernel):
    def trace(seed):
        sim = make_simulator(kernel, seed)
        out = []

        def step(label):
            out.append((round(sim.now, 9), label, sim.rng.random()))
            if len(out) < 50:
                sim.schedule(sim.rng.uniform(0.0, 2.0), step, label + 1)

        sim.schedule(0.0, step, 0)
        sim.run()
        return out

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


# ------------------------------------------------------------- stop() + until
@pytest.mark.parametrize("kernel", KERNELS)
def test_stop_during_run_until_does_not_jump_the_clock(kernel):
    """Regression: stop() mid-run used to take the while/else branch and jump
    ``now`` to ``until`` even though unexecuted events remained before it —
    making subsequent schedule_at calls raise "cannot schedule in the past"."""
    sim = make_simulator(kernel)
    fired = []

    def first():
        fired.append(sim.now)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2.0)  # still pending when stop() fires
    assert sim.run(until=10.0) == 1.0
    assert sim.now == 1.0
    assert fired == [1.0]
    assert sim.pending_events == 1
    # The window between the stop point and `until` must stay schedulable.
    sim.schedule_at(1.5, fired.append, 1.5)
    sim.run(until=10.0)
    assert fired == [1.0, 1.5, 2.0]
    assert sim.now == 10.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_drained_run_until_still_advances_the_clock(kernel):
    sim = make_simulator(kernel)
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=30.0) == 30.0
    assert sim.now == 30.0


# ---------------------------------------------------------- pending counter
@pytest.mark.parametrize("kernel", KERNELS)
def test_pending_events_counter_tracks_schedules_cancels_and_fires(kernel):
    sim = make_simulator(kernel)
    events = [sim.schedule(float(i % 7), lambda: None) for i in range(50)]
    assert sim.pending_events == 50
    for event in events[::2]:
        event.cancel()
    assert sim.pending_events == 25
    events[0].cancel()  # double-cancel must not double-count
    assert sim.pending_events == 25
    sim.run()
    assert sim.pending_events == 0
    events[1].cancel()  # cancel after firing is a no-op
    assert sim.pending_events == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_clear_resets_pending_and_later_cancels_are_neutral(kernel):
    sim = make_simulator(kernel)
    stale = sim.schedule(5.0, lambda: None)
    sim.schedule(6.0, lambda: None)
    sim.clear()
    assert sim.pending_events == 0
    stale.cancel()  # scheduled before the clear(): must not go negative
    assert sim.pending_events == 0
    sim.schedule(1.0, lambda: None)
    assert sim.pending_events == 1
    assert sim.run() == 1.0


# ------------------------------------------------------------- wheel details
def test_wheel_and_heap_execute_identical_orders_across_structures():
    """Mixed workload spanning the ready deque, wheel buckets and the
    overflow heap (delays far beyond the wheel horizon) must execute in
    exactly the same (time, seq) order on both kernels."""
    def trace(kernel):
        sim = make_simulator(kernel, 3)
        out = []

        def emit(tag):
            out.append((round(sim.now, 9), tag))

        def burst(tag):
            emit(tag)
            # same-instant follow-ups exercise the ready deque
            sim.schedule(0.0, emit, f"{tag}/soon")
            if len(out) < 400:
                delay = sim.rng.choice([0.0, 0.001, 0.0499, 0.05, 1.0 / 3.0,
                                        2.5, 60.0, 500.0, 10_000.0])
                sim.schedule(delay, burst, f"{tag}+")

        for i in range(8):
            sim.schedule(i * 0.013, burst, f"n{i}")
        sim.run()
        return out

    assert trace("wheel") == trace("heap")


def test_wheel_events_cancelled_inside_buckets_and_overflow():
    sim = Simulator()
    fired = []
    near = sim.schedule(0.2, fired.append, "near")       # wheel bucket
    far = sim.schedule(100_000.0, fired.append, "far")   # overflow heap
    keep = sim.schedule(0.3, fired.append, "keep")
    near.cancel()
    far.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.fired and not near.fired and not far.fired
    assert sim.pending_events == 0


def test_wheel_overflow_ghost_purge_keeps_counts_consistent():
    sim = Simulator()
    far = [sim.schedule(100_000.0 + i, lambda: None) for i in range(300)]
    for event in far[:299]:
        event.cancel()  # triggers the lazy overflow compaction
    assert sim.pending_events == 1
    sim.run()
    assert sim.executed_events == 1
    assert sim.pending_events == 0


def test_scheduling_into_the_jumped_until_window_works_on_the_wheel():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    sim.run(until=7.03)  # clock parks mid-bucket, ahead of the wheel cursor
    fired = []
    sim.schedule(0.0, fired.append, "soon")
    sim.schedule_at(7.04, fired.append, "mid")
    sim.schedule(0.5, fired.append, "later")
    sim.run(until=9.0)
    assert fired == ["soon", "mid", "later"]
    assert sim.now == 9.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_schedule_at_now_keeps_seq_order_after_a_drained_jump(kernel):
    # Found by the differential fuzzer (tests/test_kernel_fuzz.py): a drained
    # run(until) parks the clock ahead of the wheel cursor, where an event
    # scheduled *at* the current instant used to land in a wheel bucket and
    # fire after later same-instant schedule(0.0) events from the ready deque.
    sim = make_simulator(kernel)
    sim.run(until=610.47)
    order = []
    sim.schedule_at(sim.now, order.append, "first")
    sim.schedule(0.0, order.append, "second")
    sim.call_soon(order.append, "third")
    sim.run()
    assert order == ["first", "second", "third"]


def test_schedule_at_lands_on_the_requested_instant_exactly():
    # schedule_at goes through schedule(delay), and now + (when - now) rounds
    # one ulp off ``when`` for about one float pair in a hundred of these.
    rng = random.Random(42)
    off_by_an_ulp = 0
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        fired = []
        for _ in range(1000):
            sim.run(until=sim.now + rng.random())
            when = sim.now * (1.0 + rng.random() * rng.choice([1e-9, 1.0, 3.0]))
            off_by_an_ulp += sim.now + (when - sim.now) != when
            assert sim.schedule_at(when, fired.append, when).time == when
        same_instant = sim.schedule_at(sim.now, fired.append, "now")
        sim.schedule(0.0, fired.append, "after")
        assert same_instant.time == sim.now
        sim.run()
        at = fired.index("now")
        assert fired[at + 1] == "after"
        del fired[at:at + 2]
        assert fired == sorted(fired) and len(fired) == 1000
    assert off_by_an_ulp > 0


def test_call_soon_runs_after_already_scheduled_same_time_events():
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        order = []
        sim.schedule(0.0, order.append, "first")
        sim.call_soon(order.append, "second")
        sim.run()
        assert order == ["first", "second"], kernel


def test_unknown_kernel_is_rejected():
    # One kernel, no selector: the seed is the whole constructor.
    with pytest.raises(TypeError):
        Simulator(kernel="splay-tree")
    with pytest.raises(TypeError):
        Simulator(0, "heap")


# ------------------------------------------------------------------ pids
def test_pids_are_per_simulator_and_reproducible():
    from repro.sim.process import Process

    def pids():
        sim = Simulator(1)
        procs = [Process(sim, (lambda: (yield 0.0))(), name=f"p{i}")
                 for i in range(5)]
        return [p.pid for p in procs]

    first = pids()
    second = pids()  # same process, fresh simulator: identical pid sequence
    assert first == second == [1, 2, 3, 4, 5]


# ------------------------------------------------------------------ free list
#: execution-order digest of the churny free-list workload below — committed
#: so any event-recycling change that perturbs ordering fails loudly
_FREE_LIST_ORDER_DIGEST = "73985cd4ddd3dcf9"


def _churny_free_list_run(kernel):
    """An RPC-shaped workload (timers mostly cancelled) that exercises the
    event free list hard; returns the simulator and its fire-order digest."""
    import hashlib

    sim = make_simulator(kernel, 11)
    rng = sim.rng
    order = []

    def noop():
        return None

    def fire(i):
        order.append((repr(sim.now), i))
        timer = sim.schedule(3.0, noop)       # RPC-style timeout guard
        if rng.random() < 0.7:
            sim.schedule(0.05, timer.cancel)  # the reply arrived: cancel it
        sim.schedule(rng.random(), fire, i)   # next round

    for i in range(20):
        sim.schedule(rng.random(), fire, i)
    sim.run(until=30.0)
    digest = hashlib.sha256(repr(order).encode()).hexdigest()[:16]
    return sim, digest


@pytest.mark.parametrize("kernel", KERNELS)
def test_free_list_recycling_preserves_event_order(kernel):
    sim, digest = _churny_free_list_run(kernel)
    assert digest == _FREE_LIST_ORDER_DIGEST
    # The free list actually recycled: executed far more events than live
    # ScheduledEvent objects, and the list holds returned carcasses.
    assert sim.executed_events > 2000
    assert len(sim._free) > 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_free_list_never_recycles_externally_held_events(kernel):
    sim = make_simulator(kernel, 3)
    fired = []
    handle = sim.schedule(1.0, fired.append, "kept")
    sim.schedule(2.0, fired.append, "later")
    sim.run()
    assert fired == ["kept", "later"]
    # We still hold ``handle``, so the refcount guard must have skipped it:
    # its identity (callback cleared = recycled) is intact and it is not on
    # the free list awaiting reuse.
    assert handle.fired
    assert handle.callback is not None
    assert all(ev is not handle for ev in sim._free)


@pytest.mark.parametrize("kernel", KERNELS)
def test_free_list_recycles_unreferenced_cancelled_events(kernel):
    # Cancelled timers whose handles are dropped (the RPC pattern: the reply
    # cancels the timeout timer and forgets it) must be reclaimed when the
    # kernel skips over their queue entries — not only executed events.
    sim = make_simulator(kernel, 7)
    for _ in range(50):
        sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(2.0, lambda: None)  # something to run past the carcasses
    sim.run()
    # 50 cancelled + 1 fired event went through; nothing external holds them.
    assert len(sim._free) == 51


@pytest.mark.parametrize("kernel", KERNELS)
def test_free_list_never_recycles_held_cancelled_events(kernel):
    sim = make_simulator(kernel, 7)
    held = sim.schedule(1.0, lambda: None)
    held.cancel()
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert held.cancelled
    assert all(ev is not held for ev in sim._free)
