"""Differential schedule fuzzer: the timer wheel against the heap oracle.

Each seeded program is a random mix of every public scheduling operation,
applied in lock-step to a :class:`~repro.sim.kernel.Simulator` and to
``HeapSimulator`` (``tests/heap_kernel_reference.py``).  Delays are drawn to
land in every queue structure of the wheel — the ready deque (delay 0), the
cursor heap (sub-tick), wheel buckets (inside the horizon) and the overflow
heap (beyond it) — and both kernels must agree on the ``(time, seq, label)``
trace and on every public counter after every slice.
"""

import random

import pytest

from heap_kernel_reference import HeapSimulator
from repro.sim.kernel import WHEEL_SLOTS, WHEEL_TICK, Simulator

HORIZON = WHEEL_TICK * WHEEL_SLOTS
PROGRAMS = 320


class _Twin:
    """One kernel under test plus everything the program remembers about it."""

    def __init__(self, sim):
        self.sim = sim
        self.trace = []
        self.seqs = {}      # label -> seq its event was scheduled with
        self.handles = []   # two thirds of the handles ever returned, fired
        #                     or not; the rest are dropped so they can recycle

    def fire(self, label, program):
        self.trace.append((self.sim.now, self.seqs[label], label))
        for op in program.get(label, ()):
            self.apply(op, program)

    def _keep(self, label, handle):
        self.seqs[label] = handle.seq
        if label % 3:
            self.handles.append(handle)

    def apply(self, op, program):
        sim, kind = self.sim, op[0]
        if kind == "schedule":
            self._keep(op[1], sim.schedule(op[2], self.fire, op[1], program))
        elif kind == "schedule_at":  # op[2] is an offset from *now*
            self._keep(op[1], sim.schedule_at(sim.now + op[2], self.fire,
                                              op[1], program))
        elif kind == "call_soon":
            self._keep(op[1], sim.call_soon(self.fire, op[1], program))
        elif kind == "cancel" and self.handles:
            self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "stop":
            sim.stop()
        elif kind == "clear":
            sim.clear()

    def state(self):
        sim = self.sim
        held = [(h.time, h.seq, h.cancelled, h.fired) for h in self.handles]
        return (self.trace, sim.now, sim.pending_events, sim.executed_events,
                sim.cancelled_events, held)


def _delay(rng):
    return rng.choice([
        0.0,                                    # ready deque
        rng.random() * WHEEL_TICK,              # sub-tick: cursor heap
        WHEEL_TICK, 2 * WHEEL_TICK,             # exact bucket boundaries
        rng.random() * 5.0,                     # near buckets
        rng.random() * HORIZON,                 # anywhere inside the horizon
        HORIZON - WHEEL_TICK, HORIZON,          # the horizon's edge
        HORIZON + rng.random() * 3 * HORIZON,   # overflow heap
    ])


def _op(rng, labels):
    roll = rng.random()
    if roll < 0.45:
        return ("schedule", next(labels), _delay(rng))
    if roll < 0.60:
        # schedule_at, including the current instant itself
        return ("schedule_at", next(labels), rng.choice([0.0, _delay(rng)]))
    if roll < 0.68:
        return ("call_soon", next(labels))
    if roll < 0.93:
        return ("cancel", rng.randrange(1 << 16))  # pending, fired or held
    if roll < 0.97:
        return ("stop",)
    return ("clear",)


def _program(seed):
    """``(top-level steps, {label: ops its callback performs})``."""
    rng = random.Random(seed)
    labels = iter(range(1 << 30))
    steps, callbacks = [], {}
    for _ in range(rng.randrange(20, 60)):
        roll = rng.random()
        if roll < 0.70:
            op = _op(rng, labels)
            if op[0] in ("schedule", "schedule_at", "call_soon") \
                    and rng.random() < 0.4:
                # the callback itself schedules, cancels, stops or clears
                callbacks[op[1]] = [_op(rng, labels)
                                    for _ in range(rng.randrange(1, 4))]
            steps.append(op)
        elif roll < 0.80:
            steps.append(("step",))
        elif roll < 0.95:
            steps.append(("run_until", _delay(rng)))
        else:
            steps.append(("run",))
    # Second-level callbacks stay leaves, so every program terminates.
    return steps, callbacks


@pytest.mark.parametrize("chunk", range(8))
def test_wheel_and_heap_agree_on_random_schedule_programs(chunk):
    per_chunk = PROGRAMS // 8
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        steps, callbacks = _program(seed)
        wheel, heap = _Twin(Simulator(seed)), _Twin(HeapSimulator(seed))
        for index, step in enumerate(steps):
            for twin in (wheel, heap):
                if step[0] == "step":
                    twin.last = twin.sim.step()
                elif step[0] == "run_until":
                    twin.last = twin.sim.run(until=twin.sim.now + step[1])
                elif step[0] == "run":
                    twin.last = twin.sim.run()
                else:
                    twin.last = twin.apply(step, callbacks)
            where = f"program seed={seed}, slice {index} {step}"
            assert wheel.last == heap.last, where
            assert wheel.state() == heap.state(), where
        # Drain what is left (a callback's stop() ends a run early): both
        # must run dry at the same instant.
        while wheel.sim.pending_events or heap.sim.pending_events:
            assert wheel.sim.run() == heap.sim.run(), f"program seed={seed}, drain"
            assert wheel.state() == heap.state(), f"program seed={seed}, drain"


def test_the_fuzzer_reaches_every_queue_structure_and_operation():
    # The differential test is only as good as its programs: across the run
    # every operation kind must occur, at top level and inside callbacks,
    # and delays must land on both sides of the wheel horizon.
    kinds, nested, beyond, within = set(), set(), 0, 0
    for seed in range(PROGRAMS):
        steps, callbacks = _program(seed)
        kinds.update(step[0] for step in steps)
        for ops in callbacks.values():
            nested.update(op[0] for op in ops)
        for op in steps:
            if op[0] == "schedule":
                beyond += op[2] > HORIZON
                within += 0.0 < op[2] < HORIZON
    everything = {"schedule", "schedule_at", "call_soon", "cancel", "stop",
                  "clear"}
    assert kinds == everything | {"step", "run_until", "run"}
    assert nested == everything
    assert beyond > 100 and within > 100
