"""Differential schedule fuzzer: the event kernel against the heap oracle.

Each seeded program is a random mix of every public scheduling operation,
applied in lock-step to a :class:`~repro.sim.kernel.Simulator` and to
``HeapSimulator`` (``tests/heap_kernel_reference.py``).  Delays span the
current instant, sub-50 ms, exact multiples of 50 ms, seconds, minutes and
hours; some programs schedule a burst of events and cancel most of them while
they are pending, so the kernel compacts its queue mid-program while the
oracle, which never compacts, keeps every cancelled entry.  Both kernels must
agree on the ``(time, seq, label)`` trace and on every public counter after
every slice.
"""

import random

import pytest

from heap_kernel_reference import HeapSimulator, step as step_once
from repro.sim.kernel import Simulator

PROGRAMS = 320


class _Twin:
    """One kernel under test plus everything the program remembers about it."""

    def __init__(self, sim):
        self.sim = sim
        self.trace = []
        self.seqs = {}      # label -> seq its event was scheduled with
        self.handles = []   # two thirds of the handles ever returned, fired
        #                     or not; the rest are dropped so they can recycle
        self.compactions = 0  # cancels that shrank the kernel's queue

    def fire(self, label, program):
        self.trace.append((self.sim.now, self.seqs[label], label))
        for op in program.get(label, ()):
            self.apply(op, program)

    def _keep(self, label, handle):
        self.seqs[label] = handle.seq
        if label % 3:
            self.handles.append(handle)

    def _cancel(self, handle):
        queue = self.sim._queue  # always empty on the oracle
        before = len(queue)
        handle.cancel()
        self.compactions += len(queue) < before

    def apply(self, op, program):
        sim, kind = self.sim, op[0]
        if kind == "schedule":
            self._keep(op[1], sim.schedule(op[2], self.fire, op[1], program))
        elif kind == "schedule_at":  # op[2] is an offset from *now*
            self._keep(op[1], sim.schedule_at(sim.now + op[2], self.fire,
                                              op[1], program))
        elif kind == "cancel" and self.handles:
            self._cancel(self.handles[op[1] % len(self.handles)])
        elif kind == "burst":  # schedule many, then cancel most while pending
            _, labels, delays, doomed = op
            burst = [sim.schedule(delay, self.fire, label, program)
                     for label, delay in zip(labels, delays)]
            for label, handle in zip(labels, burst):
                self._keep(label, handle)
            for index in doomed:
                self._cancel(burst[index])
        elif kind == "stop":
            sim.stop()

    def step(self, step, program):
        """Apply one top-level program step; returns what the call returned."""
        if step[0] == "step":
            return step_once(self.sim)
        if step[0] == "run_until":
            return self.sim.run(until=self.sim.now + step[1])
        if step[0] == "run":
            return self.sim.run()
        return self.apply(step, program)

    def state(self):
        sim = self.sim
        held = [(h.time, h.seq, h.cancelled, h.fired) for h in self.handles]
        return (self.trace, sim.now, sim.pending_events, sim.executed_events,
                sim.cancelled_events, held)


def _delay(rng):
    return rng.choice([
        0.0,                                    # the current instant
        rng.random() * 0.05,                    # under 50 ms
        0.05, 0.1,                              # exact multiples of 50 ms
        rng.random() * 5.0,                     # seconds
        rng.random() * 204.8,                   # up to a few minutes
        204.75, 204.8,                          # round values near 205 s
        204.8 + rng.random() * 614.4,           # up to a quarter hour
    ])


def _op(rng, labels):
    roll = rng.random()
    if roll < 0.50:
        return ("schedule", next(labels), _delay(rng))
    if roll < 0.65:
        # schedule_at, including the current instant itself
        return ("schedule_at", next(labels), rng.choice([0.0, _delay(rng)]))
    if roll < 0.95:
        return ("cancel", rng.randrange(1 << 16))  # pending, fired or held
    return ("stop",)


def _burst(rng, labels):
    """Enough cancels of pending events (over 64) to compact the queue."""
    size = rng.randrange(100, 250)
    doomed = rng.sample(range(size), rng.randrange(size * 2 // 3, size))
    return ("burst", [next(labels) for _ in range(size)],
            [_delay(rng) for _ in range(size)], doomed)


def _program(seed):
    """``(top-level steps, {label: ops its callback performs})``."""
    rng = random.Random(seed)
    labels = iter(range(1 << 30))
    steps, callbacks = [], {}
    for _ in range(rng.randrange(20, 60)):
        roll = rng.random()
        if roll < 0.70:
            op = _op(rng, labels)
            if op[0] in ("schedule", "schedule_at") and rng.random() < 0.4:
                # the callback itself schedules, cancels or stops
                callbacks[op[1]] = [_op(rng, labels)
                                    for _ in range(rng.randrange(1, 4))]
            steps.append(op)
        elif roll < 0.80:
            steps.append(("step",))
        elif roll < 0.95:
            steps.append(("run_until", _delay(rng)))
        else:
            steps.append(("run",))
    # Drawn after everything else, so the steps above stay what they were.
    if rng.random() < 0.2:
        steps.insert(rng.randrange(len(steps) + 1), _burst(rng, labels))
    # Second-level callbacks stay leaves, so every program terminates.
    return steps, callbacks


@pytest.mark.parametrize("chunk", range(8))
def test_wheel_and_heap_agree_on_random_schedule_programs(chunk):
    per_chunk = PROGRAMS // 8
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        steps, callbacks = _program(seed)
        kernel, heap = _Twin(Simulator(seed)), _Twin(HeapSimulator(seed))
        for index, step in enumerate(steps):
            results = [twin.step(step, callbacks) for twin in (kernel, heap)]
            where = f"program seed={seed}, slice {index} {step[0]}"
            assert results[0] == results[1], where
            assert kernel.state() == heap.state(), where
        # Drain what is left (a callback's stop() ends a run early): both
        # must run dry at the same instant.
        while kernel.sim.pending_events or heap.sim.pending_events:
            assert kernel.sim.run() == heap.sim.run(), f"program seed={seed}, drain"
            assert kernel.state() == heap.state(), f"program seed={seed}, drain"


def test_the_fuzzer_reaches_every_queue_structure_and_operation():
    # The differential test is only as good as its programs: across the run
    # every operation kind must occur, at top level and inside callbacks,
    # delays must reach from the current instant to beyond 205 s, and the
    # kernel must compact its queue in a fair number of programs.
    kinds, nested, beyond, within, compacting = set(), set(), 0, 0, 0
    for seed in range(PROGRAMS):
        steps, callbacks = _program(seed)
        kinds.update(step[0] for step in steps)
        for ops in callbacks.values():
            nested.update(op[0] for op in ops)
        for op in steps:
            if op[0] == "schedule":
                beyond += op[2] > 204.8
                within += 0.0 < op[2] < 204.8
        twin = _Twin(Simulator(seed))
        for step in steps:
            twin.step(step, callbacks)
        compacting += twin.compactions > 0
    everything = {"schedule", "schedule_at", "cancel", "stop"}
    assert kinds == everything | {"step", "run_until", "run", "burst"}
    assert nested == everything
    assert beyond > 100 and within > 100
    assert compacting >= 10
