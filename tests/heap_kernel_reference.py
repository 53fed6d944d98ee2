"""Reference oracle: the kernel's binary heap without compaction.

``HeapSimulator`` is a :class:`repro.sim.kernel.Simulator` — same clock,
counters, ``ScheduledEvent`` handles, free list, sanitizer / observability
seams and in-place resumption flag — in which every queue operation
(insert, pop, execute, the run loop, cancel) is replaced by the simplest
possible one over its own ``heapq`` of ``(time, seq, event)`` entries.  The
kernel's queue (``_queue``) and its compaction of cancelled entries are never
touched: a cancelled entry here waits for its time, so the differential
fuzzer compares compaction against none.

Tests swap it in where they build a simulator (``make_simulator``) or a whole
deployment (``use_kernel``, which patches ``harness.Simulator``): the
differential schedule fuzzer (``tests/test_kernel_fuzz.py``), the ``KERNELS``
parametrisation of ``tests/test_kernel.py`` and one scenario-level digest test
per workload hold the kernel to this queue's ``(time, seq)`` execution order.
:func:`step` executes one event of either kernel, for tests that single-step.
"""

import sys
from heapq import heappop, heappush

from repro.sim.kernel import _FREE_LIST_MAX, ScheduledEvent, Simulator

#: parametrisation shared by the both-kernel tests: "wheel" is the production
#: ``Simulator`` (named for the timer wheel it once was; the label keeps the
#: parametrised test ids stable), "heap" is this oracle
KERNELS = ("wheel", "heap")


class HeapSimulator(Simulator):
    """``Simulator`` over one plain binary heap, without compaction."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self._heap = []

    def schedule(self, delay, callback, *args):
        if not 0.0 <= delay < float("inf"):
            raise ValueError(f"delay must be finite and non-negative: {delay!r}")
        when = self._now + delay
        self._seq = seq = self._seq + 1
        if self._free:
            event = self._free.pop()
            if self._san is not None:
                self._san.check_recycled(event)
            event.__init__(when, seq, callback, args, self)
        else:
            self.allocated_events += 1
            event = ScheduledEvent(when, seq, callback, args, self)
        if self._san is not None:
            self._san.note_scheduled(event)
        elif self._obs_stamp is not None:
            self._obs_stamp(event)
        self._pending += 1
        heappush(self._heap, (when, seq, event))
        return event

    def _note_cancelled(self, event):
        self._pending -= 1

    def _recycle(self, event):
        # refs: the caller's local + this parameter + getrefcount's argument
        if sys.getrefcount(event) == 3 and len(self._free) < _FREE_LIST_MAX:
            event.callback = None
            event.args = ()
            self._free.append(event)

    def _pop_next(self):
        """The next live event, or ``None``."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                return event
            self._recycle(event)
        return None

    def _execute(self, event):
        """Fire ``event`` under the kernel's dispatch rule: a coroutine
        continues inside the event that completes its future."""
        if self._san is not None:
            self._san.before_execute(event)
        self._now = event.time
        event.fired = True
        self._pending -= 1
        self.executed_events += 1
        inline, self._resume_inline = self._resume_inline, True
        try:
            if self._obs is None:
                event.callback(*event.args)
            else:
                self._obs.run_event(event)
        finally:
            self._resume_inline = inline

    def run(self, until=None):
        self._stop_requested = False
        heap = self._heap
        while not self._stop_requested:
            while heap and heap[0][2].cancelled:
                event = heappop(heap)[2]
                self._recycle(event)
            if not heap:
                if until is not None and self._now < until:
                    self._now = until
                break
            if until is not None and heap[0][0] > until:
                self._now = until
                break
            event = heappop(heap)[2]
            self._execute(event)
            self._recycle(event)
        return self._now


def step(sim):
    """Execute the next pending event of ``sim`` (either kernel).

    Returns ``False`` when none is pending.  The oracle pops and executes
    it itself; on the kernel the event runs inside ``run()``, which a
    wrapper around its callback stops right after it.
    """
    if isinstance(sim, HeapSimulator):
        event = sim._pop_next()
        if event is None:
            return False
        sim._execute(event)
        sim._recycle(event)
        return True
    live = [entry for entry in sim._queue if not entry[2].cancelled]
    if not live:
        return False
    event = min(live)[2]
    callback = event.callback

    def once(*args):
        sim.stop()
        callback(*args)

    event.callback = once
    del live, event  # the kernel may recycle the event once it fired
    sim.run()
    return True


_BY_NAME = {"wheel": Simulator, "heap": HeapSimulator}


def make_simulator(kernel, seed=0):
    """``Simulator(seed)`` for ``"wheel"``, the heap oracle for ``"heap"``."""
    return _BY_NAME[kernel](seed)


def use_kernel(monkeypatch, kernel):
    """Make ``harness.deploy`` build its deployments on ``kernel``."""
    from repro.apps import harness

    monkeypatch.setattr(harness, "Simulator", _BY_NAME[kernel])
