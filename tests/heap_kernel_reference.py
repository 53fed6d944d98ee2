"""Reference oracle: the binary-heap event queue the timer wheel replaced.

``HeapSimulator`` is a :class:`repro.sim.kernel.Simulator` — same clock,
counters, ``ScheduledEvent`` handles, free list and sanitizer / observability
seams — in which every queue operation (insert, pop, the run loop, clear) is
replaced by the simplest possible one: a single ``heapq`` of
``(time, seq, event)`` entries.  None of the wheel's structures (ready deque,
cursor heap, buckets, overflow heap) is ever touched, so an ordering bug in
them cannot hide in both.

Tests swap it in where they build a simulator (``make_simulator``) or a whole
deployment (``use_kernel``, which patches ``harness.Simulator``): the
differential schedule fuzzer (``tests/test_kernel_fuzz.py``), the ``KERNELS``
parametrisation of ``tests/test_kernel.py`` and one scenario-level digest test
per workload hold the wheel to this queue's ``(time, seq)`` execution order.
"""

import sys
from heapq import heappop, heappush

from repro.sim.kernel import _FREE_LIST_MAX, ScheduledEvent, Simulator

#: parametrisation shared by the both-kernel tests ("heap" is this oracle)
KERNELS = ("wheel", "heap")


class HeapSimulator(Simulator):
    """``Simulator`` over one binary heap instead of the timer wheel."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self._heap = []

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        when = self._now + delay
        self._seq = seq = self._seq + 1
        if self._free:
            event = self._free.pop()
            if self._san is not None:
                self._san.check_recycled(event)
            event.__init__(when, seq, callback, args, self, self._epoch)
        else:
            self.allocated_events += 1
            event = ScheduledEvent(when, seq, callback, args, self, self._epoch)
        if self._san is not None:
            self._san.note_scheduled(event)
        elif self._obs_stamp is not None:
            self._obs_stamp(event)
        self._pending += 1
        heappush(self._heap, (when, seq, event))
        return event

    def _recycle(self, event):
        # refs: the caller's local + our parameter + getrefcount's argument;
        # more means someone still holds the handle, which must stay intact.
        if sys.getrefcount(event) == 3 and len(self._free) < _FREE_LIST_MAX:
            event.callback = None
            event.args = ()
            self._free.append(event)

    def _pop_next(self):
        """The next live event (``step`` executes it), or ``None``."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                return event
            self._recycle(event)
        return None

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
        return self._now

    def clear(self):
        super().clear()
        self._heap.clear()


_BY_NAME = {"wheel": Simulator, "heap": HeapSimulator}


def make_simulator(kernel, seed=0):
    """``Simulator(seed)`` for ``"wheel"``, the heap oracle for ``"heap"``."""
    return _BY_NAME[kernel](seed)


def use_kernel(monkeypatch, kernel):
    """Make ``harness.deploy`` build its deployments on ``kernel``."""
    from repro.apps import harness

    monkeypatch.setattr(harness, "Simulator", _BY_NAME[kernel])
