"""Event kernel: virtual clock and one binary-heap event queue.

The :class:`Simulator` is the single authority on virtual time.  Every other
component (network, daemons, controller, applications) schedules callbacks on
it.  Determinism is guaranteed by a monotonically increasing sequence number
used to break ties between events scheduled for the same instant, and by the
simulator-owned random number generator.

The event queue is one :mod:`heapq` of ``(time, seq, event)`` entries.  The
sequence number is unique, so the key is a total order: events fire by time,
and same-instant events in the order they were scheduled.  Cancelling is
lazy — the entry stays queued and is skipped when it surfaces — with one
bound: once cancelled entries are more than 64 and at least half the queue,
the queue is filtered and re-heapified in place, so a cancelled timer (and
everything its callback references) does not outlive the traffic that
cancelled it by more than one such compaction.

``tests/heap_kernel_reference.py`` is the reference oracle: the same heap
with no compaction.  A differential schedule fuzzer
(``tests/test_kernel_fuzz.py``) and the scenario-level digest tests hold this
kernel to its ``(time, seq)`` execution order event for event.

While :meth:`Simulator.run` dispatches an event and no coroutine's
generator is executing, ``_resume_inline`` is true: a
completing future then resumes the coroutine waiting on it, and a process
started with no delay takes its first step, inside the event that caused it
(``repro.sim.process``) instead of one zero-delay event later.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: cancelled entries tolerated in the queue before compaction is considered
_GHOSTS_MIN = 64

_INF = float("inf")


class ScheduledEvent:
    """A cancellable callback scheduled on the simulator.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  Calling :meth:`cancel` before the event
    fires prevents the callback from running; cancelling an event that has
    already fired is a no-op.  ``origin`` is a provenance string ("who
    scheduled this"), stamped only when a sanitizer (repro.sim.sanitizer) or
    tracer (repro.obs) is installed; None otherwise.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired",
                 "origin", "_sim")

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self._sim._note_cancelled(self)

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed of the simulator-owned :class:`random.Random`.  All stochastic
        models (latency jitter, loss, host load, workloads) must draw either
        from :attr:`rng` or from a substream derived via
        :func:`repro.sim.rng.substream` so that runs are reproducible.
    """

    def __init__(self, seed: int = 0):
        self._now: float = 0.0
        self._seq: int = 0
        self._stop_requested = False
        self.seed = seed
        self.rng = random.Random(seed)
        #: number of callbacks executed so far (useful for tests and stats)
        self.executed_events = 0
        # O(1) pending-event accounting (events scheduled minus fired/cancelled)
        self._pending = 0
        self._next_pid = 0
        #: the event queue: a heap of (time, seq, event).  Only ever mutated
        #: in place — run() holds it in a local across callbacks.
        self._queue: list = []
        #: cancelled entries still in ``_queue``
        self._ghosts = 0
        #: runtime sanitizer (repro.sim.sanitizer.Sanitizer) or None; the
        #: hot paths pay a single pointer test when disabled
        self._san = None
        #: observability handle (repro.obs.Observability) or None — same
        #: single-pointer-test discipline as the sanitizer
        self._obs = None
        #: origin-stamping hook (obs tracing only; the sanitizer stamps
        #: through its own note_scheduled when both are installed)
        self._obs_stamp = None
        #: true while run() dispatches an event and no coroutine's
        #: generator is executing (Process._step clears it around send/throw)
        self._resume_inline = False
        #: told ``"<process name>: <exception repr>"`` when a coroutine ends
        #: with an exception that no done-callback observes; the network
        #: installs its error counter here, None drops the report
        self.unobserved_failure: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    #: always 0: events are not reused.  ``benchmarks/child.py`` still reads
    #: it as ``sim.kernel.recycled``; it goes with the benchmark's next
    #: revision (ROADMAP item 2).
    recycled_events = 0

    @property
    def cancelled_events(self) -> int:
        """``cancel()`` calls on live events (timer churn; metrics section).

        Derived — every inserted event either fires, is cancelled, or is
        still pending — so the cancel hot path carries no extra increment.
        """
        return self._seq - self.executed_events - self._pending

    def allocate_pid(self) -> int:
        """Next process id (per-simulator, so co-hosted runs stay deterministic)."""
        self._next_pid += 1
        return self._next_pid

    # -------------------------------------------------------------- schedule
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Every event is built and inserted in this one frame: its slots are
        written here, since an ``__init__`` would cost a frame per event.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be finite and non-negative: {delay!r}")
        when = self._now + delay
        self._seq = seq = self._seq + 1
        event = object.__new__(ScheduledEvent)
        event.time = when
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.fired = False
        event.origin = None
        event._sim = self
        san = self._san
        if san is not None:
            san.note_scheduled(event)
        elif self._obs_stamp is not None:
            self._obs_stamp(event)
        self._pending += 1
        heappush(self._queue, (when, seq, event))
        return event

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run at absolute virtual time ``when``."""
        now = self._now
        if when < now:
            raise ValueError(f"cannot schedule in the past: {when} < {now}")
        # ``now + (when - now)`` can round one ulp off ``when``; from a clock at
        # zero the delay *is* the absolute time.
        self._now = 0.0
        try:
            return self.schedule(when, callback, *args)
        finally:
            self._now = now

    # ----------------------------------------------------------- the queue
    def _note_cancelled(self, event: ScheduledEvent) -> None:
        self._pending -= 1
        self._ghosts = ghosts = self._ghosts + 1
        queue = self._queue
        if ghosts > _GHOSTS_MIN and ghosts * 2 >= len(queue):
            # Compaction: the cancelled entries, and whatever their callbacks
            # reference, are released now rather than at their time.
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapify(queue)
            self._ghosts = 0

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or virtual time reaches ``until``.

        Returns the virtual time at which the run stopped.  The clock jumps
        forward to ``until`` only when the queue genuinely drained — not when
        :meth:`stop` interrupted the run with events still pending before
        ``until`` (they must remain schedulable at their original times).
        """
        self._stop_requested = False
        queue = self._queue
        horizon = _INF if until is None else until
        # Hoisted once per run(): observability installs before the run
        # starts, so the per-event test is a local load, not an attribute.
        obs = self._obs
        inline = self._resume_inline
        self._resume_inline = True
        try:
            while not self._stop_requested:
                if not queue:
                    if until is not None and self._now < until:
                        self._now = until
                    break
                entry = queue[0]
                if entry[0] > horizon:
                    self._now = until
                    break
                heappop(queue)
                event = entry[2]
                if event.cancelled:
                    self._ghosts -= 1
                else:
                    if self._san is not None:
                        self._san.before_execute(event)
                    self._now = entry[0]
                    event.fired = True
                    self._pending -= 1
                    self.executed_events += 1
                    if obs is None:
                        event.callback(*event.args)
                    else:
                        # every reference the observer (ring, trace,
                        # profile) takes dies before run_event returns
                        obs.run_event(event)
        finally:
            self._resume_inline = inline
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    # --------------------------------------------------------------- queries
    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return self._pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:.6f} pending={self.pending_events}>"
