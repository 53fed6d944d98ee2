"""The ``splay.events`` compatible API.

Every SPLAY application instance receives an :class:`Events` object bound to
its :class:`AppContext`.  The context keeps track of every process and timer
the application creates so that the daemon (or the churn manager) can tear
the instance down instantly — exactly like killing the sandboxed process in
the original system.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, List, Optional

from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Process


class AppContext:
    """Book-keeping for one sandboxed application instance.

    Tracks spawned processes, pending timers and arbitrary cleanup
    callbacks.  :meth:`kill` cancels all of them; after the
    kill the context refuses to register new activity, which makes races
    between churn and application code harmless.
    """

    __slots__ = ("sim", "name", "alive", "_processes", "_timers", "_cleanups",
                 "_timer_high_water", "_process_high_water")

    def __init__(self, sim: Simulator, name: str = "app"):
        self.sim = sim
        self.name = name
        self.alive = True
        self._processes: List[Process] = []
        self._timers: List[ScheduledEvent] = []
        self._cleanups: List[Callable[[], None]] = []
        # Compaction water marks: without pruning these lists grow without
        # bound over a long run (and kill() would walk millions of dead
        # entries).  The threshold doubles with the surviving population so a
        # context with genuinely many live entries does not re-scan on every
        # append; the floor is small because dead entries pin their objects
        # (a process pins its whole generator frame) across every context of
        # a 10k-node deployment.
        self._timer_high_water = 16
        self._process_high_water = 16

    # --------------------------------------------------------------- tracking
    def track_process(self, process: Process) -> Process:
        if not self.alive:
            process.kill("context dead")
            return process
        self._processes.append(process)
        if len(self._processes) >= self._process_high_water:
            self._processes = [p for p in self._processes if not p.done.done()]
            self._process_high_water = max(16, 2 * len(self._processes))
        return process

    def track_timer(self, event: ScheduledEvent) -> ScheduledEvent:
        if not self.alive:
            event.cancel()
            return event
        self._timers.append(event)
        if len(self._timers) >= self._timer_high_water:
            self._timers = [t for t in self._timers if t.pending]
            self._timer_high_water = max(16, 2 * len(self._timers))
        return event

    def add_cleanup(self, callback: Callable[[], None]) -> None:
        """Register a callback run when the context is killed."""
        if not self.alive:
            callback()
            return
        self._cleanups.append(callback)

    # ------------------------------------------------------------------ kill
    def kill(self, reason: str = "killed") -> None:
        """Terminate everything the application created.

        Every cleanup runs even when one of them raises; the first failure
        is re-raised once the teardown is complete.
        """
        if not self.alive:
            return
        self.alive = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for process in self._processes:
            process.kill(reason)
        self._processes.clear()
        cleanups, self._cleanups = self._cleanups, []
        error: Optional[Exception] = None
        for callback in cleanups:
            try:
                callback()
            except Exception as exc:  # noqa: BLE001 - finish the teardown first
                error = error or exc
        if error is not None:
            # Cleanups keep the control plane's tables truthful (the daemon's
            # reap hook is one), so a failing one must reach the caller.
            raise error

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AppContext {self.name} {'alive' if self.alive else 'dead'}>"


class PeriodicTask:
    """Handle returned by :meth:`Events.periodic`; supports cancellation.

    The task is its own timer callback (the bound ``_fire``): two closures
    re-arming each other would be a reference cycle pinning ``fn`` — usually
    a bound method of the application — long after its context was killed.
    """

    __slots__ = ("cancelled", "_current", "_events", "_fn", "_interval",
                 "_jitter", "_name")

    def __init__(self, events: "Events", fn: Callable[[], Any], interval: float,
                 jitter: float) -> None:
        self.cancelled = False
        self._current: Optional[ScheduledEvent] = None
        self._events = events
        self._fn = fn
        self._interval = interval
        self._jitter = jitter
        self._name = f"{events.context.name}.periodic"

    def _fire(self) -> None:
        events = self._events
        if self.cancelled or not events.context.alive:
            return
        # Re-arm first: the firing's first step runs in place, and may end
        # the instance (events.exit), which must cancel the next firing.
        sim, jitter = events.sim, self._jitter
        delay = self._interval + (sim.rng.uniform(0.0, jitter) if jitter else 0.0)
        self._current = sim.schedule(delay, self._fire)
        events.thread(self._fn, name=self._name)

    def cancel(self) -> None:
        self.cancelled = True
        if self._current is not None:
            self._current.cancel()
            self._current = None


class Events:
    """Application-facing event API (``splay.events``).

    Mirrors the operations used by the paper's code listings:
    ``events.thread``, ``events.periodic``, ``events.sleep`` and the implicit
    main loop.  All activity is tracked on the bound :class:`AppContext`.
    """

    __slots__ = ("sim", "context")

    def __init__(self, sim: Simulator, context: Optional[AppContext] = None):
        self.sim = sim
        self.context = context or AppContext(sim)

    # --------------------------------------------------------------- threads
    def thread(self, fn: Callable[..., Any], *args: Any, name: str = "", delay: float = 0.0) -> Process:
        """Spawn ``fn(*args)`` as a new coroutine ("thread" in SPLAY terms).

        With no delay, called from an event (not from a coroutine), the
        first step runs before this returns.  The thread is tracked after
        that step: one that ended its own instance (events.exit) is killed
        at its first yield, never left registered.
        """
        # Plain functions and bound methods carry the answer in a code flag;
        # only partials and callable objects need inspect's unwrapping.
        code = getattr(fn, "__code__", None)
        if (code.co_flags & inspect.CO_GENERATOR if code is not None
                else inspect.isgeneratorfunction(fn)):
            target: Any = fn(*args)
        elif args:
            target = lambda: fn(*args)  # noqa: E731 - deferred invocation
        else:
            target = fn
        # An unnamed thread goes by its context's name: the string exists.
        process = Process(self.sim, target, name=name or self.context.name)
        process.start(delay)
        return self.context.track_process(process)

    def periodic(self, fn: Callable[[], Any], interval: float, jitter: float = 0.0,
                 initial_delay: Optional[float] = None) -> PeriodicTask:
        """Run ``fn`` every ``interval`` seconds (as done for Chord stabilization).

        ``fn`` may be a plain function or a generator function; each firing
        runs as its own coroutine.  ``jitter`` adds a uniform random offset in
        ``[0, jitter)`` to each period to avoid lock-step behaviour across
        thousands of simulated nodes.
        """
        if interval <= 0:
            raise ValueError("periodic interval must be positive")
        task = PeriodicTask(self, fn, interval, jitter)
        # The task is tracked once, as a cleanup; re-armed timers are NOT
        # appended to the context's timer list.  A periodic task re-arms on
        # every firing, so per-arm tracking grew (and re-compacted) the list
        # forever and kept every fired periodic timer alive with it.  kill()
        # still cancels the task — cancelling it cancels whichever timer is
        # current.
        first = initial_delay if initial_delay is not None else interval
        first = first + (self.sim.rng.uniform(0.0, jitter) if jitter else 0.0)
        task._current = self.sim.schedule(first, task._fire)
        self.context.add_cleanup(task.cancel)
        return task

    def timer(self, delay: float, fn: Callable[[], Any]) -> ScheduledEvent:
        """Run ``fn`` once, ``delay`` seconds from now."""
        return self.context.track_timer(self.sim.schedule(delay, lambda: self.thread(fn)))

    # ---------------------------------------------------------------- sleeps
    @staticmethod
    def sleep(duration: float) -> float:
        """Return a value to ``yield`` in order to sleep ``duration`` seconds."""
        return float(duration)

    # ------------------------------------------------------------------ misc
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.sim._now

    def exit(self) -> None:
        """Terminate the application instance (kills all its coroutines)."""
        self.context.kill("events.exit")
