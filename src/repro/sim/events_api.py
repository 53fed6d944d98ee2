"""The ``splay.events`` compatible API.

Every SPLAY application instance receives an :class:`Events` object bound to
its :class:`AppContext`.  The context holds the application's processes that
are still running, its cleanup callbacks and the daemon's handle of the
instance, so that the daemon (or the churn manager) can tear the instance
down instantly — exactly like killing the sandboxed process in the original
system.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, List, Optional

from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Process


class AppContext:
    """Book-keeping for one sandboxed application instance.

    Holds the processes that are still running, in the order they were
    tracked (a process leaves the list as it ends), and arbitrary cleanup
    callbacks; both lists are allocated on first use, so an instance that
    starts no thread and registers no cleanup pays for neither.  ``owner``
    is the daemon's handle of the instance (or None): its ``_reap`` runs
    first in the teardown, before the cleanups, and the kill clears the
    slot, so no handle <-> context cycle outlives the instance.
    :meth:`kill` ends all of them; after the kill the context refuses to
    register new activity, which makes races between churn and application
    code harmless.
    """

    __slots__ = ("sim", "name", "alive", "owner", "_processes", "_cleanups")

    def __init__(self, sim: Simulator, name: str = "app"):
        self.sim = sim
        self.name = name
        self.alive = True
        self.owner: Any = None
        self._processes: Optional[List[Process]] = None
        self._cleanups: Optional[List[Callable[[], None]]] = None

    # --------------------------------------------------------------- tracking
    def track_process(self, process: Process) -> Process:
        """Hold ``process`` until it ends; one that already ended is skipped."""
        if not self.alive:
            process.kill("context dead")
        elif not process.done.done():
            process._context = self
            processes = self._processes
            if processes is None:
                self._processes = [process]
            else:
                processes.append(process)
        return process

    def add_cleanup(self, callback: Callable[[], None]) -> None:
        """Register a callback run when the context is killed."""
        if not self.alive:
            callback()
            return
        cleanups = self._cleanups
        if cleanups is None:
            self._cleanups = [callback]
        else:
            cleanups.append(callback)

    # ------------------------------------------------------------------ kill
    def kill(self, reason: str = "killed") -> None:
        """Terminate everything the application created.

        The processes end first, in start order; then the owner's reap and
        every cleanup run, even when one of them raises; the first failure
        is re-raised once the teardown is complete.
        """
        if not self.alive:
            return
        self.alive = False
        processes = self._processes
        if processes:
            # Detach the processes first: one that ends during another
            # one's kill must not look for itself in the list.  Nothing
            # joins the list while it is walked (the context is dead).
            for process in processes:
                process._context = None
            for process in processes:
                process.kill(reason)
            processes.clear()
        callbacks, self._cleanups = self._cleanups or [], None
        owner, self.owner = self.owner, None
        if owner is not None:
            callbacks.insert(0, owner._reap)
        error: Optional[Exception] = None
        for callback in callbacks:
            try:
                callback()
            except Exception as exc:  # noqa: BLE001 - finish the teardown first
                error = error or exc
        if error is not None:
            # The owner's reap and the cleanups keep the control plane's
            # tables truthful, so a failure must reach the caller.
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

    def periodic(self, fn: Callable[[], Any], interval: float,
                 jitter: float = 0.0) -> PeriodicTask:
        """Run ``fn`` every ``interval`` seconds (as done for Chord stabilization).

        ``fn`` may be a plain function or a generator function; each firing
        runs as its own coroutine.  ``jitter`` adds a uniform random offset in
        ``[0, jitter)`` to each period to avoid lock-step behaviour across
        thousands of simulated nodes.
        """
        if interval <= 0:
            raise ValueError("periodic interval must be positive")
        task = PeriodicTask(self, fn, interval, jitter)
        # The task is tracked once, as a cleanup: cancelling it cancels
        # whichever timer is current.
        first = interval + (self.sim.rng.uniform(0.0, jitter) if jitter else 0.0)
        task._current = self.sim.schedule(first, task._fire)
        self.context.add_cleanup(task.cancel)
        return task

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
