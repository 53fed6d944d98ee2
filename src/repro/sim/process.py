"""Generator-based cooperative coroutines ("threads" in SPLAY parlance).

SPLAY applications are written against a cooperative multitasking model:
coroutines yield the processor only at explicit blocking points (network I/O,
disk I/O, sleeps).  We reproduce this with Python generators driven by a
:class:`Process` object.

A coroutine is any generator function.  Inside it, the following values may
be yielded to block:

* a ``float``/``int`` — sleep that many (virtual) seconds;
* ``None`` — yield the processor and resume at the same instant;
* a :class:`~repro.sim.futures.Future` — resume when it completes, receiving
  its result (or having its exception raised at the yield point).

Anything else raises :class:`TypeError` at the yield point.  To wait for
another process, yield its ``done`` future; to run a generator as a
subroutine, ``yield from`` it.

The return value of the generator (via ``return value``) becomes the result
of the process's :attr:`Process.done` future.

A process tracked by an application's
:class:`~repro.sim.events_api.AppContext` leaves the context's list where it
ends: on return, on an exception, on :class:`ProcessKilled` or in
:meth:`Process.kill`.  The context holds no finished process.

A coroutine continues where its future completes: while the kernel
dispatches an event and no generator is executing
(``Simulator._resume_inline``), a completing future steps its waiting
process in place, and ``start()`` with no delay takes the first step in
place.  Everywhere else — outside ``run()``, inside a coroutine
step or a kill, a future already complete when yielded, ``yield None`` and
sleeps — the step is a scheduled event, so no generator is ever entered
while another one executes.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from repro.sim.futures import Future, FutureState
from repro.sim.kernel import ScheduledEvent, Simulator

_PENDING = FutureState.PENDING
_DONE = FutureState.DONE


class ProcessKilled(Exception):
    """Injected into a coroutine when its process is killed (e.g. by churn)."""


class Process:
    """Drives a generator coroutine on the simulator.

    Parameters
    ----------
    sim:
        The simulator providing the clock.
    generator:
        The coroutine to drive.  A plain callable is invoked on the first
        step and the process completes with its return value.
    name:
        Label used in diagnostics.
    """

    __slots__ = ("sim", "name", "_generator", "_plain_callable", "done",
                 "_started", "_killed", "_pending_event", "_waiting_on", "_context")

    def __init__(self, sim: Simulator, generator: Any, name: str = "process"):
        self.sim = sim
        self.name = name
        self._generator: Optional[Generator] = generator if isinstance(generator, GeneratorType) else None
        self._plain_callable: Optional[Callable[[], Any]] = None
        if self._generator is None:
            if callable(generator):
                self._plain_callable = generator
            else:
                raise TypeError(f"Process target must be a generator or callable, got {type(generator)!r}")
        #: completes when the coroutine returns, raises, or is killed
        self.done = Future()
        self._started = False
        self._killed = False
        self._pending_event: Optional[ScheduledEvent] = None
        self._waiting_on: Optional[Future] = None
        #: the AppContext holding this process while it runs (set by it)
        self._context = None

    # ------------------------------------------------------------- lifecycle
    def start(self, delay: float = 0.0) -> "Process":
        """Run the first step of the coroutine ``delay`` seconds from now.

        With no delay, inside an event and outside any coroutine step, the
        first step runs before this returns.
        """
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        if delay == 0.0 and self.sim._resume_inline:
            self._first_step()
        else:
            self._pending_event = self.sim.schedule(delay, self._first_step)
        return self

    def kill(self, reason: str = "killed") -> None:
        """Terminate the coroutine.

        The :class:`ProcessKilled` exception is raised at the coroutine's
        current yield point so that ``finally`` blocks run; the ``done``
        future is cancelled.  Whatever the kill completes resumes its
        waiters one event later, as from inside a coroutine step: a waiter
        in the same dying instance is then killed before it would run.
        """
        if self.done.done() or self._killed:
            return
        self._killed = True
        self._untrack()
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_on is not None:
            # Detach: the future may still complete but we will ignore it.
            self._waiting_on = None
        sim = self.sim
        inline = sim._resume_inline
        sim._resume_inline = False
        try:
            generator = self._generator
            # A coroutine that kills *itself* (events.exit()) is executing:
            # it cannot be thrown into or closed, and the _step frame driving
            # it observes _killed and stops at the next opportunity.
            if generator is not None and not generator.gi_running:
                try:
                    generator.throw(ProcessKilled(reason))
                except (ProcessKilled, StopIteration):
                    pass
                except Exception as error:  # noqa: BLE001 - a handler error
                    # Application cleanup code misbehaving must not take down
                    # the simulator; the process is being killed regardless.
                    self._report(f"raised while killed: {error!r}")
                finally:
                    try:
                        generator.close()
                    except Exception as error:  # noqa: BLE001 - a handler error
                        self._report(f"raised while closed: {error!r}")
            self.done.cancel()
        finally:
            sim._resume_inline = inline

    # ----------------------------------------------------------------- steps
    def _first_step(self) -> None:
        self._pending_event = None
        if self._killed:
            return
        if self._plain_callable is not None:
            try:
                result = self._plain_callable()
            except Exception as exc:  # noqa: BLE001 - propagate via the future
                self._fail(exc.with_traceback(None))  # see _fail
                return
            # The callable may have killed its own context (events.exit), in
            # which case ``done`` is already cancelled — don't complete it.
            if self.done._state is _PENDING:
                self._untrack()
                self.done.set_result(result)
            return
        self._step(None, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        sim = self.sim
        san = sim._san
        if san is not None:
            san.check_step(self)
        self._pending_event = None
        if self._killed or self.done._state is not _PENDING:
            return
        assert self._generator is not None
        # No future completed by the coroutine resumes anyone in place while
        # its generator executes; the flag is back before the yielded value
        # is handled (or ``done`` completed), outside the generator.
        inline = sim._resume_inline
        sim._resume_inline = False
        if san is not None:
            outer, san.stepping = san.stepping, self
        try:
            try:
                if exc is not None:
                    yielded = self._generator.throw(exc)
                else:
                    yielded = self._generator.send(value)
            finally:
                sim._resume_inline = inline
                if san is not None:
                    san.stepping = outer
        except StopIteration as stop:
            # A coroutine that killed itself (events.exit) returns here with
            # ``done`` already cancelled; completing it again would be the
            # exact double-completion the sanitizer flags.
            if self.done._state is _PENDING:
                self._untrack()
                self.done.set_result(getattr(stop, "value", None))
            return
        except ProcessKilled:
            self._untrack()
            self.done.cancel()
            return
        except Exception as error:  # noqa: BLE001 - propagate via the future
            self._fail(error.with_traceback(error.__traceback__.tb_next))  # see _fail
            return
        # What the coroutine yielded says what it waits for.
        if type(yielded) is Future:
            future = yielded
        elif yielded is None:
            self._pending_event = sim.schedule(0.0, self._step, None, None)
            return
        elif isinstance(yielded, (int, float)):
            self._pending_event = sim.schedule(float(yielded), self._step, None, None)
            return
        else:
            self._step(None, TypeError(f"cannot wait on yielded value {yielded!r}"))
            return
        self._waiting_on = future
        if future._state is _PENDING:
            future.add_done_callback(self._resume)
        else:
            # Complete already: resuming in place would recurse once per
            # finished future a loop yields.
            self._resume(future, inline=False)

    def _resume(self, fut: Future, inline: bool = True) -> None:
        """Done-callback of the future this process waits on."""
        if self._waiting_on is not fut:
            return  # the process was killed or re-targeted meanwhile
        self._waiting_on = None
        if self._killed or self.done._state is not _PENDING:
            return
        if fut._state is _DONE:
            value, error = fut._result, None
        else:
            value, error = None, fut._exception or RuntimeError("future cancelled")
        if inline and self.sim._resume_inline:
            self._step(value, error)
        else:
            self._pending_event = self.sim.schedule(0.0, self._step, value, error)

    def _untrack(self) -> None:
        """Leave the context's list of running processes (the process ends)."""
        context = self._context
        if context is not None:
            self._context = None
            context._processes.remove(self)

    def _report(self, what: str) -> None:
        """Count an error nothing else will see (the run's handler errors)."""
        if self.sim.unobserved_failure is not None:
            self.sim.unobserved_failure(f"{self.name}: {what}")

    def _fail(self, error: Exception) -> None:
        """End with ``error``; report it when no done-callback will see it.

        The caller drops from the traceback the frame that caught ``error``
        (``_step`` or ``_first_step``), which holds this process, so reference
        counting alone frees a process that raised.  A generator's frames
        drop their caller when it ends, but a plain callable's frames still
        reach that one as ``f_back``: its error keeps no traceback at all.
        """
        done = self.done
        if done._state is not _PENDING:
            return  # killed its own context (events.exit) on the way out
        self._untrack()
        if done._callbacks is None:
            self._report(repr(error))
        done.set_exception(error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done.done() else ("running" if self._started else "new")
        return f"<Process {self.name} {state}>"
