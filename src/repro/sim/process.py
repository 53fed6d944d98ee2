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
  its result (or having its exception raised at the yield point);
* another :class:`Process` — wait for it to terminate;
* a generator — run it as a child process and wait for its return value.

The return value of the generator (via ``return value``) becomes the result
of the process's :attr:`Process.done` future.
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
        The coroutine to drive.  Plain callables are invoked immediately on
        start and the process completes with their return value.
    name:
        Optional label used in diagnostics.
    """

    __slots__ = ("pid", "sim", "name", "_generator", "_plain_callable", "done",
                 "_started", "_killed", "_pending_event", "_waiting_on")

    def __init__(self, sim: Simulator, generator: Any, name: str = ""):
        # pids come from the simulator so that two seeded simulations running
        # in the same Python process allocate identical, reproducible ids
        # (a process-wide class counter would interleave them).
        self.pid = sim.allocate_pid()
        self.sim = sim
        self.name = name or f"process-{self.pid}"
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

    # ------------------------------------------------------------- lifecycle
    def start(self, delay: float = 0.0) -> "Process":
        """Schedule the first step of the coroutine ``delay`` seconds from now."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        self._pending_event = self.sim.schedule(delay, self._first_step)
        return self

    def kill(self, reason: str = "killed") -> None:
        """Terminate the coroutine.

        The :class:`ProcessKilled` exception is raised at the coroutine's
        current yield point so that ``finally`` blocks run; the ``done``
        future is cancelled.
        """
        if self.done.done() or self._killed:
            return
        self._killed = True
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_on is not None:
            # Detach: the future may still complete but we will ignore it.
            self._waiting_on = None
        if self._generator is not None:
            try:
                self._generator.throw(ProcessKilled(reason))
            except (ProcessKilled, StopIteration):
                pass
            except Exception:
                # Application cleanup code misbehaving must not take down the
                # simulator; the process is being killed regardless.  This
                # also covers a coroutine killing *itself* (e.g. via
                # events.exit()): throw/close on the currently-executing
                # generator raise ValueError, and the _step frame driving it
                # observes _killed and stops at the next opportunity.
                pass
            finally:
                try:
                    self._generator.close()
                except Exception:
                    pass
        self.done.cancel()

    @property
    def alive(self) -> bool:
        """True while the coroutine has not yet terminated."""
        return self._started and not self.done.done()

    # ----------------------------------------------------------------- steps
    def _first_step(self) -> None:
        self._pending_event = None
        if self._killed:
            return
        if self._plain_callable is not None:
            try:
                result = self._plain_callable()
            except Exception as exc:  # noqa: BLE001 - propagate via the future
                if self.done._state is _PENDING:
                    self.done.set_exception(exc)
                return
            if isinstance(result, GeneratorType):
                # A callable returning a generator is treated as a coroutine.
                self._generator = result
                self._step(None, None)
                return
            # The callable may have killed its own context (events.exit), in
            # which case ``done`` is already cancelled — don't complete it.
            if self.done._state is _PENDING:
                self.done.set_result(result)
            return
        self._step(None, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        san = self.sim._san
        if san is not None:
            pending = self._pending_event
            # The armed step event is marked fired before its callback runs,
            # so a still-pending event here means a second resumption path
            # (not the one that armed it) is driving the coroutine.
            if pending is not None and not pending.fired and not pending.cancelled:
                san.double_step(self, pending)
        self._pending_event = None
        if self._killed or self.done._state is not _PENDING:
            return
        assert self._generator is not None
        try:
            if exc is not None:
                yielded = self._generator.throw(exc)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            # A coroutine that killed itself (events.exit) returns here with
            # ``done`` already cancelled; completing it again would be the
            # exact double-completion the sanitizer flags.
            if self.done._state is _PENDING:
                self.done.set_result(getattr(stop, "value", None))
            return
        except ProcessKilled:
            self.done.cancel()
            return
        except Exception as error:  # noqa: BLE001 - propagate via the future
            if self.done._state is _PENDING:
                self.done.set_exception(error)
            return
        # What the coroutine yielded says what it waits for.
        if type(yielded) is Future:
            # Fast path: blocking on an RPC reply is by far the most common
            # yield in the workloads.
            future = yielded
        elif yielded is None:
            self._pending_event = self.sim.schedule(0.0, self._step, None, None)
            return
        elif isinstance(yielded, (int, float)):
            self._pending_event = self.sim.schedule(float(yielded), self._step, None, None)
            return
        elif isinstance(yielded, Future):
            future = yielded
        elif isinstance(yielded, Process):
            future = yielded.done
        elif isinstance(yielded, GeneratorType):
            child = Process(self.sim, yielded, name=f"{self.name}.child")
            child.start()
            future = child.done
        else:
            self._step(None, TypeError(f"cannot wait on yielded value {yielded!r}"))
            return
        self._waiting_on = future
        future.add_done_callback(self._resume)

    def _resume(self, fut: Future) -> None:
        """Done-callback of the future this process waits on."""
        if self._waiting_on is not fut:
            return  # the process was killed or re-targeted meanwhile
        self._waiting_on = None
        if self._killed or self.done._state is not _PENDING:
            return
        if fut._state is _DONE:
            self._pending_event = self.sim.schedule(0.0, self._step, fut._result, None)
        else:
            error = fut._exception or RuntimeError("future cancelled")
            self._pending_event = self.sim.schedule(0.0, self._step, None, error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done.done() else ("running" if self._started else "new")
        return f"<Process {self.name} {state}>"
