"""Completion tokens for asynchronous operations inside the simulator.

A :class:`Future` is the value yielded by coroutines (see
:mod:`repro.sim.process`) when they block on an RPC reply, a message arrival,
a lock, or any other asynchronous completion.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional

#: runtime-sanitizer hook called as ``hook(future, operation)`` when a
#: completion method is invoked on an already-completed future.  Module-global
#: because futures carry no simulator reference; installed/cleared by
#: :class:`repro.sim.sanitizer.Sanitizer`.  It lives inside the already-rare
#: non-PENDING early-return branches, so the completion hot path is untouched.
#: ``cancel()`` on a done future is deliberately exempt: it is a documented
#: query-style no-op (returns False) used by cleanup paths.
_misuse_hook: Optional[Callable[["Future", str], None]] = None


class FutureCancelled(Exception):
    """Raised when waiting on a future that was cancelled."""


class FutureState(enum.Enum):
    """Lifecycle states of a :class:`Future`."""

    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class Future:
    """A single-assignment completion token.

    Futures may be awaited by coroutines (by yielding them) or observed via
    :meth:`add_done_callback`.  They complete exactly once, through
    :meth:`set_result`, :meth:`set_exception` or :meth:`cancel`.
    """

    __slots__ = ("_state", "_result", "_exception", "_callbacks", "name")

    def __init__(self, name: str = ""):
        self._state = FutureState.PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        # Allocated on first add_done_callback: many hot-path futures (process
        # ``done`` tokens, fire-and-forget calls) never attract an observer.
        self._callbacks: Optional[List[Callable[["Future"], None]]] = None
        self.name = name

    # --------------------------------------------------------------- queries
    @property
    def state(self) -> FutureState:
        return self._state

    def done(self) -> bool:
        """True once the future has a result, an exception, or was cancelled."""
        return self._state is not FutureState.PENDING

    def cancelled(self) -> bool:
        return self._state is FutureState.CANCELLED

    def result(self) -> Any:
        """Return the result, raising if the future failed or is not done."""
        if self._state is FutureState.DONE:
            return self._result
        if self._state is FutureState.FAILED:
            assert self._exception is not None
            raise self._exception
        if self._state is FutureState.CANCELLED:
            raise FutureCancelled(self.name or "future cancelled")
        raise RuntimeError("future is not done yet")

    def exception(self) -> Optional[BaseException]:
        """Return the stored exception, or ``None``."""
        return self._exception

    # ------------------------------------------------------------ completion
    def set_result(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        if self._state is not FutureState.PENDING:
            if _misuse_hook is not None:
                _misuse_hook(self, "set_result")
            return
        self._state = FutureState.DONE
        self._result = value
        # Callback dispatch is inlined: set_result runs once per RPC reply and
        # per finished coroutine, and many futures have no observers.
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for callback in callbacks:
                callback(self)

    def set_exception(self, exc: BaseException) -> None:
        """Complete the future with an exception."""
        if self._state is not FutureState.PENDING:
            if _misuse_hook is not None:
                _misuse_hook(self, "set_exception")
            return
        self._state = FutureState.FAILED
        self._exception = exc
        self._invoke_callbacks()

    def cancel(self) -> bool:
        """Cancel the future; returns ``True`` if it was still pending."""
        if self._state is not FutureState.PENDING:
            return False
        self._state = FutureState.CANCELLED
        self._exception = FutureCancelled(self.name or "cancelled")
        self._invoke_callbacks()
        return True

    # ------------------------------------------------------------- callbacks
    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` once the future completes (immediately if done)."""
        if self._state is not FutureState.PENDING:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def _invoke_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Future {self.name or id(self)} {self._state.value}>"

