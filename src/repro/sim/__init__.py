"""Discrete-event simulation kernel used as SPLAY's execution substrate.

The original SPLAY runtime executes applications as Lua coroutines scheduled
by an event loop (``splay.events``), with blocking points at network and disk
I/O.  This package reproduces those semantics on a deterministic
discrete-event simulator:

* :mod:`repro.sim.kernel` — the event heap and virtual clock,
* :mod:`repro.sim.futures` — completion tokens used by RPC and I/O,
* :mod:`repro.sim.process` — generator-based cooperative coroutines,
* :mod:`repro.sim.events_api` — the ``splay.events`` compatible API
  (``thread``, ``periodic``, ``timer``, ``sleep``),
* :mod:`repro.sim.locks` — coroutine locks, semaphores and queues (not
  re-exported here: no bundled code uses them, so no run imports them),
* :mod:`repro.sim.rng` — deterministic random substreams.

All timing in the simulator is expressed in seconds (floats).
"""

from repro.sim.futures import Future, FutureState
from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.process import Process, ProcessKilled
from repro.sim.events_api import AppContext, Events
from repro.sim.rng import substream

__all__ = [
    "AppContext",
    "Events",
    "Future",
    "FutureState",
    "Process",
    "ProcessKilled",
    "ScheduledEvent",
    "Simulator",
    "substream",
]
