"""Opt-in runtime sanitizer: invariant checks at the simulator's seams.

The static linter (:mod:`repro.analysis`) catches the hazard classes visible
in source; this module asserts the invariants only visible at runtime.  When
enabled (``--sanitize`` on every scenario, or :meth:`Sanitizer.install`
directly), cheap observation-only checks run on the hot path:

* **monotonic clock** -- no event executes at a virtual time before ``now``;
* **free-list integrity** -- a recycled :class:`ScheduledEvent` must be dead
  and scrubbed when it leaves the free list (guards the refcount-gated
  recycling of fired *and* cancelled events);
* **future legality** -- ``set_result`` / ``set_exception`` on an
  already-completed :class:`~repro.sim.futures.Future` (pending -> done is
  the only legal transition; ``cancel`` on a done future is a documented
  query-style no-op and not reported);
* **process single-step** -- a coroutine must only be resumed by the step
  event it armed (a second resumption path racing it is the aliasing
  symptom the free-list guards exist to prevent);
* **listener-table consistency** -- after a host is removed, no listener
  entry may keep routing messages to its endpoints;
* **bandwidth-flow conservation** -- the max-min allocation never hands a
  link more rate than its capacity;
* **store-cache coherence** -- each job's live-instance table and cache
  must equal a from-scratch recompute after every control action, and the
  job's live table must equal the union of its daemons' instance tables
  (guards the incremental bookkeeping the O(N)-scan elimination relies on).

Violations are *recorded*, never repaired, and carry event provenance
(which callback -- and thereby which process or timer -- scheduled the
offending event).  The sanitizer is observation-only by construction: it
draws no randomness, schedules nothing and mutates no simulation state, so
a clean run's report digest is byte-identical with the sanitizer on or off
(asserted in tests).  ``strict=True`` additionally raises
:class:`SanitizerError` at the first violation, which unit tests use to
pinpoint injected corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sim import futures as _futures_module

#: sum of allocated rates may exceed a link's capacity by this relative slack
#: (progressive filling accumulates float dust at high flow counts)
FLOW_CONSERVATION_SLACK = 1e-6

#: violations kept verbatim; beyond this only the counters grow
MAX_RECORDED = 100


class SanitizerError(AssertionError):
    """Raised on the first violation when the sanitizer runs in strict mode."""


@dataclass
class Violation:
    """One observed invariant breach."""

    kind: str
    time: float
    detail: str
    provenance: str = ""
    #: last-K flight-recorder entries (rendered, oldest first) captured at
    #: record time when a recorder is attached — the events and spans the
    #: simulation dispatched right before the breach
    ring: Optional[List[str]] = None

    def render(self) -> str:
        text = f"[{self.kind}] t={self.time:.6f}: {self.detail}"
        if self.provenance:
            text += f" (provenance: {self.provenance})"
        if self.ring:
            context = "\n".join(f"    {line}" for line in self.ring)
            text += f"\n  ring (last {len(self.ring)} dispatches):\n{context}"
        return text


def _callback_label(callback: Any) -> str:
    """Human-readable identity of an event callback, including its owner.

    Bound methods expose their ``__self__``; when that object has a ``name``
    (processes, app contexts) the label pinpoints *which* process or timer
    scheduled the event -- the provenance the bug reports of PR 2/6 needed.
    """
    if callback is None:
        return "<scrubbed>"
    qualname = getattr(callback, "__qualname__", None) or repr(callback)
    owner = getattr(callback, "__self__", None)
    owner_name = getattr(owner, "name", None)
    if owner_name:
        return f"{qualname}[{owner_name}]"
    return qualname


class Sanitizer:
    """Collects invariant violations for one :class:`Simulator`.

    Create with the simulator to watch, then :meth:`install`.  The kernel,
    network and bandwidth seams consult their ``_san`` attribute (``None``
    when disabled, so the disabled hot path pays one pointer test); the
    future-legality hook is module-global in :mod:`repro.sim.futures`
    because futures do not know their simulator -- only one sanitizer can
    own it at a time (last install wins, uninstall restores ``None``).
    """

    def __init__(self, sim: Any, strict: bool = False):
        self.sim = sim
        self.strict = strict
        self.violations: List[Violation] = []
        self.counts: Dict[str, int] = {}
        #: (time, seq, callback) of the executing event — a tuple, not the
        #: event itself, so the sanitizer never holds a reference that would
        #: trip the kernel's refcount-gated free-list recycling
        self.current: Optional[tuple] = None
        #: flight recorder (repro.obs.FlightRecorder) whose last entries are
        #: attached to violation reports; wired by the deployment harness
        self.recorder: Optional[Any] = None
        self._installed = False

    # ------------------------------------------------------------ lifecycle
    def install(self) -> "Sanitizer":
        """Attach to the simulator and take the future-legality hook."""
        self.sim._san = self
        _futures_module._misuse_hook = self._future_misuse
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Detach (safe to call twice; leaves other sanitizers alone)."""
        if getattr(self.sim, "_san", None) is self:
            self.sim._san = None
        if _futures_module._misuse_hook == self._future_misuse:
            _futures_module._misuse_hook = None
        self._installed = False

    def __enter__(self) -> "Sanitizer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def watch_network(self, network: Any) -> None:
        """Enable the listener-table check on ``network``."""
        network._san = self
        bandwidth = getattr(network, "bandwidth", None)
        if bandwidth is not None:
            bandwidth._san = self

    # ------------------------------------------------------------- recording
    def record(self, kind: str, detail: str, provenance: str = "") -> None:
        violation = Violation(kind=kind, time=self.sim.now, detail=detail,
                              provenance=provenance)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self.violations) < MAX_RECORDED:
            recorder = self.recorder
            if recorder is not None:
                # Snapshot the recent-dispatch ring into the report — the
                # full causal context, not just the one offending event.
                from repro.obs import RING_CONTEXT
                violation.ring = recorder.snapshot(last=RING_CONTEXT)
            self.violations.append(violation)
        if self.strict:
            raise SanitizerError(violation.render())

    @property
    def violation_count(self) -> int:
        return sum(self.counts.values())

    def current_label(self) -> str:
        """Provenance of whatever is executing right now."""
        current = self.current
        if current is None:
            return "external (no event executing)"
        time, seq, callback = current
        return f"{_callback_label(callback)} @(t={time:.6f}, seq={seq})"

    def summary(self) -> dict:
        """Report section (digest-excluded; see ``DIGEST_EXCLUDED_KEYS``)."""
        return {
            "enabled": True,
            "violations": self.violation_count,
            "by_kind": dict(sorted(self.counts.items())),
            "reports": [v.render() for v in self.violations[:20]],
        }

    # ------------------------------------------------------- kernel seams
    def note_scheduled(self, event: Any) -> None:
        """Stamp provenance on a freshly scheduled event."""
        event.origin = (f"{_callback_label(event.callback)} scheduled "
                        f"t={event.time:.6f} by {self.current_label()}")

    def before_execute(self, event: Any) -> None:
        """Monotonic-clock check; also anchors provenance for this callback."""
        if event.time < self.sim._now:
            self.record(
                "clock",
                f"event seq={event.seq} ({_callback_label(event.callback)}) "
                f"executes at t={event.time:.6f}, before now={self.sim._now:.6f}",
                provenance=event.origin or "unknown")
        self.current = (event.time, event.seq, event.callback)

    def check_recycled(self, event: Any) -> None:
        """A free-list pop must yield a dead, scrubbed event."""
        if not event.cancelled and not event.fired:
            self.record(
                "free_list",
                f"free list recycled a live pending event seq={event.seq} "
                f"({_callback_label(event.callback)}) -- an external handle "
                f"would observe it mutating under its feet",
                provenance=event.origin or "unknown")
        elif event.callback is not None:
            self.record(
                "free_list",
                f"free list held an unscrubbed event seq={event.seq} "
                f"({_callback_label(event.callback)}): callback still set",
                provenance=event.origin or "unknown")

    # ------------------------------------------------------- future seam
    def _future_misuse(self, future: Any, operation: str) -> None:
        state = getattr(future.state, "value", future.state)
        self.record(
            "future",
            f"{operation} on already-{state} future "
            f"{future.name or hex(id(future))} (pending -> done is the only "
            f"legal transition)",
            provenance=self.current_label())

    # ------------------------------------------------------- process seam
    def double_step(self, process: Any, event: Any) -> None:
        self.record(
            "process",
            f"process {process.name} resumed while its armed step event "
            f"seq={event.seq} is still pending -- two resumption paths race",
            provenance=self.current_label())

    # ------------------------------------------------------- network seam
    def check_listener_table(self, network: Any) -> None:
        """Every listener endpoint must belong to a registered host."""
        hosts = network.hosts
        for key, listener in network._listeners.items():
            if key[0] not in hosts:
                self.record(
                    "listener",
                    f"listener {key[0]}:{key[1]} survives its removed host "
                    f"(handler {_callback_label(listener.handler)})",
                    provenance=self.current_label())

    # ----------------------------------------------------- bandwidth seam
    def check_flow_table(self, model: Any) -> None:
        """Every link's flow list must mirror the live transfer list.

        The component walk of ``BandwidthModel._reallocate`` trusts the
        links' ``flows`` lists for adjacency; a stale or missing entry
        silently shrinks or inflates components, which breaks the
        bit-identical-to-global guarantee long before any rate looks wrong.
        A link may sit idle, but must never hold a transfer that is not live.
        """
        for direction, table in (("up", model._uplinks), ("down", model._downlinks)):
            expected: Dict[str, list] = {}
            for transfer in model._active:
                ip = transfer.src_ip if direction == "up" else transfer.dst_ip
                expected.setdefault(ip, []).append(transfer)
            for ip in sorted(set(table) | set(expected)):
                have = table[ip].flows if ip in table else []
                if have != expected.get(ip, []):
                    self.record(
                        "bandwidth_table",
                        f"flow table for {ip} {direction}link lists {len(have)} "
                        f"flows, live set has {len(expected.get(ip, []))}",
                        provenance=self.current_label())

    # --------------------------------------------------- control-plane seam
    def check_store_views(self, store: Any) -> None:
        """Every job's live view must equal a from-scratch recompute.

        Churn victim selection and harness iteration trust the incrementally
        maintained live table and its memoized list on
        :class:`~repro.core.jobs.Job`; a missed update would steer victim
        draws (and thereby the RNG stream) long before any report field
        looks wrong.  Called by the controller shards after every control
        action.  Only a *populated* cache is compared — an unpopulated cache
        cannot be stale, and rebuilding it here would hide the very laziness
        being checked.
        """
        # The two instance tables — each job's live view and each daemon's
        # own table — are maintained by different hooks (record_start /
        # record_death vs spawn / reap) and must agree on who is alive.
        hosted: Dict[Any, set] = {}
        for daemon in store.daemons.values():
            for instance in daemon.instances:
                hosted.setdefault(instance.job, set()).add(instance)
        for job_id in sorted(store.jobs):
            job = store.jobs[job_id]
            expected = job._recompute_live_instances()
            cached = job._live_cache
            if cached is not None and cached != expected:
                self.record(
                    "store_cache",
                    f"job #{job_id} live-instance cache lists {len(cached)} "
                    f"instances, recompute finds {len(expected)}",
                    provenance=self.current_label())
            live = set(job._live.values())
            if live != set(expected):
                self.record(
                    "store_cache",
                    f"job #{job_id} live table holds {len(live)} instances, "
                    f"recompute finds {len(expected)}",
                    provenance=self.current_label())
            on_daemons = hosted.get(job, set())
            if live != on_daemons:
                self.record(
                    "store_cache",
                    f"job #{job_id} live table holds {len(live)} instances, "
                    f"its daemons' tables hold {len(on_daemons)}",
                    provenance=self.current_label())

    def check_flow_conservation(self, model: Any) -> None:
        """Sum of allocated rates on every access link <= its capacity.

        The capacity is the configured one (``model.capacity``); a link
        object that disagrees with it missed a ``set_capacity``.
        """
        for direction, table in (("up", model._uplinks), ("down", model._downlinks)):
            for ip in sorted(table):
                link = table[ip]
                capacity = model.capacity(ip)[0 if direction == "up" else 1]
                if link.capacity != capacity:
                    self.record(
                        "bandwidth",
                        f"{direction}link of {ip} fills against "
                        f"{link.capacity:.1f} bps, configured capacity is "
                        f"{capacity:.1f} bps",
                        provenance=self.current_label())
                total = sum(flow.rate_bps for flow in link.flows
                            if flow.rate_bps > 0)
                if total > capacity * (1.0 + FLOW_CONSERVATION_SLACK):
                    self.record(
                        "bandwidth",
                        f"{direction}link of {ip} allocated {total:.1f} bps "
                        f"against capacity {capacity:.1f} bps",
                        provenance=self.current_label())
