"""Flight recorder: a bounded ring of the last N dispatched events and spans.

Post-mortem context for failed runs: when a sanitizer violation fires, a
scenario misses ``--min-success``, or the drain deadline overruns, the ring
is rendered oldest-to-newest so CI logs show *what the simulation was doing*
right before the failure — with the per-event ``origin`` provenance stamped
by the sanitizer or tracer.

The ring never holds ``ScheduledEvent`` objects: an event keeps its
arguments alive, and the ring would then keep the last N events' payloads
alive with it.  Entries therefore store plain tuples of scalars plus the
*callback* object (bound methods reference their instance, never the
event), and are rendered lazily only when a dump is actually requested.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def callback_label(callback) -> str:
    """``module:qualname`` for an event callback (mirrors the sanitizer)."""
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", "?")
    name = getattr(func, "__qualname__", repr(func))
    return f"{module}:{name}"


class FlightRecorder:
    """Fixed-capacity ring buffer of recent events and spans."""

    __slots__ = ("capacity", "_ring", "_next", "total")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._ring: List[Optional[Tuple]] = [None] * capacity
        self._next = 0          # index the next entry lands in
        self.total = 0          # entries ever pushed (>= live count)

    def push_event(self, time: float, seq: int, callback, origin) -> None:
        """Record a dispatched event. Hot path: one tuple + two int ops."""
        self._ring[self._next] = ("event", time, seq, callback, origin)
        self._next = (self._next + 1) % self.capacity
        self.total += 1

    def push_span(self, time: float, host: str, name: str,
                  duration: float) -> None:
        """Record a completed span (RPC round trip, lookup, handler)."""
        self._ring[self._next] = ("span", time, host, name, duration)
        self._next = (self._next + 1) % self.capacity
        self.total += 1

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    def entries(self) -> List[Tuple]:
        """Live entries, oldest first (raw tuples)."""
        if self.total < self.capacity:
            return [entry for entry in self._ring[:self._next]
                    if entry is not None]
        return ([entry for entry in self._ring[self._next:]]
                + [entry for entry in self._ring[:self._next]])

    def snapshot(self, last: Optional[int] = None) -> List[str]:
        """Rendered entries, oldest first; optionally only the last ``last``."""
        entries = self.entries()
        if last is not None:
            entries = entries[-last:]
        return [self._render(entry) for entry in entries]

    @staticmethod
    def _render(entry: Tuple) -> str:
        kind = entry[0]
        if kind == "event":
            _, time, seq, callback, origin = entry
            line = f"event t={time:.6f} seq={seq} {callback_label(callback)}"
            if origin:
                line += f" [{origin}]"
            return line
        _, time, host, name, duration = entry
        return f"span  t={time:.6f} host={host} {name} dur={duration * 1e3:.3f}ms"

    def dump_lines(self, last: Optional[int] = None,
                   header: str = "flight recorder") -> List[str]:
        rendered = self.snapshot(last=last)
        lines = [f"{header}: last {len(rendered)} of {self.total} entries"]
        lines.extend(f"  {line}" for line in rendered)
        return lines
