"""Causal tracing: lightweight spans exported as Chrome trace-event JSON.

A span is one completed unit of causally related work — an RPC round trip
(call → handler → reply), a server-side handler, a DHT lookup from issue
through per-hop steps to the claim check — recorded in *simulated* time so
the trace is deterministic per seed.  Spans thread on the per-event
``origin`` provenance introduced with the sanitizer: while tracing is
installed the kernel stamps every scheduled event's ``origin`` with the
label of the event that scheduled it, and span emitters capture
``current_label()`` so the viewer shows who issued each call.

The export is the Chrome trace-event format (``{"traceEvents": [...]}``,
``"X"`` complete events with microsecond ``ts``/``dur``), loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Each host
becomes its own ``pid`` with a ``process_name`` metadata record, so the
viewer renders **one track per host**.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.obs.recorder import FlightRecorder, callback_label


class Tracer:
    """Collects completed spans; bounded so huge runs cannot blow memory."""

    __slots__ = ("clock", "max_spans", "spans", "dropped", "current",
                 "recorder")

    def __init__(self, clock, max_spans: int = 200_000,
                 recorder: Optional[FlightRecorder] = None):
        self.clock = clock              # simulated-time callable
        self.max_spans = max_spans
        # Each span: (start_s, duration_s, host, name, cat, args-or-None)
        self.spans: List[tuple] = []
        self.dropped = 0
        # (time, seq, callback) of the event being dispatched right now;
        # maintained by Observability.run_event for provenance stamping.
        self.current = None
        self.recorder = recorder

    def current_label(self) -> str:
        """Label of the currently executing event (provenance for spans)."""
        if self.current is None:
            return "<external>"
        time_, seq, callback = self.current
        return f"{callback_label(callback)} t={time_:.6f} seq={seq}"

    def add(self, host: str, name: str, start: float, duration: float,
            cat: str = "span", args: Optional[dict] = None) -> None:
        """Record a completed span; also mirrored into the flight recorder."""
        if len(self.spans) < self.max_spans:
            self.spans.append((start, duration, host, name, cat, args))
        else:
            self.dropped += 1
        recorder = self.recorder
        if recorder is not None:
            recorder.push_span(start, host, name, duration)

    def hosts(self) -> List[str]:
        return sorted({span[2] for span in self.spans})

    def summary(self) -> dict:
        """The ``trace`` report section (digest-excluded)."""
        return {
            "enabled": True,
            "spans": len(self.spans),
            "dropped": self.dropped,
            "hosts": len(self.hosts()),
        }

    def chrome_trace(self) -> dict:
        """Spans as a Chrome trace-event document, one pid track per host."""
        hosts = self.hosts()
        pids = {host: index + 1 for index, host in enumerate(hosts)}
        events: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": host}}
            for host, pid in pids.items()
        ]
        for start, duration, host, name, cat, args in self.spans:
            event = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": round(start * 1e6, 3),       # trace-event ts is in us
                "dur": round(duration * 1e6, 3),
                "pid": pids[host],
                "tid": 0,
            }
            if args:
                event["args"] = args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> int:
        """Write the Perfetto-loadable JSON file; returns the span count."""
        document = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
        return len(self.spans)
