#!/usr/bin/env python3
"""Summarise a scenario trace file (``--trace-out``) on the command line.

Reads the Chrome trace-event JSON the observability subsystem writes
(``{"traceEvents": [...]}``, ``"X"`` complete events with microsecond
``ts``/``dur``, one ``pid`` per host named by a ``process_name`` metadata
record) and prints per-host span counts plus p50/p95 span durations — a
quick health read without opening Perfetto.

Stdlib-only on purpose: CI and operators run it against uploaded trace
artifacts with nothing but a Python interpreter.

    python tools/trace_summary.py trace_chord.json
    python tools/trace_summary.py trace_chord.json --by-name --top 10

Exits non-zero when the file is missing, malformed, or contains no spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List


def load_events(path: str) -> List[dict]:
    """The ``traceEvents`` list of a trace file (raises ValueError when bad)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace-event document "
                         "(missing 'traceEvents')")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' is not a list")
    return events


def spans_by_host(events: List[dict]) -> Dict[str, List[dict]]:
    """Complete ('X') events grouped by host track (pid -> process_name)."""
    names = {event.get("pid"): event["args"]["name"]
             for event in events
             if event.get("ph") == "M" and event.get("name") == "process_name"
             and isinstance(event.get("args"), dict) and "name" in event["args"]}
    by_host: Dict[str, List[dict]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        host = names.get(event.get("pid"), str(event.get("pid")))
        by_host.setdefault(host, []).append(event)
    return by_host


def percentile(values: List[float], fraction: float) -> float:
    """Empirical percentile: smallest value covering ``fraction`` of samples."""
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def _row(label: str, spans: List[dict]) -> str:
    durations_ms = [float(span.get("dur", 0.0)) / 1000.0 for span in spans]
    return (f"  {label:<24} {len(spans):>8} "
            f"{percentile(durations_ms, 0.50):>10.3f} "
            f"{percentile(durations_ms, 0.95):>10.3f} "
            f"{max(durations_ms):>10.3f}")


def summarise(path: str, by_name: bool = False, top: int = 0) -> int:
    events = load_events(path)
    by_host = spans_by_host(events)
    total = sum(len(spans) for spans in by_host.values())
    if total == 0:
        print(f"error: {path} contains no complete ('X') span events",
              file=sys.stderr)
        return 1
    print(f"trace: {total} spans over {len(by_host)} host track(s)")
    print(f"  {'host':<24} {'spans':>8} {'p50_ms':>10} {'p95_ms':>10} "
          f"{'max_ms':>10}")
    hosts = sorted(by_host)
    if top > 0:
        hosts = sorted(by_host, key=lambda h: -len(by_host[h]))[:top]
    for host in hosts:
        print(_row(host, by_host[host]))
    if by_name:
        by_span_name: Dict[str, List[dict]] = {}
        for spans in by_host.values():
            for span in spans:
                by_span_name.setdefault(span.get("name", "?"), []).append(span)
        print(f"  {'span name':<24} {'spans':>8} {'p50_ms':>10} "
              f"{'p95_ms':>10} {'max_ms':>10}")
        for name in sorted(by_span_name):
            print(_row(name, by_span_name[name]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-host span counts and latency percentiles of a "
                    "--trace-out file")
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--by-name", action="store_true",
                        help="also aggregate spans by span name")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="only the N busiest host tracks (default: all)")
    args = parser.parse_args(argv)
    try:
        status = summarise(args.trace, by_name=args.by_name, top=args.top)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (``| head``): not a summarising error.  Exit
        # quietly, and keep the interpreter's own flush at exit quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot summarise {args.trace}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
