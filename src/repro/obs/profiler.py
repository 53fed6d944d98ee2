"""Kernel profiler: wall-time and event counts per callback site.

Attributes the host CPU cost of a run to ``module:qualname`` callback
sites — besides the digest-excluded phase and GC-pause attribution, the
only place in the tree allowed to read the wall clock, and only when
``--profile`` is set, so the determinism guarantee is untouched: wall
times never enter the digest-relevant report and the profiler is off
unless explicitly requested.

Bound methods share one underlying function per class, so keying the hot
dict by ``callback.__func__`` aggregates all instances of e.g.
``Process._step`` into a single site with two dict ops per event.
"""

from __future__ import annotations

import time
from typing import Dict, List


class KernelProfiler:
    """Accumulates per-site event counts and wall seconds."""

    __slots__ = ("clock", "_sites", "total_events", "total_wall")

    def __init__(self):
        # The single sanctioned wall-clock read path for profiling; every
        # caller goes through this bound attribute so the linter suppression
        # lives on exactly one line.
        self.clock = time.perf_counter  # det: ignore[DET102] -- profiler wall timing, --profile only, digest-excluded
        # callback function object -> [event_count, wall_seconds]
        self._sites: Dict[object, List] = {}
        self.total_events = 0
        self.total_wall = 0.0

    def add(self, callback, wall_seconds: float) -> None:
        """Charge one dispatched event to ``callback``'s site."""
        func = getattr(callback, "__func__", callback)
        entry = self._sites.get(func)
        if entry is None:
            entry = self._sites[func] = [0, 0.0]
        entry[0] += 1
        entry[1] += wall_seconds
        self.total_events += 1
        self.total_wall += wall_seconds

    def _by_label(self) -> Dict[str, List]:
        """Site totals folded by ``module:qualname`` label.

        Closure callbacks (e.g. ``Events.periodic``'s ``_fire``) create one
        function object per closure; they share a qualname, so folding here
        merges them into a single site without slowing the hot ``add`` path.
        """
        folded: Dict[str, List] = {}
        for func, (count, wall) in self._sites.items():
            module = getattr(func, "__module__", "?")
            qualname = getattr(func, "__qualname__", repr(func))
            entry = folded.setdefault(f"{module}:{qualname}", [0, 0.0])
            entry[0] += count
            entry[1] += wall
        return folded

    def top(self, n: int = 15) -> List[dict]:
        """Top-``n`` sites by wall time (ties broken by label for stability)."""
        rows = []
        for site, (count, wall) in self._by_label().items():
            rows.append({
                "site": site,
                "events": count,
                "wall_s": round(wall, 6),
                "wall_share": round(wall / self.total_wall, 4)
                if self.total_wall else 0.0,
                "us_per_event": round(wall / count * 1e6, 3) if count else 0.0,
            })
        rows.sort(key=lambda row: (-row["wall_s"], row["site"]))
        return rows[:n]

    def section(self, top_n: int = 15) -> dict:
        """The ``profile`` report section (digest-excluded)."""
        return {
            "enabled": True,
            "events": self.total_events,
            "wall_s": round(self.total_wall, 6),
            "sites": len(self._by_label()),
            "top": self.top(top_n),
        }

    @staticmethod
    def format_table(section: dict, limit: int = 15) -> List[str]:
        """Human-readable top-N table for the CLI."""
        lines = [
            f"profile: {section['events']} events, "
            f"{section['wall_s']:.3f}s wall across {section['sites']} sites",
            f"  {'site':<56} {'events':>9} {'wall_s':>9} {'share':>6} {'us/ev':>8}",
        ]
        for row in section["top"][:limit]:
            lines.append(
                f"  {row['site']:<56} {row['events']:>9} "
                f"{row['wall_s']:>9.4f} {row['wall_share']:>6.1%} "
                f"{row['us_per_event']:>8.2f}")
        return lines
