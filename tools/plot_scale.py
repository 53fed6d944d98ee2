#!/usr/bin/env python3
"""Summarise a ``scenarios bench`` CSV: per-size table, ratios, cost curve.

The size sweep (``scenarios bench``) runs Chord at growing
deployment sizes with log-scaled windows and records throughput, phase
wall attribution (deploy vs run vs drain) and per-cell peak RSS.  This
script renders the committed or freshly-swept CSV as a terminal table and
derives the numbers that matter for "does it scale": how events/sec,
per-event cost and KB-per-node move as the deployment grows.

    python tools/plot_scale.py bench_scale.csv
    python tools/plot_scale.py bench_scale.csv --out scale_cost.svg

``--out FILE.svg`` additionally draws the per-event-cost-vs-N curve
(µs/event against node count, lower and flatter is better) as a
self-contained SVG — the artifact the CI scale leg uploads.

No dependencies beyond the stdlib — it runs on the bare CI image.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional


def read_scale_rows(path: str) -> List[dict]:
    """Read the rows of a bench CSV, smallest deployment first."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    if "events_per_sec" not in (reader.fieldnames or ()):
        raise ValueError(f"{path}: expected a 'scenarios bench' CSV header")
    if not rows:
        raise ValueError(f"{path}: no scale rows (generate with scenarios bench)")
    return sorted(rows, key=lambda r: int(r["nodes"]))


def _float(row: dict, key: str) -> float:
    """A float column that may be absent or blank (older CSVs)."""
    value = row.get(key)
    return float(value) if value not in (None, "") else 0.0


def per_event_us(row: dict) -> float:
    """Host microseconds spent per simulated event — the flatness number."""
    rate = _float(row, "events_per_sec")
    return 1e6 / rate if rate > 0 else 0.0


def format_table(rows: List[dict]) -> str:
    """The per-size table plus throughput/memory scaling ratios."""
    lines = [f"{'nodes':>7} {'hosts':>6} {'events':>10} {'ev/s':>9} "
             f"{'us/ev':>7} {'wall_s':>8} {'deploy':>7} {'run':>8} "
             f"{'drain':>8} {'peak_rss_kb':>12} {'kb/node':>8}"]
    for row in rows:
        nodes = int(row["nodes"])
        rss = int(_float(row, "peak_rss_kb"))
        lines.append(
            f"{nodes:>7} {row['hosts']:>6} {row['events_executed']:>10} "
            f"{_float(row, 'events_per_sec'):>9.0f} "
            f"{per_event_us(row):>7.2f} "
            f"{_float(row, 'wall_sec'):>8.1f} "
            f"{_float(row, 'wall_deploy_s'):>7.1f} "
            f"{_float(row, 'wall_run_s'):>8.1f} "
            f"{_float(row, 'wall_drain_s'):>8.1f} {rss:>12} "
            f"{rss / nodes:>8.1f}")
    if len(rows) > 1:
        first, last = rows[0], rows[-1]
        growth = int(last["nodes"]) / int(first["nodes"])
        ev_ratio = (_float(last, "events_per_sec")
                    / _float(first, "events_per_sec"))
        first_rss = _float(first, "peak_rss_kb")
        last_rss = _float(last, "peak_rss_kb")
        lines.append("")
        lines.append(f"scaling {first['nodes']} -> {last['nodes']} nodes "
                     f"({growth:.0f}x):")
        lines.append(f"  events/sec ratio (scale_efficiency): {ev_ratio:.2f}x "
                     f"(1.00x = size-independent throughput)")
        first_cost = per_event_us(first)
        if first_cost > 0:
            lines.append(f"  per-event cost: {first_cost:.2f} -> "
                         f"{per_event_us(last):.2f} us/event "
                         f"({per_event_us(last) / first_cost:.2f}x)")
        if first_rss > 0:
            per_node_ratio = ((last_rss / int(last["nodes"]))
                              / (first_rss / int(first["nodes"])))
            lines.append(f"  KB-per-node ratio: {per_node_ratio:.2f}x "
                         f"(<= 1.00x = no per-node overhead growth)")
    return "\n".join(lines)


# ------------------------------------------------------------------ SVG curve
#: canvas geometry of the cost-curve SVG (pixels)
_SVG_W, _SVG_H = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 25, 45, 55


def cost_curve_svg(rows: List[dict]) -> str:
    """The per-event-cost-vs-N curve as a self-contained SVG document.

    X is node count (linear), Y is host µs per simulated event from zero —
    a flat line means per-event cost is independent of deployment size,
    which is exactly what the size sweep measures.  Stdlib-only on
    purpose: the CI image has no plotting stack.
    """
    points = [(int(r["nodes"]), per_event_us(r)) for r in rows]
    xs = [n for n, _ in points]
    ys = [c for _, c in points]
    x_max = max(xs)
    y_max = max(ys) * 1.15 or 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(nodes: float) -> float:
        return _MARGIN_L + plot_w * nodes / x_max

    def py(cost: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - cost / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="22" text-anchor="middle" '
        f'font-size="15">Per-event cost vs deployment size</text>',
    ]
    # horizontal gridlines + y labels (5 ticks from 0 to y_max)
    for tick in range(5 + 1):
        cost = y_max * tick / 5
        y = py(cost)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{y:.1f}" '
                     f'x2="{_SVG_W - _MARGIN_R}" y2="{y:.1f}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{cost:.1f}</text>')
    # x ticks at the measured node counts
    axis_y = _SVG_H - _MARGIN_B
    for nodes in xs:
        x = px(nodes)
        parts.append(f'<line x1="{x:.1f}" y1="{axis_y}" '
                     f'x2="{x:.1f}" y2="{axis_y + 5}" stroke="#555"/>')
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 20}" '
                     f'text-anchor="middle">{nodes}</text>')
    # axes
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" '
                 f'x2="{_MARGIN_L}" y2="{axis_y}" stroke="#555"/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{axis_y}" '
                 f'x2="{_SVG_W - _MARGIN_R}" y2="{axis_y}" stroke="#555"/>')
    parts.append(f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 12}" '
                 f'text-anchor="middle">nodes</text>')
    parts.append(f'<text x="16" y="{_SVG_H / 2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_SVG_H / 2:.0f})">'
                 f'µs per event</text>')
    # the curve itself + point markers with value labels
    path = " ".join(f"{'M' if i == 0 else 'L'} {px(n):.1f} {py(c):.1f}"
                    for i, (n, c) in enumerate(points))
    parts.append(f'<path d="{path}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="2"/>')
    for nodes, cost in points:
        parts.append(f'<circle cx="{px(nodes):.1f}" cy="{py(cost):.1f}" '
                     f'r="4" fill="#1f77b4"/>')
        parts.append(f'<text x="{px(nodes):.1f}" y="{py(cost) - 10:.1f}" '
                     f'text-anchor="middle">{cost:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarise a 'scenarios bench' CSV")
    parser.add_argument("csv", help="bench_scale.csv (a 'scenarios bench' CSV)")
    parser.add_argument("--out", type=str, default=None, metavar="FILE.svg",
                        help="also write the per-event-cost-vs-N curve "
                             "as a stdlib-rendered SVG to FILE.svg")
    args = parser.parse_args(argv)
    try:
        rows = read_scale_rows(args.csv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_table(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(cost_curve_svg(rows))
        print(f"\ncost curve: wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
