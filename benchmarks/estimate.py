"""Host-time estimators.

One invocation repeats the identical seeded run several times.  The run is
deterministic, so slice *i* does the same work in every repetition and the
only thing that differs is the host: its speed drifts slowly, and it
interferes in bursts.  A calibration kernel run between the slices measures
the drift, and each repetition is rescaled by it.  Bursts only ever add
time, so the estimate of a slice is its minimum over the rescaled
repetitions, and the estimate of a phase is the sum of its slices' minima.
"""

from __future__ import annotations

import statistics
import time

#: iterations of the calibration kernel (about 8 ms on the reference box)
CALIBRATION_STEPS = 60_000
#: what the kernel takes on the reference box at its usual speed (first
#: quartile of its samples); host times are reported at this speed
CALIBRATION_REFERENCE_S = 0.0080


def calibrate() -> float:
    """Host seconds the fixed calibration kernel takes right now.

    Dictionary stores and loads on small integers: interpreter-bound like the
    program, allocation-free so that no GC setting can change its cost.
    """
    started = time.perf_counter()
    table = {}
    total = 0
    for step in range(CALIBRATION_STEPS):
        table[step & 1023] = step
        total += table.get((step * 7) & 1023, 0)
    return time.perf_counter() - started


def host_slowdown(calibrations: list) -> float:
    """How much slower than the reference speed the host ran one repetition.

    The speed of the host drifts by several percent over seconds to minutes
    and moves all code alike (two unrelated kernels run side by side each
    vary by 7 %, their ratio by under 1 %).  The calibration kernel ran
    between all slices of the repetition.  Its first quartile is used: the
    slice minima keep the burst-free time of each slice, so the matching
    speed is the burst-free speed, which the median overstates when bursts
    are frequent, while the minimum hangs on one lucky sample.  Dividing the
    repetition's host times by the result states them at the reference speed.
    """
    first_quartile = statistics.quantiles(calibrations, n=4)[0]
    return first_quartile / CALIBRATION_REFERENCE_S


def slice_minima(repetitions: list) -> list:
    """Element-wise minimum over repetitions of equal-length duration lists."""
    lengths = {len(durations) for durations in repetitions}
    if len(lengths) != 1:
        raise ValueError(f"repetitions have different slice counts: {sorted(lengths)}")
    return [min(column) for column in zip(*repetitions)]


def repetition_spread(totals: list) -> float:
    """``max / min - 1`` of the repetitions' total host times."""
    return max(totals) / min(totals) - 1.0


def quartile_spread(values: list) -> float:
    """Distance between first and third quartile as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
