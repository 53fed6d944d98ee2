"""Deterministic metrics primitives: counters and log-bucket histograms.

The measurement half of the paper's pitch ("the platform does deployment,
log collection *and measurement*"): a small registry of named metrics whose
every timestamp comes from the *simulated* clock, so a snapshot is a pure
function of the seed — byte-identical across shard counts and
machines.  Histograms use **fixed log-scaled bucket bounds** computed once
at construction (:func:`log_bucket_bounds`), never adapted to the data, so
two runs of the same seed fill exactly the same buckets.

Nothing here draws randomness, schedules events or reads wall clocks; the
registry is observation-only by construction and its report section is
digest-excluded anyway (see ``DIGEST_EXCLUDED_KEYS`` in the harness).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence


def log_bucket_bounds(lo: float, hi: float, per_decade: int = 4) -> List[float]:
    """Fixed log-scaled bucket upper bounds covering ``[lo, hi]``.

    Bounds sit at ``10 ** (k / per_decade)`` for every integer ``k`` with
    ``lo <= bound <= hi`` (``lo`` and ``hi`` themselves are always included
    as the first and last bound).  Values above the last bound land in the
    histogram's overflow bucket.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("log buckets need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    import math

    bounds: List[float] = [lo]
    k = math.ceil(math.log10(lo) * per_decade)
    while True:
        bound = 10.0 ** (k / per_decade)
        if bound > hi:
            break
        if bound > bounds[-1]:
            bounds.append(bound)
        k += 1
    if bounds[-1] < hi:
        bounds.append(hi)
    return bounds


#: default bounds for latency-in-seconds histograms: 0.1 ms .. 100 s
LATENCY_BOUNDS_S = log_bucket_bounds(1e-4, 100.0)

#: default bounds for size/count histograms: 1 .. 1e6
COUNT_BOUNDS = log_bucket_bounds(1.0, 1e6, per_decade=3)


class Counter:
    """A monotonically increasing counter (sim-time stamped)."""

    __slots__ = ("name", "value", "last_update")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        #: simulated time of the last increment (deterministic per seed)
        self.last_update = 0.0

    def inc(self, amount: int = 1, now: float = 0.0) -> None:
        self.value += amount
        self.last_update = now

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value,
                "last_update": round(self.last_update, 6)}


class Histogram:
    """Fixed-bound log-bucket histogram with exact sum/min/max.

    ``bounds`` are *upper* bucket bounds (inclusive); one overflow bucket
    catches everything above the last bound, so ``len(counts) ==
    len(bounds) + 1``.  Percentiles are estimated as the upper bound of the
    bucket containing the requested rank, and never above the largest
    observation (conservative: never below the true percentile, and above
    it by at most one bucket's width).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max",
                 "last_update")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.bounds: List[float] = list(bounds if bounds is not None
                                        else LATENCY_BOUNDS_S)
        if self.bounds != sorted(self.bounds) or len(set(self.bounds)) != len(self.bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {name}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0
        self.last_update = 0.0

    def observe(self, value: float, now: float = 0.0) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        self.last_update = now

    def bucket_index(self, value: float) -> int:
        """Index of the bucket ``value`` falls into (tests / bucket math)."""
        return bisect_left(self.bounds, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the ``fraction`` rank, at most
        the largest observation (the bound of the overflow bucket)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.999999))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return min(self.bounds[index], self.max)
                break
        return self.max

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": round(self.total, 9),
            "mean": round(self.mean, 9),
            "min": round(self.min, 9),
            "max": round(self.max, 9),
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            # Sparse encoding: only non-empty buckets (bound -> count);
            # "+Inf" is the overflow bucket.
            "buckets": {
                ("+Inf" if index == len(self.bounds)
                 else repr(self.bounds[index])): c
                for index, c in enumerate(self.counts) if c
            },
            "last_update": round(self.last_update, 6),
        }


class MetricsRegistry:
    """Named metrics for one job (or one deployment), sim-clock stamped.

    Metrics are created lazily on first touch and snapshot in sorted name
    order, so the emitted dict is deterministic per seed.  The ``clock``
    callable must return *simulated* time.
    """

    __slots__ = ("clock", "_metrics")

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock or (lambda: 0.0)
        self._metrics: Dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        return metric  # type: ignore[return-value]

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, bounds)
        return metric  # type: ignore[return-value]

    # Convenience emitters used by the instrumented layers --------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount, now=self.clock())

    def observe(self, name: str, value: float,
                bounds: Optional[Sequence[float]] = None) -> None:
        self.histogram(name, bounds).observe(value, now=self.clock())

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """All metrics as plain dicts, in sorted name order (deterministic)."""
        return {name: self._metrics[name].to_dict()  # type: ignore[attr-defined]
                for name in sorted(self._metrics)}
