"""The ``misc`` library: containers, conversions, timers, synchronisation helpers.

The original ``misc`` library "provides common containers, functions for
format conversion, bit manipulation, high-precision timers and distributed
synchronization".  The pieces needed by the reproduced applications and by
the framework are implemented here.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import Any, Dict, Generic, Iterator, List, Optional, TypeVar

from repro.lib.ring import between as between  # re-exported, mirrors misc.between_c

K = TypeVar("K")

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h|d)?\s*$")
_DURATION_FACTORS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, None: 1.0}

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(b|kb|mb|gb)?\s*$", re.IGNORECASE)
_SIZE_FACTORS = {"b": 1, "kb": 1024, "mb": 1024 ** 2, "gb": 1024 ** 3, None: 1}


def parse_duration(text: str | float | int) -> float:
    """Parse durations such as ``"30s"``, ``"5m"``, ``"1h"``, ``"250ms"`` into seconds.

    Bare numbers (or numeric types) are interpreted as seconds — this is the
    format used by the churn script language of Section 3.2.
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _DURATION_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse duration: {text!r}")
    value, unit = match.groups()
    return float(value) * _DURATION_FACTORS[unit]


def format_duration(seconds: float) -> str:
    """Human-readable rendering of a duration in seconds."""
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 120.0:
        return f"{seconds:.1f}s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds / 3600.0:.1f}h"


def parse_size(text: str | int) -> int:
    """Parse sizes such as ``"16KB"``, ``"24MB"`` into bytes."""
    if isinstance(text, int):
        return text
    match = _SIZE_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse size: {text!r}")
    value, unit = match.groups()
    return int(float(value) * _SIZE_FACTORS[unit.lower() if unit else None])


def format_size(nbytes: float) -> str:
    """Human-readable rendering of a byte count."""
    for unit, factor in (("GB", 1024 ** 3), ("MB", 1024 ** 2), ("KB", 1024)):
        if nbytes >= factor:
            return f"{nbytes / factor:.1f}{unit}"
    return f"{nbytes:.0f}B"


class Membership(Generic[K]):
    """A job's rendezvous directory: a set of hashable members in join order.

    A member that leaves and returns re-joins at the end.  ``add`` (idempotent),
    ``discard``, ``in`` and the random pick of a peer (:meth:`without`) are O(1).
    """

    def __init__(self) -> None:
        #: member -> position in ``_order`` (stale while that is ``None``);
        #: the keys are the join order
        self._index: Dict[K, int] = {}
        self._order: Optional[List[K]] = []

    def add(self, member: K) -> None:
        if member not in self._index:
            self._index[member] = len(self._index)
            if self._order is not None:
                self._order.append(member)

    def discard(self, member: K) -> None:
        if self._index.pop(member, None) is not None:
            self._order = None  # positions shifted: renumber on next use

    def __contains__(self, member: object) -> bool:
        return member in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[K]:
        return iter(self._index)

    def without(self, member: K) -> "Sequence[K]":
        """Everyone but ``member``, in join order, without a scan.

        Indexes and length are those of ``[m for m in self if m != member]``,
        so ``rng.choice`` / ``rng.sample`` draw and return what they did on it.
        """
        order, index = self._order, self._index
        if order is None:
            order = self._order = list(index)
            for position, each in enumerate(order):
                index[each] = position
        return _Without(order, index.get(member, len(order)))


class _Without(Sequence):
    """``items`` minus the element at position ``hole`` (none if past the end)."""

    __slots__ = ("_items", "_hole", "_size")

    def __init__(self, items: list, hole: int):
        self._items, self._hole = items, hole
        self._size = len(items) - (hole < len(items))  # fixed: joins append to items

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, position: int):
        if not -self._size <= position < self._size:
            raise IndexError("membership view index out of range")
        position %= self._size
        return self._items[position + (position >= self._hole)]


class Counter:
    """A tiny labelled counter map (stats aggregation helper)."""

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, label: str, amount: float = 1.0) -> None:
        self._counts[label] = self._counts.get(label, 0.0) + amount

    def get(self, label: str) -> float:
        return self._counts.get(label, 0.0)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self._counts})"


def chunk_count(total_size: int, chunk_size: int) -> int:
    """Number of chunks needed to cover ``total_size`` bytes."""
    if chunk_size <= 0:
        raise ValueError("chunk size must be positive")
    return (total_size + chunk_size - 1) // chunk_size


def flatten(nested: Any) -> list:
    """Flatten one level of nesting from a list of lists."""
    result = []
    for item in nested:
        if isinstance(item, (list, tuple)):
            result.extend(item)
        else:
            result.append(item)
    return result
