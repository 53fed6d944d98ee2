"""The ``misc`` library: the pieces of it the framework and applications use.

The original ``misc`` library "provides common containers, functions for
format conversion, bit manipulation, high-precision timers and distributed
synchronization".  Reproduced here: duration parsing (the churn script
language's time format), the job's member directory (:class:`Membership`)
and ``between`` (re-exported from :mod:`repro.lib.ring`).
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import Dict, Generic, Iterator, List, Optional, TypeVar

from repro.lib.ring import between as between  # re-exported, mirrors misc.between_c

K = TypeVar("K")

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h|d)?\s*$")
_DURATION_FACTORS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, None: 1.0}


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

