"""Pluggable bandwidth allocators.

The flow-level :class:`~repro.net.bandwidth.BandwidthModel` owns the flow
bookkeeping; this module owns the *allocation strategy* behind a small
interface (the shape of psim's ``BandwidthAllocator`` hierarchy) and the
persistent :class:`Link` objects both sides work on.  An allocator is handed
the flows of whole connected components (id-sorted) and their links
(first-appearance order) and writes ``rate_bps`` on each flow in place — no
table is built and no key hashed.  Two strategies are registered:

``max-min``
    Progressive-filling max-min fairness over access links — the historical
    semantics, byte-identical to the pre-refactor model (digest-pinned).
``fair-share``
    Equal split per bottleneck link: every flow gets ``capacity / flows``
    on each of its links and runs at the narrower of the two.  Simpler and
    cheaper than max-min, but leftover capacity is *not* redistributed.

Both strategies are *per-component decomposable*: a flow's rate depends
only on the flows it (transitively) shares an access link with.  The model
exploits that for incremental recomputation — see
:meth:`~repro.net.bandwidth.BandwidthModel._reallocate`.  Allocators must
keep that property (no global normalisation terms), or incremental and
global recomputes would diverge; ``tests/test_bwalloc.py`` replays every
registered allocator against the shared invariants, and
``tests/test_bwalloc_reference.py`` holds each to the rates of the
table-based implementation it replaced, float for float.

Adding an allocator: see ``docs/BANDWIDTH.md``; the CLI flag choices, the
bench column and the differential test harnesses enumerate the registry.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List


class Link:
    """One direction of one host's access link, kept from its first flow on.

    ``flows`` holds the live transfers crossing the link in ``transfer_id``
    order and nothing else, so an idle link pins no dead flow.  ``residual``
    and ``pending`` are the fill's scratch (capacity not yet handed out,
    number of flows not yet pinned) and mean nothing between allocations;
    ``epoch`` is the model's visit mark.
    """

    __slots__ = ("direction", "ip", "capacity", "flows", "residual",
                 "pending", "epoch", "bytes_carried", "peak_flows")

    def __init__(self, direction: str, ip: str, capacity: float):
        self.direction = direction
        self.ip = ip
        self.capacity = capacity
        self.flows: List = []
        self.residual = 0.0
        self.pending = 0.0
        self.epoch = 0
        #: bytes of the transfers that completed over this link
        self.bytes_carried = 0.0
        #: most flows that ever shared the link at one instant
        self.peak_flows = 0


class UnknownAllocatorError(KeyError):
    """Raised when looking up an allocator name nobody registered."""


class BandwidthAllocator:
    """Base class: rate assignment over per-host uplink/downlink links.

    Stateless between calls.  ``allocate(flows, links)`` receives the flows
    of one or more *whole* connected components, sorted by ``transfer_id``,
    and the links they cross in first-appearance order over that enumeration
    (a flow's uplink before its downlink) — the deterministic tie-break
    every strategy inherits.  Each link's ``flows`` list is exactly the
    given flows that cross it, in the same order.  The allocator must write
    ``rate_bps`` (bits/second) on every flow and never oversubscribe a link
    (the sanitizer and the differential harness assert both).
    """

    #: registry key, CLI flag value and bench-CSV cell
    name: str = ""

    def allocate(self, flows: List, links: List[Link]) -> None:
        raise NotImplementedError


_ALLOCATORS: Dict[str, type] = {}


def register_allocator(cls: type) -> type:
    """Class decorator: add an allocator to the registry (name must be new)."""
    name = cls.name
    if not name:
        raise ValueError(f"allocator {cls.__name__} has no name")
    existing = _ALLOCATORS.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"allocator {name!r} is already registered")
    _ALLOCATORS[name] = cls
    return cls


def allocator_names() -> List[str]:
    """Registered names, in registration order (``max-min`` first)."""
    return list(_ALLOCATORS)


def make_allocator(name: str) -> BandwidthAllocator:
    try:
        cls = _ALLOCATORS[name]
    except KeyError:
        known = ", ".join(_ALLOCATORS)
        raise UnknownAllocatorError(
            f"unknown bandwidth allocator {name!r} (known: {known})") from None
    return cls()


def _fill(flows: List, links: List[Link]) -> None:
    """Progressive filling of ``flows`` over ``links``, in place.

    Every link starts with its whole capacity to hand out.  A flow's
    ``weight`` field is its fill state: 1.0 while it waits for a rate, 0.0
    once pinned and between allocations.  Each round saturates the link
    offering the smallest share to its waiting flows (the first such link
    in ``links`` order on a tie); those flows are pinned at that share and
    leave both links they cross.
    """
    for link in links:
        link.residual = link.capacity
        link.pending = 0.0
    for flow in flows:
        flow.weight = 1.0
        flow.up.pending += 1.0
        flow.down.pending += 1.0
    waiting = len(flows)
    while waiting:
        best = None
        best_share = inf
        for link in links:
            pending = link.pending
            if pending > 0.0:
                share = link.residual / pending
                if share < best_share:
                    best_share = share
                    best = link
        if best is None:
            # Only links with no finite share are left (an infinite
            # capacity): the stragglers run at rate 0.
            for flow in flows:
                if flow.weight > 0.0:
                    flow.weight = flow.rate_bps = 0.0
            return
        for flow in best.flows:
            if flow.weight > 0.0:
                flow.weight = 0.0
                flow.rate_bps = best_share
                waiting -= 1
                link = flow.up
                left = link.residual - best_share
                link.residual = left if left > 0.0 else 0.0
                link.pending -= 1.0
                link = flow.down
                left = link.residual - best_share
                link.residual = left if left > 0.0 else 0.0
                link.pending -= 1.0


@register_allocator
class MaxMinAllocator(BandwidthAllocator):
    """Classic progressive-filling max-min fairness (the historical model).

    Byte-identical to the pre-refactor
    ``BandwidthModel._max_min_fair_rates`` — the churning-chord
    digest-parity test pins that equivalence on both kernels.
    """

    name = "max-min"

    def allocate(self, flows: List, links: List[Link]) -> None:
        _fill(flows, links)


@register_allocator
class FairShareAllocator(BandwidthAllocator):
    """Equal split per bottleneck link, no leftover redistribution.

    A flow crossing links ``l1, l2`` runs at ``min(cap(l) / flows(l))`` —
    one pass, no rounds.  Never oversubscribes (each link hands out at most
    ``flows * cap / flows``), but a flow bottlenecked elsewhere strands its
    unused share, so total utilisation trails max-min under asymmetric load.
    """

    name = "fair-share"

    def allocate(self, flows: List, links: List[Link]) -> None:
        for link in links:
            link.residual = link.capacity / len(link.flows)
        for flow in flows:
            up = flow.up.residual
            down = flow.down.residual
            flow.rate_bps = down if down < up else up
