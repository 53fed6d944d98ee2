"""Max-min fair rates over per-host access links.

The flow-level :class:`~repro.net.bandwidth.BandwidthModel` owns the flow
bookkeeping; this module owns the persistent :class:`Link` objects and the
progressive fill (:func:`fill`) that turns them into rates.  The fill is
handed the flows of whole connected components (id-sorted) and their links
(first-appearance order) and writes ``rate_bps`` on each flow in place — no
table is built and no key hashed.

The fill is *per-component decomposable*: a flow's rate depends only on the
flows it (transitively) shares an access link with.  The model exploits that
for incremental recomputation — see
:meth:`~repro.net.bandwidth.BandwidthModel._reallocate`.
``tests/test_bwalloc.py`` replays random workloads against the invariants
and a brute-force recompute, and ``tests/test_bwalloc_reference.py`` holds
the fill to the rates of the table-based implementation it replaced, float
for float.
"""

from __future__ import annotations

from math import inf
from typing import List


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


def fill(flows: List, links: List[Link]) -> None:
    """Max-min fair rates by progressive filling of ``flows`` over ``links``.

    ``flows`` are one or more *whole* connected components, sorted by
    ``transfer_id``; ``links`` are the links they cross in first-appearance
    order over that enumeration (a flow's uplink before its downlink), and
    each link's ``flows`` list is exactly the given flows that cross it.
    Every flow gets its ``rate_bps`` (bits/second) in place and no link is
    oversubscribed (the sanitizer and the differential harness assert both).

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
