"""Reference oracle: the table-based allocators ``repro.net.bwalloc`` replaced.

Moved here verbatim when the allocators were rewritten to fill over
persistent link objects: ``link_tables`` (three dicts keyed by
``("up", ip)`` / ``("down", ip)`` tuples, rebuilt per call), the weighted
``_progressive_fill`` over them, and the four ``allocate`` bodies, which take
the transfer list and return one rate per transfer.  Nothing in ``src/``
imports this; ``tests/test_bwalloc_reference.py`` holds every registered
allocator to these rates with ``==``.

:class:`GlobalRecomputeModel` is the other oracle: the bandwidth model with
the component walk switched off (every change re-allocates every live flow),
which ``tests/test_bwalloc.py`` holds the walk to, step by step.
"""

import math
from typing import Dict, List, Tuple

from repro.net.bandwidth import BandwidthModel
from repro.net.bwalloc import CLASS_WEIGHTS


class GlobalRecomputeModel(BandwidthModel):
    """Brute force: the component of any change is every live flow."""

    def _component(self, seeds: List) -> List:
        return self._active

#: link key: ("up", src_ip) or ("down", dst_ip)
Link = Tuple[str, str]


class ReferenceAllocator:
    """Base class: ``model`` only has to answer ``capacity(ip) -> (up, down)``."""

    name: str = ""

    def __init__(self, model) -> None:
        self.model = model

    def allocate(self, transfers: List) -> List[float]:
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def link_tables(self, transfers: List) -> Tuple[
            Dict[Link, float], Dict[Link, List[int]], List[Tuple[Link, Link]]]:
        """Shared link bookkeeping: capacities, flows per link, links per flow.

        Insertion order of the ``links`` dict follows transfer enumeration
        order — the deterministic tie-break every strategy inherits.
        """
        capacity = self.model.capacity
        links: Dict[Link, float] = {}
        flows_on_link: Dict[Link, List[int]] = {}
        flow_links: List[Tuple[Link, Link]] = []
        for index, transfer in enumerate(transfers):
            up_link = ("up", transfer.src_ip)
            down_link = ("down", transfer.dst_ip)
            up, _ = capacity(transfer.src_ip)
            _, down = capacity(transfer.dst_ip)
            links.setdefault(up_link, up)
            links.setdefault(down_link, down)
            flows_on_link.setdefault(up_link, []).append(index)
            flows_on_link.setdefault(down_link, []).append(index)
            flow_links.append((up_link, down_link))
        return links, flows_on_link, flow_links


def _progressive_fill(links: Dict[Link, float],
                      flows_on_link: Dict[Link, List[int]],
                      flow_links: List[Tuple[Link, Link]],
                      rates: List[float], eligible: List[int],
                      weights: List[float]) -> None:
    """Weighted progressive filling over ``eligible`` flow indices, in place.

    ``links`` holds each link's *remaining* capacity and is consumed (so a
    caller can fill one priority class, then the next against the residue).
    Each round saturates the link offering the smallest per-weight share to
    its unallocated flows; those flows are pinned at ``weight * share`` and
    their demand leaves every link they cross.  With unit weights this is
    classic max-min fairness — the loop below is the historical
    ``_max_min_fair_rates`` body with a weight column threaded through.
    """
    allocated = [False] * len(rates)
    pending_weight: Dict[Link, float] = {}
    for link, flows in flows_on_link.items():
        pending_weight[link] = sum(weights[f] for f in flows)
    n_unallocated = len(eligible)
    while n_unallocated:
        best_link = None
        best_share = math.inf
        for link, capacity in links.items():
            weight = pending_weight[link]
            if weight <= 0.0:
                continue
            share = capacity / weight
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            break
        for flow in flows_on_link[best_link]:
            if allocated[flow]:
                continue
            rate = best_share * weights[flow]
            rates[flow] = rate
            allocated[flow] = True
            n_unallocated -= 1
            for link in flow_links[flow]:
                links[link] = max(0.0, links[link] - rate)
                pending_weight[link] -= weights[flow]


class ReferenceMaxMinAllocator(ReferenceAllocator):
    name = "max-min"

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        rates = [0.0] * len(transfers)
        _progressive_fill(links, flows_on_link, flow_links, rates,
                          list(range(len(transfers))),
                          [1.0] * len(transfers))
        return rates


class ReferenceFairShareAllocator(ReferenceAllocator):
    name = "fair-share"

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        share: Dict[Link, float] = {
            link: capacity / len(flows_on_link[link])
            for link, capacity in links.items()}
        return [min(share[up], share[down]) for up, down in flow_links]


class ReferenceFixedPriorityAllocator(ReferenceAllocator):
    name = "fixed-priority"

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        rates = [0.0] * len(transfers)
        weights = [1.0] * len(transfers)
        by_class: Dict[int, List[int]] = {}
        for index, transfer in enumerate(transfers):
            by_class.setdefault(transfer.priority, []).append(index)
        for priority in sorted(by_class):
            eligible = by_class[priority]
            eligible_set = set(eligible)  # membership only, never iterated
            class_flows: Dict[Link, List[int]] = {}
            for link, flows in flows_on_link.items():
                mine = [f for f in flows if f in eligible_set]
                if mine:
                    class_flows[link] = mine
            class_links = {link: links[link] for link in class_flows}
            _progressive_fill(class_links, class_flows, flow_links, rates,
                              eligible, weights)
            # What this class consumed leaves the shared residue.
            for link in class_links:
                links[link] = class_links[link]
        return rates


class ReferencePriorityQueueAllocator(ReferenceAllocator):
    name = "priority-queue"

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        rates = [0.0] * len(transfers)
        weights = [CLASS_WEIGHTS.get(t.priority, 1.0) for t in transfers]
        _progressive_fill(links, flows_on_link, flow_links, rates,
                          list(range(len(transfers))), weights)
        return rates


REFERENCE_ALLOCATORS = {cls.name: cls for cls in (
    ReferenceMaxMinAllocator, ReferenceFairShareAllocator,
    ReferenceFixedPriorityAllocator, ReferencePriorityQueueAllocator)}
