"""Reference oracle: the table-based allocator ``repro.net.bwalloc`` replaced.

Moved here verbatim when the allocators were rewritten to fill over
persistent link objects: ``link_tables`` (three dicts keyed by
``("up", ip)`` / ``("down", ip)`` tuples, rebuilt per call), the
``_progressive_fill`` over them, and the ``allocate`` body, which takes
the transfer list and returns one rate per transfer.  Nothing in ``src/``
imports this; ``tests/test_bwalloc_reference.py`` holds
:func:`repro.net.bwalloc.fill` to these rates with ``==``.

:class:`GlobalRecomputeModel` is the other oracle: the bandwidth model with
the component walk switched off (every change re-allocates every live flow),
which ``tests/test_bwalloc.py`` holds the walk to, step by step.
"""

import math
from typing import Dict, List, Tuple

from repro.net.bandwidth import BandwidthModel


class GlobalRecomputeModel(BandwidthModel):
    """Brute force: the component of any change is every live flow."""

    def _component(self, seeds: List) -> List:
        return self._active

#: link key: ("up", src_ip) or ("down", dst_ip)
Link = Tuple[str, str]


class ReferenceMaxMinAllocator:
    """``model`` only has to answer ``capacity(ip) -> (up, down)``."""

    def __init__(self, model) -> None:
        self.model = model

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        rates = [0.0] * len(transfers)
        _progressive_fill(links, flows_on_link, flow_links, rates,
                          list(range(len(transfers))))
        return rates

    def link_tables(self, transfers: List) -> Tuple[
            Dict[Link, float], Dict[Link, List[int]], List[Tuple[Link, Link]]]:
        """Shared link bookkeeping: capacities, flows per link, links per flow.

        Insertion order of the ``links`` dict follows transfer enumeration
        order — the deterministic tie-break.
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
                      rates: List[float], eligible: List[int]) -> None:
    """Max-min progressive filling over ``eligible`` flow indices, in place.

    ``links`` holds each link's *remaining* capacity and is consumed.
    Each round saturates the link offering the smallest share to its
    unallocated flows; those flows are pinned at that share and leave every
    link they cross — the historical ``_max_min_fair_rates`` body.
    """
    allocated = [False] * len(rates)
    pending_weight: Dict[Link, float] = {}
    for link, flows in flows_on_link.items():
        pending_weight[link] = float(len(flows))
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
            rates[flow] = best_share
            allocated[flow] = True
            n_unallocated -= 1
            for link in flow_links[flow]:
                links[link] = max(0.0, links[link] - best_share)
                pending_weight[link] -= 1.0

