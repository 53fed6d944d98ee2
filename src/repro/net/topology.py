"""Transit-stub topology generation for the ModelNet testbed model.

The paper's ModelNet configuration "emulates 1,100 hosts connected to a
500-node transit-stub topology.  The bandwidth is set to 10 Mbps for all
links.  RTT between nodes of the same domain is 10 ms, stub-stub and
stub-transit RTT is 30 ms, and transit-transit (i.e., long range links) RTT
is 100 ms."  This module generates such topologies and computes
shortest-path delays between attachment points.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List

from repro.sim.rng import substream


class TransitStubTopology:
    """A GT-ITM style transit-stub topology.

    The generated graph contains ``transit_domains`` fully meshed transit
    domains connected in a ring (with a few random long-range chords); each
    transit node anchors ``stub_domains_per_transit`` stub domains, each a
    small connected cluster of ``stub_nodes_per_domain`` nodes.  End hosts
    attach to stub nodes.

    Edge delays are *one-way* seconds, derived from the RTT parameters.
    """

    def __init__(
        self,
        transit_domains: int = 4,
        transit_nodes_per_domain: int = 5,
        stub_domains_per_transit: int = 3,
        stub_nodes_per_domain: int = 8,
        seed: int = 0,
        transit_transit_rtt: float = 0.100,
        stub_transit_rtt: float = 0.030,
        stub_stub_rtt: float = 0.030,
        intra_domain_rtt: float = 0.010,
        link_bandwidth_bps: float = 10_000_000.0,
    ):
        if transit_domains < 1 or transit_nodes_per_domain < 1:
            raise ValueError("topology needs at least one transit node")
        self.seed = seed
        self.transit_transit_rtt = transit_transit_rtt
        self.stub_transit_rtt = stub_transit_rtt
        self.stub_stub_rtt = stub_stub_rtt
        self.intra_domain_rtt = intra_domain_rtt
        self.link_bandwidth_bps = link_bandwidth_bps

        #: node -> {neighbour: one-way delay}, both in insertion order; a
        #: re-added edge keeps its first position
        self._adj: Dict[int, Dict[int, float]] = {}
        self.transit_nodes: List[int] = []
        self.stub_nodes: List[int] = []
        #: stub node -> transit node it hangs off
        self.stub_parent: Dict[int, int] = {}
        # Per-source delay rows: a flat list indexed by (contiguous) node id,
        # with the host-access component (half the intra-domain delay on each
        # side, so co-located and remote hosts are consistent) already folded
        # in; NaN marks an unreachable node.  Node ids are
        # assigned densely in _build, so a list replaces a dict per source
        # (which retained ~15 MB at 500 topology nodes) and the hot lookup
        # is one C-level index.  Float values repeat massively
        # across rows (delays are sums of a handful of RTTs), so rows share
        # float objects through ``_delay_pool``.
        self._delay_cache: Dict[int, List[float]] = {}
        self._delay_pool: Dict[float, float] = {}

        rng = substream(seed, "transit-stub")
        self._build(transit_domains, transit_nodes_per_domain,
                    stub_domains_per_transit, stub_nodes_per_domain, rng)

    # ----------------------------------------------------------------- build
    def _build(self, transit_domains: int, transit_nodes_per_domain: int,
               stub_domains_per_transit: int, stub_nodes_per_domain: int, rng) -> None:
        next_id = 0
        domains: List[List[int]] = []
        for _domain in range(transit_domains):
            nodes = []
            for _ in range(transit_nodes_per_domain):
                self._adj[next_id] = {}
                nodes.append(next_id)
                next_id += 1
            # Full mesh inside a transit domain.
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    self._add_edge(a, b, self.transit_transit_rtt / 2.0)
            domains.append(nodes)
            self.transit_nodes.extend(nodes)

        # Connect transit domains in a ring plus random chords for redundancy.
        for index, domain in enumerate(domains):
            other = domains[(index + 1) % len(domains)]
            self._add_edge(rng.choice(domain), rng.choice(other), self.transit_transit_rtt / 2.0)
        extra_chords = max(0, transit_domains - 2)
        for _ in range(extra_chords):
            a_domain, b_domain = rng.sample(range(len(domains)), 2)
            self._add_edge(rng.choice(domains[a_domain]), rng.choice(domains[b_domain]),
                           self.transit_transit_rtt / 2.0)

        # Hang stub domains off transit nodes.
        for transit in self.transit_nodes:
            for _stub_domain in range(stub_domains_per_transit):
                stub_ids = []
                for _ in range(stub_nodes_per_domain):
                    self._adj[next_id] = {}
                    stub_ids.append(next_id)
                    self.stub_parent[next_id] = transit
                    next_id += 1
                # Stub domain internal structure: a path plus a random chord,
                # cheap links (stub-stub RTT).
                for a, b in zip(stub_ids, stub_ids[1:]):
                    self._add_edge(a, b, self.stub_stub_rtt / 2.0)
                if len(stub_ids) > 3:
                    a, b = rng.sample(stub_ids, 2)
                    if b not in self._adj[a]:
                        self._add_edge(a, b, self.stub_stub_rtt / 2.0)
                # Gateway link: first stub node connects to the transit node.
                self._add_edge(stub_ids[0], transit, self.stub_transit_rtt / 2.0)
                self.stub_nodes.extend(stub_ids)

    def _add_edge(self, a: int, b: int, one_way_delay: float) -> None:
        self._adj[a][b] = self._adj[b][a] = one_way_delay

    # --------------------------------------------------------------- queries
    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def intra_domain_delay(self) -> float:
        """One-way delay between two hosts attached to the same stub node."""
        return self.intra_domain_rtt / 2.0

    def _build_delay_row(self, src_node: int) -> List[float]:
        # Dijkstra, relaxing exactly as the graph library that is now the
        # test oracle (tests/test_topology_reference.py): heap entries
        # (dist, push order, node), the first pop of a node settles it, and
        # ``dist + cost`` is the only float operation, so rows match bitwise.
        adj = self._adj
        pool = self._delay_pool
        intra = self.intra_domain_delay
        row = [float("nan")] * len(adj)
        seen = {src_node: 0}
        fringe = [(0, 0, src_node)]
        pushes = 1
        while fringe:
            dist, _, node = heappop(fringe)
            if dist > seen[node]:
                continue  # settled by a shorter entry pushed later
            value = dist + intra
            row[node] = pool.setdefault(value, value)
            for neighbour, cost in adj[node].items():
                reach = dist + cost
                if neighbour not in seen or reach < seen[neighbour]:
                    seen[neighbour] = reach
                    heappush(fringe, (reach, pushes, neighbour))
                    pushes += 1
        self._delay_cache[src_node] = row
        return row

    def attach_hosts(self, ips: Iterable[str], seed: int = 1) -> Dict[str, int]:
        """Assign each host IP to a stub node, round-robin over a shuffled list.

        ModelNet maps multiple emulated end hosts to each stub node; this
        reproduces the paper's 1,100 hosts on a 500-node topology.
        """
        rng = substream(self.seed, "attach", seed)
        stubs = list(self.stub_nodes)
        rng.shuffle(stubs)
        attachment: Dict[str, int] = {}
        for index, ip in enumerate(ips):
            attachment[ip] = stubs[index % len(stubs)]
        return attachment

    def describe(self) -> Dict[str, int]:
        """Summary statistics used by tests and documentation."""
        return {
            "nodes": self.node_count,
            "transit_nodes": len(self.transit_nodes),
            "stub_nodes": len(self.stub_nodes),
            # a self-loop (possible with one transit domain) is one edge
            "edges": sum(len(nbrs) + (node in nbrs)
                         for node, nbrs in self._adj.items()) // 2,
        }
