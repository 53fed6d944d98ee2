"""networkx as the oracle of ``TransitStubTopology``'s in-module Dijkstra.

The package computes its delay rows with a ``heapq`` Dijkstra over its own
adjacency dicts; networkx (a dev dependency only) computed them until it
left the runtime.  Every edge the topology inserts is replayed, in order,
into an ``nx.Graph``, and every delay row must match networkx's bit for bit
— delays feed event timestamps, so a last-digit difference would move
every pinned digest.
"""

import struct

import pytest

from repro.net.topology import TransitStubTopology

nx = pytest.importorskip("networkx")

SEEDS = range(10)
#: (transit_domains, transit_nodes_per_domain, stub_domains_per_transit,
#: stub_nodes_per_domain); the last one closes its domain ring on itself
SHAPES = {
    "default": (4, 5, 3, 8),
    "2x3": (2, 3, 3, 8),
    "10x5x3x3": (10, 5, 3, 3),
    "single-domain": (1, 5, 3, 8),
}


class RecordedTopology(TransitStubTopology):
    """Logs every edge insertion (repeats included) in call order."""

    def __init__(self, *shape, seed):
        self.edge_log = []
        super().__init__(*shape, seed=seed)

    def _add_edge(self, a, b, one_way_delay):
        self.edge_log.append((a, b, one_way_delay))
        super()._add_edge(a, b, one_way_delay)


def reference_graph(topology):
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.node_count))
    for a, b, delay in topology.edge_log:
        graph.add_edge(a, b, delay=delay)
    return graph


def reference_row(graph, topology, src):
    row = [float("nan")] * topology.node_count
    distances = nx.single_source_dijkstra_path_length(graph, src, weight="delay")
    for node, base in distances.items():
        row[node] = base + topology.intra_domain_delay
    return row


def packed(row):
    return struct.pack(f"{len(row)}d", *row)


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_delay_rows_and_description_match_networkx_bit_for_bit(shape):
    for seed in SEEDS:
        topology = RecordedTopology(*shape, seed=seed)
        graph = reference_graph(topology)
        # same neighbour order, so the same relaxation order
        assert ({node: list(graph.adj[node]) for node in graph}
                == {node: list(nbrs) for node, nbrs in topology._adj.items()})
        for src in range(topology.node_count):
            assert (packed(topology._build_delay_row(src))
                    == packed(reference_row(graph, topology, src))), (seed, src)
        transit = shape[0] * shape[1]
        assert topology.describe() == {
            "nodes": graph.number_of_nodes(),
            "transit_nodes": transit,
            "stub_nodes": transit * shape[2] * shape[3],
            "edges": graph.number_of_edges(),
        }


def test_a_self_loop_counts_as_one_edge():
    # One transit node: the domain ring closes on the node itself.
    topology = RecordedTopology(1, 1, 1, 3, seed=0)
    assert (0, 0, topology.transit_transit_rtt / 2.0) in topology.edge_log
    assert topology.describe()["edges"] == 4  # loop + gateway + 2 path links
    assert reference_graph(topology).number_of_edges() == 4


def test_unreachable_node_raises_key_error():
    topology = TransitStubTopology(2, 3, 3, 8, seed=1)
    island = topology.node_count
    topology._adj[island] = {}
    with pytest.raises(KeyError, match="no path"):
        topology.path_delay(0, island)
    with pytest.raises(KeyError, match="no path"):
        topology.path_delay(island, 0)
