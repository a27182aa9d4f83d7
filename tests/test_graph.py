"""The layered BFS of `Graph` and the traversals read off it, against
networkx shortest-path lengths on random graphs with dead vertices."""

import random

import pytest

from schemeconn.graph import Graph, bits

nx = pytest.importorskip("networkx")


def _random_graphs(count, seed):
    """(graph, networkx copy of its live part) pairs, n <= 12, some
    vertices dead."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        p = rng.uniform(0.1, 0.7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        alive = sum(1 << v for v in range(n) if rng.random() < 0.8)
        full = Graph.from_edges(n, edges)
        graph = Graph(n, full.rows, alive)
        live = set(bits(alive))
        nxg = nx.Graph()
        nxg.add_nodes_from(live)
        nxg.add_edges_from((u, w) for u, w in edges if u in live and w in live)
        out.append((graph, nxg))
    return out


def test_traversals_match_networkx():
    checked = 0
    for graph, nxg in _random_graphs(300, 1702):
        for start in nxg.nodes:
            lengths = nx.single_source_shortest_path_length(nxg, start)
            want = [lengths.get(v, -1) for v in range(graph.n)]
            assert graph.distances_from(start) == want
            assert graph.reach_mask(start) == sum(1 << v for v in lengths)
            for radius in range(graph.n):
                assert graph.ball(start, radius) == sum(
                    1 << v for v, d in lengths.items() if d <= radius)
            frontiers = list(graph.layers(start))
            assert frontiers == [sum(1 << v for v, d in lengths.items()
                                     if d == r)
                                 for r in range(len(frontiers))]
            checked += 1
    assert checked >= 1000


def test_reach_mask_respects_deleted():
    rng = random.Random(3801)
    for graph, nxg in _random_graphs(300, 3801):
        live = list(nxg.nodes)
        if not live:
            continue
        deleted = sum(1 << v for v in live if rng.random() < 0.3)
        rest = nxg.subgraph(v for v in live if not deleted >> v & 1)
        for start in rest.nodes:
            comp = nx.node_connected_component(rest, start)
            assert graph.reach_mask(start, deleted) == sum(1 << v for v in comp)
