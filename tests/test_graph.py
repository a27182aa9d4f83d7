"""The layered BFS `layers` and the traversals `Graph` reads off it,
against networkx shortest-path lengths on random graphs and digraphs, and
the rows `Graph` and the edges `Graph.from_edges` accept."""

import random
import re

import pytest

from schemeconn.graph import Graph, layers
from small_graphs import induced_subgraph

nx = pytest.importorskip("networkx")


def _random_graphs(count, seed):
    """(graph, networkx copy) pairs, n <= 12: random graphs induced on a
    random subset of their vertices and relabelled."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 12)
        p = rng.uniform(0.1, 0.7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        keep = [v for v in range(n) if rng.random() < 0.8]
        graph, sub = induced_subgraph(n, edges, keep)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(graph.n))
        nxg.add_edges_from(sub)
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
            frontiers = list(layers(graph.rows, start))
            assert frontiers == [sum(1 << v for v, d in lengths.items()
                                     if d == r)
                                 for r in range(len(frontiers))]
            checked += 1
    assert checked >= 1000


def test_layers_follow_the_arcs_of_a_digraph():
    rng = random.Random(2311)
    for _ in range(200):
        n = rng.randint(1, 12)
        arcs = [(u, w) for u in range(n) for w in range(n)
                if u != w and rng.random() < 0.25]
        rows = [0] * n
        for u, w in arcs:
            rows[u] |= 1 << w
        dig = nx.DiGraph(arcs)
        dig.add_nodes_from(range(n))
        start = rng.randrange(n)
        lengths = nx.single_source_shortest_path_length(dig, start)
        frontiers = list(layers(rows, start))
        assert frontiers == [sum(1 << v for v, d in lengths.items() if d == r)
                             for r in range(max(lengths.values()) + 1)]


def test_reach_mask_respects_deleted():
    rng = random.Random(3801)
    for graph, nxg in _random_graphs(300, 3801):
        nodes = list(nxg.nodes)
        if not nodes:
            continue
        deleted = sum(1 << v for v in nodes if rng.random() < 0.3)
        rest = nxg.subgraph(v for v in nodes if not deleted >> v & 1)
        for start in rest.nodes:
            comp = nx.node_connected_component(rest, start)
            assert graph.reach_mask(start, deleted) == sum(1 << v for v in comp)


@pytest.mark.parametrize("rows,message", [
    ([0b1000, 0, 0], "row 0 has a bit at or above n = 3"),
    ([0, 0, 1 << 70], "row 2 has a bit at or above n = 3"),
    ([-1, 0, 0], "row 0 has a bit at or above n = 3"),
    ([0b100, 0b010, 0b001], "row 1 has a loop"),
], ids=["stray-bit", "far-stray-bit", "negative", "loop"])
def test_rows_are_checked(rows, message):
    # no vertex mask hides a stray bit, and twins assumes loop-free rows
    with pytest.raises(ValueError, match=message):
        Graph(3, rows)


@pytest.mark.parametrize("edge", [(0, 5), (0, -1)],
                         ids=["past-the-end", "negative"])
def test_edge_endpoints_are_checked(edge):
    # -1 would index the last row before the shift failed
    with pytest.raises(ValueError, match=re.escape(
            f"edge {edge} has an endpoint outside 0..2 (n = 3)")):
        Graph.from_edges(3, [edge])
