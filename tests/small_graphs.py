"""Small named graphs that only the tests build."""

from schemeconn.graph import Graph, bits


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def induced_subgraph(n: int, edges, keep) -> tuple[Graph, list]:
    """The graph on {0..n-1} with these edges, induced on the vertices in
    keep and relabelled 0..len(keep)-1 in ascending order, with its edge
    list."""
    pos = {v: i for i, v in enumerate(sorted(keep))}
    sub = [(pos[u], pos[w]) for u, w in edges if u in pos and w in pos]
    return Graph.from_edges(len(pos), sub), sub


def networkx_graph(graph: Graph):
    """graph as a networkx.Graph on the same vertices."""
    import networkx as nx
    out = nx.Graph()
    out.add_nodes_from(range(graph.n))
    out.add_edges_from((u, w) for u, row in enumerate(graph.rows)
                       for w in bits(row) if u < w)
    return out
