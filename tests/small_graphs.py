"""Small named graphs that only the tests build."""

from schemeconn.graph import Graph


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def induced_subgraph(n: int, edges, keep) -> tuple[Graph, list]:
    """The graph on {0..n-1} with these edges, induced on the vertices in
    keep and relabelled 0..len(keep)-1 in ascending order, with its edge
    list."""
    pos = {v: i for i, v in enumerate(sorted(keep))}
    sub = [(pos[u], pos[w]) for u, w in edges if u in pos and w in pos]
    return Graph.from_edges(len(pos), sub), sub
