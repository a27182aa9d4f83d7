"""Small named graphs that only the tests build."""

from schemeconn.graph import Graph


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
