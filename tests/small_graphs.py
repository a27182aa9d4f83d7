"""Small named graphs, the catalog list and the fusion schemes that only
the tests build, and graph-level oracles of what the package reads off
the tensor."""

from itertools import combinations
from types import SimpleNamespace

import numpy as np

from schemeconn.audits import RelationContext
from schemeconn.catalog import BUILTIN_FAMILIES, build_family
from schemeconn.errors import SchemeError
from schemeconn.graph import Graph, bits
from schemeconn.scheme import RelationTable, validate_scheme


def builtin_catalog() -> list:
    """All builtin schemes as built, sorted by name.  Conjugacy members of
    non-abelian flavor and Z_n members may be non-symmetric; the analysis
    pipeline symmetrizes them."""
    return sorted((build_family(kind, params)
                   for kind, params in BUILTIN_FAMILIES),
                  key=lambda s: s.name)


def fused(scheme, blocks):
    """scheme with each block of classes merged into one class, the
    classes renumbered in order; SchemeError when that is no scheme."""
    label = np.arange(scheme.d + 1)
    for block in blocks:
        label[list(block)] = block[0]
    # renumber the surviving labels 0..d' in order
    label = np.unique(label, return_inverse=True)[1]
    name = f"{scheme.name}-fused-" + "+".join("-".join(map(str, block))
                                              for block in blocks)
    return validate_scheme(RelationTable.from_classes(label[scheme.classes]),
                           name)


def fusions(scheme) -> list:
    """Every scheme obtained by merging one block of two or more of
    scheme's classes into one."""
    out = []
    for size in range(2, scheme.d + 1):
        for block in combinations(range(1, scheme.d + 1), size):
            try:
                out.append(fused(scheme, [block]))
            except SchemeError:
                pass
    return out


def graph_context(graph: Graph, stabiliser=(),
                  transitive=()) -> RelationContext:
    """A RelationContext over a bare graph that no scheme at hand carries,
    with these generators as the scheme's: kappa, lam, min_cuts and the
    basepoint sweeps read only the graph, the generators, and connectivity
    and completeness, which with no tensor at hand come from the graph."""
    ctx = object.__new__(RelationContext)
    ctx.scheme = SimpleNamespace(v=graph.n, stabiliser=tuple(stabiliser),
                                 transitive=tuple(transitive))
    ctx.g = 1
    ctx.graph = graph
    ctx.connected = graph.is_connected()
    ctx.complete = is_complete(graph)
    return ctx


def has_edge(graph: Graph, u: int, w: int) -> bool:
    return bool(graph.rows[u] >> w & 1)


def is_complete(graph: Graph) -> bool:
    full = (1 << graph.n) - 1
    return all(row == full & ~(1 << v) for v, row in enumerate(graph.rows))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def circulant(n: int, jumps) -> Graph:
    """Cay(Z_n, {+-a : a in jumps})."""
    return Graph.from_edges(n, [(x, (x + a) % n) for x in range(n)
                                for a in jumps])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def induced_subgraph(n: int, edges, keep) -> tuple[Graph, list]:
    """The graph on {0..n-1} with these edges, induced on the vertices in
    keep and relabelled 0..len(keep)-1 in ascending order, with its edge
    list."""
    pos = {v: i for i, v in enumerate(sorted(keep))}
    sub = [(pos[u], pos[w]) for u, w in edges if u in pos and w in pos]
    return Graph.from_edges(len(pos), sub), sub


def twins(graph: Graph) -> SimpleNamespace:
    """Vertices with identical open neighbourhoods: `classes`, the groups
    of two or more, sorted, and `pairs`, the ascending pairs inside them,
    sorted.  Twins are never adjacent (b in N(a) = N(b) would be a loop),
    so comparing rows directly is enough."""
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(graph.rows):
        groups.setdefault(row, []).append(v)
    classes = sorted(tuple(g) for g in groups.values() if len(g) > 1)
    pairs = sorted(p for g in classes for p in combinations(g, 2))
    return SimpleNamespace(pairs=tuple(pairs), classes=tuple(classes))


def networkx_graph(graph: Graph):
    """graph as a networkx.Graph on the same vertices."""
    import networkx as nx
    out = nx.Graph()
    out.add_nodes_from(range(graph.n))
    out.add_edges_from((u, w) for u, row in enumerate(graph.rows)
                       for w in bits(row) if u < w)
    return out


def geodesic_correspondence_check(scheme, g: int,
                                  graph: Graph) -> tuple[bool, object]:
    """d_Gamma(a,b) == level of class(a,b) in relation g's diagram, for
    every pair, the distances by the graph's BFS.  Requires a connected
    relation graph."""
    levels = scheme.diagrams[g].levels
    if (levels < 0).any():
        return False, ("diagram", "unreachable class")
    want = levels[scheme.classes]
    got = graph.distance_matrix()
    if np.array_equal(got, want):
        return True, None
    bad = np.argwhere(got != want)[0]
    a, b = int(bad[0]), int(bad[1])
    return False, ((a, b), int(got[a, b]), int(want[a, b]))
