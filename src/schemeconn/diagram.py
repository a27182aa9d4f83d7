"""Distribution diagrams and the geometry they read off the tensor.

For a symmetric scheme and a designated class g, the diagram H_g lives on
the class indices {0..d}: distinct j and k are adjacent when p[g,j,k] +
p[g,k,j] > 0.  Levels are BFS distances from class 0.  A relation graph's
distance from a to x is the level of the class of (a, x), and its
diameter is the diagram's, None when it is disconnected
(Brouwer-Cohen-Neumaier, Distance-Regular Graphs, sec. 2.2;
geodesic_correspondence_check is the BFS oracle), so no report runs a BFS.

Three shapes the audits test are read off the tensor as well, so no report
builds a complement graph or runs an isomorphism search.  Relation g is
complete multipartite iff no vertex outside an edge misses both its ends:
p_ij^g = 0 for all i, j outside {0, g}.  A connected relation of valency
2 is a polygon.  A relation whose p_gg^k is one value mu >= 1 on every
class k outside {0, g}, of which there is one at least, is connected of
diameter 2 and strongly regular with parameters (v, k_g, p_gg^g, mu), and
each of the parameter sets of C4, C5, K_{3,3} and Petersen has exactly
one graph (Brouwer-Cohen-Neumaier, sec. 1.3; Hoffman-Singleton, IBM J.
Res. Dev. 4, 1960, for Petersen).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .graph import Graph

if TYPE_CHECKING:
    from .audits import RelationContext
    from .scheme import SchemeDescriptor


@dataclass(frozen=True)
class Diagram:
    source: int
    size: int                          # d + 1 vertices
    adj: tuple[int, ...]               # bitmasks over classes, loops excluded
    levels: tuple[Optional[int], ...]  # BFS distance from 0; None unreachable
    diameter: Optional[int]            # None when some class is unreachable


def distribution_diagram(scheme: SchemeDescriptor, g: int) -> Diagram:
    if not 1 <= g <= scheme.d:
        raise ValueError(f"class {g} out of range 1..{scheme.d}")
    d = scheme.d
    pg = scheme.tensor.p[g]
    linked = pg + pg.T > 0
    np.fill_diagonal(linked, False)
    # bit k of row j is byte k // 8, bit k % 8 of the little-endian packing
    adj = [int.from_bytes(row.tobytes(), "little")
           for row in np.packbits(linked, axis=1, bitorder="little")]
    dist = Graph(d + 1, adj).distances_from(0)
    return Diagram(source=g, size=d + 1, adj=tuple(adj),
                   levels=tuple(None if lv < 0 else lv for lv in dist),
                   diameter=None if -1 in dist else max(dist))


def h_prime_connected(diagram: Diagram) -> bool:
    """Connectivity of H minus {0, g}; the empty diagram counts as
    connected."""
    return Graph(diagram.size, diagram.adj).is_connected(
        deleted=1 | 1 << diagram.source)


# -- shapes -------------------------------------------------------------

# (v, k, lambda, mu) of the four graphs the small-cut theorem names; every
# mu is positive, so a match is connected of diameter 2
_EXCEPTIONAL = {(4, 2, 0, 2): "C4", (5, 2, 0, 1): "C5",
                (6, 3, 0, 3): "K33", (10, 3, 0, 1): "petersen"}


def complete_multipartite(scheme: SchemeDescriptor, g: int) -> bool:
    """True iff relation g's graph is complete multipartite (see the module
    docstring); K_n counts, with n parts of size 1."""
    rest = [i for i in range(1, scheme.d + 1) if i != g]
    return not scheme.tensor.p[np.ix_(rest, rest, [g])].any()


def is_polygon(scheme: SchemeDescriptor, g: int) -> bool:
    """True iff relation g's graph is a cycle through all v vertices."""
    return (scheme.diagrams[g].diameter is not None
            and scheme.valencies[g] == 2)


def exceptional_graph(scheme: SchemeDescriptor, g: int) -> Optional[str]:
    """"C4", "C5", "K33" or "petersen" when relation g's graph is that
    graph (see the module docstring), else None."""
    pgg = scheme.tensor.p[g, g]
    mu = {int(pgg[k]) for k in range(1, scheme.d + 1) if k != g}
    if len(mu) != 1:
        return None
    return _EXCEPTIONAL.get((scheme.v, scheme.valencies[g], int(pgg[g]),
                             mu.pop()))


# -- geodesics ----------------------------------------------------------

def geodesic_correspondence_check(scheme: SchemeDescriptor, g: int,
                                  graph: Graph) -> tuple[bool, Optional[tuple]]:
    """d_Gamma(a,b) == level of class(a,b), for every pair.  Requires a
    connected relation graph."""
    diag = distribution_diagram(scheme, g)
    if any(lv is None for lv in diag.levels):
        return False, ("diagram", "unreachable class")
    lev = np.array([diag.levels[j] for j in range(diag.size)], dtype=np.int16)
    want = lev[scheme.classes.astype(np.int64)]
    got = graph.distance_matrix()
    if np.array_equal(got, want):
        return True, None
    bad = np.argwhere(got != want)[0]
    a, b = int(bad[0]), int(bad[1])
    return False, ((a, b), int(got[a, b]), int(want[a, b]))


def p_polynomial_generator(ctx: RelationContext) -> bool:
    """True when H_g is a path covering all classes (one class per level),
    i.e. relation g generates a metric ordering of the scheme.  The d + 1
    classes fill the diameter + 1 non-empty BFS levels, so diameter d
    leaves exactly one class on each."""
    return ctx.diagram.diameter == ctx.scheme.d
