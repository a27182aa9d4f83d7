"""Distribution diagrams and the geometry they read off the tensor.

For a symmetric scheme and a designated class g, the diagram H_g lives on
the class indices {0..d}: j and k are adjacent when p[g,j,k] + p[g,k,j] > 0
(loops tracked separately and ignored by BFS).  Levels are BFS distances
from class 0, and a connected relation graph's distances equal the levels
of the classes (geodesic_correspondence_check).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .graph import Graph, bits
from .scheme import SchemeDescriptor

if TYPE_CHECKING:
    from .audits import RelationContext


@dataclass(frozen=True)
class Diagram:
    source: int
    size: int                          # d + 1 vertices
    adj: tuple[int, ...]               # bitmasks over classes, loops excluded
    loops: int                         # bitmask of classes with p[g,j,j] > 0
    levels: tuple[Optional[int], ...]  # BFS distance from 0; None unreachable
    level_sets: tuple[tuple[int, ...], ...]
    diameter: Optional[int]            # None when some class is unreachable

    def neighbors(self, j: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[j]))


def distribution_diagram(scheme: SchemeDescriptor, g: int) -> Diagram:
    if not 1 <= g <= scheme.d:
        raise ValueError(f"class {g} out of range 1..{scheme.d}")
    d = scheme.d
    p = scheme.tensor.p
    adj = [0] * (d + 1)
    loops = 0
    for j in range(d + 1):
        if p[g, j, j] > 0:
            loops |= 1 << j
        for k in range(j + 1, d + 1):
            if p[g, j, k] + p[g, k, j] > 0:
                adj[j] |= 1 << k
                adj[k] |= 1 << j
    dist = Graph(d + 1, adj).distances_from(0)
    top = max(dist)
    sets = tuple(tuple(j for j in range(d + 1) if dist[j] == lv)
                 for lv in range(top + 1))
    return Diagram(source=g, size=d + 1, adj=tuple(adj), loops=loops,
                   levels=tuple(None if lv < 0 else lv for lv in dist),
                   level_sets=sets, diameter=None if -1 in dist else top)


def h_prime_connected(diagram: Diagram) -> bool:
    """Connectivity of H minus {0, g}; the empty diagram counts as
    connected."""
    return Graph(diagram.size, diagram.adj).is_connected(
        deleted=1 | 1 << diagram.source)


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
    i.e. relation g generates a metric ordering of the scheme."""
    diag = ctx.diagram
    if diag.diameter is None:
        return False
    return (diag.diameter == ctx.scheme.d
            and all(len(s) == 1 for s in diag.level_sets))
