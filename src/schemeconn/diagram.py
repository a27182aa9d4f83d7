"""Distribution diagrams and the geometry they read off the tensor.

For a symmetric scheme and a designated class g, the diagram H_g lives on
the class indices {0..d}: distinct j and k are adjacent when p[g,j,k] +
p[g,k,j] > 0.  Levels are BFS distances from class 0.  A relation graph's
distance from a to x is the level of the class of (a, x), and its
diameter is the diagram's, None when it is disconnected
(Brouwer-Cohen-Neumaier, Distance-Regular Graphs, sec. 2.2), so no
report runs a BFS.

A relation is connected iff its diameter is not None, and complete iff
k_g = v - 1.  Vertices a and b in class i share p_gg^i of the k_g
neighbours each has, so they are twins, Gamma(a) = Gamma(b), iff p_gg^i =
k_g; no report compares neighbourhoods.

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

from .graph import Graph, bit_rows, bits

if TYPE_CHECKING:
    from .audits import RelationContext
    from .scheme import SchemeDescriptor


@dataclass(frozen=True)
class Diagram:
    source: int
    graph: Graph                   # on the d + 1 classes, loops excluded
    levels: np.ndarray             # (d+1,) int16 BFS distance from 0, -1
                                   # unreachable, read-only
    diameter: Optional[int]        # None when some class is unreachable


def distribution_diagram(scheme: SchemeDescriptor, g: int) -> Diagram:
    if not 1 <= g <= scheme.d:
        raise ValueError(f"class {g} out of range 1..{scheme.d}")
    d = scheme.d
    pg = scheme.p[g]
    linked = pg + pg.T > 0
    np.fill_diagonal(linked, False)
    graph = Graph(d + 1, bit_rows(linked))
    dist = graph.distances_from(0)
    levels = np.array(dist, dtype=np.int16)
    levels.setflags(write=False)
    return Diagram(source=g, graph=graph, levels=levels,
                   diameter=None if -1 in dist else max(dist))


def punctured_components(diagram: Diagram) -> tuple[tuple[int, ...], ...]:
    """The components of H minus {0, g}, as ascending classes, by least
    class."""
    return tuple(tuple(bits(m)) for m in diagram.graph.component_masks(
        deleted=1 | 1 << diagram.source))


# -- shapes -------------------------------------------------------------

# (v, k, lambda, mu) of the four graphs the small-cut theorem names; every
# mu is positive, so a match is connected of diameter 2
_EXCEPTIONAL = {(4, 2, 0, 2): "C4", (5, 2, 0, 1): "C5",
                (6, 3, 0, 3): "K33", (10, 3, 0, 1): "petersen"}


def complete_multipartite(scheme: SchemeDescriptor, g: int) -> bool:
    """True iff relation g's graph is complete multipartite (see the module
    docstring); K_n counts, with n parts of size 1."""
    rest = [i for i in range(1, scheme.d + 1) if i != g]
    return not scheme.p[np.ix_(rest, rest, [g])].any()


def twin_classes(scheme: SchemeDescriptor, g: int) -> tuple[int, ...]:
    """The classes i outside {0, g} with p_gg^i = k_g, whose pairs are the
    twins of relation g's graph (see the module docstring)."""
    pgg, k = scheme.p[g, g], scheme.valencies[g]
    return tuple(i for i in range(1, scheme.d + 1) if i != g and pgg[i] == k)


def is_polygon(scheme: SchemeDescriptor, g: int) -> bool:
    """True iff relation g's graph is a cycle through all v vertices."""
    return (scheme.diagrams[g].diameter is not None
            and scheme.valencies[g] == 2)


def exceptional_graph(scheme: SchemeDescriptor, g: int) -> Optional[str]:
    """"C4", "C5", "K33" or "petersen" when relation g's graph is that
    graph (see the module docstring), else None."""
    pgg = scheme.p[g, g]
    mu = {int(pgg[k]) for k in range(1, scheme.d + 1) if k != g}
    if len(mu) != 1:
        return None
    return _EXCEPTIONAL.get((scheme.v, scheme.valencies[g], int(pgg[g]),
                             mu.pop()))


def p_polynomial_generator(ctx: RelationContext) -> bool:
    """True when H_g is a path covering all classes (one class per level),
    i.e. relation g generates a metric ordering of the scheme.  The d + 1
    classes fill the diameter + 1 non-empty BFS levels, so diameter d
    leaves exactly one class on each."""
    return ctx.diagram.diameter == ctx.scheme.d
