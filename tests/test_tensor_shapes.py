"""The shapes read off the intersection tensor, and the paper's headline
theorem, on every relation of the catalog and of fusion schemes.

A fusion merges one block of two or more classes of a scheme into one
class; the partitions that validate_scheme accepts are schemes with
relations that no catalog member has.  networkx is the oracle of the
three tensor reads, and plain numpy component searches that of the
theorem."""

from itertools import combinations

import numpy as np
import pytest

from schemeconn.catalog import build_family
from schemeconn.diagram import (complete_multipartite, exceptional_graph,
                                is_polygon)
from schemeconn.errors import SchemeError
from schemeconn.scheme import RelationTable, relation_graph, validate_scheme
from small_graphs import networkx_graph

nx = pytest.importorskip("networkx")

FUSED_FAMILIES = ([("cyclic", (n,)) for n in range(8, 13)]
                  + [("hamming", (4, 2)), ("johnson", (8, 4))])


def fusions(scheme) -> list:
    """Every scheme obtained by merging one block of two or more of
    scheme's classes into one."""
    out = []
    for size in range(2, scheme.d + 1):
        for block in combinations(range(1, scheme.d + 1), size):
            label = np.arange(scheme.d + 1)
            label[list(block)] = block[0]
            # renumber the surviving labels 0..d' in order
            label = np.unique(label, return_inverse=True)[1]
            name = f"{scheme.name}-fused-" + "-".join(map(str, block))
            try:
                out.append(validate_scheme(
                    RelationTable.from_classes(label[scheme.classes]), name))
            except SchemeError:
                pass
    return out


@pytest.fixture(scope="module")
def fusion_schemes():
    out = [f for kind, params in FUSED_FAMILIES
           for f in fusions(build_family(kind, params))]
    # seven of them merge every class, into K_v
    assert len(out) == 21
    return out


@pytest.fixture(scope="module")
def relations(catalog_schemes, fusion_schemes):
    """(scheme, g, networkx graph) for every relation of every catalog
    member, symmetrized, and of every fusion."""
    return [(s, g, networkx_graph(relation_graph(s, g)))
            for s in catalog_schemes + fusion_schemes
            for g in range(1, s.d + 1)]


def test_complete_multipartite_read_matches_networkx(relations):
    # complete multipartite iff the complement is a union of cliques
    seen = set()
    for s, g, graph in relations:
        comp = nx.complement(graph)
        want = all(comp.subgraph(part).number_of_edges()
                   == len(part) * (len(part) - 1) // 2
                   for part in nx.connected_components(comp))
        assert complete_multipartite(s, g) == want, (s.name, g)
        seen.add(want)
    assert len(relations) >= 180 and seen == {True, False}


def test_polygon_read_matches_networkx(relations):
    polygons = 0
    for s, g, graph in relations:
        # networkx's cycle_graph(2) is a single edge
        want = s.v >= 3 and nx.is_isomorphic(graph, nx.cycle_graph(s.v))
        assert is_polygon(s, g) == want, (s.name, g)
        polygons += want
    assert polygons >= 10


def test_exceptional_read_matches_networkx(relations):
    refs = {"C4": nx.cycle_graph(4), "C5": nx.cycle_graph(5),
            "K33": nx.complete_bipartite_graph(3, 3),
            "petersen": nx.petersen_graph()}
    named = set()
    diameter2 = 0
    for s, g, graph in relations:
        if not (nx.is_connected(graph) and nx.diameter(graph) == 2):
            assert exceptional_graph(s, g) is None, (s.name, g)
            continue
        diameter2 += 1
        want = next((name for name, ref in refs.items()
                     if nx.is_isomorphic(graph, ref)), None)
        assert exceptional_graph(s, g) == want, (s.name, g)
        named.add(want)
    assert named == set(refs) | {None}
    assert diameter2 >= 40


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """The vertex masks of the components of the graph with boolean
    adjacency matrix adj."""
    left = np.ones(len(adj), dtype=bool)
    out = []
    while left.any():
        comp = np.zeros(len(adj), dtype=bool)
        comp[np.argmax(left)] = True
        while True:
            grown = comp | adj[comp].any(axis=0)
            if (grown == comp).all():
                break
            comp = grown
        out.append(comp)
        left &= ~comp
    return out


def test_deleting_a_closed_neighbourhood_leaves_one_component(
        catalog_schemes, fusion_schemes):
    """At every basepoint a of every connected relation, G - N[a] has at
    most one component of two or more vertices, and its vertices are
    those outside N[a] whose neighbourhood is not N(a); the rest are twins
    of a, which G - N(a) leaves isolated."""
    relations = basepoints = 0
    for s in catalog_schemes + fusion_schemes:
        for g in range(1, s.d + 1):
            adj = s.classes == g
            if len(_components(adj)) > 1:
                continue
            relations += 1
            for a in range(s.v):
                outside = ~adj[a]
                outside[a] = False
                sub = adj[np.ix_(outside, outside)]
                big = [c for c in _components(sub) if c.sum() >= 2]
                assert len(big) <= 1, (s.name, g, a)
                non_twins = (adj[outside] != adj[a]).any(axis=1)
                got = big[0] if big else np.zeros_like(non_twins)
                assert np.array_equal(got, non_twins), (s.name, g, a)
                basepoints += 1
    assert relations >= 120 and basepoints >= 7000
