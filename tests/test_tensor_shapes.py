"""The shapes, connectivity, completeness and twins read off the
intersection tensor, and the paper's headline theorem, on every relation
of the catalog and of fusion schemes.

A fusion merges blocks of two or more classes of a scheme into one class
each; the partitions that validate_scheme accepts are schemes with
relations that no catalog member has.  networkx is the oracle of the
three shape reads, the graph's own BFS and row grouping that of the
other reads, and plain numpy component searches that of the theorem."""

import numpy as np
import pytest

from schemeconn import audits
from schemeconn.catalog import build_family
from schemeconn.diagram import (complete_multipartite, exceptional_graph,
                                is_polygon, twin_classes)
from schemeconn.errors import HypothesisNotMet
from schemeconn.report import analyze_relation
from schemeconn.scheme import relation_graph
from small_graphs import (fused, fusions, is_complete, networkx_graph,
                          twins)

nx = pytest.importorskip("networkx")

FUSED_FAMILIES = ([("cyclic", (n,)) for n in range(8, 13)]
                  + [("hamming", (4, 2)), ("johnson", (8, 4))])


@pytest.fixture(scope="module")
def fusion_schemes():
    out = [f for kind, params in FUSED_FAMILIES
           for f in fusions(build_family(kind, params))]
    # seven of them merge every class, into K_v
    assert len(out) == 21
    # relation 1 is C_5[2K_1], x and x + 5 twins, with a one-class
    # component {2} in its punctured diagram
    out.append(fused(build_family("cyclic", (10,)), [(1, 4), (2, 3), (5,)]))
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


def test_connectivity_completeness_and_twins_read_match_the_graph(
        relations):
    """connected, complete, the twin classes, the report's twin-pair count
    and theorem 1's first twin pair against the graph's BFS, its rows and
    its row grouping."""
    with_twins = first_pairs = 0
    for s, g, _ in relations:
        ctx = audits.RelationContext(s, g)
        graph = ctx.graph
        assert ctx.connected == graph.is_connected(), (s.name, g)
        assert ctx.complete == is_complete(graph), (s.name, g)
        oracle = twins(graph)
        assert set(twin_classes(s, g)) == {
            int(s.classes[a, b]) for a, b in oracle.pairs}, (s.name, g)
        rep = analyze_relation(s, g)
        assert (rep["connected"], rep["complete"], rep["twin_pairs"]) == (
            ctx.connected, ctx.complete, len(oracle.pairs)), (s.name, g)
        with_twins += bool(oracle.pairs)
        try:
            t1 = audits.theorem1_audit(ctx)
        except HypothesisNotMet:
            continue
        want = oracle.pairs[0] if oracle.pairs else None
        assert t1.first_twin_pair == want, (s.name, g)
        first_pairs += want is not None
    assert len(relations) >= 190 and with_twins >= 37 and first_pairs >= 7


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
    of a, which G - N(a) leaves isolated.  Where the punctured diagram is
    disconnected, the report's U classes are the classes that component
    meets at basepoint 0, and W is empty."""
    relations = basepoints = decomposed = 0
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
                if a == 0:
                    met = tuple(np.unique(s.classes[0][outside][got]).tolist())
            ctx = audits.RelationContext(s, g)
            if ctx.h_prime_connected:
                continue
            dec = audits.iuw_decompose(ctx)
            assert (dec.u_classes, dec.w_classes) == (met, ()), (s.name, g)
            decomposed += 1
    assert relations >= 120 and basepoints >= 7000 and decomposed >= 12
