"""Max-flow connectivity against brute-force oracles, twins, min cuts,
clique machinery, and the connectivity fields of a report."""

import itertools
import random
from fractions import Fraction

import pytest

from schemeconn.audits import RelationContext
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming
from schemeconn.connectivity import (edge_connectivity, enumerate_min_cuts,
                                     is_isomorphic, k211_free,
                                     local_vertex_connectivity,
                                     maximal_cliques, twins,
                                     vertex_connectivity)
from schemeconn.errors import CapExceeded, Disconnected
from schemeconn.graph import (Graph, bits, complete_bipartite, complete_graph,
                              cycle_graph, mask_of, petersen)
from schemeconn.report import analyze_relation
from schemeconn.scheme import relation_graph


def brute_kappa(graph):
    """Minimum vertex deletion that disconnects; n-1 for complete graphs."""
    verts = list(graph.vertices())
    n = len(verts)
    for size in range(n - 1):
        for sub in itertools.combinations(verts, size):
            if not graph.is_connected(deleted=mask_of(sub)):
                return size
    return n - 1


def brute_lambda(graph):
    """Global min cut by vertex bipartition; equals edge connectivity."""
    verts = list(graph.vertices())
    n = len(verts)
    best = None
    for r in range(1, n // 2 + 1):
        for side in itertools.combinations(verts, r):
            m = mask_of(side)
            cross = sum((graph.rows[v] & graph.alive & ~m).bit_count()
                        for v in side)
            if best is None or cross < best:
                best = cross
    return best


def random_connected_graph(rng, n, p):
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


def test_flow_matches_brute_force_random():
    rng = random.Random(1405)
    for trial in range(60):
        n = rng.randint(4, 9)
        p = rng.uniform(0.25, 0.85)
        g = random_connected_graph(rng, n, p)
        assert vertex_connectivity(g) == brute_kappa(g), (trial, g.rows)
        assert edge_connectivity(g) == brute_lambda(g), (trial, g.rows)


def test_flow_named_graphs():
    assert vertex_connectivity(cycle_graph(5)) == 2
    assert edge_connectivity(cycle_graph(5)) == 2
    assert vertex_connectivity(petersen()) == 3
    assert edge_connectivity(petersen()) == 3
    assert vertex_connectivity(complete_bipartite(3, 3)) == 3
    assert vertex_connectivity(complete_bipartite(2, 5)) == 2
    assert vertex_connectivity(complete_graph(6)) == 5
    assert edge_connectivity(complete_graph(6)) == 5


def test_flow_catalog_relations():
    cube = relation_graph(gen_hamming(4, 2), 1)
    assert vertex_connectivity(cube) == 4
    assert edge_connectivity(cube) == 4
    rook = relation_graph(build_family("hamming", (2, 3)), 1)
    assert vertex_connectivity(rook) == 4
    j = relation_graph(build_family("johnson", (6, 2)), 1)
    assert vertex_connectivity(j) == 8 == edge_connectivity(j)


def test_local_vertex_connectivity():
    g = cycle_graph(5)
    assert local_vertex_connectivity(g, 0, 2) == 2
    p = petersen()
    for t in bits(p.alive & ~p.rows[0] & ~1):
        assert local_vertex_connectivity(p, 0, t) == 3
    with pytest.raises(ValueError):
        local_vertex_connectivity(g, 0, 1)   # adjacent
    with pytest.raises(ValueError):
        local_vertex_connectivity(g, 3, 3)


def test_vertex_connectivity_edge_cases():
    assert vertex_connectivity(Graph(1, [0])) == 0
    with pytest.raises(Disconnected):
        vertex_connectivity(Graph(4, [2, 1, 8, 4]))
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(3, [0, 0, 0], alive=0))


def test_deleted_vertices_respected():
    # C6 minus one vertex is a path: kappa = 1
    g = cycle_graph(6)
    punct = Graph(6, g.rows, alive=g.alive & ~(1 << 3))
    assert vertex_connectivity(punct) == 1
    assert edge_connectivity(punct) == 1


def test_twins_k33():
    td = twins(complete_bipartite(3, 3))
    assert len(td.pairs) == 6
    assert sorted(len(c) for c in td.classes) == [3, 3]


def test_twins_h42_antipodal():
    g = relation_graph(gen_hamming(4, 2), 2)
    td = twins(g)
    assert len(td.pairs) == 8
    assert all(x ^ y == 0b1111 for x, y in td.pairs)


def test_twins_none():
    assert twins(petersen()).pairs == ()
    assert twins(cycle_graph(5)).pairs == ()
    td = twins(cycle_graph(4))
    assert len(td.pairs) == 2


def test_min_cuts_c5():
    g = cycle_graph(5)
    assert vertex_connectivity(g) == 2
    data = enumerate_min_cuts(g, 2)
    assert len(data.cuts) == 5
    assert data.all_neighborhoods


def test_min_cuts_petersen():
    g = petersen()
    assert vertex_connectivity(g) == 3
    data = enumerate_min_cuts(g, 3)
    assert len(data.cuts) == 10
    assert data.all_neighborhoods
    nbhds = {tuple(bits(petersen().rows[v])) for v in range(10)}
    assert set(data.cuts) == nbhds


def test_min_cuts_k33():
    g = complete_bipartite(3, 3)
    assert vertex_connectivity(g) == 3
    data = enumerate_min_cuts(g, 3)
    assert set(data.cuts) == {(0, 1, 2), (3, 4, 5)}
    assert data.all_neighborhoods


def test_min_cuts_non_neighborhood():
    # path-of-cliques: the middle vertex is a cut vertex but not a
    # neighborhood of anything
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert vertex_connectivity(g) == 1
    data = enumerate_min_cuts(g, 1)
    assert data.cuts == ((2,),)
    assert not data.all_neighborhoods


def test_min_cuts_complete():
    g = complete_graph(5)
    assert vertex_connectivity(g) == 4
    assert enumerate_min_cuts(g, 4).cuts == ()


def test_min_cuts_budget():
    g = relation_graph(build_family("johnson", (8, 2)), 1)
    with pytest.raises(CapExceeded):
        enumerate_min_cuts(g, vertex_connectivity(g), budget=1000)


def test_k211_free():
    ok, wit = k211_free(relation_graph(gen_hamming(2, 3), 1))
    assert ok and wit is None
    assert k211_free(petersen())[0]
    assert k211_free(cycle_graph(5))[0]
    k211 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    ok, wit = k211_free(k211)
    assert not ok and wit is not None


def test_maximal_cliques():
    masks, capped = maximal_cliques(petersen())
    assert len(masks) == 15 and not capped        # edges of a triangle-free graph
    masks, _ = maximal_cliques(relation_graph(gen_hamming(2, 3), 1))
    assert len(masks) == 6                        # three rows + three columns
    assert all(m.bit_count() == 3 for m in masks)
    masks, _ = maximal_cliques(complete_graph(5))
    assert masks == [(1 << 5) - 1]
    masks, capped = maximal_cliques(complete_bipartite(3, 3), cap=4)
    assert capped and len(masks) == 4


def test_maximal_cliques_oracle_random():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(4, 8)
        g = random_connected_graph(rng, n, rng.uniform(0.3, 0.8))
        masks, capped = maximal_cliques(g)
        assert not capped
        # oracle: all maximal cliques by subset sweep
        want = set()
        verts = list(range(n))
        for r in range(1, n + 1):
            for sub in itertools.combinations(verts, r):
                m = mask_of(sub)
                if all(g.has_edge(u, w) for u, w in itertools.combinations(sub, 2)):
                    if all(any(not g.has_edge(x, u) for u in sub)
                           for x in verts if not m >> x & 1):
                        want.add(m)
        assert set(masks) == want


def test_is_isomorphic():
    relabeled = Graph.from_edges(5, [(3, 1), (1, 4), (4, 0), (0, 2), (2, 3)])
    assert is_isomorphic(cycle_graph(5), relabeled)
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                 (5, 3), (0, 3), (1, 4), (2, 5)])
    assert not is_isomorphic(prism, complete_bipartite(3, 3))
    assert not is_isomorphic(cycle_graph(5), cycle_graph(6))
    kneser = petersen()
    drg = relation_graph(build_family("drg", ("petersen",)), 1)
    assert is_isomorphic(kneser, drg)


def test_cut_report_pentagon():
    rep = analyze_relation(gen_cyclic(5), 1)
    assert rep["kappa"] == 2 and rep["lambda"] == 2 and rep["valency"] == 2
    assert rep["whitney_ok"] and not rep["complete"]
    bound = Fraction(rep["godsil_bound_num"], rep["godsil_bound_den"])
    assert bound == Fraction(10, 8)
    assert rep["godsil_ok"]
    assert rep["min_cut_count"] == 5 and rep["min_cuts_are_neighborhoods"]


def test_cut_report_petersen():
    rep = analyze_relation(build_family("drg", ("petersen",)), 1)
    bound = Fraction(rep["godsil_bound_num"], rep["godsil_bound_den"])
    assert bound == Fraction(5, 3)
    assert rep["lambda"] == 3 and rep["godsil_ok"]
    assert rep["min_cut_count"] == 10 and rep["min_cuts_are_neighborhoods"]


def test_cut_report_complete():
    g = complete_graph(4)
    assert g.is_complete()
    kappa, lam = vertex_connectivity(g), edge_connectivity(g)
    assert kappa == 3 and lam == 3
    assert kappa <= lam <= 3
    assert enumerate_min_cuts(g, kappa).cuts == ()


def test_whitney_chain_catalog_slice():
    from schemeconn.catalog import builtin_catalog
    for s in builtin_catalog():
        if s.v > 64 or not s.symmetric:
            continue
        for i in range(1, s.d + 1):
            ctx = RelationContext(s, i)
            if not ctx.connected:
                continue
            assert ctx.kappa <= ctx.lam <= s.valencies[i]
