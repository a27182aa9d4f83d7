"""The exact C1 criterion behind the corollary audits, and the C2 and C3
verdicts derived with it, checked against per-set deletion sweeps and
against networkx.

The reference functions below run one full-graph BFS per deletion set.
`ref_c1_exhaustive` sweeps every T inside N[a] that misses part of N(a),
basepoint by basepoint; `ref_c1_pairs` sweeps, for each pair (a, b) with b
in N(a) in the audit's order, every T inside N[a] that misses b, so it
fixes the pair count the audit reports.  `ref_ball_components` builds
each ball from class rows by diagram level, independently of the graph
BFS behind the context's shared sweep of G - N[a].
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from schemeconn.audits import RelationContext, corollary_audits
from schemeconn.catalog import BUILTIN_FAMILIES, build_family
from schemeconn.connectivity import maximal_cliques
from schemeconn.graph import Graph, bits, mask_of
from schemeconn.scheme import relation_graph, symmetrized_scheme
from small_graphs import graph_context


# -- reference sweeps: one bitset BFS per deletion set -------------------

def ref_c1_exhaustive(graph):
    checked = 0
    for a in range(graph.n):
        nb = graph.neighborhood(a)
        members = list(bits(nb | (1 << a)))
        for code in range(1 << len(members)):
            t_mask = mask_of(m for i, m in enumerate(members) if code >> i & 1)
            if not nb & ~t_mask:
                continue
            checked += 1
            if not graph.is_connected(deleted=t_mask):
                return False, checked, (a, tuple(bits(t_mask)))
    return True, checked, None


def ref_c1_pairs(graph):
    """(C1 holds, pairs checked up to the first that some T cuts)."""
    checked = 0
    for a in range(graph.n):
        closed = graph.closed_neighborhood(a)
        for b in bits(graph.neighborhood(a)):
            checked += 1
            members = list(bits(closed & ~(1 << b)))
            for code in range(1 << len(members)):
                t_mask = mask_of(m for i, m in enumerate(members)
                                 if code >> i & 1)
                if not graph.is_connected(deleted=t_mask):
                    return False, checked
    return True, checked


def ref_c2(graph):
    for a in range(graph.n):
        big = sum(1 for m in graph.component_masks(deleted=graph.neighborhood(a))
                  if m.bit_count() >= 2)
        if big > 1:
            return False, {"basepoint": a, "non_singleton_components": big}
    return True, None


def ref_c3(graph, cliques):
    for cm in cliques:
        if not graph.is_connected(deleted=cm):
            return False, {"clique": list(bits(cm))}
    return True, None


def assert_witnesses_cut(graph, audit):
    """Every C1 and C3 witness disconnects the graph by networkx, and the
    C1 witness lies inside N[a] and misses part of N(a)."""
    nx = pytest.importorskip("networkx")
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n))
    nxg.add_edges_from((u, w) for u in range(graph.n)
                       for w in bits(graph.rows[u]) if u < w)
    deleted = []
    if audit.c1_witness is not None:
        a, t = audit.c1_witness["basepoint"], audit.c1_witness["deleted"]
        t_mask = mask_of(t)
        assert not t_mask & ~graph.closed_neighborhood(a)
        assert graph.neighborhood(a) & ~t_mask
        deleted.append(t)
    if audit.c3_witness is not None:
        deleted.append(audit.c3_witness["clique"])
    for t in deleted:
        rest = nxg.subgraph(x for x in range(graph.n) if x not in set(t))
        assert not nx.is_connected(rest), t


def assert_matches_reference(graph):
    """The audit against every reference; returns the audit."""
    audit = corollary_audits(graph_context(graph))
    ok, checked = ref_c1_pairs(graph)
    assert (audit.c1_ok, audit.c1_checked) == (ok, checked)
    ex_ok, _, ex_wit = ref_c1_exhaustive(graph)
    assert audit.c1_ok == ex_ok
    if not ok:
        assert audit.c1_witness["basepoint"] == ex_wit[0]
    assert (audit.c2_ok, audit.c2_witness) == ref_c2(graph)
    cliques, capped = maximal_cliques(graph)
    assert not capped
    assert (audit.c3_ok, audit.c3_witness) == ref_c3(graph, cliques)
    assert not audit.c3_capped
    assert_witnesses_cut(graph, audit)
    return audit


# -- (a) catalog relations with v <= 64 ----------------------------------

def _small_catalog_relations():
    for kind, params in BUILTIN_FAMILIES:
        s = build_family(kind, params)
        if s.v > 64:
            continue
        s = s if s.symmetric else symmetrized_scheme(s)
        for g in range(1, s.d + 1):
            graph = relation_graph(s, g)
            if graph.is_connected():
                yield s, g, graph


def test_catalog_audits_match_reference():
    seen = exhaustive = 0
    for s, g, graph in _small_catalog_relations():
        audit = corollary_audits(RelationContext(s, g))
        assert audit.c1_ok and audit.c1_checked == s.v * int(s.valencies[g])
        assert audit.c1_witness is None and audit.c3_witness is None
        if s.valencies[g] <= 12:
            assert ref_c1_exhaustive(graph)[0], (s.name, g)
            exhaustive += 1
        assert (audit.c2_ok, audit.c2_witness) == ref_c2(graph), (s.name, g)
        # the derived C3 verdict against every maximal clique
        cliques, capped = maximal_cliques(graph)
        assert not capped
        assert ref_c3(graph, cliques) == (audit.c3_ok, None), (s.name, g)
        assert not audit.c3_capped
        seen += 1
    assert seen >= 60 and exhaustive >= 40


def ref_ball_components(s, g, graph, t):
    """Components of G minus the class ball: for each basepoint a, delete
    the vertices whose class from a sits at diagram level at most t."""
    levels = RelationContext(s, g).diagram.levels
    ball = [i for i in range(s.d + 1) if 0 <= levels[i] <= t]
    out = []
    for a in range(s.v):
        row = np.isin(s.classes[a], ball)
        deleted = mask_of(int(x) for x in np.nonzero(row)[0])
        out.append(graph.component_masks(deleted=deleted))
    return tuple(out)


def test_ball_components_match_class_row_sweep():
    # without a transitive group the context sweeps every basepoint
    relations = 0
    for s, g, graph in _small_catalog_relations():
        ctx = RelationContext(replace(s, transitive=()), g)
        assert ctx.swept_components == ref_ball_components(
            s, g, graph, 1), (s.name, g)
        assert ctx.swept_components is ctx.swept_components
        relations += 1
    assert relations >= 60


# -- (b) failures on hand-built graphs -----------------------------------

def _cliques_sharing_vertex(n):
    """Two copies of K_n glued at vertex n-1 (the bowtie for n = 3)."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += [(i + n - 1, j + n - 1) for i, j in edges]
    return Graph.from_edges(2 * n - 1, edges)


def _hub_with_pendant(n):
    """Vertex 0 joined to a pendant vertex 1 and to two disjoint copies of
    K_n: deleting the hub, its open neighbourhood seen from the pendant, or
    any maximal clique through it disconnects the graph."""
    edges = [(0, x) for x in range(1, 2 * n + 2)]
    for base in (2, n + 2):
        edges += [(base + i, base + j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(2 * n + 2, edges)


def test_bowtie_exhaustive_failure():
    audit = assert_matches_reference(_cliques_sharing_vertex(3))
    # (i): the component {3, 4} of G - N[0] has no neighbour of b = 1
    assert audit.c1_checked == 1
    assert audit.c1_witness == {"basepoint": 0, "deleted": [0, 2]}
    assert audit.c2_ok and audit.c3_ok


def test_hub_with_pendant_exhaustive_failures():
    audit = assert_matches_reference(_hub_with_pendant(2))
    # (ii): G - N[0] is empty, and x = 2 is not adjacent to b = 1
    assert audit.c1_checked == 1
    assert audit.c1_witness == {"basepoint": 0, "deleted": [0, 3, 4, 5]}
    assert audit.c2_witness == {"basepoint": 1, "non_singleton_components": 2}
    assert not audit.c3_ok and 0 in audit.c3_witness["clique"]


@pytest.mark.parametrize("graph,c3_ok", [(_cliques_sharing_vertex(14), True),
                                         (_hub_with_pendant(7), False)],
                         ids=["two-K14", "hub-pendant"])
def test_large_valency_failures(graph, c3_ok):
    # valency above 12: too many subsets for the reference sweeps, so the
    # witnesses are checked as cuts instead
    audit = corollary_audits(graph_context(graph))
    assert not audit.c1_ok and audit.c1_checked == 1
    assert audit.c3_ok == c3_ok and not audit.c3_capped
    assert_witnesses_cut(graph, audit)


# -- (c) random graphs against brute force and networkx ------------------

def _random_connected_graphs(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 10)
        p = rng.uniform(0.2, 1.0)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        graph = Graph.from_edges(n, edges)
        if graph.is_connected():
            out.append(graph)
    return out


def test_quotient_verdict_matches_networkx():
    # the criterion reads only b and the contracted components of G - N[a]
    holding = failing = late = 0
    for graph in _random_connected_graphs(1500, 1702):
        audit = assert_matches_reference(graph)
        holding += audit.c1_ok
        failing += not audit.c1_ok
        late += not audit.c1_ok and audit.c1_checked > 1
    assert holding >= 150 and failing >= 800 and late >= 500


def test_c3_fallback_stops_at_clique_cap(monkeypatch):
    # maximal cliques are listed only after C1 fails, at most CLIQUE_CAP
    from schemeconn import audits
    monkeypatch.setattr(audits, "CLIQUE_CAP", 1)
    graph = _cliques_sharing_vertex(3)
    audit = corollary_audits(graph_context(graph))
    assert not audit.c1_ok and audit.c3_ok and audit.c3_capped
