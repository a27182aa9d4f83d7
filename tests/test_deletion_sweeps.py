"""The batched neighbourhood-quotient sweeps behind the corollary audits,
checked against the per-set bitset sweeps they replaced and against
networkx.

The reference functions below run one full-graph BFS per deletion set, in
the enumeration order the audits define; the quotient sweeps must report
the same verdict, the same number of C1 sets checked and the same witness.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from schemeconn import sweeps
from schemeconn.audits import RelationContext, corollary_audits
from schemeconn.catalog import BUILTIN_FAMILIES, build_family
from schemeconn.connectivity import maximal_cliques
from schemeconn.errors import CapExceeded
from schemeconn.graph import Graph, bits, mask_of
from schemeconn.scheme import relation_graph, symmetrized_scheme


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


def ref_c1_sampled(graph, v1, kappa, rng, budget=5_000_000):
    checked = 0
    if kappa <= 3:
        for a in range(graph.n):
            nb = graph.neighborhood(a)
            members = list(bits(nb | (1 << a)))
            for size in range(1, 4):
                for sub in combinations(members, size):
                    t_mask = mask_of(sub)
                    if not nb & ~t_mask:
                        continue
                    checked += 1
                    if checked > budget:
                        raise CapExceeded("size<=3 deletion sweep over budget")
                    if not graph.is_connected(deleted=t_mask):
                        return False, checked, (a, sub)
    for a in range(graph.n):
        nb = graph.neighborhood(a)
        members = list(bits(nb | (1 << a)))
        for _ in range(sweeps.C1_SAMPLES):
            while True:
                size = rng.randint(4, v1)
                sub = rng.sample(members, size)
                t_mask = mask_of(sub)
                if nb & ~t_mask:
                    break
            checked += 1
            if not graph.is_connected(deleted=t_mask):
                return False, checked, (a, tuple(sorted(sub)))
    return True, checked, None


def ref_c2(graph):
    for a in range(graph.n):
        big = sum(1 for m in graph.component_masks(deleted=graph.neighborhood(a))
                  if m.bit_count() >= 2)
        if big > 1:
            return False, (a, big)
    return True, None


def ref_c3(graph, cliques):
    for cm in cliques:
        if not graph.is_connected(deleted=cm):
            return False, tuple(bits(cm))
    return True, None


def assert_matches_reference(graph, v1, kappa=None, seed=None):
    """Exhaustive C1 when seed is None, else sampled from Random(seed)."""
    cliques, _ = maximal_cliques(graph)
    rng = None if seed is None else random.Random(seed)
    checked, c1, c2, c3 = sweeps.deletion_sweeps(graph, v1, kappa, rng, cliques)
    if seed is None:
        want_c1 = ref_c1_exhaustive(graph)
    else:
        want_c1 = ref_c1_sampled(graph, v1, kappa, random.Random(seed))
    assert (c1 is None, checked, c1) == want_c1
    assert (c2 is None, c2) == ref_c2(graph)
    assert (c3 is None, c3) == ref_c3(graph, cliques)
    return checked, c1, c2, c3


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
    seen = 0
    for s, g, graph in _small_catalog_relations():
        v1 = int(s.valencies[g])
        ctx = RelationContext(s, g)
        audit = corollary_audits(ctx)
        cliques, _ = maximal_cliques(graph)
        if audit.c1_mode == "exhaustive":
            want_c1 = ref_c1_exhaustive(graph)
        else:
            rng = random.Random(f"{audit.seed:#x}:{s.name}:{g}")
            want_c1 = ref_c1_sampled(graph, v1, ctx.kappa, rng)
        got = (audit.c1_ok, audit.c1_checked, audit.c1_witness)
        assert got == want_c1, (s.name, g)
        assert (audit.c2_ok, audit.c2_witness) == ref_c2(graph), (s.name, g)
        assert (audit.c3_ok, audit.c3_witness) == ref_c3(graph, cliques), \
            (s.name, g)
        assert audit.c3_clique_count == len(cliques)
        seen += 1
    assert seen >= 60


def test_catalog_sampled_mode_matches_reference():
    # the sampled path on every relation it can run on, not only valency > 12
    seen = 0
    for s, g, graph in _small_catalog_relations():
        v1 = int(s.valencies[g])
        if v1 < 4:
            continue
        assert_matches_reference(graph, v1, kappa=v1,
                                 seed=f"sampled:{s.name}:{g}")
        seen += 1
    assert seen >= 30


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
    checked, c1, c2, c3 = assert_matches_reference(_cliques_sharing_vertex(3), 2)
    assert c1 is not None and 2 in c1[1]
    assert c2 is None and c3 is None


def test_hub_with_pendant_exhaustive_failures():
    checked, c1, c2, c3 = assert_matches_reference(_hub_with_pendant(2), 1)
    assert c1 == (0, (0,)) and checked == 2      # the empty set, then {0}
    assert c2 == (1, 2)
    assert c3 is not None and 0 in c3


@pytest.mark.parametrize("graph", [_cliques_sharing_vertex(14),
                                   _hub_with_pendant(7)],
                         ids=["two-K14", "hub-pendant"])
def test_sampled_failures(graph):
    # kappa = 1: the size <= 3 sweep finds the cut vertex first
    checked, c1, _, _ = assert_matches_reference(graph, 12, kappa=1, seed=3)
    assert c1 is not None and len(c1[1]) == 1
    # kappa above 3 skips that sweep; the seeded sample must find a cut
    checked, c1, _, _ = assert_matches_reference(graph, 12, kappa=12, seed=3)
    assert c1 is not None and len(c1[1]) >= 4


def test_small_set_budget(monkeypatch):
    graph = _cliques_sharing_vertex(14)
    cliques, _ = maximal_cliques(graph)
    # the cut vertex 13 is the 14th size-1 set at basepoint 0
    monkeypatch.setattr(sweeps, "C1_SMALL_SET_BUDGET", 14)
    checked, c1, _, _ = sweeps.deletion_sweeps(graph, 12, 1, random.Random(0),
                                         cliques)
    assert (checked, c1) == (14, (0, (13,)))
    assert ref_c1_sampled(graph, 12, 1, random.Random(0), budget=14) \
        == (False, 14, (0, (13,)))
    monkeypatch.setattr(sweeps, "C1_SMALL_SET_BUDGET", 13)
    with pytest.raises(CapExceeded):
        sweeps.deletion_sweeps(graph, 12, 1, random.Random(0), cliques)
    with pytest.raises(CapExceeded):
        ref_c1_sampled(graph, 12, 1, random.Random(0), budget=13)


# -- (c) the quotient verdict against networkx ---------------------------

def _random_graphs():
    rng = random.Random(1702)
    for n, p in ((12, 0.3), (20, 0.15), (24, 0.4), (30, 0.1)):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        yield Graph.from_edges(n, edges)
    yield relation_graph(build_family("drg", ("petersen",)), 1)
    yield relation_graph(build_family("hamming", (4, 2)), 2)   # disconnected
    yield relation_graph(build_family("johnson", (7, 3)), 2)


def test_quotient_verdict_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    compared = 0
    for graph in _random_graphs():
        nxg = nx.Graph()
        nxg.add_nodes_from(range(graph.n))
        nxg.add_edges_from((u, w) for u in range(graph.n)
                           for w in bits(graph.rows[u]) if u < w)
        adj = graph.adjacency_matrix()
        for a in range(graph.n):
            q = sweeps.neighbourhood_quotient(graph, adj, a)
            k1 = len(q.members)
            density = [rng.random() for _ in range(40)]
            deleted = np.array([[rng.random() < p for _ in range(k1)]
                                for p in density], dtype=bool)
            cut = sweeps.cut_rows(q.adj, deleted)
            for row, got in zip(deleted, cut):
                gone = set(int(x) for x in q.members[row])
                rest = nxg.subgraph(x for x in range(graph.n) if x not in gone)
                if rest.number_of_nodes() == 0:
                    assert not got
                    continue
                assert got == (not nx.is_connected(rest)), (a, sorted(gone))
                compared += 1
    assert compared > 3000
