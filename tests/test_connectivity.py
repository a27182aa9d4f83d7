"""Max-flow connectivity against brute-force oracles, twins, min cuts,
clique machinery, and the connectivity fields of a report."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from schemeconn import connectivity
from schemeconn.audits import RelationContext
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming
from schemeconn.connectivity import (MinCutData, edge_connectivity,
                                     enumerate_min_cuts, k211_free,
                                     maximal_cliques, vertex_connectivity)
from schemeconn.errors import CapExceeded, Disconnected
from schemeconn.graph import Graph, bits, complete_bipartite, mask_of, petersen
from schemeconn.report import AnalysisConfig, analyze_relation
from schemeconn.scheme import RelationTable, relation_graph, validate_scheme
from small_graphs import (builtin_catalog, circulant, complete_graph,
                          cycle_graph, graph_context, has_edge,
                          induced_subgraph, twins)


def brute_kappa(graph):
    """Minimum vertex deletion that disconnects; n-1 for complete graphs."""
    n = graph.n
    verts = range(n)
    for size in range(n - 1):
        for sub in itertools.combinations(verts, size):
            if not graph.is_connected(deleted=mask_of(sub)):
                return size
    return n - 1


def brute_lambda(graph):
    """Global min cut by vertex bipartition; equals edge connectivity."""
    n = graph.n
    verts = range(n)
    best = None
    for r in range(1, n // 2 + 1):
        for side in itertools.combinations(verts, r):
            m = mask_of(side)
            cross = sum((graph.rows[v] & ~m).bit_count() for v in side)
            if best is None or cross < best:
                best = cross
    return best


def ref_min_cuts(graph, kappa):
    """enumerate_min_cuts as one bitset BFS per subset: the reference for
    the batched BFS."""
    if kappa >= graph.n - 1:
        return MinCutData(cuts=(), neighborhood_flags=())
    nbhds = set(graph.rows)
    cuts = []
    flags = []
    for subset in itertools.combinations(range(graph.n), kappa):
        m = mask_of(subset)
        if not graph.is_connected(deleted=m):
            cuts.append(subset)
            flags.append(m in nbhds)
    return MinCutData(cuts=tuple(cuts), neighborhood_flags=tuple(flags))


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


def _rotation(n):
    return tuple((x + 1) % n for x in range(n))


def _reflection(n):
    return tuple(-x % n for x in range(n))


def test_generators_are_checked_before_early_returns():
    k4 = complete_graph(4)
    for connectivity_of in (vertex_connectivity, edge_connectivity):
        with pytest.raises(ValueError, match="maps the source 0 to 1"):
            connectivity_of(k4, [(1, 0, 2, 3)])
    with pytest.raises(ValueError, match="maps the source 0 to 1"):
        vertex_connectivity(Graph.from_edges(1, []), [(1,)])


def test_theorems_decide_polygons_without_flows(flow_calls):
    for n in range(4, 13):
        gens = {"stabiliser": [_reflection(n)],
                "transitive": [_rotation(n), _reflection(n)]}
        assert graph_context(cycle_graph(n), **gens).kappa == 2
        # relation 1 of the cyclic scheme is the polygon
        ctx = RelationContext(gen_cyclic(n), 1)
        assert ctx.graph.rows == cycle_graph(n).rows
        assert (ctx.kappa, ctx.lam) == (2, 2)
    assert flow_calls == {"vertex": [], "edge": []}
    for n in range(4, 13):
        assert edge_connectivity(cycle_graph(n), [_reflection(n)]) == 2


@pytest.mark.parametrize("n", range(7, 13))
def test_split_neighbourhood_keeps_flows_on_circulants(n, flow_calls):
    """C_n(1, 2) with its rotation and reflection: N(0) = {+-1, +-2} is two
    orbits of the reflection, so kappa runs flows; they give the valency,
    so the context reads lambda off Whitney's chain."""
    g = circulant(n, (1, 2))
    ctx = graph_context(g, [_reflection(n)], [_rotation(n), _reflection(n)])
    assert ctx.kappa == brute_kappa(g)
    assert flow_calls["vertex"]
    assert edge_connectivity(g, [_reflection(n)]) == brute_lambda(g)
    flow_calls["edge"].clear()
    assert ctx.kappa == ctx.lam == brute_lambda(g) == 4
    assert not flow_calls["edge"]


def test_split_neighbourhood_keeps_flows_on_lexicographic_product(
        flow_calls):
    """C_5[K_2] as Cay(Z_10, {+-1, +-4, 5}): x stands for (x mod 5, x mod 2)
    and x + 5 is its twin.  Stab(0) is generated by the reflection and the
    twin swaps of the other fibres; N(0) splits into the twin 5 and
    {1, 4, 6, 9}, and kappa = 4 is below the valency 5, so the context
    runs edge flows for lambda."""
    g = circulant(10, (1, 4, 5))
    swaps = [tuple((x + 5) % 10 if x % 5 == i else x for x in range(10))
             for i in range(1, 5)]
    stabiliser = [_reflection(10)] + swaps
    ctx = graph_context(g, stabiliser, [_rotation(10), _reflection(10)])
    assert ctx.kappa == brute_kappa(g) == 4
    assert flow_calls["vertex"]
    assert edge_connectivity(g, stabiliser) == brute_lambda(g) == 5
    flow_calls["edge"].clear()
    assert (ctx.kappa, ctx.lam) == (4, 5)
    assert flow_calls["edge"]


def test_lam_runs_edge_flows_below_the_valency(flow_calls):
    """No catalog relation has kappa below its valency, so set J(6,2) r1's
    cached kappa to 7: lam must then sweep one edge flow per orbit of the
    stabiliser (the neighbours and the non-neighbours of 0) and return the
    flow value, 8."""
    ctx = RelationContext(build_family("johnson", (6, 2)), 1)
    ctx.kappa = 7
    assert ctx.lam == brute_lambda(ctx.graph) == 8
    assert len(flow_calls["edge"]) == 2


def test_shrikhande_scheme_non_neighbours_keep_flows(flow_calls):
    """Cay(Z_4^2, {+-(0,1), +-(1,0), +-(1,1)}) and its complement, with the
    translations as the transitive group and, as Stab(0), the order-6 map
    (a, b) -> (a - b, a) and the swap (a, b) -> (b, a).  They are
    transitive on the 6 neighbours of 0 but split its 9 non-neighbours."""
    pts = [(a, b) for a in range(4) for b in range(4)]
    conn = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}

    def perm(f):
        return tuple(4 * (f(a, b)[0] % 4) + f(a, b)[1] % 4 for a, b in pts)

    classes = np.array([[0 if x == y else
                         1 if ((y[0] - x[0]) % 4, (y[1] - x[1]) % 4) in conn
                         else 2 for y in pts] for x in pts])
    scheme = validate_scheme(
        RelationTable.from_classes(classes), name="shrikhande",
        stabiliser=(perm(lambda a, b: (a - b, a)),
                    perm(lambda a, b: (b, a))),
        transitive=(perm(lambda a, b: (a + 1, b)),
                    perm(lambda a, b: (a, b + 1))))
    ctx = RelationContext(scheme, 1)
    assert (ctx.kappa, ctx.lam) == (6, 6)
    assert flow_calls == {"vertex": [], "edge": []}
    ctx = RelationContext(scheme, 2)
    assert ctx.kappa == brute_kappa(ctx.graph)
    assert flow_calls["vertex"]
    assert ctx.lam == brute_lambda(ctx.graph) == 9
    assert not flow_calls["edge"]


def test_flow_matches_networkx_digraphs():
    """The shared Dinic on random digraphs with antiparallel arcs, induced
    on a random subset of their states and relabelled, at limits below, at
    and above the true value, against networkx with unit capacities."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    for trial in range(1000):
        n = rng.randint(2, 10)
        p = rng.uniform(0.15, 0.7)
        full = [sum(1 << w for w in range(n) if w != v and rng.random() < p)
                for v in range(n)]
        keep = [v for v in range(n) if rng.random() < 0.85]
        if len(keep) < 2:
            continue
        rows = [sum(1 << i for i, w in enumerate(keep) if full[v] >> w & 1)
                for v in keep]
        s, t = rng.sample(range(len(keep)), 2)
        d = nx.DiGraph()
        d.add_nodes_from(range(len(keep)))
        d.add_edges_from((v, w) for v, row in enumerate(rows)
                         for w in bits(row))
        nx.set_edge_attributes(d, 1, "capacity")
        true = nx.maximum_flow_value(d, s, t)
        for limit in {max(true - 1, 0), true, true + 1, n}:
            assert connectivity._edge_flow(rows, s, t, limit) == \
                min(limit, true), (trial, rows, s, t, limit)


def test_local_vertex_connectivity_matches_networkx():
    """_vertex_flow on every non-adjacent pair of random graphs, induced on
    a random subset of their vertices and relabelled, against networkx."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity
    rng = random.Random(612)
    pairs = 0
    for trial in range(200):
        n = rng.randint(3, 12)
        p = rng.uniform(0.2, 0.8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        keep = [v for v in range(n) if rng.random() < 0.8]
        g, sub = induced_subgraph(n, edges, keep)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(sub)
        for s, t in itertools.combinations(range(g.n), 2):
            if has_edge(g, s, t):
                continue
            pairs += 1
            assert connectivity._vertex_flow(g.rows, s, t, g.n) == \
                local_node_connectivity(h, s, t), (trial, sub, s, t)
    assert pairs > 1000


def test_vertex_connectivity_edge_cases():
    assert vertex_connectivity(Graph(1, [0])) == 0
    with pytest.raises(Disconnected):
        vertex_connectivity(Graph(4, [2, 1, 8, 4]))
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(0, []))


def test_deleted_vertices_respected():
    # C6 minus vertex 3, relabelled, is the path P5: kappa = lambda = 1
    c6 = [(i, (i + 1) % 6) for i in range(6)]
    punct = induced_subgraph(6, c6, [0, 1, 2, 4, 5])[0]
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


def test_lex_subset_batches_match_combinations():
    for n in range(0, 9):
        for k in range(0, n + 1):
            want = list(itertools.combinations(range(n), k))
            for size in (1, 3, 7, 1000):
                got = [tuple(int(x) for x in row) for batch in
                       connectivity._lex_subset_batches(n, k, size)
                       for row in batch]
                assert got == want, (n, k, size)
    batch = next(connectivity._lex_subset_batches(4096, 1, 5000))
    assert batch[:, 0].tolist() == list(range(4096))


@pytest.fixture
def enumerations(monkeypatch):
    """The arguments of every _lex_subset_batches call: empty while the
    minimum cuts were found without trying the subsets."""
    calls = []
    real = connectivity._lex_subset_batches

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(connectivity, "_lex_subset_batches", spy)
    return calls


def test_min_cuts_match_reference_on_catalog(catalog_pairs, enumerations):
    """Every connected, non-complete catalog relation whose enumeration
    the reports run, with the scheme's generators and without, against
    one BFS per subset; the Johnson members span many batches.  No subset
    is tried on polygons, nor, with the generators, on the twin-free
    relations regular of degree kappa: every one of them is decided by
    the flows or the closed form."""
    budget = AnalysisConfig().cut_enum_budget
    checked = decided = polygons = 0
    for p in catalog_pairs:
        if not p.connected or p.graph.is_complete():
            continue
        kappa = vertex_connectivity(p.graph, p.scheme.stabiliser)
        if math.comb(p.scheme.v, kappa) > budget:
            continue
        want = ref_min_cuts(p.graph, kappa)
        rows = p.graph.rows
        regular = all(row.bit_count() == kappa for row in rows)
        polygon = regular and kappa == 2
        flows = (bool(p.scheme.transitive) and regular
                 and len(set(rows)) == len(rows))
        for generators, fast in (({}, polygon),
                                 ({"stabiliser": p.scheme.stabiliser,
                                   "transitive": p.scheme.transitive},
                                  polygon or flows)):
            enumerations.clear()
            assert enumerate_min_cuts(p.graph, kappa, budget,
                                      **generators) == want, \
                (p.scheme.name, p.relation, generators)
            assert bool(enumerations) != fast, \
                (p.scheme.name, p.relation, generators)
        checked += 1
        decided += flows
        polygons += polygon
    assert (checked, decided, polygons) == (46, 39, 27)


@pytest.mark.parametrize("kind,params,relation", [
    ("johnson", (7, 2), 1), ("hamming", (2, 5), 1)])
def test_min_cuts_over_budget_match_networkx(enumerations, kind, params,
                                            relation):
    """Relations the reports leave over budget, decided by the flows with
    the budget raised to their C(v, kappa), against Kanevsky's
    all_node_cuts (about 20 s and 5 s; on J(8,2) relation 2 it takes over
    ten minutes, so that one is left out)."""
    nx = pytest.importorskip("networkx")
    scheme = build_family(kind, params)
    g = relation_graph(scheme, relation)
    kappa = vertex_connectivity(g, scheme.stabiliser)
    total = math.comb(g.n, kappa)
    assert total > AnalysisConfig().cut_enum_budget
    data = enumerate_min_cuts(g, kappa, total, stabiliser=scheme.stabiliser,
                              transitive=scheme.transitive)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, w) for u in range(g.n)
                     for w in bits(g.neighborhood(u)) if u < w)
    want = sorted(tuple(sorted(c)) for c in nx.all_node_cuts(h))
    assert data.cuts == tuple(want) and not enumerations
    assert data.all_neighborhoods and len(want) == g.n


def _automorphism(g, p):
    return all(has_edge(g, p[u], p[w]) for u in range(g.n)
               for w in bits(g.rows[u]))


def test_min_cuts_kappa_above_connectivity(enumerations):
    """C_6[K_2] (vertex 2i + a is (i, a); (i, a) ~ (j, b) when i = j or
    i ~ j in C_6) is vertex-transitive, 5-regular and twin-free, with
    connectivity 4.  Asked for its 5-cuts with its rotation, reflection
    and swap, it has a flow of 4, so the subsets are enumerated."""
    g = Graph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)]
                         + [(2 * i + a, 2 * ((i + 1) % 6) + b)
                            for i in range(6) for a in (0, 1)
                            for b in (0, 1)])
    rotation = [(v + 2) % 12 for v in range(12)]
    reflection = [-(v // 2) % 6 * 2 + v % 2 for v in range(12)]
    swap = [v ^ 1 for v in range(12)]
    assert all(_automorphism(g, p) for p in (rotation, reflection, swap))
    assert twins(g).pairs == () and set(g.degrees()) == {5}
    assert vertex_connectivity(g) == 4
    data = enumerate_min_cuts(g, 5, stabiliser=(reflection,),
                              transitive=(rotation, swap))
    assert data == ref_min_cuts(g, 5) and enumerations
    assert not data.all_neighborhoods


def test_min_cuts_circulants(enumerations):
    """Every twin-free circulant of Z_5 .. Z_12 of valency k, 2 <= k <
    n - 1, connected or not, asked for its k-cuts with the rotation and
    the reflection.  No subset is tried exactly on the polygons and on
    the graphs of connectivity k whose k-cuts are all neighbourhoods, so
    the flows decide every such graph; the others, such as C_10(1, 2)
    with its 4-cut {0, 1, 5, 6}, are enumerated."""
    checked = decided = 0
    for n in range(5, 13):
        rotation = [(v + 1) % n for v in range(n)]
        reflection = [-v % n for v in range(n)]
        for r in range(1, n // 2 + 1):
            for steps in itertools.combinations(range(1, n // 2 + 1), r):
                g = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n)
                                         for d in steps])
                k = g.degree(0)
                if not 2 <= k < n - 1 or twins(g).pairs:
                    continue
                want = ref_min_cuts(g, k)
                polygon = k == 2 and g.is_connected()
                exact = (g.is_connected() and brute_kappa(g) == k
                         and want.all_neighborhoods)
                enumerations.clear()
                assert enumerate_min_cuts(
                    g, k, stabiliser=(reflection,),
                    transitive=(rotation,)) == want, (n, steps)
                assert bool(enumerations) != (exact or polygon), (n, steps)
                checked += 1
                decided += exact and not polygon
    assert (checked, decided) == (141, 68)


def test_min_cuts_flow_count(monkeypatch):
    """The flows cost one per t outside N[0] | N[s2] for one s2 per
    orbit: on J(6,3) relation 1, whose stabiliser of 0 is transitive on
    the 9 neighbours, 20 - (9 + 9 - 4 common) = 6."""
    calls = []
    real = connectivity._dinic
    monkeypatch.setattr(connectivity, "_dinic",
                        lambda *args: calls.append(args) or real(*args))
    scheme = build_family("johnson", (6, 3))
    g = relation_graph(scheme, 1)
    data = enumerate_min_cuts(g, 9, stabiliser=scheme.stabiliser,
                              transitive=scheme.transitive)
    assert len(data.cuts) == 20 and data.all_neighborhoods
    assert len(calls) == 6


def test_min_cuts_polygons(enumerations):
    """C_n's 2-cuts are its n(n-3)/2 non-adjacent pairs, listed without
    trying the subsets; all of them are neighbourhoods only on C_4 and
    C_5."""
    for n in range(4, 41):
        g = cycle_graph(n)
        assert enumerate_min_cuts(g, 2) == ref_min_cuts(g, 2), n
    data = enumerate_min_cuts(cycle_graph(400), 2)
    assert len(data.cuts) == 79_400 == 400 * 397 // 2
    assert sum(data.neighborhood_flags) == 400
    assert not enumerations


def test_min_cuts_match_reference_random():
    """Random graphs induced on a random subset of their vertices and
    relabelled, connected or not, at every subset size, against one BFS
    per subset."""
    rng = random.Random(909)
    disconnected = 0
    for trial in range(600):
        n = rng.randint(1, 12)
        p = rng.uniform(0.1, 0.8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        keep = [v for v in range(n) if rng.random() < 0.85]
        g = induced_subgraph(n, edges, keep)[0]
        if not g.is_connected() and g.n >= 2:
            disconnected += 1
            assert enumerate_min_cuts(g, 0).cuts == ((),)
        for kappa in range(g.n + 1):
            assert enumerate_min_cuts(g, kappa) == ref_min_cuts(g, kappa), \
                (trial, g.rows, kappa)
    assert disconnected > 50


def test_min_cuts_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in (petersen(), cycle_graph(7), complete_bipartite(3, 3),
              relation_graph(build_family("hamming", (2, 3)), 1)):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from((u, w) for u in range(g.n)
                         for w in bits(g.neighborhood(u)) if u < w)
        want = {frozenset(c) for c in nx.all_node_cuts(h)}
        data = enumerate_min_cuts(g, vertex_connectivity(g))
        assert {frozenset(c) for c in data.cuts} == want
        nbhds = {frozenset(h[v]) for v in h}
        assert data.neighborhood_flags == tuple(frozenset(c) in nbhds
                                                for c in data.cuts)


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
                if all(has_edge(g, u, w) for u, w in itertools.combinations(sub, 2)):
                    if all(any(not has_edge(g, x, u) for u in sub)
                           for x in verts if not m >> x & 1):
                        want.add(m)
        assert set(masks) == want


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
    for s in builtin_catalog():
        if s.v > 64 or not s.symmetric:
            continue
        for i in range(1, s.d + 1):
            ctx = RelationContext(s, i)
            if not ctx.connected:
                continue
            assert ctx.kappa <= ctx.lam <= s.valencies[i]
