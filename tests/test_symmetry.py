"""Stabiliser and transitive generators, the orbit-reduced kappa/lambda
sweeps, and the theorems that decide kappa and lambda without them.

The reduced sweeps and the theorems are checked against the full sweeps
of the shared `flow_values` fixture on every connected catalog relation,
and against networkx on the small ones; the generators are checked
independently of validate_scheme, and mutated generators must be
refused.  The orbit search is checked against a per-item union-find."""

import random
from operator import getitem

import numpy as np
import pytest

from schemeconn import connectivity
from schemeconn.audits import RelationContext
from schemeconn.catalog import (BUILTIN_FAMILIES, build_family, gen_cyclic,
                                gen_johnson, load_scheme, save_scheme)
from schemeconn.cli import EXIT_INVALID, _exit_code
from schemeconn.connectivity import edge_connectivity, vertex_connectivity
from schemeconn.errors import NotAnAutomorphism
from schemeconn.graph import bits
from schemeconn.scheme import (RelationTable, relation_graph,
                               symmetrized_scheme, validate_scheme)
from small_graphs import cycle_graph, has_edge

GROUP_FAMILIES = [(kind, params) for kind, params in BUILTIN_FAMILIES
                  if kind in ("johnson", "hamming", "cyclic")]
TRANSITIVE_FAMILIES = [(kind, params) for kind, params in BUILTIN_FAMILIES
                       if kind != "drg"]


def ref_orbit_representatives(items: list, automorphisms, image) -> list:
    """The first item of each orbit of the group generated by automorphisms
    on items, in items order, by per-item union-find; image(p, item) is p's
    image of item and must be in items again."""
    index = {item: i for i, item in enumerate(items)}
    parent = list(range(len(items)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in automorphisms:
        for i, item in enumerate(items):
            j = index.get(image(p, item))
            if j is None:
                raise ValueError(f"automorphism moves {item!r} out of the "
                                 f"swept set")
            a, b = root(i), root(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [item for i, item in enumerate(items) if parent[i] == i]


def _pair_image(p, pair):
    u, w = p[pair[0]], p[pair[1]]
    return (u, w) if u < w else (w, u)


def orbit_representatives(items: list, automorphisms) -> list:
    """connectivity._orbit_representatives on a list of vertices or of
    ascending pairs, mapped back to the items."""
    reps = connectivity._orbit_representatives(items, automorphisms)
    return [items[i] for i in reps]


def _sweep_items(graph):
    """The targets and neighbour pairs vertex_connectivity sweeps from 0."""
    targets = [t for t in range(graph.n)
               if not graph.closed_neighborhood(0) >> t & 1]
    nbrs = list(bits(graph.neighborhood(0)))
    pairs = [(u, w) for i, u in enumerate(nbrs) for w in nbrs[i + 1:]
             if not has_edge(graph, u, w)]
    return targets, pairs


@pytest.mark.parametrize("kind,params", GROUP_FAMILIES,
                         ids=[f"{k}-{'-'.join(map(str, p))}"
                              for k, p in GROUP_FAMILIES])
def test_generators_fix_zero_and_preserve_classes(kind, params):
    s = build_family(kind, params)
    c = np.asarray(s.classes)
    for gen in s.stabiliser:
        perm = np.asarray(gen)
        assert perm[0] == 0
        assert sorted(gen) == list(range(s.v))
        assert np.array_equal(c[perm][:, perm], c)
    # the generated group's orbits on X are exactly the classes seen from 0
    # (by intersection size, weight, or circular distance), so no generator
    # of the stated stabiliser is missing
    reps = ref_orbit_representatives(list(range(s.v)), s.stabiliser, getitem)
    first = [int(np.nonzero(c[0] == i)[0][0]) for i in range(s.d + 1)]
    assert reps == sorted(first)


def _mutants(gen):
    swapped = list(gen)
    swapped[1], swapped[-1] = swapped[-1], swapped[1]
    moves_zero = list(gen)
    moves_zero[0], moves_zero[1] = moves_zero[1], moves_zero[0]
    not_perm = list(gen)
    not_perm[2] = not_perm[1]
    return {"swapped": swapped, "moves-zero": moves_zero,
            "not-a-permutation": not_perm}


@pytest.mark.parametrize("mutation", ["swapped", "moves-zero",
                                      "not-a-permutation"])
def test_mutated_generator_rejected(mutation):
    s = gen_johnson(6, 2)
    bad = _mutants(s.stabiliser[0])[mutation]
    with pytest.raises(NotAnAutomorphism) as info:
        validate_scheme(s, name="mutant",
                        stabiliser=s.stabiliser + (tuple(bad),))
    assert info.value.index == len(s.stabiliser)
    assert _exit_code(info.value) == EXIT_INVALID
    if mutation == "swapped":
        (a, b), (pa, pb) = info.value.witness
        assert s.classes[a, b] != s.classes[pa, pb]
        assert (bad[a], bad[b]) == (pa, pb)


def test_symmetrized_scheme_keeps_generators():
    # Paley tournament scheme on Z_7: classes 0, a - b a nonzero square,
    # a - b a non-square; x -> 2x fixes 0 and preserves both
    squares = {1, 2, 4}
    x = np.arange(7)
    diff = (x[:, None] - x[None, :]) % 7
    classes = np.where(diff == 0, 0, np.where(np.isin(diff, list(squares)),
                                              1, 2))
    double = tuple(int(y) for y in (2 * x) % 7)
    s = validate_scheme(RelationTable.from_classes(classes), name="paley-7",
                        stabiliser=(double,))
    assert not s.symmetric
    sym = symmetrized_scheme(s)
    assert sym.symmetric and sym.d == 1
    assert sym.stabiliser == (double,)


def test_file_and_group_schemes_carry_no_generators(tmp_path):
    for kind, params in [("conjugacy", ("Q8",)), ("drg", ("petersen",))]:
        assert build_family(kind, params).stabiliser == ()
    path = tmp_path / "j62.json"
    save_scheme(gen_johnson(6, 2), path)
    assert load_scheme(path).stabiliser == ()


def test_reduced_sweeps_match_full_sweeps(catalog_pairs, flow_values):
    """The orbit-reduced sweeps, given the stabiliser alone (so no theorem
    applies), against the unreduced ones."""
    reduced = 0
    for p in catalog_pairs:
        if not p.connected:
            continue
        stabiliser = p.scheme.stabiliser
        assert (vertex_connectivity(p.graph, stabiliser),
                edge_connectivity(p.graph, stabiliser)) == \
            flow_values[(p.scheme.name, p.relation)], \
            (p.scheme.name, p.relation)
        reduced += bool(stabiliser)
    assert len(flow_values) == 104
    assert reduced >= 80


# the connected catalog relations Watkins' theorem does not decide: N(0)
# splits (the conjugacy members carry no stabiliser) or there is no
# transitive group (drg); their flows still give kappa = valency, so
# Whitney's chain decides lambda on every relation
KAPPA_BY_FLOWS = {("conj-S3", 2), ("conj-Z5", 1), ("conj-Z5", 2),
                  ("conj-Z7", 1), ("conj-Z7", 2), ("conj-Z7", 3),
                  ("drg-petersen", 1), ("drg-petersen", 2), ("drg-k33", 1)}
LAMBDA_BY_FLOWS = set()


def test_theorems_decide_transitive_relations(catalog_pairs, flow_values,
                                              flow_calls):
    """RelationContext.kappa and .lam against the unreduced sweeps, with
    no flow wherever Watkins' theorem (kappa) or Whitney's chain (lambda)
    applies."""
    kappa_flows, lambda_flows = set(), set()
    for p in catalog_pairs:
        if not p.connected:
            continue
        key = (p.scheme.name, p.relation)
        flow_calls["vertex"].clear()
        flow_calls["edge"].clear()
        ctx = RelationContext(p.scheme, p.relation)
        assert (ctx.kappa, ctx.lam) == flow_values[key], key
        if flow_calls["vertex"]:
            kappa_flows.add(key)
        if flow_calls["edge"]:
            lambda_flows.add(key)
    assert kappa_flows == KAPPA_BY_FLOWS
    assert lambda_flows == LAMBDA_BY_FLOWS
    assert len(flow_values) - len(kappa_flows) == 95
    assert len(flow_values) - len(lambda_flows) == 104


def test_johnson_10_4_r2_runs_one_flow_per_orbit(flow_calls):
    s = build_family("johnson", (10, 4))
    assert vertex_connectivity(relation_graph(s, 2), s.stabiliser) == 90
    calls = flow_calls["vertex"]
    # 3 target orbits (classes 1, 3, 4 from vertex 0) plus 5 orbits of
    # non-adjacent pairs inside the neighbourhood of vertex 0
    assert len(calls) == 8
    assert sum(1 for s, _ in calls if s == 0) == 3


def test_automorphism_must_fix_source():
    pentagon = cycle_graph(5)
    rotation = (1, 2, 3, 4, 0)
    reflection = (0, 4, 3, 2, 1)
    assert vertex_connectivity(pentagon, [reflection]) == 2
    assert edge_connectivity(pentagon, [reflection]) == 2
    with pytest.raises(ValueError):
        vertex_connectivity(pentagon, [reflection, rotation])
    with pytest.raises(ValueError):
        edge_connectivity(pentagon, [rotation])


def test_networkx_agrees_on_small_relations(catalog_pairs, flow_values):
    nx = pytest.importorskip("networkx")
    checked = 0
    for p in catalog_pairs:
        if not p.connected or p.scheme.v > 64:
            continue
        g = nx.from_numpy_array(
            (np.asarray(p.scheme.classes) == p.relation).astype(np.int8))
        want = (nx.node_connectivity(g), nx.edge_connectivity(g))
        ctx = RelationContext(p.scheme, p.relation)
        assert flow_values[(p.scheme.name, p.relation)] == want, \
            (p.scheme.name, p.relation)
        assert (ctx.kappa, ctx.lam) == want, (p.scheme.name, p.relation)
        checked += 1
    assert checked >= 60


def test_orbit_representatives_match_union_find_on_catalog(catalog_pairs):
    swept = 0
    for p in catalog_pairs:
        targets, pairs = _sweep_items(p.graph)
        for gens in (p.scheme.stabiliser, ()):
            assert orbit_representatives(targets, gens) == \
                ref_orbit_representatives(targets, gens, getitem), \
                (p.scheme.name, p.relation)
            assert orbit_representatives(pairs, gens) == \
                ref_orbit_representatives(pairs, gens, _pair_image), \
                (p.scheme.name, p.relation)
        swept += bool(p.scheme.stabiliser)
        every = list(range(p.scheme.v))
        assert orbit_representatives(every, p.scheme.transitive) == (
            [0] if p.scheme.transitive else every)
    assert swept >= 80


def test_orbit_representatives_match_union_find_on_random_groups():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 40)
        gens = []
        for _ in range(rng.randint(0, 3)):
            perm = list(range(n))
            if rng.random() < 0.5:      # a product of a few short cycles
                for _ in range(rng.randint(1, 3)):
                    pts = rng.sample(range(n), min(n, rng.randint(2, 5)))
                    cycle = list(range(n))
                    for a, b in zip(pts, pts[1:] + pts[:1]):
                        cycle[a] = b
                    perm = [cycle[x] for x in perm]
            else:
                rng.shuffle(perm)
            gens.append(tuple(perm))
        every = list(range(n))
        assert orbit_representatives(every, gens) == \
            ref_orbit_representatives(every, gens, getitem)
        pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
        assert orbit_representatives(pairs, gens) == \
            ref_orbit_representatives(pairs, gens, _pair_image)


def test_orbit_representatives_match_union_find_with_numpy_generators():
    """Generators held as numpy integer arrays, as a caller may pass
    them, on every vertex and on every ascending pair."""
    rng = np.random.default_rng(29)
    for v in (1, 2, 7, 16, 33):
        # each generator permutes within the blocks of a random partition,
        # so there are several orbits, some smaller than their blocks
        blocks = np.array_split(rng.permutation(v), v // 4 + 1)
        gens = []
        for _ in range(rng.integers(1, 4)):
            perm = np.arange(v)
            for block in blocks:
                perm[block] = rng.permutation(block)
            gens.append(perm)
        every = list(range(v))
        pairs = [(u, w) for u in range(v) for w in range(u + 1, v)]
        assert orbit_representatives(every, gens) == \
            ref_orbit_representatives(every, gens, getitem)
        assert orbit_representatives(pairs, gens) == \
            ref_orbit_representatives(pairs, gens, _pair_image)


def test_orbit_representatives_refuse_images_outside_the_items():
    rotation = (1, 2, 3, 4, 0)
    with pytest.raises(ValueError, match="out of the swept set"):
        orbit_representatives([0, 2, 3], [rotation])
    with pytest.raises(ValueError, match="out of the swept set"):
        orbit_representatives([(0, 2), (1, 3)], [rotation])
    # every vertex of the image pair (0, 2) is swept, but not the pair
    with pytest.raises(ValueError, match=r"moves \(0, 1\) out"):
        orbit_representatives([(0, 1), (2, 3)], [(0, 2, 1, 3)])


@pytest.mark.parametrize("kind,params", TRANSITIVE_FAMILIES,
                         ids=[f"{k}-{'-'.join(map(str, p))}"
                              for k, p in TRANSITIVE_FAMILIES])
def test_transitive_generators_preserve_classes_and_reach_every_vertex(
        kind, params):
    s = build_family(kind, params)
    c = np.asarray(s.classes)
    assert s.transitive
    for gen in s.transitive:
        perm = np.asarray(gen)
        assert sorted(gen) == list(range(s.v))
        assert np.array_equal(c[perm][:, perm], c)
    orbit, frontier = {0}, [0]
    while frontier:
        frontier = [y for y in {gen[x] for x in frontier
                                for gen in s.transitive} if y not in orbit]
        orbit.update(frontier)
    assert orbit == set(range(s.v))
    if not s.symmetric:
        assert symmetrized_scheme(s).transitive == s.transitive


def test_drg_and_file_schemes_carry_no_transitive_group(tmp_path):
    for name in ("petersen", "k33"):
        assert build_family("drg", (name,)).transitive == ()
    path = tmp_path / "j62.json"
    save_scheme(gen_johnson(6, 2), path)
    assert load_scheme(path).transitive == ()


def test_transitive_generator_moving_a_class_is_refused():
    s = gen_johnson(6, 2)
    bad = list(s.transitive[0])
    bad[1], bad[-1] = bad[-1], bad[1]
    with pytest.raises(NotAnAutomorphism) as info:
        validate_scheme(s, name="mutant",
                        transitive=s.transitive + (tuple(bad),))
    assert info.value.index == len(s.transitive)
    assert "transitive generator" in str(info.value)
    assert _exit_code(info.value) == EXIT_INVALID
    (a, b), (pa, pb) = info.value.witness
    assert s.classes[a, b] != s.classes[pa, pb]
    assert (bad[a], bad[b]) == (pa, pb)


def test_short_transitive_generator_is_refused():
    s = gen_johnson(6, 2)
    short = s.transitive[0][:-1]
    with pytest.raises(NotAnAutomorphism) as info:
        validate_scheme(s, name="short",
                        transitive=s.transitive + (short,))
    assert info.value.index == len(s.transitive)
    assert f"not a sequence of {s.v}" in str(info.value)
    assert _exit_code(info.value) == EXIT_INVALID


@pytest.mark.parametrize("family", [lambda: gen_johnson(6, 2),
                                    lambda: gen_cyclic(7)],
                         ids=["johnson-6-2", "cyclic-7"])
def test_intransitive_generators_are_refused(family):
    # the stabiliser of 0 preserves every class, but its orbit of 0 is {0}
    s = family()
    with pytest.raises(NotAnAutomorphism) as info:
        validate_scheme(s, name="stabiliser-only",
                        transitive=s.stabiliser)
    assert info.value.index is None
    assert info.value.witness == 1
    assert "not transitive: the orbit of 0 misses 1" in str(info.value)
    assert _exit_code(info.value) == EXIT_INVALID
