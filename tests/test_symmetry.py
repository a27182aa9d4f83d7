"""Stabiliser generators and the orbit-reduced kappa/lambda sweeps.

The reduced sweeps are checked against the full sweeps of the shared
`flow_values` fixture on every connected catalog relation, and against
networkx on the small ones; the generators are checked independently of
validate_scheme, and mutated generators must be refused."""

from operator import getitem

import numpy as np
import pytest

from schemeconn import connectivity
from schemeconn.audits import RelationContext
from schemeconn.catalog import (BUILTIN_FAMILIES, build_family, gen_johnson,
                                load_scheme, save_scheme)
from schemeconn.cli import EXIT_INVALID, _exit_code
from schemeconn.connectivity import edge_connectivity, vertex_connectivity
from schemeconn.errors import NotAnAutomorphism
from schemeconn.graph import cycle_graph
from schemeconn.scheme import (RelationTable, symmetrized_scheme,
                               validate_scheme)

GROUP_FAMILIES = [(kind, params) for kind, params in BUILTIN_FAMILIES
                  if kind in ("johnson", "hamming", "cyclic")]


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
    reps = connectivity._orbit_representatives(list(range(s.v)),
                                               s.stabiliser, getitem)
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
        validate_scheme(s.table, name="mutant",
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
    reduced = 0
    for p in catalog_pairs:
        if not p.connected:
            continue
        ctx = RelationContext(p.scheme, p.relation)
        assert (ctx.kappa, ctx.lam) == flow_values[(p.scheme.name,
                                                    p.relation)], \
            (p.scheme.name, p.relation)
        reduced += bool(p.scheme.stabiliser)
    assert len(flow_values) == 104
    assert reduced >= 80


def test_johnson_10_4_r2_runs_one_flow_per_orbit(monkeypatch):
    calls = []
    flow = connectivity._vertex_flow

    def counted(rows, alive, s, t, limit):
        calls.append((s, t))
        return flow(rows, alive, s, t, limit)

    monkeypatch.setattr(connectivity, "_vertex_flow", counted)
    ctx = RelationContext(build_family("johnson", (10, 4)), 2)
    assert ctx.kappa == 90
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
