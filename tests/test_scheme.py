"""Validation, symmetrization, and relation graphs, checked against
brute-force triple counting."""

import numpy as np
import pytest

from schemeconn import scheme as scheme_module
from schemeconn.catalog import (build_family, cyclic_group_table, gen_cyclic,
                                symmetric3_table)
from schemeconn.errors import (IdentityClassRequested, NonConstantIntersection,
                               NotAPartition, NotClosedUnderTranspose,
                               NotCommutative, NotSymmetric, SizeCap)
from schemeconn.diagram import complete_multipartite
from schemeconn.scheme import (SIZE_CAP, RelationTable, relation_graph,
                               symmetrized_scheme, validate_scheme)
from small_graphs import builtin_catalog, has_edge


def brute_intersection(classes, i, j, k):
    """p_ij^k counted literally over all witnesses of class k."""
    v = len(classes)
    counts = set()
    for a in range(v):
        for b in range(v):
            if classes[a][b] != k:
                continue
            n = sum(1 for c in range(v)
                    if classes[a][c] == i and classes[c][b] == j)
            counts.add(n)
    assert len(counts) == 1, f"p[{i},{j}]^{k} not constant: {counts}"
    return counts.pop()


def thin_scheme_classes(mul):
    """classes[a][b] = a * b^{-1}; singleton classes, one per group element."""
    n = len(mul)
    inv = [0] * n
    for a in range(n):
        for b in range(n):
            if mul[a][b] == 0:
                inv[a] = b
    return [[mul[a][inv[b]] for b in range(n)] for a in range(n)]


def test_pentagon_triple_count_oracle():
    s = gen_cyclic(5)
    assert s.v == 5 and s.d == 2
    assert s.valencies == (1, 2, 2)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert int(s.p[i, j, k]) == brute_intersection(s.classes, i, j, k)


def test_petersen_triple_count_oracle():
    s = build_family("drg", ("petersen",))
    assert s.v == 10 and s.d == 2
    assert s.valencies == (1, 3, 6)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert int(s.p[i, j, k]) == brute_intersection(s.classes, i, j, k)


def test_row_sum_identity():
    # sum_j p[i][j][k] = v_i exactly, all i, k
    for s in (gen_cyclic(7), build_family("hamming", (3, 2)),
              build_family("johnson", (5, 2))):
        p = s.p
        for i in range(s.d + 1):
            for k in range(s.d + 1):
                assert int(p[i, :, k].sum()) == s.valencies[i]


def test_symmetric_counting_identity():
    # v_k p_ij^k = v_i p_kj^i for symmetric schemes
    for s in (build_family("hamming", (4, 2)), build_family("johnson", (6, 2))):
        val = s.valencies
        for i in range(s.d + 1):
            for j in range(s.d + 1):
                for k in range(s.d + 1):
                    assert val[k] * int(s.p[i, j, k]) == val[i] * int(s.p[k, j, i])


def test_identity_diagonal_required():
    c = [[0, 1], [1, 0]]
    c[0][0] = 1
    with pytest.raises(NotAPartition):
        RelationTable.from_classes(c)


def test_offdiagonal_identity_rejected():
    c = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    with pytest.raises(NotAPartition):
        RelationTable.from_classes(c)


def test_empty_class_rejected():
    c = [[0, 2], [2, 0]]
    with pytest.raises(NotAPartition, match="class 1 is empty"):
        RelationTable.from_classes(c)
    # a huge label is found missing without a (d+1)-sized count
    with pytest.raises(NotAPartition, match="class 1 is empty"):
        RelationTable.from_classes([[0, 2**62], [2**62, 0]])
    # every label 0..3 present: the fault is the diagonal, not a class
    with pytest.raises(NotAPartition, match=r"classes\[1\]\[1\] = 3, expected 0"):
        RelationTable.from_classes([[0, 1], [2, 3]])


def test_transpose_closure_rejected():
    # class 1 maps to both 1 and 2 under transpose
    c = [[0, 1, 2], [2, 0, 1], [1, 1, 0]]
    with pytest.raises(NotClosedUnderTranspose):
        RelationTable.from_classes(c)


def test_size_cap():
    with pytest.raises(SizeCap):
        RelationTable.from_classes(np.zeros((5000, 5000), dtype=np.int64))
    # validate_scheme counts in float32, exact only below 2**24
    assert SIZE_CAP < 2**24


def test_perturbed_pentagon_rejected():
    c = np.array(gen_cyclic(5).classes, dtype=np.int64)
    c[1, 3], c[3, 1] = 1, 1   # was class 2; breaks constancy, not transpose
    with pytest.raises(NonConstantIntersection):
        validate_scheme(RelationTable.from_classes(c))


def test_path_distance_table_rejected():
    # P_4 distances: symmetric, identity fine, but not a scheme
    c = [[abs(i - j) for j in range(4)] for i in range(4)]
    with pytest.raises(NonConstantIntersection):
        validate_scheme(RelationTable.from_classes(c))


def test_thin_s3_not_commutative():
    classes = thin_scheme_classes(symmetric3_table())
    with pytest.raises(NotCommutative):
        validate_scheme(RelationTable.from_classes(classes))


def test_symmetrize_z5_gives_pentagon():
    table = RelationTable.from_classes(thin_scheme_classes(cyclic_group_table(5)))
    assert table.d == 4 and not table.symmetric
    merged = symmetrized_scheme(validate_scheme(table))
    assert merged.symmetric and merged.d == 2
    assert np.array_equal(merged.classes, gen_cyclic(5).classes)


def test_symmetrize_z7_gives_heptagon():
    table = RelationTable.from_classes(thin_scheme_classes(cyclic_group_table(7)))
    assert table.d == 6
    merged = symmetrized_scheme(validate_scheme(table))
    assert merged.d == 3
    assert np.array_equal(merged.classes, gen_cyclic(7).classes)


def test_symmetrize_idempotent():
    table = RelationTable.from_classes(thin_scheme_classes(cyclic_group_table(5)))
    once = symmetrized_scheme(validate_scheme(table))
    twice = symmetrized_scheme(once)
    assert twice is once


def test_symmetrized_scheme_validates_once(monkeypatch):
    s = build_family("conjugacy", ("Z7",))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return validate_scheme(*args, **kwargs)
    monkeypatch.setattr(scheme_module, "validate_scheme", counting)
    merged = symmetrized_scheme(s)
    assert len(calls) == 1
    assert merged.symmetric and merged.d == 3
    assert np.array_equal(merged.classes, gen_cyclic(7).classes)


def test_relation_graph_pentagon():
    g = relation_graph(gen_cyclic(5), 1)
    assert g.is_connected()
    assert g.degrees() == [2] * 5


def test_relation_graph_petersen_distance2():
    s = build_family("drg", ("petersen",))
    g = relation_graph(s, 2)
    assert g.n == 10
    assert g.degrees() == [6] * 10


def test_relation_graph_rooks():
    s = build_family("hamming", (2, 3))
    g = relation_graph(s, 1)
    assert g.n == 9
    assert g.degrees() == [4] * 9


def test_relation_graph_regularity_catalog_slice():
    for fam in (("cyclic", (8,)), ("hamming", (3, 2)), ("johnson", (6, 3))):
        s = build_family(*fam)
        assert sum(s.valencies[1:]) == s.v - 1
        for i in range(1, s.d + 1):
            g = relation_graph(s, i)
            assert set(g.degrees()) == {s.valencies[i]}


def test_relation_graph_rows_match_per_bit_loop(catalog_schemes):
    # the packed rows against one bit set per neighbour, every relation
    seen = 0
    for s in catalog_schemes:
        for i in range(1, s.d + 1):
            rows = []
            for x in range(s.v):
                m = 0
                for y in np.nonzero(s.classes[x] == i)[0]:
                    m |= 1 << int(y)
                rows.append(m)
            assert relation_graph(s, i).rows == tuple(rows), (s.name, i)
            seen += 1
    assert seen >= 140


def test_relation_graph_requires_symmetric():
    table = RelationTable.from_classes(thin_scheme_classes(cyclic_group_table(5)))
    desc = validate_scheme(table)
    with pytest.raises(NotSymmetric):
        relation_graph(desc, 1)
    assert symmetrized_scheme(desc).symmetric


def test_relation_graph_identity_class():
    with pytest.raises(IdentityClassRequested):
        relation_graph(gen_cyclic(5), 0)


def brute_multipartite(graph):
    # non-adjacency-or-equality must be transitive
    verts = range(graph.n)
    for x in verts:
        for y in verts:
            for z in verts:
                if x != y and not has_edge(graph, x, y) \
                        and y != z and not has_edge(graph, y, z):
                    if x != z and has_edge(graph, x, z):
                        return False
    return True


def test_complete_multipartite_small_cases():
    # K33, C4 = K22 and K3 are; C5, Petersen, 3K2 and C6 are not
    assert complete_multipartite(build_family("drg", ("k33",)), 1)
    assert complete_multipartite(gen_cyclic(4), 1)
    assert complete_multipartite(gen_cyclic(3), 1)
    assert not complete_multipartite(gen_cyclic(5), 1)
    assert not complete_multipartite(build_family("drg", ("petersen",)), 1)
    assert not complete_multipartite(gen_cyclic(6), 3)
    assert not complete_multipartite(gen_cyclic(6), 1)


def test_complete_multipartite_matches_brute_force():
    seen = 0
    for s in builtin_catalog():
        if s.v > 64 or not s.symmetric:
            continue
        for i in range(1, s.d + 1):
            want = brute_multipartite(relation_graph(s, i))
            assert complete_multipartite(s, i) == want, (s.name, i)
            seen += 1
    assert seen >= 20
