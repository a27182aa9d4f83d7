"""Validation, symmetrization, and relation graphs, checked against
brute-force triple counting."""

import random
from dataclasses import fields

import numpy as np
import pytest

from schemeconn import scheme as scheme_module
from schemeconn.catalog import (build_family, cyclic_group_table, gen_cyclic,
                                symmetric3_table)
from schemeconn.errors import (IdentityClassRequested, NonConstantIntersection,
                               NotAPartition, NotClosedUnderTranspose,
                               NotCommutative, NotSymmetric, SizeCap)
from schemeconn.diagram import complete_multipartite
from schemeconn.scheme import (SIZE_CAP, RelationTable, SchemeDescriptor,
                               relation_graph, symmetrized_scheme,
                               validate_scheme)
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


def table_fields(table: RelationTable) -> list:
    return [(f.name, x.dtype.str, x.shape, x.tobytes())
            if isinstance(x, np.ndarray) else (f.name, x)
            for f in fields(table) for x in [getattr(table, f.name)]]


def test_uint8_classes_give_the_int64_table():
    """The file reader hands one-digit matrices over as uint8: each
    ingest scheme and switched copy, and a non-symmetric scheme, gives the
    same table field for field, dtypes included, as from int64."""
    from test_ingest_digests import SCHEMES, two_switch
    tables = [thin_scheme_classes(cyclic_group_table(5))]
    for kind, params in SCHEMES:
        c = np.asarray(build_family(kind, params).classes, dtype=np.int64)
        tables += [c, two_switch(c, random.Random(1))]
    for c in tables:
        narrow = RelationTable.from_classes(np.asarray(c, dtype=np.uint8))
        assert narrow.classes.dtype == np.int32
        assert table_fields(narrow) == table_fields(
            RelationTable.from_classes(np.asarray(c, dtype=np.int64)))


@pytest.mark.parametrize("c", [
    [[0, 1, 1], [1, 0, 1]],                     # not square
    [[0, 2], [2, 0]],                           # class 1 empty
    [[0, 1], [2, 3]],                           # diagonal not 0
    [[0, 0, 1], [0, 0, 1], [1, 1, 0]],          # class 0 off the diagonal
    [[0, 1, 2], [2, 0, 1], [1, 1, 0]],          # transpose not a function
], ids=["non-square", "empty-class", "diagonal", "off-diagonal-0",
        "transpose"])
def test_uint8_classes_are_refused_as_int64(c):
    """Each refusal of a uint8 matrix has the int64 one's type and
    message."""
    refusals = []
    for dtype in (np.uint8, np.int64):
        with pytest.raises((NotAPartition, NotClosedUnderTranspose)) as exc:
            RelationTable.from_classes(np.array(c, dtype=dtype))
        refusals.append((type(exc.value), str(exc.value)))
    assert refusals[0] == refusals[1]


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


def test_symmetrized_scheme_never_validates(monkeypatch):
    # the merged classes of a commutative scheme form a scheme (see the
    # scheme module docstring), so no product runs
    s = build_family("conjugacy", ("Z7",))
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper
    for name in ("validate_scheme", "_packed_products"):
        monkeypatch.setattr(scheme_module, name,
                            counting(name, getattr(scheme_module, name)))
    merged = symmetrized_scheme(s)
    assert calls == []
    assert merged.symmetric and merged.d == 3
    assert np.array_equal(merged.classes, gen_cyclic(7).classes)


def cyclotomic_scheme(p: int, e: int):
    """The index-e cyclotomic scheme on Z_p, validated: (a, b) is in class
    1 + (ind(b - a) mod e) for the discrete logarithm ind to the least
    primitive root g.  Multiplication by g^e fixes 0 and preserves every
    class, and x -> x + 1 carries 0 everywhere.  For e = 2 and
    p = 3 mod 4 this is the quadratic-residue tournament, which
    symmetrizes to K_p; for e = 4 and p = 5 mod 8 the transpose of class
    i is i + 2, and it symmetrizes to the Paley scheme."""
    g = next(g for g in range(2, p)
             if len({pow(g, t, p) for t in range(p - 1)}) == p - 1)
    ind = np.zeros(p, dtype=np.int64)
    for t in range(p - 1):
        ind[pow(g, t, p)] = t % e + 1
    x = np.arange(p)
    times = tuple(int(y) for y in x * pow(g, e, p) % p)
    shift = tuple(int(y) for y in (x + 1) % p)
    return validate_scheme(
        RelationTable.from_classes(ind[(x[None, :] - x[:, None]) % p]),
        name=f"cyclotomic-{p}-{e}", stabiliser=(times,), transitive=(shift,))


def merged_by_transpose(s) -> RelationTable:
    """s's classes with each merged with its transpose, the merged classes
    numbered in the order of their least members."""
    tm = s.transpose_map
    least = sorted({min(i, tm[i]) for i in range(s.d + 1)})
    label = np.array([least.index(min(i, tm[i])) for i in range(s.d + 1)])
    return RelationTable.from_classes(label[s.classes])


def test_symmetrized_scheme_matches_validated_merged_table():
    """symmetrized_scheme reads the merged tensor without a product; the
    full validation of the merged table must give every field it gives,
    on every non-symmetric scheme the tests build: the thin schemes of
    Z_3 .. Z_30, conj-Z5 and conj-Z7, and cyclotomic schemes whose
    classes merge in pairs other than i, i + 1."""
    schemes = [validate_scheme(RelationTable.from_classes(
        thin_scheme_classes(cyclic_group_table(n))), name=f"thin-Z{n}")
        for n in range(3, 31)]
    schemes += [build_family("conjugacy", (g,)) for g in ("Z5", "Z7")]
    qr = [cyclotomic_scheme(p, 2) for p in (7, 11, 19, 23, 31, 43)]
    index4 = [cyclotomic_scheme(p, 4) for p in (13, 29, 37, 53)]
    for s in schemes + qr + index4:
        assert not s.symmetric, s.name
        got = symmetrized_scheme(s)
        want = validate_scheme(merged_by_transpose(s), name=s.name,
                               stabiliser=s.stabiliser,
                               transitive=s.transitive)
        for f in fields(SchemeDescriptor):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, (s.name, f.name)
                assert np.array_equal(a, b), (s.name, f.name)
                assert not a.flags.writeable, (s.name, f.name)
            else:
                assert a == b, (s.name, f.name)
        assert (got.stabiliser, got.transitive) == (s.stabiliser,
                                                    s.transitive)
    for s in qr:
        assert symmetrized_scheme(s).d == 1
    for s in index4:
        paley = symmetrized_scheme(cyclotomic_scheme(s.v, 2))
        assert np.array_equal(symmetrized_scheme(s).classes, paley.classes)
        assert paley.d == 2 and paley.valencies == (1, (s.v - 1) // 2,
                                                    (s.v - 1) // 2)


def test_tensor_is_read_at_each_class_first_pair():
    """p[i, j, k] is the count at the first row-major pair of class k, on
    any table: on these tables, which are no schemes, the count changes
    from pair to pair of a class, and the first pair's must be read."""
    rng = np.random.default_rng(20)
    tables = [[[abs(a - b) for b in range(4)] for a in range(4)]]
    for v, pairs in ((7, (1, 2, 3)), (8, (2, 1, 3, 4))):
        # class t transposes to pairs[t - 1]
        tmap = np.array((0,) + pairs)
        c = np.zeros((v, v), dtype=np.int64)
        upper = np.triu_indices(v, 1)
        c[upper] = rng.integers(1, len(pairs) + 1, len(upper[0]))
        c.T[upper] = tmap[c[upper]]
        tables.append(c)
    for c in tables:
        table = RelationTable.from_classes(c)
        with pytest.raises(NonConstantIntersection):
            validate_scheme(table)
        p = scheme_module._first_pair_scheme(table, "t", (), ()).p
        v, d = table.v, table.d
        for k in range(d + 1):
            a, b = next((a, b) for a in range(v) for b in range(v)
                        if c[a][b] == k)
            for i in range(d + 1):
                for j in range(d + 1):
                    assert p[i, j, k] == sum(
                        1 for z in range(v) if c[a][z] == i and c[z][b] == j)


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
