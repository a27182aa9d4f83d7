"""Builtin generators, group schemes, distance-regular import, persistence."""

import json

import numpy as np
import pytest

from schemeconn.catalog import (BUILTIN_FAMILIES, _group_checks, build_family,
                                check_family, cyclic_group_table,
                                dihedral4_table, gen_conjugacy, gen_cyclic,
                                gen_hamming, gen_johnson, load_scheme,
                                quaternion_table, save_scheme,
                                scheme_from_drg, symmetric3_table)
from schemeconn.errors import (NotAGroup, NotDistanceRegular, ParseError,
                               SizeCap)
from schemeconn.graph import Graph, complete_bipartite, petersen
from schemeconn.scheme import relation_graph
from small_graphs import builtin_catalog


def test_hamming_valencies():
    # v_i = C(n,i) (q-1)^i
    s = gen_hamming(4, 2)
    assert s.v == 16 and s.d == 4
    assert s.valencies == (1, 4, 6, 4, 1)
    s = gen_hamming(2, 3)
    assert s.v == 9 and s.d == 2
    assert s.valencies == (1, 4, 4)


def test_johnson_valencies():
    # v_i = C(k,i) C(vs-k,i)
    s = gen_johnson(5, 2)
    assert s.v == 10 and s.d == 2
    assert s.valencies == (1, 6, 3)
    s = gen_johnson(8, 3)
    assert s.v == 56 and s.d == 3
    assert s.valencies == (1, 15, 30, 10)


def test_cyclic_valencies():
    assert gen_cyclic(9).valencies == (1, 2, 2, 2, 2)
    assert gen_cyclic(8).valencies == (1, 2, 2, 2, 1)
    assert gen_cyclic(3).valencies == (1, 2)


def test_generator_size_caps():
    with pytest.raises(SizeCap):
        gen_hamming(13, 2)
    with pytest.raises(SizeCap):
        gen_johnson(16, 8)


def test_every_family_validates():
    # building runs the full validator; types spot-checked here
    for kind, params in BUILTIN_FAMILIES:
        s = build_family(kind, params)
        assert s.v == int(np.asarray(s.classes).shape[0])
        assert sum(s.valencies) == s.v


def test_descriptor_arrays_are_read_only(catalog_schemes):
    # every reader shares these arrays (the audits index the diagrams'
    # levels in place), so none may be written through
    for s in builtin_catalog() + catalog_schemes:
        arrays = {"classes": s.classes, "first_pair": s.first_pair, "p": s.p}
        if s.symmetric:
            arrays.update((f"levels[{g}]", diag.levels)
                          for g, diag in s.diagrams.items())
        for field, array in arrays.items():
            assert not array.flags.writeable, (s.name, field)


def test_catalog_size_and_order():
    cat = builtin_catalog()
    names = [s.name for s in cat]
    assert names == sorted(names)
    assert len(cat) >= 40
    pairs = sum(s.d for s in cat if s.symmetric)
    assert pairs >= 40


def test_s3_conjugacy():
    s = gen_conjugacy(symmetric3_table())
    assert s.v == 6 and s.d == 2
    assert s.valencies == (1, 2, 3)
    assert s.symmetric


def test_d4_q8_conjugacy():
    for table in (dihedral4_table(), quaternion_table()):
        s = gen_conjugacy(table)
        assert s.v == 8 and s.d == 4
        assert s.valencies == (1, 1, 2, 2, 2)
        assert s.symmetric


# Cayley tables pinned entry by entry: S_3 in lexicographic one-line order
# under composition, D_4 with a + 4b = r^a s^b, Q_8 as 1,-1,i,-i,j,-j,k,-k
GROUP_TABLES = {
    "Z5": (lambda: cyclic_group_table(5),
           [[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [2, 3, 4, 0, 1],
            [3, 4, 0, 1, 2], [4, 0, 1, 2, 3]]),
    "S3": (symmetric3_table,
           [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
            [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]),
    "D4": (dihedral4_table,
           [[0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 0, 5, 6, 7, 4],
            [2, 3, 0, 1, 6, 7, 4, 5], [3, 0, 1, 2, 7, 4, 5, 6],
            [4, 7, 6, 5, 0, 3, 2, 1], [5, 4, 7, 6, 1, 0, 3, 2],
            [6, 5, 4, 7, 2, 1, 0, 3], [7, 6, 5, 4, 3, 2, 1, 0]]),
    "Q8": (quaternion_table,
           [[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
            [2, 3, 1, 0, 6, 7, 5, 4], [3, 2, 0, 1, 7, 6, 4, 5],
            [4, 5, 7, 6, 1, 0, 2, 3], [5, 4, 6, 7, 0, 1, 3, 2],
            [6, 7, 4, 5, 3, 2, 1, 0], [7, 6, 5, 4, 2, 3, 0, 1]]),
}


@pytest.mark.parametrize("name", sorted(GROUP_TABLES))
def test_group_tables_pinned(name):
    build, want = GROUP_TABLES[name]
    mul = build()
    assert mul.dtype == np.int64
    assert mul.tolist() == want
    assert _group_checks(mul)[0] == 0


def test_z5_conjugacy_directed():
    s = gen_conjugacy(cyclic_group_table(5))
    assert s.d == 4 and not s.symmetric
    from schemeconn.scheme import symmetrized_scheme
    sym = symmetrized_scheme(s)
    assert np.array_equal(sym.classes, gen_cyclic(5).classes)


def test_z2_conjugacy_edge_case():
    s = gen_conjugacy(cyclic_group_table(2))
    assert s.v == 2 and s.d == 1
    assert relation_graph(s, 1).is_complete()


def test_not_a_group():
    bad = [[0, 1], [1, 1]]   # 1*1 = 1 kills inverses
    with pytest.raises(NotAGroup):
        gen_conjugacy(bad)
    bad = np.zeros((3, 3), dtype=int)
    with pytest.raises(NotAGroup):
        gen_conjugacy(bad)


def test_drg_petersen_matches_johnson():
    s = scheme_from_drg(petersen())
    assert s.v == 10 and s.d == 2
    assert s.valencies == (1, 3, 6)
    j = gen_johnson(5, 2)
    # same partition, distance order swaps the two non-identity classes
    swap = {0: 0, 1: 2, 2: 1}
    relabeled = np.vectorize(swap.get)(np.asarray(s.classes))
    assert np.array_equal(relabeled, j.classes)


def test_drg_four_cube_matches_hamming():
    edges = [(x, x ^ (1 << b)) for x in range(16) for b in range(4)
             if x < x ^ (1 << b)]
    s = scheme_from_drg(Graph.from_edges(16, edges))
    assert np.array_equal(s.classes, gen_hamming(4, 2).classes)


def test_drg_cycle_roundtrip():
    for n in (5, 8):
        s = scheme_from_drg(relation_graph(gen_cyclic(n), 1))
        assert np.array_equal(s.classes, gen_cyclic(n).classes)


def test_drg_rejects_path():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotDistanceRegular):
        scheme_from_drg(p4)


def test_save_load_roundtrip(tmp_path):
    for s in builtin_catalog():
        path = tmp_path / f"{s.name}.json"
        save_scheme(s, path)
        loaded = load_scheme(path)
        assert loaded.name == s.name
        assert loaded.classes.dtype == s.classes.dtype
        assert np.array_equal(loaded.classes, s.classes), s.name
        assert np.array_equal(loaded.p, s.p), s.name
        assert loaded.valencies == s.valencies


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError):
        load_scheme(path)
    path.write_text(json.dumps({"name": "x", "v": 2, "d": 1}))
    with pytest.raises(ParseError):
        load_scheme(path)
    path.write_text(json.dumps(
        {"name": "x", "v": 3, "d": 1, "classes": [[0, 1], [1, 0]]}))
    with pytest.raises(ParseError):
        load_scheme(path)


def test_load_revalidates_perturbed(tmp_path):
    from schemeconn.errors import NonConstantIntersection
    path = tmp_path / "pert.json"
    s = gen_cyclic(5)
    payload = {
        "name": "pent",
        "v": 5,
        "d": 2,
        "classes": [[int(x) for x in row] for row in s.classes],
    }
    payload["classes"][1][3] = 1
    payload["classes"][3][1] = 1
    path.write_text(json.dumps(payload))
    with pytest.raises(NonConstantIntersection):
        load_scheme(path)


def test_build_family_unknown():
    with pytest.raises(ParseError):
        build_family("kneser", (7, 3))
    with pytest.raises(ParseError):
        build_family("conjugacy", ("A5",))
    for kind, params in (("johnson", (5,)), ("hamming", (2, "x")),
                         ("cyclic", (5, 1)), ("cyclic", (True,)),
                         ("drg", (3,)), (["cyclic"], (5,))):
        with pytest.raises(ParseError):
            check_family(kind, params)
