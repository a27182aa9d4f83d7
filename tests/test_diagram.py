"""Distribution diagrams, their levels, and the geodesic correspondence."""

from schemeconn.audits import RelationContext
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming
from schemeconn.diagram import (distribution_diagram,
                                geodesic_correspondence_check,
                                h_prime_connected, p_polynomial_generator)
from schemeconn.scheme import relation_graph


def test_pentagon_diagram_is_path():
    diag = distribution_diagram(gen_cyclic(5), 1)
    assert diag.levels == (0, 1, 2)
    assert diag.neighbors(0) == (1,)
    assert diag.neighbors(1) == (0, 2)
    # p_11^2 = 1 puts a loop at 2? no: loop means p_1jj > 0 at j=2
    assert diag.loops >> 2 & 1
    assert not diag.loops >> 1 & 1
    assert diag.diameter == 2
    assert h_prime_connected(diag)


def test_petersen_diagram():
    s = build_family("drg", ("petersen",))
    diag = distribution_diagram(s, 1)
    assert diag.levels == (0, 1, 2)
    assert not diag.loops >> 1 & 1   # p_11^1 = 0, triangle-free
    assert diag.loops >> 2 & 1       # p_12^2 > 0
    assert h_prime_connected(diag)


def test_h42_relation2_isolated_antipode():
    s = gen_hamming(4, 2)
    diag = distribution_diagram(s, 2)
    # antipodal class 4: a 2-step from distance 4 lands only on distance 2
    assert diag.neighbors(4) == (2,)
    assert not h_prime_connected(diag)
    assert diag.levels[1] is None and diag.levels[3] is None
    assert diag.diameter is None


def test_h62_relation3_diagram():
    s = gen_hamming(6, 2)
    diag = distribution_diagram(s, 3)
    assert diag.levels == (0, 3, 2, 1, 2, 3, 2)
    assert diag.diameter == 3
    assert diag.neighbors(6) == (3,)
    assert not h_prime_connected(diag)


def test_complete_graph_empty_h_prime():
    s = gen_cyclic(3)
    diag = distribution_diagram(s, 1)
    assert diag.size == 2
    assert h_prime_connected(diag)   # empty by convention


def test_diagram_edge_symmetry():
    for fam in (("hamming", (4, 2)), ("johnson", (6, 2)), ("conjugacy", ("S3",))):
        s = build_family(*fam)
        for g in range(1, s.d + 1):
            diag = distribution_diagram(s, g)
            for j in range(diag.size):
                for k in diag.neighbors(j):
                    assert j in diag.neighbors(k)


def test_geodesic_correspondence_samples():
    for fam, g in ((("drg", ("petersen",)), 1), (("cyclic", (6,)), 1),
                   (("hamming", (4, 2)), 1), (("johnson", (8, 3)), 1)):
        s = build_family(*fam)
        ok, wit = geodesic_correspondence_check(s, g, relation_graph(s, g))
        assert ok, wit


def test_geodesic_correspondence_disconnected():
    s = gen_hamming(4, 2)
    ok, wit = geodesic_correspondence_check(s, 2, relation_graph(s, 2))
    assert not ok and wit[0] == "diagram"


def test_p_polynomial_tags():
    for scheme, g, want in ((gen_hamming(4, 2), 1, True),
                            (gen_hamming(4, 2), 2, False),
                            (build_family("johnson", (8, 3)), 1, True),
                            (gen_cyclic(5), 1, True),
                            (gen_cyclic(5), 2, True)):
        assert p_polynomial_generator(RelationContext(scheme, g)) is want


def _diagram_loop(scheme, g):
    """adj and loops as the pairwise loop over the tensor builds them."""
    d, p = scheme.d, scheme.tensor.p
    adj, loops = [0] * (d + 1), 0
    for j in range(d + 1):
        if p[g, j, j] > 0:
            loops |= 1 << j
        for k in range(j + 1, d + 1):
            if p[g, j, k] + p[g, k, j] > 0:
                adj[j] |= 1 << k
                adj[k] |= 1 << j
    return tuple(adj), loops


def test_diagram_matches_pairwise_loop(catalog_schemes):
    for s in list(catalog_schemes) + [gen_cyclic(101)]:
        for g in range(1, s.d + 1):
            diag = distribution_diagram(s, g)
            assert (diag.adj, diag.loops) == _diagram_loop(s, g), (s.name, g)
