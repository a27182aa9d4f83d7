"""Distribution diagrams, their levels, and the geodesic correspondence."""

from schemeconn.audits import RelationContext
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming
from schemeconn.diagram import (distribution_diagram, p_polynomial_generator,
                                punctured_components)
from schemeconn.graph import bits
from schemeconn.scheme import relation_graph
from small_graphs import geodesic_correspondence_check


def test_pentagon_diagram_is_path():
    diag = distribution_diagram(gen_cyclic(5), 1)
    assert diag.levels == (0, 1, 2)
    assert tuple(bits(diag.adj[0])) == (1,)
    assert tuple(bits(diag.adj[1])) == (0, 2)
    assert diag.diameter == 2
    assert len(punctured_components(diag)) <= 1


def test_petersen_diagram():
    s = build_family("drg", ("petersen",))
    diag = distribution_diagram(s, 1)
    assert diag.levels == (0, 1, 2)
    assert len(punctured_components(diag)) <= 1


def test_h42_relation2_isolated_antipode():
    s = gen_hamming(4, 2)
    diag = distribution_diagram(s, 2)
    # antipodal class 4: a 2-step from distance 4 lands only on distance 2
    assert tuple(bits(diag.adj[4])) == (2,)
    assert len(punctured_components(diag)) > 1
    assert diag.levels[1] is None and diag.levels[3] is None
    assert diag.diameter is None


def test_h62_relation3_diagram():
    s = gen_hamming(6, 2)
    diag = distribution_diagram(s, 3)
    assert diag.levels == (0, 3, 2, 1, 2, 3, 2)
    assert diag.diameter == 3
    assert tuple(bits(diag.adj[6])) == (3,)
    assert len(punctured_components(diag)) > 1


def test_complete_graph_empty_h_prime():
    s = gen_cyclic(3)
    diag = distribution_diagram(s, 1)
    assert diag.size == 2
    assert len(punctured_components(diag)) <= 1   # empty by convention


def test_diagram_edge_symmetry():
    for fam in (("hamming", (4, 2)), ("johnson", (6, 2)), ("conjugacy", ("S3",))):
        s = build_family(*fam)
        for g in range(1, s.d + 1):
            diag = distribution_diagram(s, g)
            for j in range(diag.size):
                for k in bits(diag.adj[j]):
                    assert diag.adj[k] >> j & 1


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
    """adj as the pairwise loop over the tensor builds it."""
    d, p = scheme.d, scheme.tensor.p
    adj = [0] * (d + 1)
    for j in range(d + 1):
        for k in range(j + 1, d + 1):
            if p[g, j, k] + p[g, k, j] > 0:
                adj[j] |= 1 << k
                adj[k] |= 1 << j
    return tuple(adj)


def test_diagram_matches_pairwise_loop(catalog_schemes):
    for s in list(catalog_schemes) + [gen_cyclic(101)]:
        for g in range(1, s.d + 1):
            diag = distribution_diagram(s, g)
            assert diag.adj == _diagram_loop(s, g), (s.name, g)
