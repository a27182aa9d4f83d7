"""Eigenmatrices, idempotents, primitivity, and the spectral cut bound."""

import math
import tracemalloc

import numpy as np
import pytest

from schemeconn import report
from schemeconn.audits import RelationContext, spec_cut_audit
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming
from schemeconn.errors import (Disconnected, HypothesisNotMet, NotSymmetric)
from schemeconn.scheme import relation_graph, validate_scheme, RelationTable
from schemeconn.spectral import (compute_spectral, primitivity,
                                 second_eigenvalue)
from small_graphs import is_complete, twins
from spectral_reference import (idempotents_from_q, reference_spectral,
                                repeated_column_idempotents)


def theta(scheme, g):
    return second_eigenvalue(RelationContext(scheme, g),
                             compute_spectral(scheme))


def test_pentagon_eigenmatrix():
    spec = compute_spectral(gen_cyclic(5))
    assert spec.multiplicities == (1, 2, 2)
    golden = (math.sqrt(5) - 1) / 2
    assert np.allclose(spec.p[0], [1, 2, 2])
    assert abs(spec.p[1, 1] - golden) < 1e-9
    assert abs(spec.p[2, 1] + golden + 1) < 1e-9


def test_petersen_eigenmatrix():
    spec = compute_spectral(build_family("drg", ("petersen",)))
    assert spec.multiplicities == (1, 5, 4)
    assert np.allclose(spec.p, [[1, 3, 6], [1, 1, -2], [1, -2, 1]], atol=1e-9)


def test_k33_eigenmatrix():
    spec = compute_spectral(build_family("drg", ("k33",)))
    assert spec.multiplicities == (1, 4, 1)
    assert np.allclose(spec.p, [[1, 3, 2], [1, 0, -1], [1, -3, 2]], atol=1e-9)


def test_h42_krawtchouk():
    spec = compute_spectral(gen_hamming(4, 2))
    assert spec.multiplicities == (1, 4, 6, 4, 1)
    assert np.allclose(spec.p[:, 1], [4, 2, 0, -2, -4], atol=1e-9)
    # binomial alternating signs in the antipodal column
    assert np.allclose(spec.p[:, 4], [1, -1, 1, -1, 1], atol=1e-9)


def test_k2_trivial_scheme():
    scheme = validate_scheme(RelationTable.from_classes([[0, 1], [1, 0]]))
    spec = compute_spectral(scheme)
    assert spec.multiplicities == (1, 1)
    assert np.allclose(spec.p, [[1, 1], [1, -1]], atol=1e-12)


def test_spectral_identities_catalog_slice():
    for fam in (("cyclic", (7,)), ("hamming", (3, 2)), ("johnson", (7, 3)),
                ("conjugacy", ("D4",)), ("hamming", (2, 4))):
        s = build_family(*fam)
        spec = compute_spectral(s)
        v = s.v
        qp = spec.q @ spec.p
        assert np.abs(qp - v * np.eye(s.d + 1)).max() < 1e-8, fam
        # Q row sums vanish off the principal row
        sums = spec.q.sum(axis=1)
        assert abs(sums[0] - v) < 1e-8
        assert np.abs(sums[1:]).max() < 1e-8, fam
        assert sum(spec.multiplicities) == v
        # E_j built from Q: trace = multiplicity, within float tolerance
        for m, e in zip(spec.multiplicities, idempotents_from_q(s, spec.q)):
            assert abs(np.trace(e) - m) < 1e-6
            assert np.abs(e @ e - e).max() < 1e-8


def test_idempotents_resolve_identity():
    s = build_family("johnson", (6, 2))
    spec = compute_spectral(s)
    total = sum(idempotents_from_q(s, spec.q))
    assert np.abs(total - np.eye(s.v)).max() < 1e-8


# the catalog plus three schemes beyond it: v = 560, d = 8, d = 50
EXTRA_SCHEMES = (("johnson", (16, 3)), ("hamming", (8, 2)), ("cyclic", (101,)))


@pytest.fixture(scope="module")
def oracle_schemes(catalog_schemes):
    return list(catalog_schemes) + [build_family(*f) for f in EXTRA_SCHEMES]


def test_spectral_matches_vxv_reference(oracle_schemes):
    # the v x v simultaneous diagonalization is the reference for P, Q,
    # the multiplicities (block dimensions) and the repeated-column verdict
    # (equal columns of the idempotents themselves)
    for s in oracle_schemes:
        spec, ref = compute_spectral(s), reference_spectral(s)
        assert spec.multiplicities == ref.multiplicities, s.name
        assert np.abs(spec.p - ref.p).max() < 1e-9, s.name
        assert np.abs(spec.q - ref.q).max() < 1e-9, s.name
        assert primitivity(s, spec).repeated_column_idempotents == \
            repeated_column_idempotents(ref), s.name


def test_idempotents_from_q_are_the_primitive_idempotents(oracle_schemes):
    for s in oracle_schemes:
        spec = compute_spectral(s)
        es = idempotents_from_q(s, spec.q)
        for m, e in zip(spec.multiplicities, es):
            assert np.abs(e @ e - e).max() < 1e-9, s.name
            assert abs(np.trace(e) - m) < 1e-9, s.name
        assert np.abs(sum(es) - np.eye(s.v)).max() < 1e-9, s.name


def test_spectral_allocates_nothing_of_size_v_squared():
    s = build_family("johnson", (16, 3))
    compute_spectral(s)
    tracemalloc.start()
    try:
        compute_spectral(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 560 x 560 float64 matrix is 2.5 MB
    assert peak < s.v * s.v * 8 // 20


def test_spectral_block_above_the_old_size_limit(monkeypatch):
    # J(15,4) has v = 1365; the eigenspace of J(n,k) at level i has
    # dimension C(n,i) - C(n,i-1)
    s = build_family("johnson", (15, 4))
    assert s.v == 1365
    blocks = []
    section = report.spectral_section

    def spy(*args, **kwargs):
        blocks.append(section(*args, **kwargs))
        return blocks[-1]
    monkeypatch.setattr(report, "spectral_section", spy)
    assert report.analyze_scheme(s, relations=[]) == []
    (block,) = blocks
    assert block["multiplicities"] == [
        math.comb(15, i) - math.comb(15, i - 1) if i else 1
        for i in range(5)]
    assert block["qp_ok"] is True and block["q_rowsum_ok"] is True
    assert block["primitivity"]["primitive"] is True
    assert block["findings"] == []


def test_spectral_requires_symmetric():
    s = build_family("conjugacy", ("Z5",))
    with pytest.raises(NotSymmetric):
        compute_spectral(s)


def test_primitivity_verdicts():
    prim = primitivity(gen_cyclic(5), compute_spectral(gen_cyclic(5)))
    assert prim.primitive
    s = gen_hamming(4, 2)
    verdict = primitivity(s, compute_spectral(s))
    assert not verdict.primitive
    assert 4 in verdict.disconnected_relations
    assert verdict.repeated_column_idempotents
    s = build_family("drg", ("petersen",))
    assert primitivity(s, compute_spectral(s)).primitive


def test_twins_imply_imprimitive():
    for fam in (("drg", ("k33",)), ("hamming", (4, 2)), ("cyclic", (4,))):
        s = build_family(*fam)
        has_twins = any(twins(relation_graph(s, i)).pairs
                        for i in range(1, s.d + 1))
        assert has_twins
        assert not primitivity(s, compute_spectral(s)).primitive, fam


def test_second_eigenvalue():
    s = build_family("drg", ("petersen",))
    assert abs(theta(s, 1) - 1.0) < 1e-9
    s = build_family("drg", ("k33",))
    assert abs(theta(s, 1)) < 1e-9
    s = gen_cyclic(5)
    golden = (math.sqrt(5) - 1) / 2
    assert abs(theta(s, 1) - golden) < 1e-9


def test_second_eigenvalue_gate():
    s = gen_hamming(4, 2)
    with pytest.raises(Disconnected):
        theta(s, 2)


def test_spec_cut_rook():
    audit = spec_cut_audit(RelationContext(gen_hamming(2, 3), 1))
    assert audit.ok
    assert audit.p_local == 1
    assert audit.kappa == 4
    assert audit.slack == 3


def test_spec_cut_triangle_free_slack():
    audit = spec_cut_audit(
        RelationContext(build_family("drg", ("petersen",)), 1))
    assert audit.ok and audit.p_local == 0 and audit.slack == 3


def test_spec_cut_k211_gate():
    ctx = RelationContext(build_family("johnson", (5, 2)), 1)
    with pytest.raises(HypothesisNotMet):
        spec_cut_audit(ctx)


def test_theta_negative_on_complete_multipartite():
    # the complete multipartite members have second eigenvalue <= 0
    s = build_family("drg", ("k33",))
    assert theta(s, 1) <= 1e-9
    s = gen_cyclic(4)
    assert theta(s, 1) <= 1e-9


def test_theta_positive_otherwise_catalog_slice():
    from schemeconn.diagram import complete_multipartite
    for fam, g in ((("drg", ("petersen",)), 1), (("cyclic", (6,)), 1),
                   (("hamming", (2, 3)), 1), (("johnson", (7, 2)), 1)):
        s = build_family(*fam)
        graph = relation_graph(s, g)
        assert not complete_multipartite(s, g)
        if not is_complete(graph):
            assert theta(s, g) > 1e-6, fam
