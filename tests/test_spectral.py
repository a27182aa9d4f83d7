"""Eigenmatrices, idempotents, primitivity, and the spectral cut bound."""

import math

import numpy as np
import pytest

from schemeconn.audits import RelationContext, spec_cut_audit
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming
from schemeconn.connectivity import twins
from schemeconn.errors import (Disconnected, HypothesisNotMet, NotSymmetric)
from schemeconn.scheme import relation_graph, validate_scheme, RelationTable
from schemeconn.spectral import (compute_spectral, primitivity,
                                 second_eigenvalue)


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
        # idempotent trace = multiplicity, within float tolerance
        for m, e in zip(spec.multiplicities, spec.idempotents):
            assert abs(np.trace(e) - m) < 1e-6
            assert np.abs(e @ e - e).max() < 1e-8


def test_idempotents_resolve_identity():
    s = build_family("johnson", (6, 2))
    spec = compute_spectral(s)
    total = sum(spec.idempotents)
    assert np.abs(total - np.eye(s.v)).max() < 1e-8


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
    from schemeconn.scheme import is_complete_multipartite
    for fam, g in ((("drg", ("petersen",)), 1), (("cyclic", (6,)), 1),
                   (("hamming", (2, 3)), 1), (("johnson", (7, 2)), 1)):
        s = build_family(*fam)
        graph = relation_graph(s, g)
        assert not is_complete_multipartite(graph)
        if not graph.is_complete():
            assert theta(s, g) > 1e-6, fam
