"""Theorem and corollary audits on known schemes."""

import pytest

from schemeconn.audits import (RelationContext, ball_deletion_audit,
                               corollary_audits, iuw_decompose,
                               small_cut_theorems_audit, theorem1_audit,
                               w_empty_audit)
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming
from schemeconn.errors import Disconnected, HypothesisViolation


def drg(name, g):
    return RelationContext(build_family("drg", (name,)), g)


def h62_r3():
    """Relation 3 of H(6, 2): connected, with antipodal twins."""
    return RelationContext(build_family("hamming", (6, 2)), 3)


def test_theorem1_petersen_all_true():
    audit = theorem1_audit(drg("petersen", 1))
    assert audit.exists_a_connected
    assert audit.forall_a_connected
    assert audit.h_prime_connected
    assert audit.twin_free
    assert audit.equivalent
    assert audit.disconnected_basepoints == 0
    assert audit.first_twin_pair is None


def test_theorem1_rook_all_true():
    audit = theorem1_audit(RelationContext(gen_hamming(2, 3), 1))
    assert audit.equivalent and audit.twin_free


def test_theorem1_c6_all_true():
    audit = theorem1_audit(RelationContext(gen_cyclic(6), 1))
    assert audit.equivalent and audit.forall_a_connected


def test_theorem1_h62_r3_all_false():
    # connected graph with twins: every basepoint puncture disconnects
    audit = theorem1_audit(h62_r3())
    assert not audit.exists_a_connected
    assert not audit.forall_a_connected
    assert not audit.h_prime_connected
    assert not audit.twin_free
    assert audit.equivalent
    assert audit.disconnected_basepoints == 64
    x, y = audit.first_twin_pair
    assert x ^ y == 0b111111          # antipodal twins


def test_theorem1_gates():
    with pytest.raises(HypothesisViolation):
        theorem1_audit(drg("k33", 1))      # complete multipartite
    with pytest.raises(HypothesisViolation):
        theorem1_audit(RelationContext(gen_cyclic(4), 1))  # C4 = K22
    with pytest.raises(HypothesisViolation):
        theorem1_audit(RelationContext(gen_cyclic(10), 2))  # disconnected
    with pytest.raises(HypothesisViolation):
        theorem1_audit(RelationContext(gen_cyclic(3), 1))  # complete


def test_corollaries_pentagon():
    audit = corollary_audits(RelationContext(gen_cyclic(5), 1))
    assert audit.c1_ok and audit.c2_ok and audit.c3_ok
    assert audit.c1_mode == "exhaustive"
    assert audit.c1_checked == 30
    assert audit.c3_clique_count == 5 and not audit.c3_capped


def test_corollaries_petersen():
    audit = corollary_audits(drg("petersen", 1))
    assert audit.c1_ok and audit.c2_ok and audit.c3_ok
    assert audit.c1_checked == 140
    assert audit.c3_clique_count == 15


def test_corollaries_rook():
    audit = corollary_audits(RelationContext(gen_hamming(2, 3), 1))
    assert audit.c1_ok and audit.c2_ok and audit.c3_ok
    assert audit.c3_clique_count == 6


def test_corollaries_sampled_mode():
    ctx = RelationContext(build_family("johnson", (9, 2)), 1)
    a1 = corollary_audits(ctx)               # valency 14 forces sampling
    assert ctx.kappa == 14
    assert a1.c1_mode == "sampled"
    assert a1.c1_ok and a1.c2_ok and a1.c3_ok
    assert a1.c1_checked == 36 * 200
    a2 = corollary_audits(ctx)
    assert a2 == a1                          # same seed, same stream
    a3 = corollary_audits(ctx, seed=7)
    assert a3.seed == 7 and a3.c1_ok


def test_corollaries_gate():
    with pytest.raises(Disconnected):
        corollary_audits(RelationContext(gen_cyclic(10), 2))


def test_iuw_h42_r2():
    dec = iuw_decompose(RelationContext(gen_hamming(4, 2), 2))
    assert not dec.h_prime_connected
    assert dec.i_classes == (4,)
    assert dec.u_classes == (1, 3)
    assert dec.w_classes == ()
    assert dec.i_vertices == (15,)
    assert len(dec.u_vertices) == 8
    assert all(bin(x).count("1") % 2 == 1 for x in dec.u_vertices)


def test_iuw_h62_r3():
    dec = iuw_decompose(h62_r3())
    assert dec.i_classes == (6,)
    assert dec.u_classes == (1, 2, 4, 5)
    assert dec.w_classes == ()


def test_iuw_c10_r2_nonempty_w():
    # disconnected relation: two pentagons; W picks up the stray class
    dec = iuw_decompose(RelationContext(gen_cyclic(10), 2))
    assert dec.i_classes == ()
    assert dec.u_classes == (1, 3, 5)
    assert dec.w_classes == (4,)


def test_iuw_connected_h_prime_empty():
    dec = iuw_decompose(RelationContext(gen_cyclic(5), 1))
    assert dec.h_prime_connected
    assert dec.i_classes == () and dec.u_classes == () and dec.w_classes == ()
    assert dec.component_map == ((2, 3),)


def test_w_empty_connected_relations():
    for fam, g in ((("drg", ("petersen",)), 1), (("hamming", (6, 2)), 3),
                   (("johnson", (6, 3)), 1), (("conjugacy", ("S3",)), 2)):
        audit = w_empty_audit(RelationContext(build_family(*fam), g))
        assert audit.ok, (fam, g)
        assert audit.w_classes == ()
        assert audit.distance2_ok


def test_w_empty_h62_r3_vacuous_distance2():
    # U nonempty but W empty: the distance-2 conclusion has no hypothesis
    audit = w_empty_audit(h62_r3())
    assert audit.ok and not audit.h_prime_connected
    assert audit.distance2_vacuous and audit.distance2_witness is None


def test_w_empty_gate():
    with pytest.raises(Disconnected):
        w_empty_audit(RelationContext(gen_cyclic(10), 2))


def test_ball_deletion_h62_r3():
    audit = ball_deletion_audit(h62_r3(), 1)
    assert audit.diameter == 3
    assert audit.ball_classes == (0, 3)
    assert not audit.h_minus_ball_connected
    assert audit.triggered_basepoints == 64
    assert audit.part_a_ok and audit.part_b_ok


def test_ball_deletion_untriggered():
    audit = ball_deletion_audit(drg("petersen", 1), 1)
    assert audit.triggered_basepoints == 0
    assert audit.part_a_ok and audit.part_b_ok
    audit = ball_deletion_audit(RelationContext(gen_cyclic(8), 1), 2)
    assert audit.ball_classes == (0, 1, 2)
    assert audit.h_minus_ball_connected
    assert audit.triggered_basepoints == 0


def test_ball_deletion_errors():
    with pytest.raises(ValueError):
        ball_deletion_audit(RelationContext(gen_cyclic(8), 1), 9)
    with pytest.raises(Disconnected):
        ball_deletion_audit(RelationContext(gen_cyclic(10), 2), 1)


def test_small_cut_cycles():
    audit = small_cut_theorems_audit(RelationContext(gen_cyclic(5), 1))
    assert audit.kappa == 2
    assert audit.tcut2_applicable and audit.tcut2_ok
    assert audit.tcut3_applicable and audit.tcut3_match == "C5"
    audit = small_cut_theorems_audit(RelationContext(gen_cyclic(4), 1))
    assert audit.tcut3_match == "C4"
    audit = small_cut_theorems_audit(RelationContext(gen_cyclic(6), 1))
    assert audit.tcut2_ok and not audit.tcut3_applicable
    assert audit.tcut3_match is None


def test_small_cut_exceptional_graphs():
    audit = small_cut_theorems_audit(drg("petersen", 1))
    assert audit.kappa == 3 and audit.diameter == 2
    assert not audit.tcut2_applicable and audit.tcut2_ok
    assert audit.tdiam2_applicable and audit.tdiam2_ok
    assert audit.tdiam2_best_t == 2
    assert audit.tdiam2_t_equals_valency
    assert audit.tcut3_match == "petersen"
    audit = small_cut_theorems_audit(drg("k33", 1))
    assert audit.tcut3_match == "K33"
    assert not audit.tdiam2_t_equals_valency


def test_small_cut_rook():
    audit = small_cut_theorems_audit(RelationContext(gen_hamming(2, 3), 1))
    assert audit.kappa == 4
    assert not audit.tcut2_applicable and not audit.tcut3_applicable
    assert audit.tdiam2_applicable and audit.tdiam2_ok
    assert audit.tcut3_match is None


def test_small_cut_gate():
    with pytest.raises(Disconnected):
        small_cut_theorems_audit(RelationContext(gen_cyclic(10), 2))
