"""Theorem and corollary audits on known schemes."""

from dataclasses import replace

import numpy as np
import pytest

from schemeconn.audits import (RelationContext, ball_deletion_audit,
                               corollary_audits, iuw_decompose,
                               small_cut_theorems_audit, spec_cut_audit,
                               theorem1_audit, w_empty_audit)
from schemeconn.catalog import build_family, gen_cyclic, gen_hamming
from schemeconn.errors import HypothesisNotMet
from schemeconn.graph import Graph
from schemeconn.report import analyze_relation


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
    for ctx in (drg("k33", 1),
                RelationContext(gen_cyclic(4), 1),   # C4 = K22
                RelationContext(gen_cyclic(3), 1)):  # complete
        with pytest.raises(HypothesisNotMet) as info:
            theorem1_audit(ctx)
        assert info.value.reason == "complete multipartite"


@pytest.mark.parametrize("audit", [
    theorem1_audit, corollary_audits, w_empty_audit,
    ball_deletion_audit, small_cut_theorems_audit,
    spec_cut_audit,
], ids=["theorem1", "corollaries", "w_empty", "ball_deletion", "small_cut",
        "spec_cut"])
def test_audits_skip_disconnected_relation(audit):
    # C10 r2 is two pentagons
    with pytest.raises(HypothesisNotMet) as info:
        audit(RelationContext(gen_cyclic(10), 2))
    assert info.value.reason == str(info.value) == "disconnected"


def test_corollaries_pentagon():
    audit = corollary_audits(RelationContext(gen_cyclic(5), 1))
    assert audit.c1_ok and audit.c2_ok and audit.c3_ok
    assert audit.c1_checked == 10              # every (a, b) pair
    assert audit.c1_witness is audit.c2_witness is audit.c3_witness is None
    assert not audit.c3_capped


def test_corollaries_petersen():
    audit = corollary_audits(drg("petersen", 1))
    assert audit.c1_ok and audit.c2_ok and audit.c3_ok
    assert audit.c1_checked == 30


def test_corollaries_rook():
    audit = corollary_audits(RelationContext(gen_hamming(2, 3), 1))
    assert audit.c1_ok and audit.c2_ok and audit.c3_ok
    assert audit.c1_checked == 36


def test_iuw_h42_r2():
    scheme = gen_hamming(4, 2)
    dec = iuw_decompose(RelationContext(scheme, 2))
    assert not dec.h_prime_connected
    assert dec.i_classes == (4,)
    assert dec.u_classes == (1, 3)
    assert dec.w_classes == ()
    # the class of (0, x) is the weight of x: I is the antipode 15 and U
    # the 8 odd-weight vertices, which the report's sizes count
    row = scheme.classes[0]
    counted = [int(np.isin(row, cls).sum())
               for cls in (dec.i_classes, dec.u_classes, dec.w_classes)]
    assert counted == analyze_relation(scheme, 2)["iuw"]["sizes"] == [1, 8, 0]


def test_iuw_reads_its_own_basepoint_only(monkeypatch):
    # the decomposition reads the diagram and the class row of basepoint 0:
    # it grows no component of the relation graph, so a disconnected
    # relation, which no audit sweeps, starts no sweep here either
    grown = []
    reach = Graph.reach_mask
    ctxs = [RelationContext(gen_hamming(4, 2), 2),
            RelationContext(gen_cyclic(5), 1)]
    assert not ctxs[0].connected

    def spy(self, start, deleted=0):
        if any(self is ctx.graph for ctx in ctxs):
            grown.append(start)
        return reach(self, start, deleted)
    monkeypatch.setattr(Graph, "reach_mask", spy)
    for ctx in ctxs:
        iuw_decompose(ctx)
    assert grown == []


def test_iuw_h62_r3():
    dec = iuw_decompose(h62_r3())
    assert dec.i_classes == (6,)
    assert dec.u_classes == (1, 2, 4, 5)
    assert dec.w_classes == ()


def test_iuw_c10_r2_nonempty_w():
    # disconnected relation: two pentagons.  The punctured diagram's
    # one-class component (4,) holds an edge (p_24^4 = 1) and is lighter
    # than the odd classes, which W picks up
    dec = iuw_decompose(RelationContext(gen_cyclic(10), 2))
    assert dec.i_classes == ()
    assert dec.u_classes == (4,)
    assert dec.w_classes == (1, 3, 5)


def test_iuw_connected_h_prime_empty():
    dec = iuw_decompose(RelationContext(gen_cyclic(5), 1))
    assert dec.h_prime_connected
    assert dec.i_classes == () and dec.u_classes == () and dec.w_classes == ()


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


def ref_distance2(ctx):
    """The W-empty distance-2 check as a BFS from every basepoint, in
    order: (ok, first (a, x, distance) with x in U_a not at distance 2)."""
    scheme, dec = ctx.scheme, ctx.iuw
    for a in range(scheme.v):
        dist = ctx.graph.distances_from(a)
        row = scheme.classes[a]
        for x in np.nonzero(np.isin(row, dec.u_classes))[0]:
            if dist[int(x)] != 2:
                return False, (a, int(x), dist[int(x)])
    return True, None


@pytest.mark.parametrize("family,g", [
    (("cyclic", (7,)), 1), (("cyclic", (9,)), 2), (("hamming", (4, 2)), 1),
    (("hamming", (3, 3)), 1), (("johnson", (8, 3)), 1),
], ids=["cyclic-7-r1", "cyclic-9-r2", "hamming-4-2-r1", "hamming-3-3-r1",
        "johnson-8-3-r1"])
def test_w_empty_distance2_matches_bfs_when_w_nonempty(family, g):
    # valid input never has W nonempty on a connected relation, so the
    # decomposition is forced: U at level 2 only, then with a class at
    # level 1 or 3 mixed in, each against the every-basepoint BFS
    ctx = RelationContext(build_family(*family), g)
    assert ctx.connected and ctx.diagram.diameter >= 3
    sets = [tuple(np.flatnonzero(ctx.diagram.levels == t).tolist())
            for t in range(ctx.diagram.diameter + 1)]
    dec = ctx.iuw
    cases = [sets[2], sets[2] + sets[3][:1], sets[3][-1:] + sets[2],
             sets[1]]
    results = []
    for u in cases:
        ctx.iuw = replace(dec, u_classes=tuple(sorted(u)),
                          w_classes=sets[-1][:1])
        audit = w_empty_audit(ctx)
        assert not audit.ok and not audit.distance2_vacuous
        got = (audit.distance2_ok, audit.distance2_witness)
        assert got == ref_distance2(ctx), (family, g, u)
        results.append(got[0])
    assert results == [True, False, False, False]


def test_ball_deletion_h62_r3():
    audit = ball_deletion_audit(h62_r3())
    assert audit.diameter == 3
    assert not audit.h_minus_ball_connected
    assert audit.triggered_basepoints == 64
    assert audit.part_a_ok and audit.part_b_ok


def test_ball_deletion_untriggered():
    audit = ball_deletion_audit(drg("petersen", 1))
    assert audit.triggered_basepoints == 0
    assert audit.part_a_ok and audit.part_b_ok


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
