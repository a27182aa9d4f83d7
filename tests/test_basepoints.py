"""The basepoint audits at vertex 0 of a scheme with a transitive group.

Every catalog relation whose scheme carries verified transitive generators
is audited twice: as built, which sweeps basepoint 0 alone and scales its
counts by v, and through `dataclasses.replace(scheme, transitive=())`,
which sweeps every basepoint.  Every result must be equal, witnesses and
counts included."""

from dataclasses import replace
from itertools import combinations

import pytest

from schemeconn.audits import (RelationContext, ball_deletion_audit,
                               corollary_audits, spec_cut_audit,
                               theorem1_audit)
from schemeconn.catalog import build_family, gen_hamming
from schemeconn.graph import Graph
from schemeconn.report import analyze_scheme
from small_graphs import circulant, graph_context


def _outcome(audit, *args):
    """("ok", the audit's result), or the type and message of what it
    raised."""
    try:
        return "ok", audit(*args)
    except Exception as exc:                    # noqa: BLE001 - compared
        return type(exc).__name__, str(exc)


def _results(ctx):
    out = {"theorem1": _outcome(theorem1_audit, ctx),
           "corollaries": _outcome(corollary_audits, ctx),
           "spec_cut": _outcome(spec_cut_audit, ctx),
           "ball_deletion": _outcome(ball_deletion_audit, ctx),
           "iuw": ("ok", ctx.iuw)}
    return out


def test_reduced_audits_match_every_basepoint(catalog_schemes):
    relations = 0
    scaled = {"disconnected": 0, "c1_failed": 0, "c1_held": 0,
              "triggered": 0, "not_k211_free": 0}
    for s in catalog_schemes:
        if not s.transitive:
            continue
        full = replace(s, transitive=())
        for g in range(1, s.d + 1):
            reduced_ctx = RelationContext(s, g)
            full_ctx = RelationContext(full, g)
            assert reduced_ctx.basepoints == (0,)
            assert full_ctx.basepoints == range(s.v)
            got, want = _results(reduced_ctx), _results(full_ctx)
            assert got == want, (s.name, g)
            relations += 1
            (t1_status, t1), (ca_status, ca) = (want["theorem1"],
                                                want["corollaries"])
            if t1_status == "ok":
                scaled["disconnected"] += t1.disconnected_basepoints > 0
            if ca_status == "ok":
                scaled["c1_held" if ca.c1_ok else "c1_failed"] += 1
            bd_status, bd = want["ball_deletion"]
            if bd_status == "ok":
                scaled["triggered"] += bd.triggered_basepoints > 0
            kind, detail = want["spec_cut"]
            if kind == "HypothesisNotMet" and detail != "disconnected":
                scaled["not_k211_free"] += 1
    assert relations >= 130
    # C1 is a theorem on schemes, so its failure is exercised on circulants
    # below; every other scaled count and witness kind is exercised here
    assert scaled.pop("c1_failed") == 0
    assert all(n >= 2 for n in scaled.values()), scaled


def test_reduced_corollaries_match_every_basepoint_on_circulants():
    failures = 0
    for n in range(5, 13):
        rotation = tuple((x + 1) % n for x in range(n))
        for r in (1, 2, 3):
            for steps in combinations(range(1, n // 2 + 1), r):
                # the rotation is a transitive automorphism no scheme carries
                graph = circulant(n, steps)
                full = graph_context(graph)
                if not full.connected or full.complete:
                    continue
                reduced = graph_context(graph, transitive=(rotation,))
                want = corollary_audits(full)
                assert corollary_audits(reduced) == want, (n, steps)
                failures += not want.c1_ok
    # C_8(1,3,4), C_10(1,4,5), C_10(2,3,5), C_12(1,5,6): C1 fails at the
    # third pair of basepoint 0, and the count is not scaled
    assert failures == 4


@pytest.mark.parametrize("kind,params", [("johnson", (7, 3)),
                                         ("hamming", (4, 2)),
                                         ("cyclic", (6,)),
                                         ("conjugacy", ("Z7",))])
def test_report_path_never_sweeps_every_basepoint(monkeypatch, kind, params):
    scheme = build_family(kind, params)
    assert scheme.transitive

    closed_neighborhood = Graph.closed_neighborhood

    def refuse_other_basepoints(self, start):
        if start != 0:
            raise AssertionError(f"closed neighbourhood of {start}")
        return closed_neighborhood(self, start)
    monkeypatch.setattr(Graph, "closed_neighborhood", refuse_other_basepoints)
    assert all(rep["ok"] for rep in analyze_scheme(scheme))


def test_reduced_report_grows_few_components(monkeypatch):
    # each connected relation of H(4,2) deletes one ball, N[0], and grows
    # the components of what is left; every basepoint would be 16 balls
    grown = []
    reach = Graph.reach_mask

    def spy(self, start, deleted=0):
        grown.append(start)
        return reach(self, start, deleted)
    scheme = gen_hamming(4, 2)
    full = replace(scheme, transitive=())
    monkeypatch.setattr(Graph, "reach_mask", spy)
    reduced_reports = analyze_scheme(scheme)
    reduced_calls = len(grown)
    grown.clear()
    full_reports = analyze_scheme(full)
    assert reduced_reports == full_reports
    assert 4 * reduced_calls < len(grown)
