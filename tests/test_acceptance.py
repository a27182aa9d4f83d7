"""Acceptance suite for the built-in catalog.

Ten numbered checks, one test each, covering the headline guarantees:
the four-way equivalence audit, the neighborhood-deletion corollary, the
empty-W decomposition, kappa = lambda = valency with an independent
brute-force oracle, the rational edge-connectivity bound, spectral
identities, the graph/diagram distance correspondence, the small-cut
classification, the local clique cut bound, and survey determinism.
Each test prints a single pass/fail line (visible with pytest -s).
"""

import os
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from schemeconn import audits
from schemeconn.catalog import build_family
from schemeconn.connectivity import enumerate_min_cuts, k211_free
from schemeconn.errors import HypothesisNotMet
from schemeconn.graph import Graph, bits
from schemeconn.report import run_survey
from schemeconn.spectral import compute_spectral
from small_graphs import geodesic_correspondence_check, networkx_graph
from spectral_reference import idempotents_from_q


def _line(idx: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{idx:2d}/10] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_equivalence_audit_over_catalog(catalog_pairs):
    start = time.monotonic()
    assert len(catalog_pairs) >= 40
    checked = skipped = 0
    failures = []
    for p in catalog_pairs:
        try:
            t1 = audits.theorem1_audit(
                audits.RelationContext(p.scheme, p.relation))
        except HypothesisNotMet:
            skipped += 1
            continue
        checked += 1
        if not t1.equivalent:
            failures.append((p.scheme.name, p.relation,
                             t1.exists_a_connected, t1.forall_a_connected,
                             t1.h_prime_connected, t1.twin_free))
    elapsed = time.monotonic() - start
    ok = not failures and checked >= 40
    _line(1, "four-way equivalence audit", ok,
          f"{checked} checked, {skipped} gated, {elapsed:.1f}s")
    assert not failures, failures
    assert checked >= 40
    assert elapsed < 300.0


def test_02_neighborhood_deletion_components(catalog_pairs):
    start = time.monotonic()
    basepoints = 0
    failures = []
    for p in catalog_pairs:
        if not p.connected:
            continue
        g = p.graph
        for a in range(p.scheme.v):
            big = sum(1 for m in g.component_masks(deleted=g.neighborhood(a))
                      if m.bit_count() >= 2)
            basepoints += 1
            if big > 1:
                failures.append((p.scheme.name, p.relation, a, big))
    elapsed = time.monotonic() - start
    _line(2, "neighborhood deletion leaves <= 1 non-singleton component",
          not failures, f"{basepoints} basepoints, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 180.0


def test_03_w_part_empty_on_connected(catalog_pairs):
    checked = 0
    failures = []
    for p in catalog_pairs:
        if not p.connected:
            continue
        ctx = audits.RelationContext(p.scheme, p.relation)
        we = audits.w_empty_audit(ctx)
        dec = audits.iuw_decompose(ctx)
        checked += 1
        if not we.ok or dec.w_classes:
            failures.append((p.scheme.name, p.relation, we.w_classes))
    _line(3, "W part empty on every connected relation", not failures,
          f"{checked} relations")
    assert not failures, failures


def _brute_min_vertex_cut(g: Graph, upper: int):
    """Smallest s < upper such that deleting some s vertices disconnects
    the graph; None when no such subset exists."""
    for size in range(upper):
        for combo in combinations(range(g.n), size):
            deleted = 0
            for x in combo:
                deleted |= 1 << x
            if not g.is_connected(deleted=deleted):
                return size
    return None


def _brute_edge_connectivity(g: Graph, n: int) -> int:
    best = None
    for mask in range(1, 1 << (n - 1)):
        cross = 0
        for u in bits(mask):
            cross += (g.rows[u] & ~mask).bit_count()
        if best is None or cross < best:
            best = cross
    return best


def test_04_connectivity_equals_valency_with_oracle(catalog_pairs,
                                                    flow_values):
    conjecture_failures = []
    oracle_failures = []
    small = 0
    for p in catalog_pairs:
        if not p.connected:
            continue
        kappa, lam = flow_values[(p.scheme.name, p.relation)]
        v1 = int(p.scheme.valencies[p.relation])
        if not kappa == lam == v1:
            conjecture_failures.append(
                (p.scheme.name, p.relation, kappa, lam, v1))
        if p.scheme.v <= 16:
            small += 1
            cut = _brute_min_vertex_cut(p.graph, v1)
            if cut is None:
                if kappa < v1:
                    oracle_failures.append(
                        (p.scheme.name, p.relation, "no small cut", kappa))
            elif cut != kappa:
                oracle_failures.append(
                    (p.scheme.name, p.relation, cut, kappa))
            blam = _brute_edge_connectivity(p.graph, p.scheme.v)
            if blam != lam:
                oracle_failures.append(
                    (p.scheme.name, p.relation, "lambda", blam, lam))
    ok = not conjecture_failures and not oracle_failures
    _line(4, "kappa = lambda = valency, oracle agreement", ok,
          f"{len(flow_values)} relations, {small} brute-forced")
    assert not conjecture_failures, conjecture_failures
    assert not oracle_failures, oracle_failures


def test_05_edge_connectivity_rational_bound(catalog_pairs, flow_values):
    checked = 0
    failures = []
    for p in catalog_pairs:
        if not p.connected:
            continue
        _, lam = flow_values[(p.scheme.name, p.relation)]
        v = p.scheme.v
        v1 = int(p.scheme.valencies[p.relation])
        bound = Fraction(v1 * v, 2 * (v - 1))
        checked += 1
        if Fraction(lam) < bound:
            failures.append((p.scheme.name, p.relation, lam, bound))
    pk, plam = flow_values[("drg-petersen", 1)]
    pet = build_family("drg", ("petersen",))
    pet_bound = Fraction(int(pet.valencies[1]) * pet.v, 2 * (pet.v - 1))
    _line(5, "edge connectivity meets the rational bound", not failures,
          f"{checked} relations; petersen {pet_bound} <= {plam}")
    assert not failures, failures
    assert pet_bound == Fraction(5, 3) and plam == 3


def test_06_spectral_identities(catalog_schemes):
    failures = []
    for s in catalog_schemes:
        spec = compute_spectral(s)
        v = s.v
        resid = float(np.abs(spec.q @ spec.p - v * np.eye(s.d + 1)).max())
        rowsum = float(np.abs(spec.q[1:, :].sum(axis=1)).max()) \
            if s.d >= 1 else 0.0
        if resid >= 1e-8:
            failures.append((s.name, "qp", resid))
        if rowsum >= 1e-8:
            failures.append((s.name, "rowsum", rowsum))
        total = 0
        for j, e in enumerate(idempotents_from_q(s, spec.q)):
            tr = float(np.trace(e))
            if abs(tr - round(tr)) > 1e-6 or round(tr) <= 0:
                failures.append((s.name, "trace", j, tr))
            total += round(tr)
        if total != v:
            failures.append((s.name, "trace sum", total))
    _line(6, "spectral identities", not failures,
          f"{len(catalog_schemes)} schemes")
    assert not failures, failures


def test_07_graph_diagram_distance_correspondence(catalog_pairs):
    checked_pairs = 0
    failures = []
    for p in catalog_pairs:
        # the diagram's diameter is the BFS one, and None exactly when the
        # relation is disconnected
        diameter = audits.RelationContext(p.scheme, p.relation).diagram.diameter
        if not p.connected:
            if diameter is not None:
                failures.append((p.scheme.name, p.relation, "diameter", diameter))
            continue
        bfs = int(p.graph.distance_matrix().max())
        if diameter != bfs:
            failures.append((p.scheme.name, p.relation, "diameter", diameter, bfs))
        ok, wit = geodesic_correspondence_check(p.scheme, p.relation, p.graph)
        checked_pairs += p.scheme.v * p.scheme.v
        if not ok:
            failures.append((p.scheme.name, p.relation, wit))
    _line(7, "graph distance equals diagram level", not failures,
          f"{checked_pairs} vertex pairs")
    assert not failures, failures


def test_08_small_cut_classification(catalog_pairs, flow_values):
    nx = pytest.importorskip("networkx")
    kappa2 = {(p.scheme.name, p.relation) for p in catalog_pairs
              if p.connected and flow_values[(p.scheme.name, p.relation)][0] == 2}
    cycles = {(p.scheme.name, p.relation) for p in catalog_pairs
              if p.scheme.v >= 3 and nx.is_isomorphic(
                  networkx_graph(p.graph), nx.cycle_graph(p.scheme.v))}
    refs = [nx.cycle_graph(4), nx.cycle_graph(5),
            nx.complete_bipartite_graph(3, 3), nx.petersen_graph()]
    diam2 = [p for p in catalog_pairs
             if p.connected and int(p.graph.distance_matrix().max()) == 2
             and flow_values[(p.scheme.name, p.relation)][0] <= 3]
    unmatched = [(p.scheme.name, p.relation) for p in diam2
                 if not any(nx.is_isomorphic(networkx_graph(p.graph), r)
                            for r in refs)]
    by_key = {(p.scheme.name, p.relation): p for p in catalog_pairs}
    cut_counts = {}
    all_nbhd = True
    for key, want in ((("cyclic-5", 1), 5), (("drg-petersen", 1), 10),
                      (("drg-k33", 1), 2)):
        graph = by_key[key].graph
        data = enumerate_min_cuts(graph, flow_values[key][0])
        cut_counts[key] = (len(data.cuts), want)
        all_nbhd = all_nbhd and data.all_neighborhoods
    ok = (kappa2 == cycles and not unmatched and all_nbhd
          and all(got == want for got, want in cut_counts.values()))
    _line(8, "small-cut classification", ok,
          f"{len(kappa2)} kappa-2 members, {len(diam2)} diameter-2 members")
    assert kappa2 == cycles, (sorted(kappa2 - cycles), sorted(cycles - kappa2))
    assert not unmatched, unmatched
    assert all_nbhd
    for key, (got, want) in cut_counts.items():
        assert got == want, (key, got, want)


def test_09_local_clique_cut_bound(catalog_pairs, flow_values):
    checked = 0
    failures = []
    for p in catalog_pairs:
        if not p.connected:
            continue
        free, _ = k211_free(p.graph)
        if not free:
            continue
        checked += 1
        kappa = flow_values[(p.scheme.name, p.relation)][0]
        p_local = int(p.scheme.p[p.relation, p.relation, p.relation])
        if not kappa > p_local:
            failures.append((p.scheme.name, p.relation, kappa, p_local))
    _line(9, "kappa exceeds the local clique parameter", not failures,
          f"{checked} diamond-free relations")
    assert checked > 0
    assert not failures, failures


SURVEY_SLICE = [
    (("cyclic", (5,)), None),
    (("cyclic", (6,)), None),
    (("cyclic", (10,)), None),
    (("hamming", (3, 2)), None),
    (("hamming", (4, 2)), None),
    (("hamming", (2, 3)), None),
    (("johnson", (5, 2)), None),
    (("johnson", (6, 2)), None),
    (("conjugacy", ("S3",)), None),
    (("conjugacy", ("Q8",)), None),
    (("conjugacy", ("Z5",)), None),
    (("drg", ("petersen",)), None),
]


def test_10_survey_determinism(tmp_path):
    a = tmp_path / "serial"
    b = tmp_path / "parallel"
    sa = run_survey(SURVEY_SLICE, str(a), jobs=1)
    sb = run_survey(SURVEY_SLICE, str(b), jobs=2)
    names_a = sorted(os.listdir(a))
    names_b = sorted(os.listdir(b))
    identical = names_a == names_b
    diffs = []
    for name in names_a:
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            if fa.read() != fb.read():
                identical = False
                diffs.append(name)
    _line(10, "survey output independent of parallelism", identical,
          f"{len(names_a)} files compared")
    assert sa["ok"] and sb["ok"]
    assert len(names_a) > 12
    assert names_a == names_b
    assert not diffs, diffs
