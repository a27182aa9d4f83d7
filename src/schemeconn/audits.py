"""Structural audits of basis relation graphs.

Each audit checks a statement that is a theorem for valid symmetric
association schemes, so on catalog input every non-skipped audit must pass;
a failure is an implementation bug or a corrupted scheme, and the witness
fields say where to look.  Audits whose hypotheses fail raise
HypothesisViolation (the caller records a skip) rather than guessing.

The corollary sweeps rest on one lemma.  Let T lie inside the closed
neighbourhood N[a].  Then G - T is connected iff the quotient of G - T is,
where each component of G - N[a] is contracted to one node: T misses every
such component, each stays whole and connected in G - T, and contracting
connected vertex sets neither joins nor splits components.  So one small
quotient per basepoint decides every deletion set inside N[a], and batches
of sets are decided together by a boolean BFS over it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .connectivity import (TwinData, edge_connectivity, is_isomorphic,
                           k211_free, maximal_cliques, twins,
                           vertex_connectivity)
from .diagram import Diagram, distribution_diagram, h_prime_connected
from .errors import Disconnected, HypothesisNotMet, HypothesisViolation
from .graph import (Graph, bits, complete_bipartite, cycle_graph, mask_of,
                    petersen)
from .scheme import SchemeDescriptor, is_complete_multipartite, relation_graph
from .sweeps import deletion_sweeps

DEFAULT_SEED = 0x5EED
C1_EXHAUSTIVE_VALENCY = 12
CLIQUE_CAP = 100_000


class RelationContext:
    """What the audits of relation g read, each computed at most once: the
    graph (built here), its distribution diagram, twins and connectivity."""

    def __init__(self, scheme: SchemeDescriptor, g: int):
        self.scheme = scheme
        self.g = g
        self.graph = relation_graph(scheme, g)

    @cached_property
    def diagram(self) -> Diagram:
        return distribution_diagram(self.scheme, self.g)

    @cached_property
    def connected(self) -> bool:
        return self.graph.is_connected()

    @cached_property
    def complete(self) -> bool:
        return self.graph.is_complete()

    @cached_property
    def complete_multipartite(self) -> bool:
        return is_complete_multipartite(self.graph)

    @cached_property
    def twins(self) -> TwinData:
        return twins(self.graph)

    @cached_property
    def h_prime_connected(self) -> bool:
        return h_prime_connected(self.diagram)

    @cached_property
    def kappa(self) -> int:
        return vertex_connectivity(self.graph)

    @cached_property
    def lam(self) -> int:
        return edge_connectivity(self.graph)


# -- The four-way equivalence audit --------------------------------------

@dataclass(frozen=True)
class Theorem1Audit:
    exists_a_connected: bool
    forall_a_connected: bool
    h_prime_connected: bool
    twin_free: bool
    equivalent: bool
    disconnected_basepoints: int
    first_twin_pair: Optional[tuple[int, int]]


def theorem1_audit(ctx: RelationContext) -> Theorem1Audit:
    """Audit the equivalence: some puncture connected / every puncture
    connected / punctured diagram connected / twin-free.  Hypotheses (graph
    connected and not complete multipartite) are enforced."""
    graph = ctx.graph
    if not ctx.connected:
        raise HypothesisViolation("disconnected")
    if ctx.complete_multipartite:
        raise HypothesisViolation("complete multipartite")
    flags = [graph.is_connected(deleted=graph.closed_neighborhood(a))
             for a in range(ctx.scheme.v)]
    hp = ctx.h_prime_connected
    tw = ctx.twins
    twin_free = not tw.pairs
    exists_a = any(flags)
    forall_a = all(flags)
    return Theorem1Audit(
        exists_a_connected=exists_a,
        forall_a_connected=forall_a,
        h_prime_connected=hp,
        twin_free=twin_free,
        equivalent=(exists_a == forall_a == hp == twin_free),
        disconnected_basepoints=flags.count(False),
        first_twin_pair=tw.pairs[0] if tw.pairs else None,
    )


# -- Corollaries 1-3 -----------------------------------------------------

@dataclass(frozen=True)
class CorollaryAudits:
    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c1_mode: str                 # "exhaustive" or "sampled"
    c1_checked: int
    c1_witness: Optional[tuple]
    c2_witness: Optional[tuple]
    c3_witness: Optional[tuple]
    c3_clique_count: int
    c3_capped: bool
    seed: int


def corollary_audits(ctx: RelationContext, seed: int = DEFAULT_SEED,
                     clique_cap: int = CLIQUE_CAP) -> CorollaryAudits:
    """C2: deleting an open neighborhood leaves at most one non-singleton
    component.  C1: deleting any T inside a closed neighborhood that misses
    part of the open one leaves the graph connected (exhaustive for valency
    <= 12, else sizes <= 3 plus a seeded sample; sizes below the known
    vertex connectivity cannot disconnect and are skipped by definition).
    C3: deleting any maximal clique (at most clique_cap are listed) leaves
    the graph connected.

    Every set deleted here lies inside one closed neighbourhood N[a]; a
    clique lies inside N[its least vertex].  Lemma: for T inside N[a], G - T
    is connected iff the quotient of G by the components of G - N[a] is
    connected once T's members are removed.  Proof: T misses every such
    component, so each stays whole and connected in G - T, and contracting
    connected vertex sets neither joins nor splits components.  The sweeps
    therefore run on at most valency + 1 + (component count) nodes, one
    quotient per basepoint shared by C2, C1 and C3.  C2 is read off the
    component sizes: after deleting the open neighbourhood, a is alone
    and the rest are exactly these components."""
    if not ctx.connected:
        raise Disconnected("corollary audits need a connected relation")
    graph = ctx.graph
    v1 = ctx.scheme.valencies[ctx.g]
    kappa = rng = None
    if v1 > C1_EXHAUSTIVE_VALENCY:
        kappa = ctx.kappa
        rng = random.Random(f"{seed:#x}:{ctx.scheme.name}:{ctx.g}")
    cliques, capped = maximal_cliques(graph, cap=clique_cap)
    checked, c1_wit, c2_wit, c3_wit = deletion_sweeps(graph, v1, kappa, rng,
                                                     cliques)
    return CorollaryAudits(c1_ok=c1_wit is None, c2_ok=c2_wit is None,
                           c3_ok=c3_wit is None,
                           c1_mode="exhaustive" if rng is None else "sampled",
                           c1_checked=checked, c1_witness=c1_wit,
                           c2_witness=c2_wit, c3_witness=c3_wit,
                           c3_clique_count=len(cliques), c3_capped=capped,
                           seed=seed)


# -- the I/U/W decomposition --------------------------------------------

@dataclass(frozen=True)
class IUWDecomposition:
    basepoint: int
    h_prime_connected: bool
    i_classes: tuple[int, ...]
    u_classes: tuple[int, ...]
    w_classes: tuple[int, ...]
    i_vertices: tuple[int, ...]
    u_vertices: tuple[int, ...]
    w_vertices: tuple[int, ...]
    component_map: tuple[tuple[int, ...], ...]   # components of graph minus a's closed nbhd


def iuw_decompose(ctx: RelationContext, a: int = 0) -> IUWDecomposition:
    """Partition the non-{0,g} classes into twin classes (I), a
    minimum-weight non-singleton diagram component (U), and the rest (W);
    pull each back to a vertex set at the given basepoint.  When the
    punctured diagram is connected the decomposition is all-empty by
    convention."""
    scheme, g, graph = ctx.scheme, ctx.g, ctx.graph
    comp_map = tuple(
        tuple(bits(m))
        for m in graph.component_masks(deleted=graph.closed_neighborhood(a)))
    if ctx.h_prime_connected:
        return IUWDecomposition(basepoint=a, h_prime_connected=True,
                                i_classes=(), u_classes=(), w_classes=(),
                                i_vertices=(), u_vertices=(), w_vertices=(),
                                component_map=comp_map)
    p = scheme.tensor.p
    vg = scheme.valencies[g]
    nodes = [i for i in range(1, scheme.d + 1) if i != g]
    i_classes = tuple(i for i in nodes if p[g, g, i] == vg)
    punctured = Graph(ctx.diagram.size, ctx.diagram.adj)
    comps = [tuple(bits(m))
             for m in punctured.component_masks(deleted=1 | 1 << g)]
    non_singleton = [c for c in comps if len(c) >= 2]
    if non_singleton:
        u_classes = min(non_singleton,
                        key=lambda c: (sum(scheme.valencies[i] for i in c), c))
    else:
        u_classes = ()
    w_classes = tuple(i for i in nodes
                      if i not in i_classes and i not in u_classes)
    row = scheme.table.classes[a]

    def pullback(cls_set):
        if not cls_set:
            return ()
        sel = np.isin(row, np.array(cls_set, dtype=row.dtype))
        return tuple(int(x) for x in np.nonzero(sel)[0])

    return IUWDecomposition(basepoint=a, h_prime_connected=False,
                            i_classes=i_classes, u_classes=tuple(u_classes),
                            w_classes=w_classes,
                            i_vertices=pullback(i_classes),
                            u_vertices=pullback(tuple(u_classes)),
                            w_vertices=pullback(w_classes),
                            component_map=comp_map)


@dataclass(frozen=True)
class WEmptyAudit:
    ok: bool
    h_prime_connected: bool
    w_classes: tuple[int, ...]
    distance2_ok: bool           # every U_a vertex at distance exactly 2
    distance2_vacuous: bool
    distance2_witness: Optional[tuple[int, int, int]]


def w_empty_audit(ctx: RelationContext) -> WEmptyAudit:
    """For a connected relation the W part must be empty, and every vertex
    of U_a must sit at distance exactly 2 from a (checked on the graph
    itself, every basepoint)."""
    if not ctx.connected:
        raise Disconnected("w-empty audit needs a connected relation")
    scheme, graph = ctx.scheme, ctx.graph
    dec = iuw_decompose(ctx, 0)
    ok = not dec.w_classes
    d2_ok, d2_wit = True, None
    # the distance-2 conclusion is conditional on a nonempty W part
    vacuous = not dec.w_classes or not dec.u_classes
    if not vacuous:
        u_arr = np.array(dec.u_classes, dtype=scheme.table.classes.dtype)
        for a in range(scheme.v):
            dist = graph.distances_from(a)
            row = scheme.table.classes[a]
            for x in np.nonzero(np.isin(row, u_arr))[0]:
                if dist[int(x)] != 2:
                    d2_ok, d2_wit = False, (a, int(x), dist[int(x)])
                    break
            if not d2_ok:
                break
    return WEmptyAudit(ok=ok, h_prime_connected=dec.h_prime_connected,
                       w_classes=dec.w_classes, distance2_ok=d2_ok,
                       distance2_vacuous=vacuous, distance2_witness=d2_wit)


# -- ball deletion -------------------------------------------------------

@dataclass(frozen=True)
class BallDeletionAudit:
    t: int
    diameter: int
    ball_classes: tuple[int, ...]
    h_minus_ball_connected: bool
    triggered_basepoints: int
    part_a_ok: bool
    part_b_ok: bool
    part_a_witness: Optional[tuple]
    part_b_witness: Optional[tuple]


def ball_deletion_audit(ctx: RelationContext, t: int) -> BallDeletionAudit:
    """Delete the radius-t class ball around a basepoint.  If the diagram
    minus its ball stays connected but the graph minus the vertex ball does
    not, the graph diameter is at most 2t; and any vertex cut off from a
    diameter-realizing vertex lies within distance 2t of the basepoint."""
    if not ctx.connected:
        raise Disconnected("ball deletion audit needs a connected relation")
    scheme, graph, diag = ctx.scheme, ctx.graph, ctx.diagram
    dm = graph.distance_matrix()
    diameter = int(dm.max())
    if not 1 <= t <= diameter:
        raise ValueError(f"radius {t} outside 1..{diameter}")
    ball = tuple(i for i in range(scheme.d + 1)
                 if diag.levels[i] is not None and diag.levels[i] <= t)
    h_minus_conn = Graph(diag.size, diag.adj).is_connected(
        deleted=mask_of(ball))
    ball_arr = np.array(ball, dtype=scheme.table.classes.dtype)
    triggered = 0
    a_ok = b_ok = True
    a_wit = b_wit = None
    for a in range(scheme.v):
        row = scheme.table.classes[a]
        del_mask = mask_of(int(x) for x in np.nonzero(np.isin(row, ball_arr))[0])
        rest = graph.alive & ~del_mask
        if rest == 0:
            continue
        comp_masks = graph.component_masks(deleted=del_mask)
        if len(comp_masks) <= 1:
            continue
        triggered += 1
        if h_minus_conn and b_ok and diameter > 2 * t:
            b_ok, b_wit = False, (a, diameter)
        if a_ok:
            dist_row = dm[a]
            for cm in comp_masks:
                far = [x for x in bits(cm) if dist_row[x] == diameter]
                if not far:
                    continue
                for x in bits(rest & ~cm):
                    if dist_row[x] > 2 * t:
                        a_ok, a_wit = False, (a, far[0], x, int(dist_row[x]))
                        break
                if not a_ok:
                    break
    return BallDeletionAudit(t=t, diameter=diameter, ball_classes=ball,
                             h_minus_ball_connected=h_minus_conn,
                             triggered_basepoints=triggered,
                             part_a_ok=a_ok, part_b_ok=b_ok,
                             part_a_witness=a_wit, part_b_witness=b_wit)


# -- small-cut classification -------------------------------------------

@dataclass(frozen=True)
class SmallCutAudit:
    kappa: int
    diameter: Optional[int]
    tcut2_applicable: bool
    tcut2_ok: bool
    tdiam2_applicable: bool
    tdiam2_ok: bool
    tdiam2_best_t: Optional[int]
    tdiam2_t_equals_valency: bool    # reported only, no assertion
    tcut3_applicable: bool
    tcut3_ok: bool
    tcut3_match: Optional[str]


def _exceptional_match(graph: Graph) -> Optional[str]:
    targets = [("C4", cycle_graph(4)), ("C5", cycle_graph(5)),
               ("K33", complete_bipartite(3, 3)), ("petersen", petersen())]
    n = graph.vertex_count()
    degs = sorted(graph.degrees())
    for name, tg in targets:
        if n != tg.vertex_count() or degs != sorted(tg.degrees()):
            continue
        if graph.girth() != tg.girth():
            continue
        if is_isomorphic(graph, tg):
            return name
    return None


def small_cut_theorems_audit(ctx: RelationContext) -> SmallCutAudit:
    """kappa = 2 forces a polygon; diameter-2 graphs obey the counting
    lower bound on kappa; diameter-2 with kappa <= 3 is one of four
    exceptional graphs."""
    if not ctx.connected:
        raise Disconnected("small-cut audit needs a connected relation")
    graph, kappa = ctx.graph, ctx.kappa
    diam = graph.diameter()
    v1 = ctx.scheme.valencies[ctx.g]
    n = ctx.scheme.v

    cut2_app = kappa == 2
    cut2_ok = graph.is_cycle_graph() if cut2_app else True

    diam2_app = diam == 2
    diam2_ok = True
    best_t = None
    if diam2_app:
        for t in range(1, v1):
            if n > v1 * (t - 1) + 2:
                best_t = t
                if kappa < t + 1:
                    diam2_ok = False
    t_eq = diam2_app and n > v1 * (v1 - 1) + 2

    cut3_app = diam2_app and kappa <= 3
    match = _exceptional_match(graph) if cut3_app else None
    cut3_ok = (match is not None) if cut3_app else True

    return SmallCutAudit(kappa=kappa, diameter=diam,
                         tcut2_applicable=cut2_app, tcut2_ok=cut2_ok,
                         tdiam2_applicable=diam2_app, tdiam2_ok=diam2_ok,
                         tdiam2_best_t=best_t, tdiam2_t_equals_valency=t_eq,
                         tcut3_applicable=cut3_app, tcut3_ok=cut3_ok,
                         tcut3_match=match)


# -- cut-size lemma ------------------------------------------------------

@dataclass(frozen=True)
class SpecCutAudit:
    ok: bool
    p_local: int          # p_gg^g for the designated class
    kappa: int
    slack: int


def spec_cut_audit(ctx: RelationContext) -> SpecCutAudit:
    """On a K_{2,1,1}-free relation every minimum disconnecting set is
    larger than p_11^1 (with 1 the designated class); every minimum
    disconnecting set has size kappa, so comparing kappa decides it."""
    if not ctx.connected:
        raise Disconnected("cut-size audit needs a connected relation")
    free, wit = k211_free(ctx.graph)
    if not free:
        raise HypothesisNotMet(f"not K_{{2,1,1}}-free: witness {wit}")
    g = ctx.g
    p_local = ctx.scheme.p(g, g, g)
    kappa = ctx.kappa
    return SpecCutAudit(ok=kappa > p_local, p_local=p_local, kappa=kappa,
                        slack=kappa - p_local)
