"""Structural audits of basis relation graphs.

Each audit checks a statement that is a theorem for valid symmetric
association schemes, so on catalog input every non-skipped audit must pass;
a failure is an implementation bug or a corrupted scheme, and the witness
fields say where to look.  An audit whose hypothesis fails raises
HypothesisNotMet with the reason (the caller records a skip) rather than
guessing; every audit raises it with reason "disconnected" on a
disconnected relation.

Theorem 1, C1/C2 and the ball-deletion lemma all read the components of
G - N[a] for every basepoint a, with N[a] the ball of radius 1.  The
context sweeps them once and every audit shares the sweep.

On a scheme with a verified transitive group the sweep is basepoint 0
alone (Brouwer-Cohen-Neumaier, Distance-Regular Graphs, 1989, §2.1).  An
automorphism p of the scheme preserves every class, so it is an
automorphism of G that maps N[a] onto N[p(a)] and the components of
G - N[a] onto those of G - N[p(a)], with sizes, adjacency to N(b)
and distances kept.  Whether a basepoint is disconnected, triggers ball
deletion, or fails C1, C2 or a ball-deletion part is therefore constant
on each orbit, and the group's one orbit is X.  So a count of basepoints
is v times the count at 0; C1's pair count is v|N(0)| when C1 holds,
and otherwise the count at 0 up to its first failure, since the full
sweep fails first at basepoint 0 too; and every witness, taken at the
first failing basepoint, is the one at 0.  K_{2,1,1}-freeness is decided
at 0 alike.

The corollary audits rest on one criterion.  Take T inside the closed
neighbourhood N[a] that misses some b in N(a).  Then G - T is disconnected
for some such T iff (i) some component of G - N[a] has no neighbour of b
(witness T = N[a] - {b}), or (ii) some x in N(a) - {b} with x not adjacent
to b has N(x) inside N[a] (witness T = N[a] - {b, x}).  Proof sketch: T
misses every component of G - N[a], so each stays whole in G - T; let R
be b plus these components.  If R is disconnected, (i) holds and its
witness cuts.  If R is connected, G - T is disconnected iff some survivor
of N[a] has no edge into R; it is not adjacent to b, so it is not a, and
it is an x as in (ii), whose witness also cuts it off.  So C1 is decided
exactly, pair by pair, from the components of G - N[a].  C3 then follows:
a maximal clique K lies in N[a] for each a in K, and misses part of N(a)
unless K = N[a] for all its vertices, i.e. G = K is complete, where
nothing is left to disconnect.

Each audit returns a frozen record whose fields, in declaration order, are
its report block as `record_fields` writes it, less the fields marked
UNREPORTED: witnesses, which the record's `findings()` quote (theorem 1's
`first_twin_pair` only library callers read), and values the report
prints elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .connectivity import (CLIQUE_CAP, MIN_CUT_BUDGET, MinCutData,
                           _orbit_representatives, edge_connectivity,
                           enumerate_min_cuts, k211_free, maximal_cliques,
                           vertex_connectivity)
from .diagram import (Diagram, complete_multipartite, exceptional_graph,
                      is_polygon, punctured_components, twin_classes)
from .errors import HypothesisNotMet
from .graph import Graph, bits, mask_of
from .scheme import SchemeDescriptor, relation_graph


# field metadata: the field stays out of the record's report block
UNREPORTED = {"unreported": True}


def record_fields(record) -> dict:
    """The report block of a dataclass record: its fields in declaration
    order, less those marked UNREPORTED, top-level tuples as lists."""
    block = {}
    for f in fields(record):
        if "unreported" not in f.metadata:
            value = getattr(record, f.name)
            block[f.name] = list(value) if isinstance(value, tuple) else value
    return block


class RelationContext:
    """What the audits of relation g read, each computed at most once: the
    graph (built here), the tensor reads (diagram, distances, connectivity,
    completeness, twins) and the per-basepoint component sweeps.  It alone
    decides kappa, lambda and the minimum cuts: kappa by Watkins' theorem
    where the scheme's generators make the graph arc-transitive, else by
    one flow per orbit of the stabiliser of vertex 0; lam as kappa where
    that is the valency (Whitney's chain), else by edge flows likewise;
    min_cuts under the scheme's generators.  The basepoint audits sweep
    `basepoints`: vertex 0 alone when the scheme carries a verified
    transitive group, every vertex when it does not; each stands for
    `weight` of them."""

    def __init__(self, scheme: SchemeDescriptor, g: int):
        self.scheme = scheme
        self.g = g
        self.graph = relation_graph(scheme, g)

    @property
    def diagram(self) -> Diagram:
        return self.scheme.diagrams[self.g]

    @cached_property
    def basepoints(self) -> tuple[int, ...] | range:
        return (0,) if self.scheme.transitive else range(self.scheme.v)

    @cached_property
    def weight(self) -> int:
        return self.scheme.v // len(self.basepoints)

    @cached_property
    def connected(self) -> bool:
        return self.diagram.diameter is not None

    @cached_property
    def complete(self) -> bool:
        return self.scheme.valencies[self.g] == self.scheme.v - 1

    @cached_property
    def complete_multipartite(self) -> bool:
        return complete_multipartite(self.scheme, self.g)

    @cached_property
    def twin_classes(self) -> tuple[int, ...]:
        return twin_classes(self.scheme, self.g)

    @cached_property
    def punctured_components(self) -> tuple[tuple[int, ...], ...]:
        return punctured_components(self.diagram)

    @property
    def h_prime_connected(self) -> bool:
        return len(self.punctured_components) <= 1

    @cached_property
    def swept_components(self) -> tuple[list[int], ...]:
        """For each a in `basepoints`, the components of G - N[a] as bit
        masks by least vertex.  Theorem 1, C1/C2 and ball deletion read
        it."""
        graph = self.graph
        return tuple(graph.component_masks(
            deleted=graph.closed_neighborhood(a)) for a in self.basepoints)

    @cached_property
    def iuw(self) -> IUWDecomposition:
        """The I/U/W decomposition at basepoint 0, shared by the report and
        the W-empty audit."""
        return iuw_decompose(self)

    @cached_property
    def kappa(self) -> int:
        """The valency when the scheme's generators make the graph
        arc-transitive, else one vertex flow per orbit of the stabiliser.

        validate_scheme has checked that the group T generated by
        scheme.transitive moves vertex 0 to every vertex, and that the
        stabiliser generators S fix 0; both preserve every class, so they
        are automorphisms of the graph.  If S makes N(0) one orbit, the
        group G = <T u S> is transitive on arcs: for an arc (x, y) some g
        in G maps x to 0 and y into N(0), and <S> then maps g(y) to every
        neighbour of 0.  A connected graph that is vertex- and
        edge-transitive has vertex connectivity equal to its valency
        (Watkins, J. Combin. Theory 8, 1970; Godsil and Royle, Algebraic
        Graph Theory, 2001, 3.3-3.4).  The argument goes through atoms.
        In a graph that is not complete, an atom is a least set A of
        vertices whose neighbours outside A form a minimum cut that leaves
        some vertex outside both.  Two distinct atoms are disjoint, an
        atom induces a connected subgraph, and automorphisms map atoms to
        atoms, so on a vertex-transitive graph the atoms partition V.  An
        atom with two or more vertices holds an edge, and
        edge-transitivity then puts every edge inside an atom; as the
        atoms are disjoint, each component of the graph lies inside one
        atom, so a connected graph would be a single atom, which misses
        its own cut.  So every atom is one vertex y, its cut is N(y), and
        kappa is the valency.  Complete graphs have no cut and are left to
        vertex_connectivity; a disconnected relation has kappa 0, its one
        minimum cut the empty set, with no graph work."""
        if not self.connected:
            return 0
        graph, scheme = self.graph, self.scheme
        if (scheme.transitive and not self.complete
                and len(_orbit_representatives(
                    list(bits(graph.rows[0])), scheme.stabiliser)) == 1):
            return graph.degree(0)
        return vertex_connectivity(graph, scheme.stabiliser)

    @cached_property
    def lam(self) -> int:
        """Whitney's chain kappa <= lambda <= minimum degree (Amer. J. Math.
        54, 1932): the edges at a vertex are an edge cut, and a minimum edge
        cut F from S to the rest gives a vertex cut no larger.  If all of S
        is adjacent to all the rest, |F| >= n - 1 >= kappa; else take x in
        S and y outside, not adjacent, and of each edge of F its end other
        than x, which misses x and y and meets every x-y path.  A relation
        graph is regular, so kappa = valency gives lambda with no flow.  A
        disconnected relation has lambda 0."""
        if not self.connected:
            return 0
        if self.kappa == self.graph.degree(0):
            return self.kappa
        return edge_connectivity(self.graph, self.scheme.stabiliser)

    def min_cuts(self, budget: int = MIN_CUT_BUDGET) -> MinCutData:
        """enumerate_min_cuts under the scheme's generators."""
        return enumerate_min_cuts(self.graph, self.kappa, budget=budget,
                                  stabiliser=self.scheme.stabiliser,
                                  transitive=self.scheme.transitive)


# -- The four-way equivalence audit --------------------------------------

@dataclass(frozen=True)
class Theorem1Audit:
    exists_a_connected: bool
    forall_a_connected: bool
    h_prime_connected: bool
    twin_free: bool
    equivalent: bool
    disconnected_basepoints: int
    first_twin_pair: Optional[tuple[int, int]] = field(metadata=UNREPORTED)

    def findings(self) -> list[str]:
        return [] if self.equivalent else ["theorem1 conditions disagree"]


def theorem1_audit(ctx: RelationContext) -> Theorem1Audit:
    """Audit the equivalence: some puncture connected / every puncture
    connected / punctured diagram connected / twin-free.  Hypotheses (graph
    connected and not complete multipartite) are enforced."""
    if not ctx.connected:
        raise HypothesisNotMet("disconnected")
    if ctx.complete_multipartite:
        raise HypothesisNotMet("complete multipartite")
    flags = [len(comps) <= 1 for comps in ctx.swept_components]
    hp = ctx.h_prime_connected
    twin_free = not ctx.twin_classes
    # row 0 holds every class, so the least twin pair is 0 and its least twin
    first_twin = None if twin_free else int(
        np.argmax(np.isin(ctx.scheme.classes[0], ctx.twin_classes)))
    exists_a = any(flags)
    forall_a = all(flags)
    return Theorem1Audit(
        exists_a_connected=exists_a,
        forall_a_connected=forall_a,
        h_prime_connected=hp,
        twin_free=twin_free,
        equivalent=(exists_a == forall_a == hp == twin_free),
        disconnected_basepoints=flags.count(False) * ctx.weight,
        first_twin_pair=None if twin_free else (0, first_twin),
    )


# -- Corollaries 1-3 -----------------------------------------------------

@dataclass(frozen=True)
class CorollaryAudits:
    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c1_mode: str = field(default="exact", init=False)
    c1_checked: int              # (a, b) pairs, up to the first failure
    c3_capped: bool
    c1_witness: Optional[dict]   # None when the corollary holds
    c2_witness: Optional[dict]
    c3_witness: Optional[dict]

    def findings(self) -> list[str]:
        return [f"corollary {tag} fails: witness {wit}"
                for tag, ok, wit in (("C1", self.c1_ok, self.c1_witness),
                                     ("C2", self.c2_ok, self.c2_witness),
                                     ("C3", self.c3_ok, self.c3_witness))
                if not ok]


def _c1_cut(graph: Graph, a: int, comps: list[int]
            ) -> tuple[int, Optional[tuple[int, ...]]]:
    """(pairs checked, deleted set) for the pairs (a, b), b in N(a)
    ascending, up to and including the first whose criterion fires."""
    closed = graph.closed_neighborhood(a)
    # neighbours of a whose whole neighbourhood lies in N[a]
    enclosed = mask_of(x for x in bits(graph.neighborhood(a))
                       if not graph.neighborhood(x) & ~closed)
    checked = 0
    for b in bits(graph.neighborhood(a)):
        checked += 1
        rest = closed & ~(1 << b)
        row = graph.neighborhood(b)
        if any(not comp & row for comp in comps):
            return checked, tuple(bits(rest))                    # (i)
        lone = enclosed & ~row & ~(1 << b)
        if lone:
            return checked, tuple(bits(rest & ~(lone & -lone)))  # (ii)
    return checked, None


def corollary_audits(ctx: RelationContext) -> CorollaryAudits:
    """C2: deleting an open neighborhood leaves at most one non-singleton
    component.  C1: deleting any T inside a closed neighborhood N[a] that
    misses part of the open one leaves the graph connected.  C3: deleting
    any maximal clique leaves the graph connected.

    C1 is decided exactly by the criterion of the module docstring, one
    (a, b) pair at a time, basepoint-major with b ascending; C2 is read off
    the component sizes, since G minus N(a) is a alone plus the components
    of G - N[a].  C3 holds whenever C1 does; only when C1 fails are the
    maximal cliques listed (at most CLIQUE_CAP) to find a C3 witness."""
    if not ctx.connected:
        raise HypothesisNotMet("disconnected")
    graph = ctx.graph
    checked, c1_wit, c2_wit = 0, None, None
    for a, comps in zip(ctx.basepoints, ctx.swept_components):
        if c2_wit is None:
            big = sum(1 for comp in comps if comp.bit_count() >= 2)
            if big > 1:
                c2_wit = {"basepoint": a, "non_singleton_components": big}
        if c1_wit is None:
            n, cut = _c1_cut(graph, a, comps)
            checked += n
            if cut is not None:
                c1_wit = {"basepoint": a, "deleted": list(cut)}
    if c1_wit is None:
        checked *= ctx.weight
    c3_wit, capped = None, False
    if c1_wit is not None:
        cliques, capped = maximal_cliques(graph, cap=CLIQUE_CAP)
        c3_wit = next(({"clique": list(bits(c))} for c in cliques
                       if not graph.is_connected(deleted=c)), None)
    return CorollaryAudits(c1_ok=c1_wit is None, c2_ok=c2_wit is None,
                           c3_ok=c3_wit is None, c1_checked=checked,
                           c1_witness=c1_wit, c2_witness=c2_wit,
                           c3_witness=c3_wit, c3_capped=capped)


# -- the I/U/W decomposition --------------------------------------------

@dataclass(frozen=True)
class IUWDecomposition:
    h_prime_connected: bool
    i_classes: tuple[int, ...]
    u_classes: tuple[int, ...]
    w_classes: tuple[int, ...]
    sizes: tuple[int, int, int]     # of I, U and W in row 0


def iuw_decompose(ctx: RelationContext) -> IUWDecomposition:
    """Partition the non-{0,g} classes into twin classes (I), a
    minimum-weight non-singleton diagram component (U), and the rest (W).
    The diagram has no loops, so a one-class component (i,) is
    non-singleton in the graph when p_gi^i > 0: each vertex of class i
    has that many neighbours in class i.  When the punctured diagram is
    connected the decomposition is all-empty by convention."""
    scheme, g = ctx.scheme, ctx.g
    if ctx.h_prime_connected:
        return IUWDecomposition(h_prime_connected=True, i_classes=(),
                                u_classes=(), w_classes=(), sizes=(0, 0, 0))
    i_classes = ctx.twin_classes
    p = scheme.p
    non_singleton = [c for c in ctx.punctured_components
                     if len(c) >= 2 or p[g, c[0], c[0]] > 0]
    u_classes = min(non_singleton, default=(),
                    key=lambda c: (sum(scheme.valencies[i] for i in c), c))
    w_classes = tuple(i for i in range(1, scheme.d + 1) if i != g
                      and i not in i_classes and i not in u_classes)
    # row 0 holds valency-many vertices of each class
    sizes = tuple(sum(scheme.valencies[c] for c in cls)
                  for cls in (i_classes, u_classes, w_classes))
    return IUWDecomposition(h_prime_connected=False,
                            i_classes=i_classes, u_classes=u_classes,
                            w_classes=w_classes, sizes=sizes)


@dataclass(frozen=True)
class WEmptyAudit:
    ok: bool
    w_classes: tuple[int, ...]
    distance2_ok: bool           # every U_a vertex at distance exactly 2
    distance2_vacuous: bool
    h_prime_connected: bool = field(metadata=UNREPORTED)
    distance2_witness: Optional[tuple[int, int, int]] = field(
        metadata=UNREPORTED)

    def findings(self) -> list[str]:
        found = []
        if not self.ok:
            found.append(f"W classes nonempty on connected relation: "
                         f"{self.w_classes}")
        if not self.distance2_ok:
            found.append(
                f"U_a vertex not at distance 2: {self.distance2_witness}")
        return found


def w_empty_audit(ctx: RelationContext) -> WEmptyAudit:
    """For a connected relation the W part must be empty, and every vertex
    of U_a must sit at distance exactly 2 from a, the distances read off
    the diagram levels.  The witness is (a, x, distance) for the first
    failing basepoint a and its least failing vertex x."""
    if not ctx.connected:
        raise HypothesisNotMet("disconnected")
    dec = ctx.iuw
    ok = not dec.w_classes
    d2_ok, d2_wit = True, None
    # the distance-2 conclusion is conditional on a nonempty W part
    vacuous = not dec.w_classes or not dec.u_classes
    if not vacuous:
        # distance depends only on the class and every class occurs in row
        # 0, so basepoint 0 holds the first failure of any basepoint
        row = ctx.scheme.classes[0]
        dist = ctx.diagram.levels[row]
        bad = np.isin(row, dec.u_classes) & (dist != 2)
        if bad.any():
            x = int(np.argmax(bad))
            d2_ok, d2_wit = False, (0, x, int(dist[x]))
    return WEmptyAudit(ok=ok, h_prime_connected=dec.h_prime_connected,
                       w_classes=dec.w_classes, distance2_ok=d2_ok,
                       distance2_vacuous=vacuous, distance2_witness=d2_wit)


# -- ball deletion -------------------------------------------------------

@dataclass(frozen=True)
class BallDeletionAudit:
    t: int = field(default=1, init=False)    # the radius of the ball
    h_minus_ball_connected: bool
    triggered_basepoints: int
    part_a_ok: bool
    part_b_ok: bool
    diameter: int = field(metadata=UNREPORTED)
    part_a_witness: Optional[tuple] = field(metadata=UNREPORTED)
    part_b_witness: Optional[tuple] = field(metadata=UNREPORTED)

    def findings(self) -> list[str]:
        found = []
        if not self.part_a_ok:
            found.append(
                f"ball deletion part (a) fails: {self.part_a_witness}")
        if not self.part_b_ok:
            found.append(
                f"ball deletion part (b) fails: {self.part_b_witness}")
        return found


def ball_deletion_audit(ctx: RelationContext) -> BallDeletionAudit:
    """Delete the radius-1 ball N[a] around a basepoint a.  If the diagram
    minus its ball {0, g} stays connected but G - N[a] does not, the graph
    diameter is at most 2; and any vertex cut off from a
    diameter-realizing vertex lies within distance 2 of a.

    The diagram minus {0, g} is the punctured diagram, and the components
    of G - N[a] are the context's shared sweep, the one theorem 1 and
    C1/C2 read.  The diameter is the diagram's, and the distances from a
    are the levels of a's class row."""
    if not ctx.connected:
        raise HypothesisNotMet("disconnected")
    levels, diameter = ctx.diagram.levels, ctx.diagram.diameter
    triggered = 0
    a_ok = b_ok = True
    a_wit = b_wit = None
    for a, comp_masks in zip(ctx.basepoints, ctx.swept_components):
        if len(comp_masks) <= 1:
            continue
        triggered += ctx.weight
        if ctx.h_prime_connected and b_ok and diameter > 2:
            b_ok, b_wit = False, (a, diameter)
        if a_ok:
            rest = sum(comp_masks)   # disjoint masks: the sum is the union
            dist_row = levels[ctx.scheme.classes[a]]
            for cm in comp_masks:
                far = [x for x in bits(cm) if dist_row[x] == diameter]
                if not far:
                    continue
                for x in bits(rest & ~cm):
                    if dist_row[x] > 2:
                        a_ok, a_wit = False, (a, far[0], x, int(dist_row[x]))
                        break
                if not a_ok:
                    break
    return BallDeletionAudit(diameter=diameter,
                             h_minus_ball_connected=ctx.h_prime_connected,
                             triggered_basepoints=triggered,
                             part_a_ok=a_ok, part_b_ok=b_ok,
                             part_a_witness=a_wit, part_b_witness=b_wit)


# -- small-cut classification -------------------------------------------

@dataclass(frozen=True)
class SmallCutAudit:
    kappa: int = field(metadata=UNREPORTED)
    diameter: Optional[int] = field(metadata=UNREPORTED)
    tcut2_applicable: bool
    tcut2_ok: bool
    tdiam2_applicable: bool
    tdiam2_ok: bool
    tdiam2_best_t: Optional[int]
    tdiam2_t_equals_valency: bool    # reported only, no assertion
    tcut3_applicable: bool
    tcut3_ok: bool
    tcut3_match: Optional[str]

    def findings(self) -> list[str]:
        return [f"small-cut theorem fails: {tag}"
                for tag, app, ok in (
                    ("size-2 cut", self.tcut2_applicable, self.tcut2_ok),
                    ("diameter-2 bound", self.tdiam2_applicable,
                     self.tdiam2_ok),
                    ("size-3 classification", self.tcut3_applicable,
                     self.tcut3_ok))
                if app and not ok]


def small_cut_theorems_audit(ctx: RelationContext) -> SmallCutAudit:
    """kappa = 2 forces a polygon; diameter-2 graphs obey the counting
    lower bound on kappa; diameter-2 with kappa <= 3 is one of four
    exceptional graphs.  kappa comes from the graph, the shapes from the
    tensor (see the diagram module)."""
    if not ctx.connected:
        raise HypothesisNotMet("disconnected")
    scheme, g, kappa = ctx.scheme, ctx.g, ctx.kappa
    diam = ctx.diagram.diameter
    v1 = scheme.valencies[g]
    n = scheme.v

    cut2_app = kappa == 2
    cut2_ok = is_polygon(scheme, g) if cut2_app else True

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
    match = exceptional_graph(scheme, g) if cut3_app else None
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
    applicable: bool = field(default=True, init=False)
    ok: bool
    p_local: int          # p_gg^g for the designated class
    slack: int
    kappa: int = field(metadata=UNREPORTED)

    def findings(self) -> list[str]:
        return [] if self.ok else [f"cut-size lemma fails: kappa {self.kappa}"
                                   f" <= p_local {self.p_local}"]


def spec_cut_audit(ctx: RelationContext) -> SpecCutAudit:
    """On a K_{2,1,1}-free relation every minimum disconnecting set is
    larger than p_11^1 (with 1 the designated class); every minimum
    disconnecting set has size kappa, so comparing kappa decides it."""
    if not ctx.connected:
        raise HypothesisNotMet("disconnected")
    free, wit = k211_free(ctx.graph, ctx.basepoints)
    if not free:
        raise HypothesisNotMet(f"not K_{{2,1,1}}-free: witness {wit}")
    g = ctx.g
    p_local = int(ctx.scheme.p[g, g, g])
    kappa = ctx.kappa
    return SpecCutAudit(ok=kappa > p_local, p_local=p_local, kappa=kappa,
                        slack=kappa - p_local)
