"""Vertex/edge connectivity, twins, minimum cuts, and clique machinery.

Connectivity is computed by unit-capacity max-flow, with one Dinic for both
kinds.  Vertex connectivity reduces to arc-disjoint paths on the split
digraph (Even and Tarjan, SIAM J. Comput. 4, 1975): vertex v becomes an
in-node v and an out-node v + n, joined by the one arc v -> v + n, and each
edge {v, w} becomes the arcs v + n -> w and w + n -> v.  Every path through
v then passes that single internal arc, so arc-disjoint paths from the
out-node of s to the in-node of t are internally vertex-disjoint s-t paths
and back.

The global vertex connectivity minimizes over the source s = 0 against
all its non-neighbors plus a sweep over non-adjacent pairs of its
neighbors.  A minimum cut either misses s (first sweep: pick t in the far
component) or contains s, in which case s keeps neighbors in two different
components of the cut graph (second sweep), because dropping s from a cut
all of whose far components avoid Gamma(s) would leave a smaller cut.
Everything is deterministic: least-index choices throughout.

Both sweeps may be cut down by automorphisms fixing s.  An automorphism p
maps internally disjoint u-w paths to internally disjoint p(u)-p(w) paths
and back (p^-1 is an automorphism too), so the local connectivity of
{u, w} equals that of {p(u), p(w)}, and likewise for edge-disjoint paths.
Since p fixes s, it permutes the targets t (the non-neighbours of s, for
edges every other vertex) and the non-adjacent pairs inside Gamma(s).  So
every member of an orbit of the group the automorphisms generate has the
same local connectivity, and one flow per orbit gives the same minimum as
the full sweep.  Each orbit is found by a depth-first search over the
generators' images from its first item; with no generators every target
and pair is its own orbit and the sweep runs in full, in the same order.

The theorems that decide kappa and lambda without a flow (Watkins' and
Whitney's) are applied in audits.RelationContext, which runs the sweeps
here only where they leave a value open.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import CapExceeded, Disconnected
from .graph import Graph, bits, layers, mask_of


# -- twins ---------------------------------------------------------------

@dataclass(frozen=True)
class TwinData:
    pairs: tuple[tuple[int, int], ...]
    classes: tuple[tuple[int, ...], ...]


def twins(graph: Graph) -> TwinData:
    """Vertices with identical open neighborhoods, grouped into classes.
    Twins are never adjacent (b in Gamma(a) = Gamma(b) would be a loop), so
    comparing rows directly is enough."""
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(graph.rows):
        groups.setdefault(row, []).append(v)
    classes = sorted(tuple(g) for g in groups.values() if len(g) > 1)
    pairs = sorted((a, b) for g in classes for a, b in combinations(g, 2))
    return TwinData(pairs=tuple(pairs), classes=tuple(classes))


# -- unit-capacity max-flow -----------------------------------------------

def _dinic(rows, s: int, t: int, limit: int) -> tuple[int, list, list]:
    """Arc-disjoint s-t paths, Dinic, capped at limit: (flow, residual,
    rused).  rows are the out-rows of a digraph (rows[v] has bit w for each
    arc v -> w), an undirected graph being the symmetric case; residual[v]
    has bit w for each arc v -> w without flow and each arc w -> v with
    flow, and rused[v] only the latter.  An augment removes arcs from level
    i to i + 1 and adds arcs back from i + 1 to i, which the level masks
    never follow, so a phase's levels stay valid throughout."""
    n = len(rows)
    used = [0] * n                  # used[v]: targets carrying flow v -> w
    rused = [0] * n                 # rused[v]: sources w with flow w -> v
    residual = list(rows)
    bt = 1 << t
    flow = 0
    while flow < limit:
        lmask = []                  # lmask[i]: states at BFS level i
        for frontier in layers(residual, s):
            lmask.append(frontier)
            if frontier & bt:
                break
        else:
            return flow, residual, rused
        dead = 0
        cur: dict[int, int] = {}
        stack = [s]
        while True:
            v = stack[-1]
            if v == t:
                for u, w in zip(stack, stack[1:]):
                    if used[w] >> u & 1:        # cancel w -> u
                        used[w] &= ~(1 << u)
                        rused[u] &= ~(1 << w)
                    else:                       # add u -> w
                        used[u] |= 1 << w
                        rused[w] |= 1 << u
                    for x in (u, w):
                        residual[x] = (rows[x] & ~used[x]) | rused[x]
                flow += 1
                if flow >= limit:
                    return flow, residual, rused
                stack = [s]
                cur.pop(s, None)
                continue
            if v not in cur:            # the stack holds one state per level
                lvl = len(stack)
                cur[v] = residual[v] & (lmask[lvl] if lvl < len(lmask) else 0)
            advanced = False
            pick = cur[v] & ~dead
            while pick:
                b = pick & -pick
                w = b.bit_length() - 1
                cur[v] ^= b
                pick ^= b
                # revalidate: arcs may have been consumed by an augment
                if residual[v] >> w & 1:
                    stack.append(w)
                    advanced = True
                    break
            if advanced:
                continue
            if v == s:
                break
            dead |= 1 << v
            stack.pop()
            cur.pop(v, None)
    return flow, residual, rused


def _edge_flow(rows, s: int, t: int, limit: int) -> int:
    """Number of arc-disjoint s-t paths in the digraph of out-rows rows,
    capped at limit."""
    return _dinic(rows, s, t, limit)[0]


def _split(rows) -> list[int]:
    """Out-rows of the split digraph: in-node v (< n) has the one arc to
    its out-node v + n, whose arcs go to the in-nodes of v's neighbours."""
    n = len(rows)
    return [1 << v + n for v in range(n)] + list(rows)


def _vertex_flow(rows, s: int, t: int, limit: int) -> int:
    """Number of internally vertex-disjoint s-t paths (s, t distinct and
    non-adjacent), capped at limit: the arc-disjoint paths from the
    out-node of s to the in-node of t on the split digraph."""
    return _dinic(_split(rows), s + len(rows), t, limit)[0]


def _orbit_representatives(items: Sequence, automorphisms) -> list[int]:
    """Positions of the items that come first in their orbits under the
    group generated by automorphisms, ascending.  items are distinct
    vertices or ascending vertex pairs; an automorphism p maps an item to
    its image (for a pair, the ascending pair of the images), which must be
    an item again.  Each orbit is found by a depth-first search from its
    first item over the generators' images: a generator permutes the finite
    set of items, so some power of it is its inverse, and forward images
    alone reach the whole orbit."""
    index = {item: i for i, item in enumerate(items)}
    seen = [False] * len(items)
    reps = []
    for i in range(len(items)):
        if seen[i]:
            continue
        reps.append(i)
        seen[i] = True
        stack = [i]
        while stack:
            item = items[stack.pop()]
            for k, p in enumerate(automorphisms):
                if isinstance(item, tuple):
                    u, w = p[item[0]], p[item[1]]
                    j = index.get((u, w) if u < w else (w, u))
                else:
                    j = index.get(p[item])
                if j is None:
                    raise ValueError(f"automorphism {k} moves {item} out of "
                                     f"the swept set")
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
    return reps


def _check_fixes_source(automorphisms) -> None:
    """Every automorphism must fix the source, vertex 0."""
    for k, p in enumerate(automorphisms):
        if p[0] != 0:
            raise ValueError(f"automorphism {k} maps the source 0 to {p[0]}")


def vertex_connectivity(graph: Graph, automorphisms=()) -> int:
    """Global vertex connectivity; n-1 for complete graphs.  automorphisms
    (image sequences of graph automorphisms fixing vertex 0) shrink the
    sweep to one flow per orbit; the value is the same."""
    n, rows = graph.n, graph.rows
    if n == 0:
        raise ValueError("empty graph")
    _check_fixes_source(automorphisms)
    if n == 1:
        return 0
    if not graph.is_connected():
        raise Disconnected("graph is disconnected")
    if graph.is_complete():
        return n - 1
    nb = rows[0]
    best = min(graph.degrees())
    targets = list(bits(((1 << n) - 1) & ~graph.closed_neighborhood(0)))
    for i in _orbit_representatives(targets, automorphisms):
        f = _vertex_flow(rows, 0, targets[i], best)
        if f < best:
            best = f
    # for each neighbour u of 0, the later neighbours w > u that u misses
    pairs = [(u, w) for u in bits(nb)
             for w in bits(nb & ~rows[u] & ~((2 << u) - 1))]
    for i in _orbit_representatives(pairs, automorphisms):
        u, w = pairs[i]
        f = _vertex_flow(rows, u, w, best)
        if f < best:
            best = f
    return best


def edge_connectivity(graph: Graph, automorphisms=()) -> int:
    """Global edge connectivity: the least flow from vertex 0 to another
    vertex, one flow per orbit of automorphisms fixing 0."""
    if graph.n < 2:
        raise ValueError("need at least two vertices")
    _check_fixes_source(automorphisms)
    if not graph.is_connected():
        raise Disconnected("graph is disconnected")
    best = min(graph.degrees())
    targets = list(range(1, graph.n))
    for i in _orbit_representatives(targets, automorphisms):
        f = _edge_flow(graph.rows, 0, targets[i], best)
        if f < best:
            best = f
    return best


# -- minimum cut enumeration --------------------------------------------

@dataclass(frozen=True)
class MinCutData:
    cuts: tuple[tuple[int, ...], ...]
    neighborhood_flags: tuple[bool, ...]

    @property
    def all_neighborhoods(self) -> bool:
        return all(self.neighborhood_flags)


# the most subsets enumerate_min_cuts tries by default
MIN_CUT_BUDGET = 5_000_000

# subsets x vertices in one batch of enumerate_min_cuts: 2**16 cells
# is 2,048 subsets at n = 32, and keeps a batch's arrays to about 1 MB in
# all (the two float32 ones at 256 KB each) however many subsets there are
CUT_BATCH_CELLS = 1 << 16


def _lex_subset_batches(n: int, k: int, size: int) -> Iterator[np.ndarray]:
    """combinations(range(n), k) in order, as (size, k) arrays (the last
    one shorter)."""
    subsets = combinations(range(n), k)
    while batch := list(islice(subsets, size)):
        yield np.array(batch, dtype=np.intp).reshape(len(batch), k)


def _cuts_are_neighborhoods(rows, kappa: int, stabiliser) -> bool:
    """Whether a max flow of kappa passes from the contracted edge {0, s2}
    to each t outside N[0] | N[s2], for s2 one neighbour of 0 per orbit of
    the group stabiliser generates, with only t past the cut closest to
    the source.  That cut is read off one BFS of the residual split
    digraph in which the arcs of edges never saturate (Even-Tarjan's
    infinite arcs; Picard and Queyranne, Math. Prog. Study 13, 1980): it
    must reach the in-node of every vertex but t, 0 and s2.  The flows
    call _dinic, not _vertex_flow, so that a count of _vertex_flow calls
    counts vertex_connectivity's flows only."""
    n = len(rows)
    _check_fixes_source(stabiliser)
    full = (1 << n) - 1
    split = _split(rows)
    nbrs = list(bits(rows[0]))
    for i in _orbit_representatives(nbrs, stabiliser):
        s2 = nbrs[i]
        ends = 1 | 1 << s2
        split[n] = (rows[0] | rows[s2]) & ~ends      # the source, 0's out-node
        for t in bits(full & ~(rows[0] | rows[s2] | ends)):
            flow, residual, rused = _dinic(split, n, t, kappa)
            if flow < kappa:
                return False
            # an in-node's one arc is its vertex, which saturates; an
            # out-node's arcs are edges, which never do
            reach = residual[:n] + [row | back for row, back
                                    in zip(split[n:], rused[n:])]
            seen = 0
            for frontier in layers(reach, n):
                seen |= frontier
            if full & ~seen & ~ends & ~(1 << t):
                return False
    return True


def enumerate_min_cuts(graph: Graph, kappa: int, budget: int = MIN_CUT_BUDGET,
                       stabiliser=(), transitive=()) -> MinCutData:
    """Every vertex subset of size kappa, the graph's vertex connectivity,
    whose deletion disconnects the graph, with each cut flagged when it
    equals some open neighborhood.  Cuts come in
    combinations(range(n), kappa) order; CapExceeded when there are more
    than budget subsets, however the cuts are then found.

    Two kinds of graph are decided without trying the subsets.  A
    connected 2-regular graph is the polygon C_n, and with kappa = 2 its
    cuts are its n(n-3)/2 non-adjacent pairs: deleting two non-adjacent
    vertices leaves two paths, deleting an edge leaves one.

    The other needs stabiliser and transitive, a scheme's verified
    generators (see scheme.validate_scheme) of automorphisms fixing vertex
    0 and of a group moving 0 to every vertex.  On such a graph, twin-free
    and regular of degree kappa (so not complete, as kappa < n - 1), the
    cuts are exactly the n neighbourhoods when _cuts_are_neighborhoods
    holds.  Each N(y) is a cut, since G - N(y) isolates y and keeps a
    vertex outside N[y], and no two are equal, since there are no twins.
    Let S be any cut.  If G - S leaves a singleton {y}, then N(y) lies
    inside S and is as large, so S = N(y).  Otherwise every component of
    G - S has an edge: take one, {a, b}, and a vertex t of another
    component.  An automorphism maps a to 0, and then one fixing 0 maps
    the image of b to s2, the first of its orbit in N(0); the images of S
    and t form the same picture, so take a = 0, b = s2 and t outside N[0]
    | N[s2].  S separates {0, s2} from t with kappa vertices, so the flow
    from {0, s2} to t is at most kappa; it is kappa by the check, and then
    S gives a minimum cut of the split digraph whose source side holds
    the nodes of the component of {0, s2} and the in-nodes of S.  The
    residual reach lies inside every minimum cut's source side, and the
    check has it hold the in-node of every vertex but t, 0 and s2, so t's
    component is {t}, against the choice of S.  When a flow falls below
    kappa (the connectivity is then below kappa) or a check fails (as on
    the circulant C_10(1, 2), whose 4-cut {0, 1, 5, 6} is no
    neighbourhood), the subsets are enumerated.

    The subsets are decided CUT_BATCH_CELLS // n at a time by one BFS for
    the whole batch: row r of the (B, n) bool matrix keep marks the
    survivors of subset r, its reach starts at the least survivor, and
    reach = (reach @ (A + I) > 0) & keep runs as a float32 product until
    no row grows.  A subset is a cut iff its reach
    falls short of keep.  The product is exact: reach and A + I are 0/1,
    so each entry is a count of at most n, an integer that float32 holds
    exactly while n < 2**24, and relation graphs have n <= SIZE_CAP = 4096
    (the argument of scheme.validate_scheme); only whether it is > 0 is
    read.  Memory is A plus about 1 MB of batch arrays, whatever C(n,
    kappa) is.  Each BFS level costs a B x n by n x n product, so the time
    grows with the diameter of what is left: quick on the dense relation
    graphs the reports enumerate, slower than one bitset BFS per subset on
    sparse graphs of long diameter, the worst of them polygons, which are
    listed directly.
    """
    n, rows = graph.n, graph.rows
    if kappa >= n - 1:
        return MinCutData(cuts=(), neighborhood_flags=())
    total = comb(n, kappa)
    if total > budget:
        raise CapExceeded(
            f"C({n},{kappa}) = {total} subsets exceeds budget {budget}")
    nbhds = set(rows)
    regular = all(row.bit_count() == kappa for row in rows)
    if kappa == 2 and regular and graph.is_connected():
        full = (1 << n) - 1
        cuts = tuple((u, w) for u in range(n)
                     for w in bits(full & ~rows[u] & ~((2 << u) - 1)))
        return MinCutData(cuts=cuts, neighborhood_flags=tuple(
            mask_of(cut) in nbhds for cut in cuts))
    if (transitive and regular and len(nbhds) == n
            and _cuts_are_neighborhoods(rows, kappa, stabiliser)):
        return MinCutData(cuts=tuple(sorted(tuple(bits(r)) for r in rows)),
                          neighborhood_flags=(True,) * n)
    adj = np.eye(n, dtype=np.float32)
    for v, row in enumerate(rows):
        adj[v, list(bits(row))] = 1
    cuts = []
    flags = []
    for subsets in _lex_subset_batches(n, kappa,
                                       max(1, CUT_BATCH_CELLS // n)):
        batch = np.arange(len(subsets))
        keep = np.ones((len(subsets), n), dtype=bool)
        keep[batch[:, None], subsets] = False
        reach = np.zeros_like(keep)
        reach[batch, keep.argmax(axis=1)] = True
        while True:
            grown = (reach.astype(np.float32) @ adj > 0) & keep
            if np.array_equal(grown, reach):
                break
            reach = grown
        for r in np.flatnonzero((reach != keep).any(axis=1)):
            subset = tuple(int(v) for v in subsets[r])
            cuts.append(subset)
            flags.append(mask_of(subset) in nbhds)
    return MinCutData(cuts=tuple(cuts), neighborhood_flags=tuple(flags))


# -- local clique structure ----------------------------------------------

def k211_free(graph: Graph, vertices=None) -> tuple[bool, Optional[tuple]]:
    """Whether every open neighborhood induces a disjoint union of cliques
    (no K_{2,1,1} through any vertex).  Witness: (x, u, w) with u, w
    non-adjacent vertices in one component of the neighborhood of x, for
    the first such x.  vertices (default: every vertex) limits the x
    checked.  On a vertex-transitive graph x = 0 alone decides it: an
    automorphism maps a witness at any x to one at 0, so the full sweep
    fails first at 0 too and finds the same witness."""
    full = (1 << graph.n) - 1
    for x in range(graph.n) if vertices is None else vertices:
        nb = graph.neighborhood(x)
        for comp in graph.component_masks(deleted=full & ~nb):
            for y in bits(comp):
                missing = comp & ~(1 << y) & ~graph.rows[y]
                if missing:
                    w = (missing & -missing).bit_length() - 1
                    return False, (x, y, w)
    return True, None


# the most cliques maximal_cliques lists by default
CLIQUE_CAP = 100_000


def maximal_cliques(graph: Graph,
                    cap: int = CLIQUE_CAP) -> tuple[list[int], bool]:
    """Bron-Kerbosch with pivoting; returns (clique masks, capped flag).
    Deterministic: candidates expanded in ascending vertex order."""
    out: list[int] = []
    capped = False

    def expand(r: int, p: int, x: int) -> bool:
        nonlocal capped
        if p == 0 and x == 0:
            out.append(r)
            if len(out) >= cap:
                capped = True
                return False
            return True
        # pivot: vertex of p|x with most neighbors in p
        pivot = -1
        bestn = -1
        for u in bits(p | x):
            cnt = (graph.rows[u] & p).bit_count()
            if cnt > bestn:
                bestn = cnt
                pivot = u
        for v in bits(p & ~graph.rows[pivot]):
            bv = 1 << v
            if not expand(r | bv, p & graph.rows[v], x & graph.rows[v]):
                return False
            p &= ~bv
            x |= bv
        return True

    expand(0, (1 << graph.n) - 1, 0)
    # expand refers to itself through its closure; breaking that cycle lets
    # reference counting free the clique list as soon as the caller drops it
    # instead of at the next cyclic collection, which may land mid-sweep
    del expand
    return out, capped

