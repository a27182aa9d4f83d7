"""Vertex/edge connectivity, twins, minimum cuts, and clique machinery.

Connectivity is computed by unit-capacity max-flow.  For vertex connectivity
the flow runs on the implicit vertex-split digraph (an in-node and an
out-node per vertex, internal capacity 1); the global value minimizes over
the least-index source against all its non-neighbors plus a sweep over
non-adjacent pairs of its neighbors.  A minimum cut either misses s (first
sweep: pick t in the far component) or contains s, in which case s keeps
neighbors in two different components of the cut graph (second sweep),
because dropping s from a cut all of whose far components avoid Gamma(s)
would leave a smaller cut.  Everything is deterministic: least-index
choices throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .errors import CapExceeded, Disconnected
from .graph import Graph, bits, mask_of

NO = -1
SRC = -2


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
    for v in bits(graph.alive):
        groups.setdefault(graph.neighborhood(v), []).append(v)
    classes = sorted(tuple(g) for g in groups.values() if len(g) > 1)
    pairs = sorted((a, b) for g in classes for a, b in combinations(g, 2))
    return TwinData(pairs=tuple(pairs), classes=tuple(classes))


# -- unit-capacity max-flow on the split digraph -------------------------

def _vertex_flow(rows, alive: int, s: int, t: int, limit: int) -> int:
    """Number of internally vertex-disjoint s-t paths, computed by Dinic
    phases and capped at limit.  s and t must be distinct non-adjacent live
    vertices.

    Out-node of v is state v+n, in-node is state v.  Residual arcs:
      A  v_out -> w_in   forward edge, unused (succ[v] != w)
      B  w_in  -> p_out  reverse of used edge p -> w (p = pred[w])
      C  w_in  -> w_out  internal, w not on any path
      D  v_out -> v_in   reverse internal, v on a path
    Arcs strictly alternate sides, so even BFS levels are out-states and odd
    levels are in-states.
    """
    n = len(rows)
    succ = [NO] * n
    pred = [NO] * n
    on_path = 0
    first = 0                       # mask of first hops (pred == SRC)
    bt = 1 << t
    adj_s = rows[s] & alive
    flow = 0
    while flow < limit:
        # BFS phase: levels over reachable residual states
        lev_in = [NO] * n
        lev_out = [NO] * n
        lev_out[s] = 0
        vis_in = 0
        vis_out = 1 << s
        lin_mask = [0]              # lin_mask[lvl]: in-states at lvl
        lout_mask = [1 << s]
        frontier = [s + n]
        t_found = False
        while frontier and not t_found:
            lvl = len(lin_mask)     # next level to assign
            new_in = 0
            new_out = 0
            nxt = []
            for code in frontier:
                if code >= n:       # out-node v: arcs A and D
                    v = code - n
                    targets = rows[v] & alive & ~vis_in
                    if v == s:
                        targets &= ~first
                    else:
                        sv = succ[v]
                        if sv != NO:
                            targets &= ~(1 << sv)
                        if on_path >> v & 1:
                            targets |= (1 << v) & ~vis_in
                    new_in |= targets
                else:               # in-node w: arcs B and C
                    w = code
                    if on_path >> w & 1:
                        p = pred[w]
                        if p != SRC and not vis_out >> p & 1:
                            new_out |= 1 << p
                    elif not vis_out >> w & 1:
                        new_out |= 1 << w
            if new_in:
                vis_in |= new_in
                for w in bits(new_in):
                    lev_in[w] = lvl
                    nxt.append(w)
                if new_in & bt:
                    t_found = True
            if new_out:
                vis_out |= new_out
                for v in bits(new_out):
                    lev_out[v] = lvl
                    nxt.append(v + n)
            lin_mask.append(new_in)
            lout_mask.append(new_out)
            frontier = nxt
        if not t_found:
            return flow

        # blocking flow: repeated level-respecting DFS with dead marking
        dead_in = 0
        dead_out = 0
        cur_a: dict[int, int] = {}
        d_tried = 0                 # out-nodes whose D arc was consumed
        stack = [s + n]
        while True:
            code = stack[-1]
            if code == t:
                # apply augmentation along stack, then restart
                for c1, c2 in zip(stack, stack[1:]):
                    if c1 >= n:                 # out -> in
                        v = c1 - n
                        w = c2
                        if v == w:              # D: cancel internal
                            on_path &= ~(1 << v)
                            pred[v] = NO
                        else:                   # A: add edge flow
                            if v == s:
                                first |= 1 << w
                            else:
                                succ[v] = w
                            if w != t:
                                pred[w] = SRC if v == s else v
                    else:                       # in -> out
                        w = c1
                        p = c2 - n
                        if w == p:              # C: w joins a path
                            on_path |= 1 << w
                        else:                   # B: cancel edge flow p -> w
                            succ[p] = NO
                flow += 1
                if flow >= limit:
                    return flow
                for c in stack[1:-1]:
                    if c >= n:
                        dead_out |= 1 << (c - n)
                    else:
                        dead_in |= 1 << c
                stack = [s + n]
                continue
            if code >= n:           # out-node: A choices then D
                v = code - n
                lvl = lev_out[v]
                if code not in cur_a:
                    targets = rows[v] & alive
                    if v == s:
                        targets &= ~first
                    elif succ[v] != NO:
                        targets &= ~(1 << succ[v])
                    cur_a[code] = targets & lin_mask[lvl + 1] if lvl + 1 < len(lin_mask) else 0
                pick = cur_a[code] & ~dead_in
                if pick:
                    b = pick & -pick
                    cur_a[code] ^= b
                    stack.append(b.bit_length() - 1)
                    continue
                if (on_path >> v & 1 and not d_tried >> v & 1
                        and lvl + 1 < len(lin_mask)
                        and lin_mask[lvl + 1] >> v & 1
                        and not dead_in >> v & 1):
                    d_tried |= 1 << v
                    stack.append(v)
                    continue
                if v == s:
                    break           # phase exhausted
                dead_out |= 1 << v
                stack.pop()
            else:                   # in-node: single option, B or C
                w = code
                lvl = lev_in[w]
                nxt_out = NO
                if on_path >> w & 1:
                    p = pred[w]
                    if p != SRC:
                        nxt_out = p
                else:
                    nxt_out = w
                if (nxt_out != NO and lvl + 1 < len(lout_mask)
                        and lout_mask[lvl + 1] >> nxt_out & 1
                        and not dead_out >> nxt_out & 1):
                    stack.append(nxt_out + n)
                else:
                    dead_in |= 1 << w
                    stack.pop()
    return flow


def _edge_flow(rows, alive: int, s: int, t: int, limit: int) -> int:
    """Number of edge-disjoint s-t paths, Dinic, capped at limit."""
    n = len(rows)
    used = [0] * n                  # used[v]: targets carrying flow v -> w
    rused = [0] * n                 # rused[v]: sources w with flow w -> v
    bt = 1 << t
    flow = 0
    while flow < limit:
        lev = [NO] * n
        lev[s] = 0
        seen = 1 << s
        lmask = [1 << s]
        frontier = 1 << s
        t_found = False
        while frontier and not t_found:
            new = 0
            for v in bits(frontier):
                new |= (rows[v] & alive & ~used[v]) | rused[v]
            new &= ~seen
            seen |= new
            lvl = len(lmask)
            for v in bits(new):
                lev[v] = lvl
            lmask.append(new)
            if new & bt:
                t_found = True
            frontier = new
        if not t_found:
            return flow
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
                flow += 1
                if flow >= limit:
                    return flow
                stack = [s]
                cur.pop(s, None)
                continue
            lvl = lev[v]
            if v not in cur:
                cur[v] = (((rows[v] & alive & ~used[v]) | rused[v])
                          & (lmask[lvl + 1] if lvl + 1 < len(lmask) else 0))
            advanced = False
            pick = cur[v] & ~dead
            while pick:
                b = pick & -pick
                w = b.bit_length() - 1
                cur[v] ^= b
                pick ^= b
                # revalidate: arcs may have been consumed by an augment
                if (rows[v] >> w & 1 and not used[v] >> w & 1) or rused[v] >> w & 1:
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
    return flow


def local_vertex_connectivity(graph: Graph, s: int, t: int,
                              limit: Optional[int] = None) -> int:
    """Menger count of internally disjoint s-t paths (s, t non-adjacent)."""
    if graph.has_edge(s, t):
        raise ValueError("local vertex connectivity needs non-adjacent endpoints")
    if s == t:
        raise ValueError("endpoints must differ")
    cap = graph.n if limit is None else limit
    return _vertex_flow(graph.rows, graph.alive, s, t, cap)


def vertex_connectivity(graph: Graph) -> int:
    """Global vertex connectivity; n-1 for complete graphs."""
    live = graph.alive
    nv = live.bit_count()
    if nv == 0:
        raise ValueError("empty graph")
    if nv == 1:
        return 0
    if not graph.is_connected():
        raise Disconnected("graph is disconnected")
    if graph.is_complete():
        return nv - 1
    best = min(graph.degrees())
    s = (live & -live).bit_length() - 1
    for t in bits(live & ~graph.closed_neighborhood(s)):
        f = _vertex_flow(graph.rows, live, s, t, best)
        if f < best:
            best = f
    nbrs = list(bits(graph.neighborhood(s)))
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1:]:
            if graph.has_edge(u, w):
                continue
            f = _vertex_flow(graph.rows, live, u, w, best)
            if f < best:
                best = f
    return best


def edge_connectivity(graph: Graph) -> int:
    live = graph.alive
    nv = live.bit_count()
    if nv < 2:
        raise ValueError("need at least two vertices")
    if not graph.is_connected():
        raise Disconnected("graph is disconnected")
    best = min(graph.degrees())
    s = (live & -live).bit_length() - 1
    for t in bits(live & ~(1 << s)):
        f = _edge_flow(graph.rows, live, s, t, best)
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


def enumerate_min_cuts(graph: Graph, kappa: int,
                       budget: int = 5_000_000) -> MinCutData:
    """Every vertex subset of size kappa, the graph's vertex connectivity,
    whose deletion disconnects the graph, by exhaustive enumeration, with
    each cut flagged when it equals some open neighborhood."""
    live = list(bits(graph.alive))
    n = len(live)
    if kappa >= n - 1:
        return MinCutData(cuts=(), neighborhood_flags=())
    if comb(n, kappa) > budget:
        raise CapExceeded(
            f"C({n},{kappa}) = {comb(n, kappa)} subsets exceeds budget {budget}")
    nbhds = {graph.neighborhood(v) for v in live}
    cuts = []
    flags = []
    for subset in combinations(live, kappa):
        m = mask_of(subset)
        if not graph.is_connected(deleted=m):
            cuts.append(subset)
            flags.append(m in nbhds)
    return MinCutData(cuts=tuple(cuts), neighborhood_flags=tuple(flags))


# -- local clique structure ----------------------------------------------

def k211_free(graph: Graph) -> tuple[bool, Optional[tuple]]:
    """Whether every open neighborhood induces a disjoint union of cliques
    (no K_{2,1,1} through any vertex).  Witness: (x, u, w) with u, w
    non-adjacent vertices in one component of the neighborhood of x."""
    for x in bits(graph.alive):
        nb = graph.neighborhood(x)
        rest = nb
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp = graph.reach_mask(start, deleted=graph.alive & ~nb)
            comp &= nb
            for y in bits(comp):
                missing = comp & ~(1 << y) & ~graph.rows[y]
                if missing:
                    w = (missing & -missing).bit_length() - 1
                    return False, (x, y, w)
            rest &= ~comp
    return True, None


def maximal_cliques(graph: Graph, cap: int = 100_000) -> tuple[list[int], bool]:
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
            if not expand(r | bv, p & graph.rows[v] & graph.alive,
                          x & graph.rows[v] & graph.alive):
                return False
            p &= ~bv
            x |= bv
        return True

    expand(0, graph.alive, 0)
    # expand refers to itself through its closure; breaking that cycle lets
    # reference counting free the clique list as soon as the caller drops it
    # instead of at the next cyclic collection, which may land mid-sweep
    del expand
    return out, capped


# -- small-graph isomorphism --------------------------------------------

def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test for small graphs (targets here have at
    most 10 vertices)."""
    v1 = list(bits(g1.alive))
    v2 = list(bits(g2.alive))
    if len(v1) != len(v2):
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    order = sorted(v1, key=lambda v: (-g1.degree(v), v))
    used = set()
    mapping: dict[int, int] = {}

    def place(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        for b in v2:
            if b in used or g1.degree(a) != g2.degree(b):
                continue
            ok = True
            for c, bc in mapping.items():
                if g1.has_edge(a, c) != g2.has_edge(b, bc):
                    ok = False
                    break
            if ok:
                used.add(b)
                mapping[a] = b
                if place(i + 1):
                    return True
                used.discard(b)
                del mapping[a]
        return False

    return place(0)
