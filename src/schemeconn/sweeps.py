"""Batched deletion sweeps on neighbourhood quotients (C1, C2, C3).

By the quotient lemma of schemeconn.audits, one quotient per basepoint a,
with each component of G - N[a] contracted to one node, decides every
deletion set inside N[a]: at most valency + 1 + (component count) nodes
instead of v.  Sets are decided DELETION_BATCH at a time by a boolean BFS
whose step is one matrix product.  Enumeration orders, checked counts and
witnesses are those of a per-set sweep: the first failure in
basepoint-major order, with the seeded sample stream drawn unchanged.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .errors import CapExceeded
from .graph import Graph, bits, unpack_masks

C1_SAMPLES = 200
C1_SMALL_SET_BUDGET = 5_000_000
DELETION_BATCH = 256            # rows per batched-BFS step; bounds its memory


@dataclass(frozen=True)
class Quotient:
    """The graph with every component of G - N[a] contracted to one node.

    Nodes 0..k are the members of N[a] in ascending order (node `centre` is
    a itself); nodes k+1.. are the components, which are pairwise
    non-adjacent.  `adj` carries a self-loop on every node, so one product
    step of the batched BFS keeps what it has already reached."""
    members: np.ndarray
    centre: int
    adj: np.ndarray                 # float32, square, 0/1
    sizes: tuple[int, ...]          # vertex count of each component


def neighbourhood_quotient(graph: Graph, adj: np.ndarray, a: int) -> Quotient:
    """The quotient at basepoint a; adj is graph.adjacency_matrix()."""
    closed = adj[a].copy()
    closed[a] = True
    members = np.flatnonzero(closed)
    comps = graph.component_masks(deleted=graph.closed_neighborhood(a))
    k1, m = len(members), len(comps)
    q = np.zeros((k1 + m, k1 + m), dtype=np.float32)
    q[:k1, :k1] = adj[np.ix_(members, members)]
    if m:
        touch = (adj[members].astype(np.float32)
                 @ unpack_masks(comps, graph.n).T.astype(np.float32)) > 0
        q[:k1, k1:] = touch
        q[k1:, :k1] = touch.T
    np.fill_diagonal(q, 1.0)
    return Quotient(members=members,
                     centre=int(np.searchsorted(members, a)), adj=q,
                     sizes=tuple(c.bit_count() for c in comps))


def cut_rows(q: np.ndarray, deleted: np.ndarray) -> np.ndarray:
    """For each row of `deleted` (bool, one column per member of N[a]):
    does deleting that subset disconnect the quotient with adjacency `q`?
    The graph with nothing left counts as connected, as in
    Graph.is_connected.  Rows go through a batched BFS, DELETION_BATCH at a
    time: each row's reach starts at its first kept node and grows by one
    product with `q` until no row changes."""
    n_rows, k1 = deleted.shape
    out = np.zeros(n_rows, dtype=bool)
    for lo in range(0, n_rows, DELETION_BATCH):
        part = deleted[lo:lo + DELETION_BATCH]
        keep = np.ones((len(part), q.shape[0]), dtype=bool)
        keep[:, :k1] = ~part
        idx = np.arange(len(part))
        start = keep.argmax(axis=1)
        reach = np.zeros(keep.shape, dtype=np.float32)
        reach[idx, start] = keep[idx, start]
        count = np.count_nonzero(reach)
        while True:
            reached = (reach @ q > 0) & keep
            now = np.count_nonzero(reached)
            if now == count:
                break
            count = now
            reach = reached.astype(np.float32)
        out[lo:lo + len(part)] = (reached != keep).any(axis=1)
    return out


def _first_cut(q: Quotient, deleted: np.ndarray
               ) -> tuple[int, Optional[tuple]]:
    """(rows checked, witness) for the rows of `deleted` in order: the
    count runs up to and including the first disconnecting row, whose
    deleted vertices form the witness."""
    cut = cut_rows(q.adj, deleted)
    if not cut.any():
        return len(deleted), None
    r = int(cut.argmax())
    return r + 1, tuple(int(x) for x in q.members[deleted[r]])


def _c1_codes(q: Quotient) -> tuple[int, Optional[tuple]]:
    """Every subset T of N[a] that misses part of the open neighbourhood, in
    the order of its bit code over the members."""
    k1 = len(q.members)
    nb = ((1 << k1) - 1) & ~(1 << q.centre)
    codes = np.arange(1 << k1, dtype="<u8")
    codes = codes[(codes & nb) != nb]
    deleted = np.unpackbits(codes.view(np.uint8).reshape(-1, 8), axis=1,
                            count=k1, bitorder="little").view(bool)
    return _first_cut(q, deleted)


def _c1_samples(q: Quotient, v1: int, rng: random.Random
                ) -> tuple[int, Optional[tuple]]:
    """C1_SAMPLES seeded subsets of N[a] of size 4..v1, each redrawn until it
    misses part of the open neighbourhood.  Indices drawn from range(k+1)
    equal those rng.sample would pick from the member list itself."""
    k1 = len(q.members)
    local = range(k1)
    sizes: list[int] = []
    flat: list[int] = []
    for _ in range(C1_SAMPLES):
        while True:
            size = rng.randint(4, v1)
            sub = rng.sample(local, size)
            if size < k1 - 1 or size - (q.centre in sub) < k1 - 1:
                break
        sizes.append(size)
        flat.extend(sub)
    deleted = np.zeros((C1_SAMPLES, k1), dtype=bool)
    deleted[np.repeat(np.arange(C1_SAMPLES), sizes), flat] = True
    return _first_cut(q, deleted)


def _c1_small_sets(graph: Graph, adj: np.ndarray
                   ) -> tuple[int, Optional[tuple]]:
    """Every T inside some N[a] of size 1..3 that misses part of the open
    neighbourhood, basepoint by basepoint in combinations order; raises
    CapExceeded past C1_SMALL_SET_BUDGET sets without a witness."""
    checked = 0
    for a in range(graph.n):
        q = neighbourhood_quotient(graph, adj, a)
        k1 = len(q.members)
        subs = (sub for size in range(1, 4)
                for sub in combinations(range(k1), size)
                if len(sub) - (q.centre in sub) < k1 - 1)
        while chunk := list(islice(subs, DELETION_BATCH)):
            room = C1_SMALL_SET_BUDGET - checked
            over = len(chunk) > room
            chunk = chunk[:room]
            deleted = np.zeros((len(chunk), k1), dtype=bool)
            for r, sub in enumerate(chunk):
                deleted[r, list(sub)] = True
            n, wit = _first_cut(q, deleted)
            checked += n
            if wit is not None:
                return checked, (a, wit)
            if over:
                raise CapExceeded("size<=3 deletion sweep over budget")
    return checked, None


def deletion_sweeps(graph: Graph, v1: int, kappa: Optional[int],
                    rng: Optional[random.Random], cliques: list[int]
                    ) -> tuple[int, Optional[tuple], Optional[tuple],
                               Optional[tuple]]:
    """Run C2, C1 and C3 on a connected graph off one quotient per
    basepoint.  C1 is exhaustive when rng is None, else sampled (after the
    size <= 3 sweep when kappa <= 3).  Returns (C1 sets checked, C1, C2 and
    C3 witnesses); a witness is None when its corollary holds, and is the
    first failure in basepoint-major order otherwise."""
    adj = graph.adjacency_matrix()
    c1_checked, c1_wit = 0, None
    if rng is not None and kappa <= 3:
        # only reachable if the connectivity conjecture fails upstream
        c1_checked, c1_wit = _c1_small_sets(graph, adj)
    c2_wit = None
    # least vertex of each clique, in the narrowest dtype: up to CLIQUE_CAP
    # entries are held at once
    lows = np.fromiter(((c & -c).bit_length() - 1 for c in cliques),
                       dtype=np.min_scalar_type(graph.n), count=len(cliques))
    c3_first = len(cliques)
    for a in range(graph.n):
        q = neighbourhood_quotient(graph, adj, a)
        if c2_wit is None:
            # G minus the open neighbourhood: a alone, plus these components
            big = sum(1 for size in q.sizes if size >= 2)
            if big > 1:
                c2_wit = (a, big)
        if c1_wit is None:
            n, wit = _c1_codes(q) if rng is None else _c1_samples(q, v1, rng)
            c1_checked += n
            if wit is not None:
                c1_wit = (a, wit)
        group = np.flatnonzero(lows == a)
        for lo in range(0, len(group), DELETION_BATCH):
            part = group[lo:lo + DELETION_BATCH]
            if part[0] >= c3_first:
                break
            rows = unpack_masks([cliques[i] for i in part], graph.n)
            cut = cut_rows(q.adj, rows[:, q.members])
            if cut.any():
                c3_first = min(c3_first, int(part[cut.argmax()]))
                break
    c3_wit = tuple(bits(cliques[c3_first])) if c3_first < len(cliques) \
        else None
    return c1_checked, c1_wit, c2_wit, c3_wit
