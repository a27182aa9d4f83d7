"""Undirected graphs on {0..n-1} backed by bitset adjacency rows.

Rows are Python ints, one bit per vertex, which keeps BFS sweeps at a few
machine words per step even at the v <= 4096 desk cap.  Vertex deletion is a
mask argument; graphs themselves are immutable.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np


def bits(mask: int) -> Iterator[int]:
    """Set bit indices of mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def unpack_masks(masks: list[int], n: int) -> np.ndarray:
    """Boolean array of shape (len(masks), n): row r holds bit j of
    masks[r] in column j.  Masks must fit in n bits."""
    nbytes = (n + 7) // 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=n,
                         bitorder="little").view(bool)


class Graph:
    __slots__ = ("n", "rows", "alive", "_dist")

    def __init__(self, n: int, rows, alive: Optional[int] = None):
        self.n = n
        self.rows = tuple(rows)
        self.alive = (1 << n) - 1 if alive is None else alive
        self._dist = None
        if len(self.rows) != n:
            raise ValueError("row count != n")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, w in edges:
            if u == w:
                raise ValueError("loops not supported")
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        return cls(n, rows)

    # -- basic accessors -------------------------------------------------

    def neighborhood(self, v: int) -> int:
        return self.rows[v] & self.alive

    def closed_neighborhood(self, v: int) -> int:
        return (self.rows[v] & self.alive) | (1 << v)

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self.rows[u] >> w & 1)

    def degree(self, v: int) -> int:
        return (self.rows[v] & self.alive).bit_count()

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in bits(self.alive)]

    def vertex_count(self) -> int:
        return self.alive.bit_count()

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def vertices(self) -> Iterator[int]:
        return bits(self.alive)

    def is_regular(self) -> bool:
        degs = self.degrees()
        return len(set(degs)) <= 1

    def is_complete(self) -> bool:
        live = self.alive
        return all((self.rows[v] & live) == live & ~(1 << v) for v in bits(live))

    # -- traversal -------------------------------------------------------

    def reach_mask(self, start: int, deleted: int = 0) -> int:
        """All vertices reachable from start in the live graph minus deleted."""
        live = self.alive & ~deleted
        rows = self.rows
        seen = 1 << start
        frontier = seen
        while frontier:
            new = 0
            m = frontier
            while m:
                b = m & -m
                new |= rows[b.bit_length() - 1]
                m ^= b
            frontier = new & live & ~seen
            seen |= frontier
        return seen

    def components(self, deleted: int = 0) -> list[list[int]]:
        """Connected components of the live graph minus deleted, each sorted,
        ordered by least vertex."""
        live = self.alive & ~deleted
        out = []
        rest = live
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp = self.reach_mask(start, deleted)
            out.append(list(bits(comp)))
            rest &= ~comp
        return out

    def component_masks(self, deleted: int = 0) -> list[int]:
        live = self.alive & ~deleted
        out = []
        rest = live
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp = self.reach_mask(start, deleted)
            out.append(comp)
            rest &= ~comp
        return out

    def is_connected(self, deleted: int = 0) -> bool:
        """Empty graphs count as connected."""
        live = self.alive & ~deleted
        if live == 0:
            return True
        start = (live & -live).bit_length() - 1
        return self.reach_mask(start, deleted) == live

    def distances_from(self, start: int, deleted: int = 0) -> list[int]:
        """BFS distances; -1 for unreachable or dead vertices."""
        live = self.alive & ~deleted
        rows = self.rows
        dist = [-1] * self.n
        dist[start] = 0
        seen = 1 << start
        frontier = seen
        d = 0
        while frontier:
            new = 0
            m = frontier
            while m:
                b = m & -m
                new |= rows[b.bit_length() - 1]
                m ^= b
            frontier = new & live & ~seen
            seen |= frontier
            d += 1
            for v in bits(frontier):
                dist[v] = d
        return dist

    def distance_matrix(self) -> np.ndarray:
        """All-pairs BFS distances on the live graph (int16, -1 unreachable).
        Cached; rows/cols of dead vertices are -1."""
        if self._dist is None:
            d = np.full((self.n, self.n), -1, dtype=np.int16)
            for v in bits(self.alive):
                d[v] = self.distances_from(v)
            d.setflags(write=False)
            self._dist = d
        return self._dist

    def diameter(self) -> Optional[int]:
        """None when disconnected (or fewer than 2 live vertices)."""
        if self.vertex_count() < 2 or not self.is_connected():
            return None
        d = self.distance_matrix()
        live = list(bits(self.alive))
        return int(d[np.ix_(live, live)].max())

    # -- derived graphs --------------------------------------------------

    def complement(self) -> "Graph":
        live = self.alive
        rows = [(live & ~self.rows[v] & ~(1 << v)) if live >> v & 1 else 0
                for v in range(self.n)]
        return Graph(self.n, rows, live)

    # -- small structural tests ------------------------------------------

    def is_cycle_graph(self) -> bool:
        return (self.vertex_count() >= 3 and self.is_connected()
                and all(d == 2 for d in self.degrees()))

    def girth(self) -> Optional[int]:
        """Length of a shortest cycle; None for forests.  Exact, via
        shortest u-w path avoiding each edge (u,w) in turn."""
        best = None
        for u in bits(self.alive):
            for w in bits(self.rows[u] & self.alive):
                if w <= u:
                    continue
                # BFS from u to w not using the edge u-w
                live = self.alive
                rows = self.rows
                dist = 0
                seen = 1 << u
                frontier = seen
                found = -1
                while frontier and found < 0:
                    new = 0
                    m = frontier
                    while m:
                        b = m & -m
                        v = b.bit_length() - 1
                        r = rows[v]
                        if v == u:
                            r &= ~(1 << w)
                        elif v == w:
                            r &= ~(1 << u)
                        new |= r
                        m ^= b
                    frontier = new & live & ~seen
                    seen |= frontier
                    dist += 1
                    if frontier >> w & 1:
                        found = dist
                if found >= 0 and (best is None or found + 1 < best):
                    best = found + 1
        return best

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean n x n adjacency of the live graph; dead rows are empty."""
        live = self.alive
        return unpack_masks([self.rows[v] & live if live >> v & 1 else 0
                             for v in range(self.n)], self.n)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# -- named small graphs used by audits and tests -------------------------

def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    """Kneser graph on 2-subsets of a 5-set: vertices sorted lexicographically,
    edges between disjoint pairs."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges = []
    for x in range(10):
        for y in range(x + 1, 10):
            if not set(pairs[x]) & set(pairs[y]):
                edges.append((x, y))
    return Graph.from_edges(10, edges)
