"""Undirected graphs on {0..n-1} backed by bitset adjacency rows.

Rows are Python ints, one bit per vertex, which keeps BFS sweeps at a few
machine words per step even at the v <= 4096 desk cap.  A graph has every
vertex of {0..n-1}: rows are checked to hold no loop and no bit at or
above n.  Vertex deletion is only ever a `deleted` mask argument; graphs
themselves are immutable.  One layered BFS, `layers`, yields the frontier
at each distance on any out-rows; reach masks, components, balls and
distances are read off it here, and the flows in connectivity read their
residual levels and reach off it too.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np


def bits(mask: int) -> Iterator[int]:
    """Set bit indices of mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def layers(rows, start: int, deleted: int = 0) -> Iterator[int]:
    """The BFS frontiers from start in the digraph of out-rows rows (rows[v]
    has bit w for each arc v -> w) minus deleted: the masks of the states
    at distance 0, 1, 2, ... in turn."""
    frontier = 1 << start
    seen = frontier | deleted
    while frontier:
        yield frontier
        new = 0
        m = frontier
        while m:
            b = m & -m
            new |= rows[b.bit_length() - 1]
            m ^= b
        frontier = new & ~seen
        seen |= frontier


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = tuple(rows)
        if len(self.rows) != n:
            raise ValueError("row count != n")
        for v, row in enumerate(self.rows):
            if row >> n:
                raise ValueError(f"row {v} has a bit at or above n = {n}")
            if row >> v & 1:
                raise ValueError(f"row {v} has a loop")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, w in edges:
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"edge {(u, w)} has an endpoint outside "
                                 f"0..{n - 1} (n = {n})")
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        return cls(n, rows)

    # -- basic accessors -------------------------------------------------

    def neighborhood(self, v: int) -> int:
        return self.rows[v]

    def closed_neighborhood(self, v: int) -> int:
        return self.rows[v] | (1 << v)

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self.rows[u] >> w & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(row == full & ~(1 << v) for v, row in enumerate(self.rows))

    # -- traversal -------------------------------------------------------

    def reach_mask(self, start: int, deleted: int = 0) -> int:
        """All vertices reachable from start in the graph minus deleted."""
        seen = 0
        for frontier in layers(self.rows, start, deleted):
            seen |= frontier
        return seen

    def ball(self, start: int, radius: int) -> int:
        """The vertices within distance radius of start, start included."""
        out = 0
        for frontier in islice(layers(self.rows, start), radius + 1):
            out |= frontier
        return out

    def component_masks(self, deleted: int = 0) -> list[int]:
        """Connected components of the graph minus deleted, as bit masks
        ordered by least vertex."""
        out = []
        rest = ((1 << self.n) - 1) & ~deleted
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp = self.reach_mask(start, deleted)
            out.append(comp)
            rest &= ~comp
        return out

    def is_connected(self, deleted: int = 0) -> bool:
        """Empty graphs count as connected."""
        keep = ((1 << self.n) - 1) & ~deleted
        if keep == 0:
            return True
        start = (keep & -keep).bit_length() - 1
        return self.reach_mask(start, deleted) == keep

    def distances_from(self, start: int) -> list[int]:
        """BFS distances; -1 for unreachable vertices."""
        dist = [-1] * self.n
        for d, frontier in enumerate(layers(self.rows, start)):
            for v in bits(frontier):
                dist[v] = d
        return dist

    def distance_matrix(self) -> np.ndarray:
        """All-pairs BFS distances (int16, -1 unreachable)."""
        d = np.empty((self.n, self.n), dtype=np.int16)
        for v in range(self.n):
            d[v] = self.distances_from(v)
        return d

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# -- named small graphs the catalog builds -------------------------------

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
