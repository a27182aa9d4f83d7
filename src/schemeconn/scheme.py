"""Relation tables, intersection tensors, and scheme validation.

A scheme on X = {0..v-1} is stored as a single v x v class matrix; everything
else (transpose map, intersection numbers, valencies) is derived from it and
re-derived on load.

The intersection tensor is read one way: p_ij^k is the number of z with
(a, z) in R_i and (z, b) in R_j at the first row-major pair (a, b) of
class k, all read in one bincount of the triples (classes[a, z],
classes[z, b], k) (_first_pair_scheme).  Validation proves these counts are the same
at every pair of the class: that the span V of A_0..A_d is closed under
multiplication, row by row.  Row i checks that every product A_i A_j is
constant on every class, which is the definition of p_ij^k with no
sampling involved.  It packs runs of consecutive classes j into one
float32 BLAS product.  Let b be the largest row sum of A_i plus one and m
the largest power with b^m <= 2**24; for each run j_0..j_{m-1} row i
forms A_i (sum_t b^t A_{j_t}).  Its entry at (x, y) is
sum_t b^t N_t(x, y), where N_t(x, y) counts the z with (x, z) in R_i and
(z, y) in R_{j_t}.  The classes partition the pairs, so each (x, z)
counts towards at most one N_t and their sum is at most the row sum of
A_i at x, below b, even on an input that is no scheme.  So the N_t are
the base-b digits of the entry, and the entry is constant on a class iff
every digit is: one comparison checks the m products at once.  The float
arithmetic is exact: the packed matrix holds 0 or one power b^t per
entry, every partial sum BLAS forms is a sum of non-negative integer
terms of the entry, at most (b-1) b^(m-1) < 2**24, and float32's 24-bit
significand holds every such integer whatever the summation order,
thread count or FMA use.  A failure's witness is read off the digits of
the mismatching entries: the first j of the run with a digit off, the
first row-major pair where it is off, and both counts, the very fields
one product per class would give.

The loop stops early once one class generates the algebra.  After row i,
A_i A_j = sum_k p_ij^k A_k for every j.  If the arcs j -> k with p_ij^k > 0
take d+1 BFS levels from class 0, each level holds one class c_m, and
A_i^m, a non-negative combination of A_0..A_d, puts a positive coefficient
on c_m and none deeper: no arc skips a level and no term cancels.  So I,
A_i, ..., A_i^d are triangular in the basis A_0..A_d and span V.  Then
V = C[A_i], which is closed under multiplication and commutative: every
remaining product would pass its check.  There are d+1 levels when class
i's distribution diagram is a path from class 0, the P-polynomial case
(Bannai-Ito, Algebraic Combinatorics I, 1984, sec. III.1): the Hamming,
Johnson and cyclic schemes stop after row 1 instead of running d rows.
Where no class has such a diagram, every row runs.  Rows run in the same
order either way, so the first failure, with its witness, does not
depend on where the loop stops.

Symmetrization runs no product.  A validated scheme is commutative
(validation checks p_ij^k = p_ji^k), and A_i^T = A_i' for the transpose
class i'.  In a commutative algebra the product of two symmetric elements
is symmetric, (XY)^T = Y^T X^T = YX = XY, so the span of the
A_i + A_i^T, the symmetric elements of V, is closed under multiplication.
It holds I and the 0/1 matrices of the merged classes, which partition
the pairs, so it is the algebra of a symmetric scheme, and its tensor is
again the first-pair counts.  A generator that preserves every class
preserves every merged class, so the generators carry over unchecked.

Generators offered by a construction are checked just as exactly: each must
permute X and map every pair to a pair of the same class, a stabiliser
generator must fix vertex 0, and the transitive generators together must
carry 0 to every vertex, the one orbit graph._orbit_representatives finds.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .diagram import Diagram, distribution_diagram
from .errors import (
    IdentityClassRequested,
    NonConstantIntersection,
    NotAnAutomorphism,
    NotAPartition,
    NotClosedUnderTranspose,
    NotCommutative,
    NotSymmetric,
    SizeCap,
)
from .graph import Graph, _orbit_representatives, bit_rows, layers

# validate_scheme's float32 products are exact only while every entry is
# below 2**24 (float32 has a 24-bit significand); a count is below v, so
# under the cap every product holds at least one base-v digit
SIZE_CAP = 4096


@dataclass(frozen=True)
class RelationTable:
    """Class matrix plus the structure read off it (not yet validated as a
    scheme: that is validate_scheme's job)."""

    v: int
    d: int
    classes: np.ndarray            # (v, v) int32, read-only
    symmetric: bool
    transpose_map: tuple[int, ...]
    first_pair: np.ndarray         # (d+1,) flat index of each class's first
                                   # pair in row-major order, read-only

    @classmethod
    def from_classes(cls, classes) -> "RelationTable":
        c = np.ascontiguousarray(np.asarray(classes, dtype=np.int64))
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise NotAPartition("classes must be a square matrix")
        v = c.shape[0]
        if v < 1:
            raise NotAPartition("empty vertex set")
        if v > SIZE_CAP:
            raise SizeCap(f"v = {v} exceeds cap {SIZE_CAP}")
        if c.min() < 0:
            raise NotAPartition("negative class index")
        d = int(c.max())
        # labels present, sorted, with the flat index of each one's first
        # pair.  A scheme's row 0 holds every class, and row 0 comes first
        # in row-major order, so the whole matrix is sorted only when row 0
        # misses a label; no (d+1)-sized array, so a huge label costs nothing
        uniq, first = np.unique(c[0], return_index=True)
        if len(uniq) != d + 1:
            uniq, first = np.unique(c.ravel(), return_index=True)
        if len(uniq) != d + 1:
            missing = int(np.argmax(uniq != np.arange(len(uniq))))
            raise NotAPartition(f"class {missing} is empty")
        # every label is now below v * v <= SIZE_CAP**2 < 2**31
        c = c.astype(np.int32)
        diag = np.diagonal(c)
        if (diag != 0).any():
            x = int(np.nonzero(diag != 0)[0][0])
            raise NotAPartition(f"classes[{x}][{x}] = {int(c[x, x])}, expected 0")
        if np.count_nonzero(c == 0) != v:
            # some off-diagonal pair carries class 0
            bad = np.argwhere((c == 0) & ~np.eye(v, dtype=bool))[0]
            raise NotAPartition(f"classes[{bad[0]}][{bad[1]}] = 0 off the diagonal")
        # transpose map: class of (y,x) must be a function of class of
        # (x,y); a symmetric matrix maps every class to itself
        tmap = np.arange(d + 1)
        if not np.array_equal(c, c.T):
            ct = np.ascontiguousarray(c.T)
            tmap = ct.ravel()[first]
            moved = tmap[c] != ct
            if moved.any():
                x, y = (int(t) for t in np.argwhere(moved)[0])
                raise NotClosedUnderTranspose(
                    f"class of ({y},{x}) is {int(c[y, x])} but class "
                    f"{int(c[x, y])} transposes to {int(tmap[c[x, y]])} "
                    f"elsewhere")
            if not np.array_equal(tmap[tmap], np.arange(d + 1)):
                raise NotClosedUnderTranspose(
                    "transpose map is not an involution")
        c.setflags(write=False)
        first.setflags(write=False)
        tm = tuple(int(t) for t in tmap)
        return cls(v=v, d=d, classes=c,
                   symmetric=all(t == i for i, t in enumerate(tm)),
                   transpose_map=tm, first_pair=first)


@dataclass(frozen=True)
class SchemeDescriptor(RelationTable):
    """A validated scheme: its relation table plus p[i][j][k], the count of
    c with (a,c) in R_i and (c,b) in R_j for any (a,b) in R_k.
    `stabiliser` holds verified generators (one image tuple each) of a
    group of permutations of X that fix vertex 0 and preserve every class;
    `transitive` holds verified generators of a group that preserves every
    class and whose orbit of 0 is X.  Each is empty when the construction
    supplies none."""

    name: str
    p: np.ndarray                  # (d+1, d+1, d+1) int64, read-only
    valencies: tuple[int, ...]
    stabiliser: tuple[tuple[int, ...], ...] = ()
    transitive: tuple[tuple[int, ...], ...] = ()

    # the benchmark's checks still read scheme.tensor.p
    tensor = property(lambda self: self)

    @cached_property
    def diagrams(self) -> dict[int, Diagram]:
        """Distribution diagram of each class 1..d, built once and shared."""
        return {g: distribution_diagram(self, g) for g in range(1, self.d + 1)}


def _checked_generators(classes: np.ndarray, generators,
                        role: str) -> tuple[tuple[int, ...], ...]:
    """Each generator as an image tuple, once it is shown to be a
    permutation of X with classes[p[a], p[b]] equal to classes[a, b] for
    every pair and, for the role "stabiliser", to fix vertex 0."""
    v = classes.shape[0]
    out = []
    for idx, gen in enumerate(generators):
        perm = np.asarray(gen)
        if perm.shape != (v,) or perm.dtype.kind not in "iu":
            raise NotAnAutomorphism(idx, None, f"not a sequence of {v} "
                                               f"vertex indices", role)
        off = np.nonzero((perm < 0) | (perm >= v))[0]
        if len(off):
            x = int(off[0])
            raise NotAnAutomorphism(idx, x, f"maps {x} to {int(perm[x])}, "
                                            f"outside 0..{v - 1}", role)
        if role == "stabiliser" and perm[0] != 0:
            raise NotAnAutomorphism(idx, 0, f"maps 0 to {int(perm[0])}", role)
        hits = np.bincount(perm, minlength=v)
        if (hits != 1).any():
            y = int(np.nonzero(hits > 1)[0][0])
            raise NotAnAutomorphism(idx, y, f"not a permutation: {y} is the "
                                            f"image of {int(hits[y])} "
                                            f"vertices", role)
        moved = classes[np.ix_(perm, perm)] != classes
        if moved.any():
            a, b = (int(x) for x in np.argwhere(moved)[0])
            pa, pb = int(perm[a]), int(perm[b])
            raise NotAnAutomorphism(
                idx, ((a, b), (pa, pb)),
                f"maps ({a},{b}) of class {int(classes[a, b])} to "
                f"({pa},{pb}) of class {int(classes[pa, pb])}", role)
        out.append(tuple(int(x) for x in perm))
    return tuple(out)


def _checked_transitive(classes: np.ndarray,
                        generators) -> tuple[tuple[int, ...], ...]:
    """The generators, checked as for _checked_generators, once the orbit
    of vertex 0 under the group they generate is shown to be all of X: the
    least vertex outside it starts the second orbit the search finds."""
    gens = _checked_generators(classes, generators, "transitive")
    if gens:
        reps = _orbit_representatives(range(classes.shape[0]), gens)
        if len(reps) > 1:
            x = reps[1]
            raise NotAnAutomorphism(
                None, x, f"not transitive: the orbit of 0 misses {x}",
                "transitive")
    return gens


def _packed_products(table: RelationTable, i: int, js: list[int],
                     ai: np.ndarray, base: int) -> None:
    """Prove A_i A_j constant on every class for each class j of the run
    js, with one float32 product of ai = A_i and
    sum_t base**t A_{js[t]} (see the module docstring); otherwise raise
    NonConstantIntersection for the first j and first row-major pair
    whose digit is not."""
    c, first, v = table.classes, table.first_pair, table.v
    powers = base ** np.arange(len(js), dtype=np.int64)
    weights = np.zeros(table.d + 1, dtype=np.float32)
    weights[js] = powers
    # indexing by the int32 matrix casts it in small buffers; np.take
    # would first copy it whole to a v x v intp array
    n = ai @ weights[c]
    pv = n.ravel()[first]
    mism = np.flatnonzero(n != pv[c])
    if not len(mism):
        return
    got = n.ravel()[mism].astype(np.int64)
    # a kept exception keeps the frames of its traceback alive
    del n
    want = pv.astype(np.int64)[c.ravel()[mism]]
    # a mismatching entry differs in some digit, so the loop breaks
    for t in range(len(js)):
        off = got // powers[t] % base != want // powers[t] % base
        if off.any():
            break
    q = int(np.argmax(off))
    a, b = divmod(int(mism[q]), v)
    k = int(c[a, b])
    ra, rb = divmod(int(first[k]), v)
    raise NonConstantIntersection(
        i, js[t], k, ((ra, rb), int(want[q] // powers[t] % base)),
        ((a, b), int(got[q] // powers[t] % base)))


def _first_pair_scheme(table: RelationTable, name: str, stabiliser,
                       transitive) -> SchemeDescriptor:
    """table as a SchemeDescriptor with these generators, p[i, j, k] read
    as the count at the first pair of class k (see the module docstring);
    nothing is checked here."""
    c, n = table.classes, table.d + 1
    a, b = np.divmod(table.first_pair, table.v)
    # row k of keys codes (classes[a, z], classes[z, b], k) for every z
    keys = (c[a] * n + c[:, b].T) * n + np.arange(n)[:, None]
    p = np.bincount(keys.ravel(), minlength=n ** 3).reshape(n, n, n)
    p.setflags(write=False)
    tm = table.transpose_map
    # the table's own fields only: a descriptor passed in also carries p,
    # its name and its cached diagrams
    return SchemeDescriptor(**{f.name: getattr(table, f.name)
                               for f in fields(RelationTable)},
                            name=name, p=p,
                            valencies=tuple(int(p[i, tm[i], 0])
                                            for i in range(n)),
                            stabiliser=stabiliser, transitive=transitive)


def validate_scheme(table: RelationTable, name: str = "scheme",
                    stabiliser=(), transitive=()) -> SchemeDescriptor:
    """Triple-count validation, row by row until one class is shown to
    generate the algebra (see the module docstring), plus an exact check of
    each offered stabiliser generator and transitive generator, and of the
    transitive generators' orbit of 0; raises with a witness on failure."""
    c, d = table.classes, table.d
    if d + 1 > 300:
        raise SizeCap(f"{d + 1} classes exceeds the tensor cap")
    desc = _first_pair_scheme(table, name,
                              _checked_generators(c, stabiliser, "stabiliser"),
                              _checked_transitive(c, transitive))
    p = desc.p
    for i in range(1, d + 1):
        # float32 runs on BLAS and holds every count exactly (see SIZE_CAP)
        ai = (c == i).astype(np.float32)
        base = int(ai.sum(axis=1).max()) + 1
        per_product = 1
        while base ** (per_product + 1) <= 2 ** 24:
            per_product += 1
        # symmetric classes make A_j A_i the transpose of A_i A_j, so rows
        # before i already checked it
        js = list(range(i if table.symmetric else 1, d + 1))
        for start in range(0, len(js), per_product):
            _packed_products(table, i, js[start:start + per_product], ai,
                             base)
        if sum(1 for _ in layers(bit_rows(p[i] > 0), 0)) == d + 1:
            break
    if not table.symmetric:
        mism = np.argwhere(p != p.transpose(1, 0, 2))
        if len(mism):
            i, j, k = (int(x) for x in mism[0])
            raise NotCommutative(i, j, k, int(p[i, j, k]), int(p[j, i, k]))
    return desc


def symmetrized_scheme(desc: SchemeDescriptor) -> SchemeDescriptor:
    """The symmetrization of desc: each class merged with its transpose,
    numbered by the lesser of the two, with the tensor read off the merged
    table and desc's generators, all with no further check (see the module
    docstring)."""
    if desc.symmetric:
        return desc
    _, relabel = np.unique(np.minimum(np.arange(desc.d + 1),
                                      desc.transpose_map),
                           return_inverse=True)
    return _first_pair_scheme(
        RelationTable.from_classes(relabel[desc.classes]), desc.name,
        desc.stabiliser, desc.transitive)


def _check_relation(scheme: SchemeDescriptor, i: int) -> None:
    """Raise unless scheme is symmetric and i is one of its classes 1..d."""
    if not scheme.symmetric:
        raise NotSymmetric("relation graphs need a symmetric scheme; symmetrize first")
    if i == 0:
        raise IdentityClassRequested("class 0 is the identity relation")
    if not 1 <= i <= scheme.d:
        raise ValueError(f"relation {i} out of range 1..{scheme.d}")


def relation_graph(scheme: SchemeDescriptor, i: int) -> Graph:
    """Basis relation i as an undirected graph; requires a symmetric scheme."""
    _check_relation(scheme, i)
    return Graph(scheme.v, bit_rows(scheme.classes == i))

