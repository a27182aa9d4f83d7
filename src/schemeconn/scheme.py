"""Relation tables, intersection tensors, and scheme validation.

A scheme on X = {0..v-1} is stored as a single v x v class matrix; everything
else (transpose map, intersection numbers, valencies) is derived from it and
re-derived on load.

Validation proves that the span V of A_0..A_d is closed under
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
every digit is: one comparison checks the m products at once, and
p_{i j_t}^k is digit t at the first pair of class k.  The float
arithmetic is exact: the packed matrix holds 0 or one power b^t per
entry, every partial sum BLAS forms is a sum of non-negative integer
terms of the entry, at most (b-1) b^(m-1) < 2**24, and float32's 24-bit
significand holds every such integer whatever the summation order,
thread count or FMA use.  A failure's witness is read off the digits of
the mismatching entries: the first j of the run with a digit off, the
first row-major pair where it is off, and both counts, the very fields
one product per class would give.

The loop stops early once one class generates the algebra.  After row i,
A_i V lies in V, and multiplication by A_i acts on the basis A_0..A_d as the
integer matrix B_i[k][j] = p_ij^k, so B_i^m e_0 holds the coordinates of
A_i^m.  If e_0, B_i e_0, ..., B_i^d e_0 have rank d+1 over GF(P) for a
prime P, some (d+1)-minor of that integer matrix is non-zero mod P, hence
non-zero, so I, A_i, ..., A_i^d span V.  Then V = C[A_i], which is closed
under multiplication and commutative: every remaining product would pass
its check, and every p_jl^k is the count at the first pair of class k,
read off in integers instead.  A_1 generates V in a P-polynomial scheme
(Bannai-Ito, Algebraic Combinatorics I, 1984, sec. III.1), such as the
Hamming, Johnson and cyclic schemes, so these stop after row 1 instead of
running d rows.  Where no class generates, every row runs as before.  Rows run
in the same order either way, so the tensor and the first failure, with its
witness, do not depend on where the loop stops.

Generators offered by a construction are checked just as exactly: each must
permute X and map every pair to a pair of the same class, a stabiliser
generator must fix vertex 0, and the transitive generators together must
carry 0 to every vertex.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .connectivity import _orbit_representatives
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
from .graph import Graph, bit_rows

# validate_scheme's float32 products are exact only while every entry is
# below 2**24 (float32 has a 24-bit significand); a count is below v, so
# under the cap every product holds at least one base-v digit
SIZE_CAP = 4096
# validate_scheme's rank test works in GF(_PRIME); below 2**26, a sum of up
# to 512 products of two residues stays below 2**63, past the 300-class cap
_PRIME = 67108859


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
        # transpose map: class of (y,x) must be a function of class of (x,y)
        ct = np.ascontiguousarray(c.T)
        tmap = ct.ravel()[first]
        if not np.array_equal(tmap[c], ct):
            bad = np.argwhere(tmap[c] != ct)[0]
            x, y = int(bad[0]), int(bad[1])
            raise NotClosedUnderTranspose(
                f"class of ({y},{x}) is {int(c[y, x])} but class "
                f"{int(c[x, y])} transposes to {int(tmap[c[x, y]])} elsewhere")
        if not np.array_equal(tmap[tmap], np.arange(d + 1)):
            raise NotClosedUnderTranspose("transpose map is not an involution")
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
    of vertex 0 under the group they generate is shown to be all of X."""
    gens = _checked_generators(classes, generators, "transitive")
    if gens:
        v = classes.shape[0]
        reps = _orbit_representatives(range(v), gens)
        if len(reps) > 1:
            x = reps[1]
            raise NotAnAutomorphism(
                None, x, f"not transitive: the orbit of 0 misses {x}",
                "transitive")
    return gens


def _packed_products(table: RelationTable, i: int, js: list[int],
                     ai: np.ndarray, base: int) -> np.ndarray:
    """p_ij^k for each class j of the run js (one row per j, one column
    per k), read off one float32 product of ai = A_i with
    sum_t base**t A_{js[t]} (see the module docstring), once the product is
    shown constant on every class; otherwise raises NonConstantIntersection
    for the first j and first row-major pair whose digit is not."""
    c, first, v = table.classes, table.first_pair, table.v
    powers = base ** np.arange(len(js), dtype=np.int64)
    weights = np.zeros(table.d + 1, dtype=np.float32)
    weights[js] = powers
    n = ai @ weights[c]
    pv = n.ravel()[first]
    mism = np.flatnonzero(n != pv[c])
    pv = pv.astype(np.int64)
    if not len(mism):
        return pv // powers[:, None] % base
    got = n.ravel()[mism].astype(np.int64)
    # a kept exception keeps the frames of its traceback alive
    del n
    want = pv[c.ravel()[mism]]
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


def _generates(b: np.ndarray) -> bool:
    """True iff e_0, b e_0, ..., b^(n-1) e_0 have rank n over GF(_PRIME),
    for an n x n integer matrix b with entries in [0, SIZE_CAP].  Each new
    Krylov vector is reduced against the ones before, kept in reduced row
    echelon form; once one reduces to zero the span is b-invariant, so the
    rank is final."""
    n = b.shape[0]
    basis = np.zeros((n, n), dtype=np.int64)
    pivots: list[int] = []
    w = np.zeros(n, dtype=np.int64)
    w[0] = 1
    for m in range(n):
        w = (w - w[pivots] @ basis[:m]) % _PRIME
        nonzero = np.flatnonzero(w)
        if not len(nonzero):
            return False
        col = int(nonzero[0])
        w = w * pow(int(w[col]), -1, _PRIME) % _PRIME
        basis[:m] = (basis[:m] - np.outer(basis[:m, col], w)) % _PRIME
        basis[m] = w
        pivots.append(col)
        w = b @ w % _PRIME
    return True


def validate_scheme(table: RelationTable, name: str = "scheme",
                    stabiliser=(), transitive=()) -> SchemeDescriptor:
    """Triple-count validation, row by row until one class is shown to
    generate the algebra (see the module docstring), plus an exact check of
    each offered stabiliser generator and transitive generator, and of the
    transitive generators' orbit of 0; raises with a witness on failure."""
    c = table.classes
    v, d = table.v, table.d
    if d + 1 > 300:
        raise SizeCap(f"{d + 1} classes exceeds the tensor cap")
    gens = _checked_generators(c, stabiliser, "stabiliser")
    transitive = _checked_transitive(c, transitive)
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    # identity row/column is forced: p[0,j,k] = [j==k], p[i,0,k] = [i==k]
    for j in range(d + 1):
        p[0, j, j] = 1
        p[j, 0, j] = 1
    p[0, 0, :] = 0
    p[0, 0, 0] = 1

    for i in range(1, d + 1):
        # float32 runs on BLAS and holds every count exactly (see SIZE_CAP)
        ai = (c == i).astype(np.float32)
        base = int(ai.sum(axis=1).max()) + 1
        per_product = 1
        while base ** (per_product + 1) <= 2 ** 24:
            per_product += 1
        # symmetric classes make A_j A_i the transpose of A_i A_j, so rows
        # before i already checked it, and p_ji^k = p_ij^{k'} = p_ij^k
        js = list(range(i if table.symmetric else 1, d + 1))
        for start in range(0, len(js), per_product):
            run = js[start:start + per_product]
            p[i, run, :] = _packed_products(table, i, run, ai, base)
            if table.symmetric:
                p[run, i, :] = p[i, run, :]
        if _generates(p[i].T):
            for k in range(d + 1):
                a, b = divmod(int(table.first_pair[k]), v)
                p[:, :, k] = np.bincount(
                    c[a] * (d + 1) + c[:, b],
                    minlength=(d + 1) ** 2).reshape(d + 1, d + 1)
            break
    if not table.symmetric:
        mism = np.argwhere(p != p.transpose(1, 0, 2))
        if len(mism):
            i, j, k = (int(x) for x in mism[0])
            raise NotCommutative(i, j, k, int(p[i, j, k]), int(p[j, i, k]))

    tm = table.transpose_map
    val = tuple(int(p[i, tm[i], 0]) for i in range(d + 1))
    p.setflags(write=False)
    # the table's own fields only: a descriptor passed in also carries p,
    # its name and its cached diagrams
    return SchemeDescriptor(**{f.name: getattr(table, f.name)
                               for f in fields(RelationTable)},
                            name=name, p=p, valencies=val,
                            stabiliser=gens, transitive=transitive)


def _merged_table(table: RelationTable) -> RelationTable:
    """table with each class merged with its transpose (not validated)."""
    tm = table.transpose_map
    orbits = sorted({tuple(sorted((i, tm[i]))) for i in range(table.d + 1)})
    relabel = np.zeros(table.d + 1, dtype=np.int64)
    for new, orb in enumerate(orbits):
        for i in orb:
            relabel[i] = new
    return RelationTable.from_classes(relabel[table.classes])


def symmetrized_scheme(desc: SchemeDescriptor) -> SchemeDescriptor:
    """The symmetrization of desc, validated once.  Its stabiliser and
    transitive generators preserve the merged classes too; they are
    carried over and checked again."""
    if desc.symmetric:
        return desc
    return validate_scheme(_merged_table(desc), name=desc.name,
                           stabiliser=desc.stabiliser,
                           transitive=desc.transitive)


def relation_graph(scheme: SchemeDescriptor, i: int) -> Graph:
    """Basis relation i as an undirected graph; requires a symmetric scheme."""
    if not scheme.symmetric:
        raise NotSymmetric("relation graphs need a symmetric scheme; symmetrize first")
    if i == 0:
        raise IdentityClassRequested("class 0 is the identity relation")
    if not 1 <= i <= scheme.d:
        raise ValueError(f"relation {i} out of range 1..{scheme.d}")
    return Graph(scheme.v, bit_rows(scheme.classes == i))

