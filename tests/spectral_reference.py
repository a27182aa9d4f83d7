"""The v x v spectral decomposition, kept as the reference for the
package's (d+1)-dimensional one.

It diagonalizes the relation matrices themselves: the eigendecomposition
of A_1, refined against A_2..A_d until every matrix acts as a scalar on
each block, and reads the idempotents off the blocks' orthonormal bases.
Rows come out in the package's order: the all-ones eigenspace first, then
by integer eigenvalue ranks per column.
"""
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReferenceSpectral:
    p: np.ndarray
    q: np.ndarray
    multiplicities: tuple[int, ...]
    idempotents: tuple[np.ndarray, ...]


def _split_by_gaps(vals, tol):
    blocks, start = [], 0
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > tol:
            blocks.append((start, i))
            start = i
    blocks.append((start, len(vals)))
    return blocks


def reference_spectral(scheme, grouping_tol=1e-9) -> ReferenceSpectral:
    v, d = scheme.v, scheme.d
    c = scheme.table.classes

    def mat(i):
        return (c == i).astype(np.float64)

    if d == 0:
        basis = [np.eye(v)]
    else:
        w, vecs = np.linalg.eigh(mat(1))
        tol = grouping_tol * max(1.0, float(np.abs(w).max()))
        basis = [vecs[:, a:b] for a, b in _split_by_gaps(w, tol)]
    for i in range(2, d + 1):
        tol = grouping_tol * max(1.0, float(scheme.valencies[i]))
        ai = mat(i)
        refined = []
        for blk in basis:
            if blk.shape[1] == 1:
                refined.append(blk)
                continue
            m = blk.T @ ai @ blk
            w, u = np.linalg.eigh((m + m.T) / 2.0)
            refined += [blk @ u[:, a:b] for a, b in _split_by_gaps(w, tol)]
        basis = refined
    assert len(basis) == d + 1, (scheme.name, len(basis))

    scalars = np.empty((d + 1, d + 1))
    for i in range(d + 1):
        ai = mat(i)
        for j, blk in enumerate(basis):
            theta = float(np.trace(blk.T @ ai @ blk)) / blk.shape[1]
            resid = float(np.abs(ai @ blk - theta * blk).max())
            assert resid < 1e-8 * max(1.0, scheme.valencies[i]), \
                (scheme.name, i, j, resid)
            scalars[j, i] = theta

    ones = np.ones(v)
    j0 = int(np.argmax([np.linalg.norm(blk.T @ ones) for blk in basis]))
    ranks = np.zeros((d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        tol = 1e-6 * max(1.0, float(scheme.valencies[i]))
        by_val = sorted(range(d + 1), key=lambda j: -scalars[j, i])
        r = 0
        for prev, j in zip(by_val, by_val[1:]):
            if scalars[prev, i] - scalars[j, i] > tol:
                r += 1
            ranks[j, i] = r
    order = [j0] + sorted((j for j in range(d + 1) if j != j0),
                          key=lambda j: tuple(ranks[j]))
    basis = [basis[j] for j in order]
    p = scalars[order, :]
    return ReferenceSpectral(
        p=p, q=v * np.linalg.inv(p),
        multiplicities=tuple(blk.shape[1] for blk in basis),
        idempotents=tuple(blk @ blk.T for blk in basis))


def has_equal_columns(e, tol) -> bool:
    """Any two columns of e equal entrywise within tol.  Candidate pairs
    come from a lexicographic column sort; genuinely equal columns differ
    by float noise far below any eigenspace separation, so they land
    adjacent."""
    s = e[:, np.lexsort(e)]
    return bool((np.abs(s[:, 1:] - s[:, :-1]).max(axis=0) < tol).any())


def repeated_column_idempotents(spec: ReferenceSpectral, tol=1e-8):
    return tuple(j for j in range(1, len(spec.idempotents))
                 if has_equal_columns(spec.idempotents[j], tol))


def idempotents_from_q(scheme, q) -> list[np.ndarray]:
    """E_j = (1/v) sum_i Q_ij A_i, read off the class matrix."""
    c = np.asarray(scheme.table.classes)
    return [q[:, j][c] / scheme.v for j in range(scheme.d + 1)]
