"""Common eigenspaces, eigenmatrices, and the spectral audits.

Everything is computed in the regular representation of the Bose-Mesner
algebra, which has d+1 dimensions whatever v is (Brouwer-Cohen-Neumaier,
Distance-Regular Graphs, 1989, sec. 2.2; Bannai-Ito, Algebraic
Combinatorics I, 1984, sec. II.2-3).  Multiplication by A_i sends A_j to
sum_k p_ij^k A_k, so on the basis A_0..A_d it acts as the matrix
B_i[k][j] = p_ij^k.  In a symmetric scheme k_k p_ij^k = k_j p_ik^j, so
with D = diag(valencies) the matrices S_i = D^{1/2} B_i D^{-1/2} are
symmetric, and they commute.  Their d+1 common eigenvectors are
D^{1/2} times the columns of Q, one per primitive idempotent E_j, and S_i
acts on the j-th as the scalar P_ji, the eigenvalue of A_i on the j-th
common eigenspace of the relation matrices.  Then Q = v P^-1, and the
multiplicity of eigenspace j is m_j = Q_0j.

Primitivity reads Q as well.  E_j = (1/v) sum_k Q_kj A_k is a symmetric
idempotent, so for vertices x, y with class(x, y) = k

    ||E_j e_x - E_j e_y||^2 = 2 (m_j - Q_kj) / v,

and columns x and y of E_j are equal iff Q_kj = m_j.  Nothing of size v
is built.

The decomposition is floating point and quarantined: nothing here feeds
back into a connectivity decision.  All assertions made from this module
carry explicit tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DetectorDisagreement, Disconnected, NotSymmetric,
                     RefinementFailed)
from .scheme import SchemeDescriptor

if TYPE_CHECKING:
    from .audits import RelationContext

GROUPING_TOL = 1e-9
SCALAR_RESIDUAL_TOL = 1e-8
COLUMN_TOL = 1e-8


@dataclass(frozen=True)
class SpectralData:
    p: np.ndarray                      # p[j][i]: eigenvalue of A_i on space j
    q: np.ndarray                      # v P^-1; m_j = q[0][j]
    multiplicities: tuple[int, ...]    # q[0] rounded


def _split_by_gaps(vals: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Index ranges of near-equal runs in an ascending array."""
    blocks = []
    start = 0
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > tol:
            blocks.append((start, i))
            start = i
    blocks.append((start, len(vals)))
    return blocks


def compute_spectral(scheme: SchemeDescriptor,
                     grouping_tol: float = GROUPING_TOL) -> SpectralData:
    """Simultaneously diagonalize the symmetrized intersection matrices.

    Start from one shared space and refine each eigenspace against
    S_1..S_d until every matrix acts as a scalar; a valid scheme yields
    exactly d+1 one-dimensional common eigenspaces.
    """
    if not scheme.symmetric:
        raise NotSymmetric("spectral decomposition expects a symmetric scheme")
    v, d = scheme.v, scheme.d
    val = np.asarray(scheme.valencies, dtype=np.float64)
    root = np.sqrt(val)
    scale = root[:, None] / root[None, :]
    p = scheme.p

    def sym(i: int) -> np.ndarray:
        # S_i[k][j] = sqrt(k_k / k_j) p_ij^k
        return scale * p[i].T

    basis = [np.eye(d + 1)]
    for i in range(1, d + 1):
        if len(basis) == d + 1:
            break
        tol = grouping_tol * max(1.0, float(val[i]))
        si = sym(i)
        refined = []
        for blk in basis:
            if blk.shape[1] == 1:
                refined.append(blk)
                continue
            m = blk.T @ si @ blk
            m = (m + m.T) / 2.0
            w, u = np.linalg.eigh(m)
            for a, b in _split_by_gaps(w, tol):
                refined.append(blk @ u[:, a:b])
        basis = refined
    if len(basis) != d + 1:
        raise RefinementFailed(
            f"found {len(basis)} common eigenspaces, expected {d + 1}")

    u = np.hstack(basis)                 # column j spans eigenspace j
    scalars = np.empty((d + 1, d + 1))
    for i in range(d + 1):
        su = sym(i) @ u
        theta = np.einsum("kj,kj->j", u, su)
        resid = np.abs(su - u * theta).max(axis=0)
        j = int(np.argmax(resid))
        if resid[j] > SCALAR_RESIDUAL_TOL * max(1.0, float(val[i])):
            raise RefinementFailed(
                f"A_{i} is not scalar on eigenspace {j}: "
                f"residual {resid[j]:.3e}")
        scalars[:, i] = theta

    # all-ones eigenspace first, then rows in descending eigenvalue order.
    # Sort keys are integer ranks per column (rank 0 = largest), assigned by
    # gap detection so float noise cannot flip ties.  The all-ones matrix
    # sum_k A_k is the vector D^{1/2} 1 = root in these coordinates.
    j0 = int(np.argmax(np.abs(root @ u)))
    ranks = np.zeros((d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        tol = 1e-6 * max(1.0, float(val[i]))
        by_val = sorted(range(d + 1), key=lambda j: -scalars[j, i])
        r = 0
        ranks[by_val[0], i] = 0
        for prev, j in zip(by_val, by_val[1:]):
            if scalars[prev, i] - scalars[j, i] > tol:
                r += 1
            ranks[j, i] = r
    order = [j0] + sorted((j for j in range(d + 1) if j != j0),
                          key=lambda j: tuple(ranks[j]))
    eig = scalars[order, :]
    q = v * np.linalg.inv(eig)
    return SpectralData(p=eig, q=q,
                        multiplicities=tuple(int(round(m)) for m in q[0]))


# -- primitivity ---------------------------------------------------------

@dataclass(frozen=True)
class PrimitivityVerdict:
    primitive: bool
    disconnected_relations: tuple[int, ...]
    repeated_column_idempotents: tuple[int, ...]


def primitivity(scheme: SchemeDescriptor, spectral: SpectralData,
                column_tol: float = COLUMN_TOL) -> PrimitivityVerdict:
    """Two detectors that must agree: a disconnected basis relation, and a
    repeated column in some nontrivial idempotent E_j, i.e. a class k >= 1
    with m_j - Q_kj within column_tol of 0 (module docstring).  Relation i
    is connected iff its distribution diagram reaches every class, so no
    relation graph is built; the diagrams are the scheme's own, which the
    relation contexts read too."""
    disc = [i for i, diag in scheme.diagrams.items() if diag.diameter is None]
    q = spectral.q
    rep = [j for j in range(1, scheme.d + 1)
           if (np.abs(q[0, j] - q[1:, j]) < column_tol).any()]
    if bool(disc) != bool(rep):
        raise DetectorDisagreement(
            f"disconnected relations {disc} vs repeated-column idempotents {rep}")
    return PrimitivityVerdict(primitive=not disc,
                              disconnected_relations=tuple(disc),
                              repeated_column_idempotents=tuple(rep))


def second_eigenvalue(ctx: RelationContext, spectral: SpectralData) -> float:
    """Largest eigenvalue of A_g strictly below the valency."""
    if not ctx.connected:
        raise Disconnected("second eigenvalue wants a connected relation")
    i = ctx.g
    vi = float(ctx.scheme.valencies[i])
    tol = 1e-6 * max(1.0, vi)
    cands = [float(spectral.p[j, i]) for j in range(ctx.scheme.d + 1)
             if spectral.p[j, i] < vi - tol]
    if not cands:
        raise RefinementFailed("no eigenvalue below the valency")
    return max(cands)
