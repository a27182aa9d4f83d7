"""Common eigenspaces, eigenmatrices, and the spectral audits.

The decomposition is floating point and quarantined: nothing here feeds
back into a connectivity decision.  All assertions made from this module
carry explicit tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (DetectorDisagreement, Disconnected, NotSymmetric,
                     RefinementFailed)
from .scheme import SchemeDescriptor, relation_graph

if TYPE_CHECKING:
    from .audits import RelationContext

GROUPING_TOL = 1e-9
SCALAR_RESIDUAL_TOL = 1e-8
COLUMN_TOL = 1e-8


@dataclass(frozen=True)
class SpectralData:
    p: np.ndarray                      # p[j][i]: eigenvalue of A_i on space j
    q: np.ndarray
    multiplicities: tuple[int, ...]
    idempotents: tuple[np.ndarray, ...]
    grouping_tol: float

    @property
    def d(self) -> int:
        return self.p.shape[0] - 1


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
    """Simultaneously diagonalize the relation matrices.

    Start from the eigendecomposition of A_1 and refine each shared
    eigenspace against A_2..A_d until every matrix acts as a scalar; a
    valid scheme yields exactly d+1 common eigenspaces.
    """
    if not scheme.symmetric:
        raise NotSymmetric("spectral decomposition expects a symmetric scheme")
    v, d = scheme.v, scheme.d
    c = scheme.table.classes
    mats = [(c == i).astype(np.float64) for i in range(d + 1)]

    if d == 0:
        basis = [np.eye(v)]
    else:
        w, vecs = np.linalg.eigh(mats[1])
        tol = grouping_tol * max(1.0, float(np.abs(w).max()))
        basis = [vecs[:, a:b] for a, b in _split_by_gaps(w, tol)]
    for i in range(2, d + 1):
        norm_i = float(scheme.valencies[i])
        tol = grouping_tol * max(1.0, norm_i)
        refined = []
        for blk in basis:
            if blk.shape[1] == 1:
                refined.append(blk)
                continue
            m = blk.T @ mats[i] @ blk
            m = (m + m.T) / 2.0
            w, u = np.linalg.eigh(m)
            for a, b in _split_by_gaps(w, tol):
                refined.append(blk @ u[:, a:b])
        basis = refined
    if len(basis) != d + 1:
        raise RefinementFailed(
            f"found {len(basis)} common eigenspaces, expected {d + 1}")

    scalars = np.empty((d + 1, d + 1))
    for j, blk in enumerate(basis):
        for i in range(d + 1):
            m = blk.T @ mats[i] @ blk
            theta = float(np.trace(m)) / blk.shape[1]
            resid = float(np.abs(mats[i] @ blk - theta * blk).max())
            if resid > SCALAR_RESIDUAL_TOL * max(1.0, scheme.valencies[i]):
                raise RefinementFailed(
                    f"A_{i} is not scalar on eigenspace {j}: residual {resid:.3e}")
            scalars[j, i] = theta

    # all-ones eigenspace first, then rows in descending eigenvalue order.
    # Sort keys are integer ranks per column (rank 0 = largest), assigned by
    # gap detection so float noise cannot flip ties.
    ones = np.ones(v)
    weight = [float(np.linalg.norm(blk.T @ ones)) for blk in basis]
    j0 = int(np.argmax(weight))
    ranks = np.zeros((d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        tol = 1e-6 * max(1.0, float(scheme.valencies[i]))
        by_val = sorted(range(d + 1), key=lambda j: -scalars[j, i])
        r = 0
        ranks[by_val[0], i] = 0
        for prev, j in zip(by_val, by_val[1:]):
            if scalars[prev, i] - scalars[j, i] > tol:
                r += 1
            ranks[j, i] = r
    order = [j0] + sorted((j for j in range(d + 1) if j != j0),
                          key=lambda j: tuple(ranks[j]))
    basis = [basis[j] for j in order]
    p = scalars[order, :]
    mult = tuple(blk.shape[1] for blk in basis)
    idem = tuple(blk @ blk.T for blk in basis)
    q = v * np.linalg.inv(p)
    return SpectralData(p=p, q=q, multiplicities=mult, idempotents=idem,
                        grouping_tol=grouping_tol)


# -- primitivity ---------------------------------------------------------

@dataclass(frozen=True)
class PrimitivityVerdict:
    primitive: bool
    disconnected_relations: tuple[int, ...]
    repeated_column_idempotents: tuple[int, ...]
    witness_partition: Optional[tuple[tuple[int, ...], ...]]


def _has_equal_columns(e: np.ndarray, tol: float) -> bool:
    """Any two columns equal entrywise within tol.  Candidate pairs come
    from a lexicographic column sort; genuinely equal columns differ by
    float noise far below any eigenspace separation, so they land adjacent."""
    order = np.lexsort(e)
    s = e[:, order]
    diffs = np.abs(s[:, 1:] - s[:, :-1]).max(axis=0)
    return bool((diffs < tol).any())


def primitivity(scheme: SchemeDescriptor, spectral: SpectralData,
                column_tol: float = COLUMN_TOL) -> PrimitivityVerdict:
    """Two detectors that must agree: a disconnected basis relation, and a
    repeated column (equal within column_tol) in some nontrivial
    idempotent."""
    disc = []
    witness = None
    for i in range(1, scheme.d + 1):
        graph = relation_graph(scheme, i)
        if not graph.is_connected():
            disc.append(i)
            if witness is None:
                witness = tuple(tuple(comp) for comp in graph.components())
    rep = [ell for ell in range(1, scheme.d + 1)
           if _has_equal_columns(spectral.idempotents[ell], column_tol)]
    if bool(disc) != bool(rep):
        raise DetectorDisagreement(
            f"disconnected relations {disc} vs repeated-column idempotents {rep}")
    return PrimitivityVerdict(primitive=not disc,
                              disconnected_relations=tuple(disc),
                              repeated_column_idempotents=tuple(rep),
                              witness_partition=witness)


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
