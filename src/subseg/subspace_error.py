"""Local subspace bases and the point-to-subspace residual matrix.

Point i together with its sparse neighbors spans local subspace i; the
squared residual of every projected point against that subspace fills
row i of a P x P error matrix whose block structure separates the
motions.  `build_error_matrix` is the whole stage; `subspace_basis` is
its local-rank decision.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array, eye_array

from ._checks import check_range

DEFAULT_RANK_TOL = 1e-6


@dataclass
class LocalSubspace:
    """Orthonormal basis of the span of one point and its sparse neighbors."""

    members: np.ndarray   # sorted indices, {i} union support(omega_i)
    basis: np.ndarray     # (m, m_i), orthonormal columns
    rank: int


@dataclass
class ErrorMatrix:
    """P x P matrix; entry (i, t) is the squared residual of point t
    against local subspace i."""

    data: np.ndarray


def subspace_basis(columns, rank_tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the member columns via SVD rank truncation.

    Keeps singular directions with sigma_k > rank_tol * sigma_max; without
    the truncation a saturated neighbor set would span the whole global
    space and zero out every residual.
    """
    check_range("rank_tol", rank_tol, 0, 1)
    columns = np.atleast_2d(columns)
    if columns.shape[1] == 0:
        raise ValueError("member set must be nonempty")
    U, ranks = _stacked_bases(columns[None], rank_tol)
    return U[0, :, :ranks[0]], int(ranks[0])


def _stacked_bases(stack, rank_tol):
    """Left singular vectors and truncated ranks of a (g, m, count) stack
    of member column sets, from one batched SVD; basis j is
    ``U[j, :, :ranks[j]]``.  A stacked SVD factors each matrix alone, so
    every basis is the same bits as that of an SVD of its matrix alone."""
    U, s, _ = np.linalg.svd(stack, full_matrices=False)
    ranks = np.maximum(1, np.count_nonzero(s > rank_tol * s[:, :1], axis=1))
    return U, ranks


def build_error_matrix(subspace, Omega, rank_tol=DEFAULT_RANK_TOL):
    """Local subspace i is spanned by point i and the support of Omega[i];
    E[i, t] = ||g_t - B_i B_i^T g_t||^2 for every projected point g_t.

    With an orthonormal basis the Moore-Penrose inverse is the transpose,
    so B B^T is the orthogonal projector onto the local subspace.  The
    members of every row come from one sparse union ``(Omega != 0) + I``
    on a CSR copy of Omega, which sums duplicate entries first: i itself
    and the columns whose summed entries are nonzero, in ascending order.
    The rows with the same member count share one stacked SVD
    (``_stacked_bases``).  Each residual row is formed in one reused
    m x P buffer, so E is the one P x P array made.  Returns the
    ErrorMatrix and the list of LocalSubspace, one per point.
    """
    check_range("rank_tol", rank_tol, 0, 1)
    G = subspace.data
    P = subspace.points
    support = ((csr_array(Omega, copy=True) != 0)
               + eye_array(P, dtype=bool, format="csr"))
    counts = np.diff(support.indptr)
    members = np.split(support.indices, support.indptr[1:-1])
    subspaces = [None] * P
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        group = support.indices[support.indptr[rows, None] + np.arange(count)]
        U, ranks = _stacked_bases(np.moveaxis(G[:, group], 0, 1), rank_tol)
        for i, basis, rank in zip(rows, U, ranks.tolist()):
            subspaces[i] = LocalSubspace(members[i], basis[:, :rank], rank)
    E = np.empty((P, P))
    residual = np.empty_like(G)
    for i, local in enumerate(subspaces):
        B = local.basis
        np.subtract(G, B @ (B.T @ G), out=residual)
        np.square(residual, out=residual)
        np.sum(residual, axis=0, out=E[i])
    return ErrorMatrix(E), subspaces
