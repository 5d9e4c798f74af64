"""Local subspace bases and the point-to-subspace residual matrix.

Point i together with its sparse neighbors spans local subspace i; the
squared residual of every projected point against that subspace fills
row i of a P x P error matrix whose block structure separates the
motions.  `build_error_matrix` is the whole stage; `subspace_basis` is
its local-rank decision.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

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
    columns = np.atleast_2d(columns)
    if columns.shape[1] == 0:
        raise ValueError("member set must be nonempty")
    U, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = max(1, int(np.count_nonzero(s > rank_tol * s[0])))
    return U[:, :rank], rank


def build_error_matrix(subspace, Omega, rank_tol=DEFAULT_RANK_TOL):
    """Local subspace i is spanned by point i and the support of Omega[i];
    E[i, t] = ||g_t - B_i B_i^T g_t||^2 for every projected point g_t.

    With an orthonormal basis the Moore-Penrose inverse is the transpose,
    so B B^T is the orthogonal projector onto the local subspace.  Omega
    is coerced to a CSR array (a dense Omega stores its nonzeros); the
    members of row i are its nonzero columns and i itself, in ascending
    order, gathered for all rows in one sparse pass.  Each residual row is
    formed in one reused m x P buffer, so E is the one P x P array made.
    Returns the ErrorMatrix and the list of LocalSubspace, one per point.
    """
    G = subspace.data
    P = subspace.points
    rows, cols = csr_array(Omega).nonzero()
    diagonal = np.arange(P)
    support = csr_array((np.ones(rows.size + P, dtype=bool),
                         (np.append(rows, diagonal), np.append(cols, diagonal))),
                        shape=(P, P))
    del rows, cols
    E = np.empty((P, P))
    residual = np.empty_like(G)
    subspaces = []
    for i in range(P):
        members = support.indices[support.indptr[i]:support.indptr[i + 1]]
        B, rank = subspace_basis(G[:, members], rank_tol)
        np.subtract(G, B @ (B.T @ G), out=residual)
        np.square(residual, out=residual)
        np.sum(residual, axis=0, out=E[i])
        subspaces.append(LocalSubspace(members, B, rank))
    return ErrorMatrix(E), subspaces
