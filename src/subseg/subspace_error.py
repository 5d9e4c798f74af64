"""Local subspace bases and the point-to-subspace residual matrix.

Point i and its LOCAL_MEMBERS - 1 nearest candidates by NSI distance span
local subspace i, of one dimension d for every point; the squared
residual of every projected point against that subspace fills row i of a
P x P error matrix whose block structure separates the motions.  The
weights Omega enter only through the candidates they store.
`build_error_matrix` is the whole stage.
"""

from dataclasses import dataclass

import numpy as np

from . import neighbors as nb

# Members per local subspace (K), point i included, and the largest local
# dimension (d): 4 is the rank of one rigid motion under the affine camera
# (Tron and Vidal, CVPR 2007).  K was chosen on hopkins-small seeds 1-2.
LOCAL_MEMBERS = 6
LOCAL_DIM = 4


@dataclass
class LocalSubspace:
    """Orthonormal basis of the local subspace of one point."""

    members: np.ndarray   # the point, then its nearest candidates in order
    basis: np.ndarray     # (m, rank), orthonormal columns
    rank: int             # the local dimension d


@dataclass
class ErrorMatrix:
    """P x P matrix; entry (i, t) is the squared residual of point t
    against local subspace i."""

    data: np.ndarray


def complement_is_cheaper(m, d):
    """Whether ``build_error_matrix`` forms E from the m - d columns that
    complete each local basis of dimension d in R^m, not from the basis.

    One product with the complement costs (m - d) m multiply-adds per
    entry of E, the basis path 2 m d plus a subtraction and a sum of
    squares over m values.  The boundary m - d <= 3 d was measured
    (CHANGES.md).
    """
    return m - d <= 3 * d


def _member_sets(G, Omega):
    """(P, min(LOCAL_MEMBERS, 1 + k)) member indices: row i holds i, then
    the LOCAL_MEMBERS - 1 columns Omega[i] stores with the smallest NSI
    distance 1 - (g_i^T g_j)^2, ties to the lower index.  Only
    ``Omega.cols`` is read."""
    cols = Omega.cols
    rows = np.arange(len(cols))
    dot = np.zeros(cols.shape)
    for g in G:                # one coordinate at a time: no m x k*P copy
        dot += g[rows, None] * g[cols]
    order = np.argsort(1.0 - np.minimum(dot * dot, 1.0), axis=1,
                       kind="stable")[:, :LOCAL_MEMBERS - 1]
    return np.column_stack((rows, np.take_along_axis(cols, order, 1)))


def build_error_matrix(subspace, Omega, rank_tol=None):
    """E[i, t] = ||g_t - B_i B_i^T g_t||^2 for every projected point g_t,
    where B_i holds the first d left singular vectors of the members of
    local subspace i (``_member_sets``).

    Omega is a ``RowSparse`` with k entries per row, so every row has
    count = min(LOCAL_MEMBERS, 1 + k) members and one local dimension
    d = min(LOCAL_DIM, m - 1, count - 1): below both m and the member
    count, so a local subspace never spans the whole global space nor
    fits its members exactly.  One stacked SVD factors every member set;
    it factors each matrix alone, so a basis is the same bits as that of
    its matrix factored alone, and each LocalSubspace's basis is a view
    of its U.  Where ``complement_is_cheaper(m, d)`` the SVD is full, so
    U_i = [B_i, N_i] is orthogonal and E[i, t] = ||N_i^T g_t||^2
    exactly: each row block of E is the column sums of the squares of
    one product of the stacked complements with G.  Otherwise the SVD is
    thin and E is g - B B^T g summed over m.  Either way E is formed in
    row blocks whose residual buffer holds about one tile
    (``neighbors.row_blocks``), so E is the one P x P array made.
    ``rank_tol`` is ignored; it is kept for the benchmark's layer replay
    until that is replaced.  Returns the ErrorMatrix and the list of
    LocalSubspace, one per point.
    """
    nb.require_row_sparse("Omega", Omega)
    G = subspace.data
    m, P = G.shape
    members = _member_sets(G, Omega)
    d = min(LOCAL_DIM, m - 1, members.shape[1] - 1)
    complement = complement_is_cheaper(m, d)
    U = np.linalg.svd(np.moveaxis(G[:, members], 0, 1),
                      full_matrices=complement)[0]
    subspaces = [LocalSubspace(row, U[i, :, :d], d)
                 for i, row in enumerate(members)]
    E = np.empty((P, P))
    if complement:
        width = m - d
        for block in nb.row_blocks(P, width * P):
            N = U[block, :, d:].transpose(0, 2, 1).reshape(-1, m)
            residual = (N @ G).reshape(-1, width, P)
            np.einsum("rwp,rwp->rp", residual, residual, out=E[block])
        return ErrorMatrix(E), subspaces
    for block in nb.row_blocks(P, m * P):
        B = U[block, :, :d]
        residual = np.matmul(B, np.matmul(B.transpose(0, 2, 1), G))
        np.subtract(G, residual, out=residual)
        np.einsum("rwp,rwp->rp", residual, residual, out=E[block])
    return ErrorMatrix(E), subspaces
