"""Local subspace bases and the point-to-subspace residual matrix.

Point i and a few of the candidates its weight row stores span local
subspace i, of a fixed dimension; the squared residual of every projected
point against that subspace fills row i of a P x P error matrix whose
block structure separates the motions.  `build_error_matrix` is the whole
stage; `subspace_basis` is its local-dimension rule.
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

    members: np.ndarray   # the point, then its chosen candidates in order
    basis: np.ndarray     # (m, rank), orthonormal columns
    rank: int             # the local dimension d


@dataclass
class ErrorMatrix:
    """P x P matrix; entry (i, t) is the squared residual of point t
    against local subspace i."""

    data: np.ndarray


def subspace_basis(columns):
    """The first d = min(LOCAL_DIM, m - 1, count - 1) left singular vectors
    of the member columns, shape (m, count), or of each matrix of a
    (g, m, count) stack, from one thin SVD.  Returns (basis, d).

    d is below both m and the member count, so a local subspace never
    spans the whole global space nor fits its members exactly.  A stacked
    SVD factors each matrix alone, so a basis is the same bits as that of
    its matrix factored alone.
    """
    U, d = _left_singular(columns, full=False)
    return U[..., :d], d


def _left_singular(columns, full):
    """U of the SVD of the member columns (or of each matrix of a stack),
    m x m when ``full`` and thin otherwise, and the local dimension d."""
    columns = np.asarray(columns, dtype=float)
    m, count = columns.shape[-2:]
    if count == 0:
        raise ValueError("member set must be nonempty")
    d = max(0, min(LOCAL_DIM, m - 1, count - 1))
    return np.linalg.svd(columns, full_matrices=full)[0], d


def complement_is_cheaper(m, d):
    """Whether ``build_error_matrix`` forms E from the m - d columns that
    complete each local basis of dimension d in R^m, not from the basis.

    One product with the complement costs (m - d) m multiply-adds per
    entry of E, the basis path 2 m d plus three passes over m values.
    Measured with 2 BLAS threads at d = 4 (P = 480, 1200 and 3000), the
    complement was faster up to m = 16 (0.3 against 2.1 ms at m = 5,
    P = 480; 85 against 167 ms at m = 12, P = 3000) and slower or even
    from m = 24 (9.3 against 7.5 ms at P = 480, 52 against 41 ms at
    P = 1200), so the boundary is m - d <= 3 d.
    """
    return m - d <= 3 * d


def _member_sets(G, Omega):
    """(P, <= LOCAL_MEMBERS) member indices and the member count per row.

    Row i holds i, then the columns Omega[i] stores with a nonzero weight
    by descending |weight|, then those it stores with a zero weight by
    NSI distance 1 - (g_i^T g_j)^2, computed for those pairs only; ties go
    to the lower index, and the count stops at LOCAL_MEMBERS.
    """
    P = G.shape[1]
    rows = np.broadcast_to(np.arange(P)[:, None], Omega.cols.shape)
    own = Omega.cols == rows
    key = -np.abs(Omega.values)
    zero = key == 0
    pairs = rows[zero], Omega.cols[zero]
    dot = np.zeros(pairs[0].size)
    for g in G:                # one coordinate at a time: no m x k*P copy
        dot += g[pairs[0]] * g[pairs[1]]
    key[zero] = 1.0 - np.minimum(dot * dot, 1.0)
    order = np.lexsort((key, zero, own), axis=1)[:, :LOCAL_MEMBERS - 1]
    members = np.column_stack((np.arange(P), np.take_along_axis(
        Omega.cols, order, axis=1)))
    return members, np.minimum(1 + np.count_nonzero(~own, 1), LOCAL_MEMBERS)


def build_error_matrix(subspace, Omega, rank_tol=None):
    """E[i, t] = ||g_t - B_i B_i^T g_t||^2 for every projected point g_t,
    where B_i is the basis ``subspace_basis`` gives local subspace i.

    The members of local subspace i are chosen from the entries Omega[i]
    stores (``_member_sets``).  The rows with the same member count share
    one stacked SVD, whose U is kept in one (P, m, width) array; each
    LocalSubspace's basis is a view of its first d columns.  Where
    ``complement_is_cheaper(m, D)``, with D = min(LOCAL_DIM, m - 1) the
    largest local dimension, the SVD is full, so U_i = [B_i, N_i] is
    orthogonal and E[i, t] = ||N_i^T g_t||^2 exactly: each row block of
    E is the column sums of the squares of one product of the stacked
    complements with G (a row with d < D adds its columns d..D - 1).
    Otherwise the SVD is thin, width is D and E is g - B B^T g summed
    over m.  Either way E is formed in row blocks whose residual buffer
    holds about one tile (``neighbors.row_blocks``), so E is the one
    P x P array made.  ``rank_tol`` is ignored; it is kept for the
    benchmark's layer replay until that is replaced.  Returns the
    ErrorMatrix and the list of LocalSubspace, one per point.
    """
    nb.require_row_sparse("Omega", Omega)
    G = subspace.data
    m, P = G.shape
    members, counts = _member_sets(G, Omega)
    top = max(0, min(LOCAL_DIM, m - 1))
    complement = complement_is_cheaper(m, top)
    factors = np.zeros((P, m, m if complement else top))
    ranks = np.empty(P, dtype=int)
    for count in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == count)
        U, d = _left_singular(np.moveaxis(G[:, members[rows, :count]], 0, 1),
                              full=complement)
        ranks[rows] = d
        width = m if complement else d
        factors[rows, :, :width] = U[..., :width]
    del U                      # factors holds every U; free the last stack
    subspaces = [LocalSubspace(members[i, :count], factors[i, :, :d], d)
                 for i, (count, d) in enumerate(zip(counts.tolist(),
                                                    ranks.tolist()))]
    E = np.empty((P, P))
    if complement:
        k = m - top
        for block in nb.row_blocks(P, k * P):
            N = factors[block, :, top:].transpose(0, 2, 1).reshape(-1, m)
            residual = N @ G
            np.square(residual, out=residual)
            np.sum(residual.reshape(-1, k, P), axis=1, out=E[block])
        for i in np.flatnonzero(ranks < top):
            E[i] += np.sum(np.square(factors[i, :, ranks[i]:top].T @ G), axis=0)
        return ErrorMatrix(E), subspaces
    for block in nb.row_blocks(P, m * P):
        B = factors[block]
        residual = np.matmul(B, np.matmul(B.transpose(0, 2, 1), G))
        np.subtract(G, residual, out=residual)
        np.square(residual, out=residual)
        np.sum(residual, axis=1, out=E[block])
    return ErrorMatrix(E), subspaces
