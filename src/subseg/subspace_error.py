"""Local subspace bases and the point-to-subspace residual matrix.

Point i and a few of the candidates its weight row stores span local
subspace i, of a fixed dimension; the squared residual of every projected
point against that subspace fills row i of a P x P error matrix whose
block structure separates the motions.  `build_error_matrix` is the whole
stage; `subspace_basis` is its local-dimension rule.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

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
    columns = np.asarray(columns, dtype=float)
    m, count = columns.shape[-2:]
    if count == 0:
        raise ValueError("member set must be nonempty")
    d = max(0, min(LOCAL_DIM, m - 1, count - 1))
    U = np.linalg.svd(columns, full_matrices=False)[0]
    return U[..., :d], d


def _member_sets(G, Omega):
    """(P, LOCAL_MEMBERS) member indices and the member count per row.

    Row i holds i, then the columns Omega[i] stores with a nonzero weight
    by descending |weight|, then those it stores with a zero weight by
    NSI distance 1 - (g_i^T g_j)^2, computed for those pairs only; ties go
    to the lower index, duplicate entries are summed first, and the
    count stops at LOCAL_MEMBERS.
    """
    P = G.shape[1]
    weights = csr_array(Omega, dtype=float, copy=True)
    weights.sum_duplicates()
    rows = np.repeat(np.arange(P), np.diff(weights.indptr))
    other = weights.indices != rows
    rows, cols = rows[other], weights.indices[other]
    key = -np.abs(weights.data[other])
    zero = key == 0
    pairs = rows[zero], cols[zero]
    dot = np.zeros(pairs[0].size)
    for g in G:                # one coordinate at a time: no m x k*P copy
        dot += g[pairs[0]] * g[pairs[1]]
    key[zero] = 1.0 - np.minimum(dot * dot, 1.0)
    order = np.lexsort((cols, key, zero, rows))
    rows, cols = rows[order], cols[order]
    stored = np.bincount(rows, minlength=P)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(stored) - stored, stored)
    kept = rank < LOCAL_MEMBERS - 1
    members = np.empty((P, LOCAL_MEMBERS), dtype=np.intp)
    members[:, 0] = np.arange(P)
    members[rows[kept], rank[kept] + 1] = cols[kept]
    return members, 1 + np.minimum(stored, LOCAL_MEMBERS - 1)


def build_error_matrix(subspace, Omega, rank_tol=None):
    """E[i, t] = ||g_t - B_i B_i^T g_t||^2 for every projected point g_t,
    where B_i is the basis ``subspace_basis`` gives local subspace i.

    The members of local subspace i are chosen from the entries Omega[i]
    stores (``_member_sets``).  The rows with the same member count share
    one stacked SVD.  E is formed in row blocks whose (rows, m, P)
    residual buffer holds about one tile (``neighbors.row_blocks``), so E
    is the one P x P array made.  ``rank_tol`` is ignored; it is kept for
    the benchmark's layer replay until that is replaced.  Returns the
    ErrorMatrix and the list of LocalSubspace, one per point.
    """
    G = subspace.data
    m, P = G.shape
    members, counts = _member_sets(G, Omega)
    bases = np.zeros((P, m, max(0, min(LOCAL_DIM, m - 1))))
    ranks = np.empty(P, dtype=int)
    for count in np.unique(counts):
        rows = np.flatnonzero(counts == count)
        U, ranks[rows] = subspace_basis(
            np.moveaxis(G[:, members[rows, :count]], 0, 1))
        bases[rows, :, :U.shape[-1]] = U
    del U                      # bases holds every basis; free the last stack
    subspaces = [LocalSubspace(members[i, :count], bases[i, :, :d], d)
                 for i, (count, d) in enumerate(zip(counts.tolist(),
                                                    ranks.tolist()))]
    E = np.empty((P, P))
    for block in nb.row_blocks(P, m * P):
        B = bases[block]
        residual = np.matmul(B, np.matmul(B.transpose(0, 2, 1), G))
        np.subtract(G, residual, out=residual)
        np.square(residual, out=residual)
        np.sum(residual, axis=1, out=E[block])
    return ErrorMatrix(E), subspaces
