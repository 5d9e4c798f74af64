"""Sparse neighbor selection in the global subspace.

Each projected trajectory takes as candidates the k points of smallest NSI
distance, then solves a proximity-weighted L1 program with an affine
constraint over them; its solution is found exactly, in closed form, for
all rows at once.  C and the weights Omega are ``RowSparse``, k entries
per row.  The NSI distances are formed and searched one row block at a
time, so the stage makes no P x P array.  ``symmetrize`` and
``row_blocks`` serve the dense P x P passes of the later stages.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import check_count, check_range


# Side of the square tiles ``symmetrize`` works on: the tile pair one
# step reads and its scratch tile take 1.5 MB.  Row-block passes over
# P x P arrays (``row_blocks``) take blocks of about one tile's entries.
_TILE = 256


class SolverStall(UserWarning):
    """Never raised: the solve is exact.  Kept importable for the
    benchmark's layer replay (``bench/replay.py``) until it is replaced."""


@dataclass
class RowSparse:
    """P x P matrix that stores exactly k entries in every row: row i
    holds ``values[i, j]`` at column ``cols[i, j]``.  Each row's k
    columns are distinct and ascending, and none is the row's own index,
    so the diagonal is zero; any other ``cols`` raises ValueError."""

    cols: np.ndarray             # (P, k) column indices
    values: np.ndarray           # (P, k)
    shape = property(lambda self: (len(self.cols),) * 2)
    dtype = property(lambda self: self.values.dtype)

    def __post_init__(self):
        if ((np.diff(self.cols, axis=1) <= 0).any()
                or (self.cols == np.arange(len(self.cols))[:, None]).any()):
            raise ValueError("every row must store distinct off-diagonal "
                             "columns in ascending order")

    def toarray(self):
        """Dense copy."""
        dense = np.zeros(self.shape, self.dtype)
        dense[np.arange(len(self.cols))[:, None], self.cols] = self.values
        return dense


def require_row_sparse(name, M):
    if not isinstance(M, RowSparse):
        raise TypeError(f"{name} must be a RowSparse, not {type(M).__name__}")


@dataclass
class SparseNeighborSolution:
    """Row-stacked sparse coefficients.

    C stores exactly the k candidates of every row, zero coefficients
    included.  Each row is solved and stored in ascending column order,
    so ``C.values``, ``candidates`` and ``X`` are aligned entry by entry.
    ``stats`` holds, per row, the fields ``iterations`` (0), ``converged``
    (True) and ``stalled`` (False) of an exact solve; it is kept for the
    benchmark's layer replay until that is replaced.
    """

    C: RowSparse                 # row i = c_i^T, zero diagonal
    stats: np.recarray           # (P,) iterations, converged, stalled
    X: np.ndarray                # (P, k) NSI distances of the candidates

    @property
    def candidates(self):
        """(P, k) candidate indices, row i ascending: C's columns."""
        return self.C.cols


@dataclass
class WeightMatrix:
    """P x P sparse weights; nonzero rows sum to 1, zero diagonal.  Omega
    stores the entries of the C it was made from."""

    Omega: RowSparse


def nsi_distances(subspace):
    """NSI distances X = 1 - clip((G^T G)^2, 0, 1) of all point pairs.

    Small distance means geometrically close, which is what both the
    solver weights and the final weight-matrix normalization require.
    X is the concatenation of the row blocks ``solve_all_neighbors``
    searches (``_nsi_block`` over ``row_blocks``), each formed in place
    in its slice of X, so X's rows are the bits that stage gathers.  The
    products run on a C-ordered copy of G, so any layout of the subspace
    data gives the same bits.  ``segment`` does not call it.
    """
    G = np.ascontiguousarray(subspace.data)
    P = G.shape[1]
    X = np.empty((P, P))
    for rows in row_blocks(P):
        _nsi_block(G, rows, X[rows])
    return X


def _nsi_block(G, rows, out):
    """Rows ``rows`` of the NSI distance matrix of a C-ordered G, formed
    in ``out``, a (rows, P) buffer, and returned: the block's Gram
    product is squared, clipped and subtracted from 1 in place while it
    is cache-sized."""
    X = np.matmul(G[:, rows].T, G, out=out)
    np.square(X, out=X)
    np.clip(X, 0.0, 1.0, out=X)
    np.subtract(1.0, X, out=X)
    return X


def nsi_dissimilarity_rows(subspace):
    """The pair (sim, X) of P x P arrays: the NSI values sim = 1 - X, in
    [0, 1] and symmetric, and the distances X of ``nsi_distances``.
    ``segment`` does not call it; it is kept for the benchmark's layer
    replay until that is replaced."""
    X = nsi_distances(subspace)
    return np.subtract(1.0, X), X


def symmetrize(M):
    """Replace a square M by 0.5 * (M + M.T) in place, tile pair by tile
    pair, and return M.

    Each entry is (M[i, j] + M[j, i]) * 0.5, the same operations as the
    whole-matrix expression, so the result is the same bits and exactly
    symmetric.  A step reads a tile and its transposed partner, which
    keeps the strided reads of M.T in cache, forms the upper tile in one
    scratch tile of at most ``_TILE ** 2`` entries, writes it back and
    mirrors it into the lower one.
    """
    P = M.shape[0]
    scratch = np.empty((min(P, _TILE), min(P, _TILE)))
    for i in range(0, P, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, P, _TILE):
            cols = slice(j, j + _TILE)
            upper = M[rows, cols]
            tile = np.add(upper, M[cols, rows].T,
                          out=scratch[:upper.shape[0], :upper.shape[1]])
            tile *= 0.5
            upper[...] = tile
            if j > i:
                M[cols, rows] = tile.T
    return M


def row_blocks(P, width=None):
    """Slices of consecutive rows of a P x ``width`` array (P x P by
    default), each block holding about one tile (``_TILE ** 2`` entries),
    so that the temporaries of a pass over one block stay cache-sized
    whatever P is."""
    step = max(1, _TILE * _TILE // max(width or P, 1))
    return [slice(i, min(i + step, P)) for i in range(0, P, step)]


def search_area(x, self_index, size):
    """Indices of the ``size`` smallest distances, excluding the point itself.

    Works along the last axis: one row of distances with a scalar
    ``self_index``, or stacked rows with one self index per row.  The
    result equals the first ``size`` entries of a stable argsort with the
    point itself left out, so ties resolve to the lower index.  A partial
    selection (``argpartition``) keeps each row's ``size + 1`` smallest
    entries and a (distance, index) ``lexsort`` orders them; only a row
    whose boundary value recurs outside the kept entries, or whose kept
    entries hold a NaN, is sorted in full.
    """
    check_count("size", size, 1)
    x = np.asarray(x)
    keep_n = min(size + 1, x.shape[-1])
    order = np.argpartition(x, keep_n - 1, axis=-1)[..., :keep_n]
    kept = np.take_along_axis(x, order, axis=-1)
    # argpartition puts the keep_n-th smallest value at position keep_n - 1
    tied = np.count_nonzero(x <= kept[..., -1:], axis=-1) != keep_n
    if tied.any():
        order[tied] = np.argsort(x[tied], axis=-1, kind="stable")[..., :keep_n]
        kept[tied] = np.take_along_axis(x[tied], order[tied], axis=-1)
    order = np.take_along_axis(order, np.lexsort((order, kept), axis=-1),
                               axis=-1)
    # drop the point itself if it is among the kept entries, else the last
    keep = order != np.expand_dims(self_index, -1)
    keep &= np.cumsum(keep, axis=-1) <= size
    found = order[keep]
    rows = int(np.prod(order.shape[:-1]))
    # an empty stack keeps what a row whose self index is kept would
    width = found.size // rows if rows else min(size, keep_n - 1)
    return found.reshape(order.shape[:-1] + (width,))


def proximity_weights(x, sigma):
    """Diagonal solver weights: small for close candidates, near 1 for far.

    exp(x/sigma) normalized over the candidate set (the last axis of ``x``;
    ``sigma`` broadcasts against it), so close points incur a lower L1
    penalty and stay in the support.
    """
    check_range("sigma", sigma, 0, closed=False)
    q = np.exp((x - x.max(axis=-1, keepdims=True)) / sigma)
    return q / q.sum(axis=-1, keepdims=True)


def neighbor_objective(c, x, q, lam):
    """Value of the Lagrangian surrogate lam*||q c||_1 + 0.5*||x c||_2^2."""
    return lam * np.sum(np.abs(q * c)) + 0.5 * np.sum((x * c) ** 2)


def solve_sparse_neighbors(x, sigma=None, lam=0.07):
    """Solve min lam*||Q c||_1 + 0.5*||diag(x) c||_2^2 s.t. 1^T c = 1.

    ``x`` holds the candidate distances of one row; this is the batched
    solve of ``solve_all_neighbors`` on a single row.  Returns (c, stats
    record); 1^T c = 1 to rounding.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("candidate set must be nonempty")
    coeffs, stats = _solve_rows(x[None, :], sigma, lam)
    return coeffs[0], stats[0]


def solve_all_neighbors(subspace, size=20, sigma=None, lam=0.07, admm=None):
    """Run the sparse-neighbor solve for every projected trajectory.

    The NSI distances are formed one ``row_blocks`` block at a time
    (``_nsi_block``, one reused buffer of about one tile); each block's
    candidates are searched, sorted by column and their (rows, k)
    distances gathered while it is cache-sized, so no P x P array is
    made.  All rows are solved exactly as one batch, and each row is
    stored in ascending column order.  ``admm`` is ignored; it is kept
    for the benchmark's layer replay until that is replaced.
    """
    check_count("size", size, 1)
    G = np.ascontiguousarray(subspace.data)
    P = G.shape[1]
    if P < 2:
        raise ValueError("need at least 2 trajectories")
    size = min(size, P - 1)
    blocks = row_blocks(P)
    buffer = np.empty((blocks[0].stop, P))
    candidates, x = [], []
    for rows in blocks:
        X = _nsi_block(G, rows, buffer[:rows.stop - rows.start])
        found = search_area(X, np.arange(rows.start, rows.stop), size)
        found.sort(axis=1)
        candidates.append(found)
        x.append(np.take_along_axis(X, found, axis=1))
    del buffer, X
    candidates, x = np.concatenate(candidates), np.concatenate(x)
    coeffs, stats = _solve_rows(x, sigma, lam)
    return SparseNeighborSolution(RowSparse(candidates, coeffs), stats, x)


def _solve_rows(x, sigma, lam):
    """Exact minimizers of the neighbor program over stacked rows of
    candidate distances, shape (rows, k), and the rows' constant stats.

    With thresholds t = lam * q and weights w = 1 / x^2, a row's solution
    is c_j = w_j * max(nu - t_j, 0), nu chosen so that 1^T c = 1.  With A_r
    the sum of the weights of the r smallest thresholds (ties by index),
    1^T c at nu = t_(r) is f_r = sum_{s<r} A_s (t_(s+1) - t_(s)), a sum of
    nonnegative terms; the support is the r* thresholds with f_r < 1 and
    nu = t_(r*) + (1 - f_r*) / A_r*.  A row with a zero distance (its
    weight overflows) puts all weight on the zero-distance candidate of
    smallest q, the lower index on a tie.  Each row is solved alone, so
    it gives the same bits in any batch.
    """
    check_range("lambda", lam, 0)
    R, k = x.shape
    if sigma is None:
        sigma = x.mean(axis=1, keepdims=True)
        sigma[sigma == 0] = 1.0
    q = proximity_weights(x, sigma)
    t = lam * q
    w = x * x
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, w, out=w)
    zero = np.isinf(w)
    zero_rows = zero.any(axis=1)
    w[zero_rows] = 1.0

    order = np.argsort(t, axis=1, kind="stable")
    t_sorted = np.take_along_axis(t, order, axis=1)
    A = np.cumsum(np.take_along_axis(w, order, axis=1), axis=1)
    del order
    f = np.zeros((R, k))
    step = np.diff(t_sorted, axis=1)
    step *= A[:, :-1]
    np.cumsum(step, axis=1, out=f[:, 1:])
    del step
    last = np.count_nonzero(f < 1.0, axis=1)[:, None] - 1
    t_last = np.take_along_axis(t_sorted, last, axis=1)
    A_last = np.take_along_axis(A, last, axis=1)
    f_last = np.take_along_axis(f, last, axis=1)
    del t_sorted, A, f
    # c = w (t_last - t) + (w / A_last)(1 - f_last), in two buffers: on
    # the support both terms are nonnegative, and a lone support entry
    # is exactly 1; tied thresholds are all in the support or all out
    c = np.subtract(t_last, t)
    c *= w
    tail = np.divide(w, A_last)
    tail *= 1.0 - f_last
    c += tail
    del tail
    c[t > t_last] = 0.0

    if zero_rows.any():
        pick = np.argmin(np.where(zero[zero_rows], q[zero_rows], np.inf),
                         axis=1)
        c[zero_rows] = 0.0
        c[np.flatnonzero(zero_rows), pick] = 1.0
    stats = np.rec.fromarrays([np.zeros(R, dtype=int), np.ones(R, dtype=bool),
                               np.zeros(R, dtype=bool)],
                              names="iterations,converged,stalled")
    return c, stats


def weight_matrix(C, X):
    """Distance-normalized weights omega_ij = (c_ij/X_ij) / sum_t c_it/X_it.

    C is a ``RowSparse``.  X is either the P x P distance matrix or one
    distance per stored entry of C, shape (P, k), such as
    ``SparseNeighborSolution.X``; ``segment`` passes the latter, and the
    P x P form is kept for the benchmark's layer replay until that is
    replaced.  Only the nonzero coefficients are divided by their
    distances; every other stored entry keeps C's zero, which the
    quotient gives for any non-NaN distance.  Zero distances
    (coincident points) are clamped to 1e-12 so duplicates get near-total
    weight instead of a division by zero.  Each row's normalizer is the
    sequential sum of its stored ratios in column order; rows whose
    normalizer vanishes are left zero.  Omega stores the same entries as
    C.
    """
    require_row_sparse("C", C)
    X = np.asarray(X)
    dist = np.take_along_axis(X, C.cols, axis=1) if X.shape == C.shape else X
    if dist.shape != C.cols.shape:
        raise ValueError("X must be P x P or hold one distance per stored "
                         "entry of C")
    ratios = C.values.astype(float)
    np.divide(ratios, np.maximum(dist, 1e-12), out=ratios, where=ratios != 0)
    denom = np.cumsum(ratios, axis=1)[:, -1:]
    valid = np.abs(denom) > 1e-12
    np.divide(ratios, denom, out=ratios, where=valid)
    np.copyto(ratios, 0.0, where=~valid)
    return WeightMatrix(RowSparse(C.cols, ratios))
