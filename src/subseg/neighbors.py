"""Sparse neighbor selection in the global subspace.

Each projected trajectory gets a candidate set from its smallest NSI
dissimilarities, then a weighted L1 problem with an affine constraint
picks the few candidates spanning the same local subspace.  The solver is
an alternating-direction scheme: an equality-constrained least-squares
step, entrywise soft-thresholding, and dual ascent.  One vectorized loop
solves stacked rows in blocks of ``_BLOCK_ENTRIES // k`` rows, sized so
that a block's buffers stay in a per-core L2 cache; a single row is
solved as a batch of one.  The loop writes into preallocated buffers and
steps every row of a block on every iteration; each row's result is
recorded at the iteration it converges.  Every step, the
stopping-test norms included, acts on each row alone, so a row's result
(coefficients, iterations, flags and residual norms) is the same bits in
any batch and any block.  Its iterates equal those of a plain per-row
loop bit for bit; only the reported residual norms may differ from
np.linalg.norm in the last ulp.

The NSI distance matrix is the stage's only P x P array: the candidate
search runs on row blocks of it, and it is released once the (P, k)
candidate distances are gathered.  The coefficients C and the weights
Omega are sparse, k stored entries per row.  The affinity and the
Laplacian are symmetrized by one tiled helper, ``symmetrize``.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array


_STATS_FIELDS = "iterations,primal_residual,dual_residual,converged,stalled"

# Entries per (rows, k) buffer of one ADMM block: 512 rows at k = 20.  A
# block's sixteen such buffers then take about 1.3 MB, which stays inside
# a 2 MB per-core L2 cache; the whole P = 3000 batch (7.7 MB) does not.
_BLOCK_ENTRIES = 10240

# Side of the square tiles ``symmetrize`` works on: the tile pair one
# step touches and its scratch tile take 1.5 MB.  Row-block passes over
# P x P arrays (``row_blocks``) take blocks of about one tile's entries.
_TILE = 256


class SolverStall(UserWarning):
    """A row solve plateaued above tolerance; its last iterate is kept."""


@dataclass(frozen=True)
class AdmmParams:
    """Penalty, stopping tolerances and iteration cap of the ADMM solve,
    checked at construction and immutable after it."""

    rho: float = 1.0
    tol_abs: float = 1e-8
    tol_rel: float = 1e-6
    max_iter: int = 2000

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be > 0 and finite")
        if not (0 <= self.tol_abs < np.inf and 0 <= self.tol_rel < np.inf):
            raise ValueError("tol_abs and tol_rel must be >= 0 and finite")
        if not is_integer(self.max_iter) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")


def is_integer(value):
    """Whether ``value`` is an integer (Python or numpy), bool excluded."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class SparseNeighborSolution:
    """Row-stacked sparse coefficients with per-row solve metadata.

    C stores exactly the k candidates of every row, zero coefficients
    included, in ascending column order, so ``C.data.reshape(P, k)``,
    ``candidates`` and ``X`` are aligned entry by entry.  The rows were
    solved in (distance, index) order, ``np.lexsort((candidates[i],
    X[i]))``.
    """

    C: csr_array                 # (P, P), row i = c_i^T, zero diagonal
    candidates: np.ndarray       # (P, k), row i = candidate indices of row i
    stats: np.recarray           # (P,) iterations, primal_residual,
                                 # dual_residual, converged, stalled
    X: np.ndarray                # (P, k) NSI distances of the candidates

    @property
    def stalled_rows(self):
        return np.flatnonzero(self.stats.stalled).tolist()


@dataclass
class WeightMatrix:
    """P x P sparse weight matrix (CSR); nonzero rows sum to 1, zero
    diagonal.  It stores the entries of the C it was made from."""

    Omega: csr_array


def nsi_distances(subspace):
    """NSI distances X = 1 - clip((G^T G)^2, 0, 1) of all point pairs.

    Small distance means geometrically close, which is what both the
    solver weights and the final weight-matrix normalization require.
    X is formed in place in the one P x P buffer of the Gram product.
    That product runs on a C-ordered copy of G as a BLAS rank-k update
    (syrk), which mirrors one triangle, so X is exactly symmetric and any
    layout of the subspace data gives the same bits.
    """
    G = np.ascontiguousarray(subspace.data)
    X = np.matmul(G.T, G)
    np.square(X, out=X)
    np.clip(X, 0.0, 1.0, out=X)
    np.subtract(1.0, X, out=X)
    return X


def nsi_dissimilarity_rows(subspace):
    """The pair (sim, X) of P x P arrays: the NSI values sim = 1 - X, in
    [0, 1] and symmetric, and the distances X of ``nsi_distances``."""
    X = nsi_distances(subspace)
    return np.subtract(1.0, X), X


def symmetrize(M, out):
    """0.5 * (M + M.T) of a square M, written into ``out`` tile pair by
    tile pair; ``out`` may be M itself.

    Each entry is (M[i, j] + M[j, i]) * 0.5, the same operations as the
    whole-matrix expression, so the result is the same bits and exactly
    symmetric.  A step reads a tile and its transposed partner, which
    keeps the strided reads of M.T in cache, and writes both from one
    scratch tile, so it can overwrite M.  Returns ``out``.
    """
    P = M.shape[0]
    scratch = np.empty((min(P, _TILE),) * 2)
    for i in range(0, P, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, P, _TILE):
            cols = slice(j, j + _TILE)
            upper = M[rows, cols]
            tile = scratch[:upper.shape[0], :upper.shape[1]]
            np.add(upper, M[cols, rows].T, out=tile)
            tile *= 0.5
            out[rows, cols] = tile
            out[cols, rows] = tile.T
    return out


def row_blocks(P):
    """Slices of consecutive rows of a P x P array, each block holding
    about one tile (``_TILE ** 2`` entries), so that the temporaries of a
    pass over one block stay cache-sized whatever P is."""
    step = max(1, _TILE * _TILE // P)
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
    if size < 1:
        raise ValueError("search area size must be >= 1")
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
    return order[keep].reshape(order.shape[:-1] + (-1,))


def proximity_weights(x, sigma):
    """Diagonal solver weights: small for close candidates, near 1 for far.

    exp(x/sigma) normalized over the candidate set (the last axis of ``x``;
    ``sigma`` broadcasts against it), so close points incur a lower L1
    penalty and stay in the support.
    """
    sigma = np.asarray(sigma)
    if not np.all((sigma > 0) & (sigma < np.inf)):
        raise ValueError("sigma must be > 0 and finite")
    q = np.exp((x - x.max(axis=-1, keepdims=True)) / sigma)
    return q / q.sum(axis=-1, keepdims=True)


def neighbor_objective(c, x, q, lam):
    """Value of the Lagrangian surrogate lam*||q c||_1 + 0.5*||x c||_2^2."""
    return lam * np.sum(np.abs(q * c)) + 0.5 * np.sum((x * c) ** 2)


def solve_sparse_neighbors(x, sigma=None, lam=0.07, admm=None):
    """Solve min lam*||Q c||_1 + 0.5*||diag(x) c||_2^2 s.t. 1^T c = 1.

    ``x`` holds the candidate distances of one row; this is the batched
    solve of ``solve_all_neighbors`` on a single row.  Returns (c, stats
    record); the affine constraint holds to machine precision.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("candidate set must be nonempty")
    coeffs, stats = _solve_rows(x[None, :], sigma, lam, admm)
    return coeffs[0], stats[0]


def solve_all_neighbors(subspace, size=20, sigma=None, lam=0.07, admm=None):
    """Run the sparse-neighbor solve for every projected trajectory.

    The candidates are searched on row blocks of the NSI distance matrix,
    which is released once their (P, k) distances are gathered.  All rows
    share the candidate-set size, so their solves run as one vectorized
    batch in which each row freezes at its own convergence.  The result
    is stored in ascending column order (``SparseNeighborSolution``).
    Stalled rows are flagged in the stats and a single summary warning is
    issued, never dropped.
    """
    X = nsi_distances(subspace)
    P = X.shape[0]
    if P < 2:
        raise ValueError("need at least 2 trajectories")
    size = min(size, P - 1)
    candidates = np.concatenate([
        search_area(X[rows], np.arange(rows.start, rows.stop), size)
        for rows in row_blocks(P)])
    x = np.take_along_axis(X, candidates, axis=1)
    del X
    coeffs, stats = _solve_rows(x, sigma, lam, admm)
    by_column = np.argsort(candidates, axis=1)
    candidates, x, coeffs = (np.take_along_axis(a, by_column, axis=1)
                             for a in (candidates, x, coeffs))
    C = csr_array((coeffs.ravel(), candidates.ravel(),
                   np.arange(0, P * size + 1, size)), shape=(P, P))

    solution = SparseNeighborSolution(C, candidates, stats, x)
    if solution.stalled_rows:
        warnings.warn(f"{len(solution.stalled_rows)} row solves stalled "
                      "above tolerance", SolverStall)
    return solution


def _solve_rows(x_all, sigma, lam, admm):
    """ADMM over stacked rows of candidate distances, shape (rows, k).

    The quadratic step solves its KKT system in closed form (diagonal plus
    rank-one), the L1 step is soft-thresholding with per-entry thresholds
    lam*q/rho, and a scaled dual variable tracks the splitting constraint.
    The stopping test is the primal/dual residual test of Boyd et al.
    (2011), section 3.3.1.

    The thresholds and the KKT diagonal are computed once for all rows;
    the iteration then runs block by block (``_admm_block``), each block
    ``_BLOCK_ENTRIES // k`` rows, so that at k = 20 a block's buffers
    stay in a per-core L2 cache.  Every operation of the loop, the
    residual norms included, acts on each row alone, so a row's iterates,
    iteration count and residuals do not depend on its block or on the
    other rows: they equal those of the same row solved as a batch of
    one.  The iterates are exactly those of the textbook per-row loop;
    the residual norms are summed in another order, so they can differ
    from np.linalg.norm in the last ulp.

    Returns the coefficients and a record array of row stats: iterations,
    primal_residual, dual_residual, converged (the stopping test passed)
    and stalled (not converged, primal residual above 1e-3).
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lambda must be >= 0 and finite")
    admm = admm or AdmmParams()
    R, k = x_all.shape
    if k == 1:
        stats = np.rec.fromarrays(
            [np.zeros(R, dtype=int), np.zeros(R), np.zeros(R),
             np.ones(R, dtype=bool), np.zeros(R, dtype=bool)],
            names=_STATS_FIELDS)
        return np.ones((R, 1)), stats

    if sigma is None:
        sigma = x_all.mean(axis=1, keepdims=True)
        sigma[sigma == 0] = 1.0
    thresh = lam * proximity_weights(x_all, sigma) / admm.rho
    H = 1.0 / (x_all ** 2 + admm.rho)
    H_sum = H.sum(axis=1, keepdims=True)

    rows = max(1, _BLOCK_ENTRIES // k)
    blocks = [_admm_block(thresh[i:i + rows], H[i:i + rows],
                          H_sum[i:i + rows], admm)
              for i in range(0, R, rows)]
    c_out, z_out, r_out, s_out, iterations, active = map(np.concatenate,
                                                          zip(*blocks))

    stalled = active & (r_out > 1e-3)
    # keep only the support the L1 step selected; renormalizing the
    # surviving entries restores 1^T c = 1 exactly
    kept = np.where(z_out != 0.0, c_out, 0.0)
    total = kept.sum(axis=1, keepdims=True)
    np.divide(kept, total, out=c_out, where=np.abs(total) > 1e-3)
    stats = np.rec.fromarrays([iterations, r_out, s_out, ~active, stalled],
                              names=_STATS_FIELDS)
    return c_out, stats


def _admm_block(thresh, H, H_sum, admm):
    """Run the ADMM loop of ``_solve_rows`` on one block of rows.

    Returns each row's c, z, primal and dual residuals and iteration count,
    recorded at the iteration it converges, and whether it is still active
    (not converged) at the cap; the loop ends once every row has converged.
    Every update is written into buffers allocated before the loop.  The
    iterate c, z, u and the residual vectors c - z and z - z_prev live in
    two (5, rows, k) stacks that swap roles each iteration, so the five
    norms of every row take one per-row contraction.
    """
    R, k = H.shape
    c_out = np.empty((R, k))
    z_out = np.empty((R, k))
    r_out = np.empty(R)
    s_out = np.empty(R)
    iterations = np.empty(R, dtype=int)
    active = np.ones(R, dtype=bool)
    neg_thresh = -thresh
    # stack rows: c, z, u, c - z, z - z_prev
    cur = np.zeros((5, R, k))
    cur[:2] = 1.0 / k
    nxt = np.empty_like(cur)
    w, v, tmp = np.empty((3, R, k))
    nu = np.empty((R, 1))
    norms = np.empty((5, R))
    c_norm, z_norm, u_norm, r, s = norms
    eps_pri, eps_dual = np.empty((2, R))
    done, passed = np.empty((2, R), dtype=bool)
    eps_abs = np.sqrt(k) * admm.tol_abs
    dual_rel = admm.tol_rel * admm.rho

    def record(rows, it):
        c_out[rows] = cur[0, rows]
        z_out[rows] = cur[1, rows]
        r_out[rows] = r[rows]
        s_out[rows] = s[rows]
        iterations[rows] = it

    for it in range(1, admm.max_iter + 1):
        z, u = cur[1], cur[2]
        c_new, z_new, u_new = nxt[0], nxt[1], nxt[2]
        # w = H*(rho*(z - u)); c = w - nu*H with nu = (1^T w - 1)/1^T H
        np.subtract(z, u, out=w)
        np.multiply(admm.rho, w, out=w)
        np.multiply(H, w, out=w)
        w.sum(axis=1, keepdims=True, out=nu)
        np.subtract(nu, 1.0, out=nu)
        np.divide(nu, H_sum, out=nu)
        np.multiply(nu, H, out=tmp)
        np.subtract(w, tmp, out=c_new)
        # soft threshold of v = c + u: v - clip(v, -t, t)
        np.add(c_new, u, out=v)
        np.maximum(v, neg_thresh, out=tmp)
        np.minimum(tmp, thresh, out=tmp)
        np.subtract(v, tmp, out=z_new)
        np.subtract(v, z_new, out=u_new)
        np.subtract(c_new, z_new, out=nxt[3])
        np.subtract(z_new, z, out=nxt[4])

        np.einsum("ijk,ijk->ij", nxt, nxt, out=norms)
        np.sqrt(norms, out=norms)
        np.multiply(admm.rho, s, out=s)
        np.maximum(c_norm, z_norm, out=eps_pri)
        np.multiply(admm.tol_rel, eps_pri, out=eps_pri)
        np.add(eps_abs, eps_pri, out=eps_pri)
        np.multiply(dual_rel, u_norm, out=eps_dual)
        np.add(eps_abs, eps_dual, out=eps_dual)
        cur, nxt = nxt, cur
        # a NaN residual compares false, so its row stays active
        np.less_equal(r, eps_pri, out=done)
        np.less_equal(s, eps_dual, out=passed)
        done &= passed
        done &= active
        if done.any():
            record(done, it)
            active &= ~done
            if not active.any():
                break
    record(active, it)
    return c_out, z_out, r_out, s_out, iterations, active


def weight_matrix(C, X):
    """Distance-normalized weights omega_ij = (c_ij/X_ij) / sum_t c_it/X_it.

    C is coerced to a CSR array (a dense C stores its nonzeros).  X is
    either the P x P distance matrix or one distance per stored entry of
    C in its stored order, such as ``SparseNeighborSolution.X``.  Only the
    nonzero coefficients are divided by their distances; every other
    stored entry keeps C's zero, which the quotient gives for any non-NaN
    distance.  Zero distances (coincident points) are clamped to 1e-12 so
    duplicates get near-total weight instead of a division by zero.
    Diagonal entries are zeroed.  Rows whose normalizer vanishes are left
    zero.  Omega stores the same entries as C.  The normalizer is the sum
    of the row's dense image, scattered into one zeroed ``row_blocks``
    block at a time: numpy's pairwise summation groups terms by column
    position, so only the dense row gives the bits of a dense Omega, and
    a sum over the stored entries alone can differ from it by a few ulps.
    """
    C = csr_array(C, dtype=float, copy=True)
    C.sum_duplicates()
    P = C.shape[0]
    counts = np.diff(C.indptr)
    rows = np.repeat(np.arange(P), counts)
    X = np.asarray(X)
    dist = X[rows, C.indices] if X.shape == C.shape else X.reshape(-1)
    if dist.size != C.nnz:
        raise ValueError("X must be P x P or hold one distance per stored "
                         "entry of C")
    ratios = C.data
    support = np.flatnonzero(ratios != 0)
    ratios[support] /= np.maximum(dist[support], 1e-12)
    ratios[C.indices == rows] = 0.0
    denom = np.empty(P)
    blocks = row_blocks(P)
    image = np.zeros((blocks[0].stop, P))
    for block in blocks:
        entries = slice(C.indptr[block.start], C.indptr[block.stop])
        at = (rows[entries] - block.start, C.indices[entries])
        image[at] = ratios[entries]
        image[:block.stop - block.start].sum(axis=1, out=denom[block])
        image[at] = 0.0
    valid = np.repeat(np.abs(denom) > 1e-12, counts)
    np.divide(ratios, np.repeat(denom, counts), out=ratios, where=valid)
    ratios[~valid] = 0.0
    return WeightMatrix(C)
