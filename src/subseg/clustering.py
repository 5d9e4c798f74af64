"""Affinity assembly, normalized spectral clustering, and the full pipeline.

The affinity combines the sparse neighbor weights with a similarity
derived from the subspace residuals; normalized spectral clustering on
the symmetrized graph yields the motion labels.
"""

import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import neighbors as nb
from . import projection as pj
from . import subspace_error as se
from ._checks import check_count, check_range
from .synthcam import Labeling

_LLOYD_MAX_ITER = 300       # Lloyd iterations per k-means restart
_RESIDUAL_TOL = 1e-10       # largest Ritz residual or eigenvalue bound the
                            # eigensolver accepts


@dataclass
class Affinity:
    """Symmetric nonnegative affinity with a connectivity diagnostic and
    the residual scale it used (None under ``raw_error``)."""

    A: np.ndarray
    n_components: int
    sigma_e: float | None


@dataclass
class SpectralEmbedding:
    """Rows of the n smallest Laplacian eigenvectors, unit-normalized, their
    eigenvalues, and the (n+1)-th smallest eigenvalue (None when n = P);
    the eigensolver's block passes, the largest final residual of the n
    eigenvectors and the error bound of the (n+1)-th eigenvalue (None
    when n = P)."""

    U: np.ndarray
    eigenvalues: np.ndarray
    next_eigenvalue: float | None
    passes: int
    residual: float
    next_eigenvalue_bound: float | None

    @property
    def spectral_gap(self):
        """lambda_{n+1} - lambda_n, or None when n = P."""
        if self.next_eigenvalue is None:
            return None
        return self.next_eigenvalue - float(self.eigenvalues[-1])


@dataclass
class SegmentConfig:
    """Pipeline settings, checked before any stage runs; defaults follow
    the method's reference settings (m=5, gamma=0.01, mu_j=1/j,
    neighbors=20).  The class constants are fixed; no caller sets them.
    ``segment`` passes ``restarts`` to k-means.  ``mu``, ``admm``,
    ``rank_tol`` and ``raw_error`` equal the stages' defaults and are
    read only by the benchmark's layer replay (``bench/replay.py``),
    until that is replaced."""

    n: int
    projector: str = "spca"
    m: int = 5
    gamma: float = 0.01
    neighbors: int = 20
    lam: float = 0.07
    sigma: float = None          # None = mean candidate distance per row
    sigma_e: float = None        # None = median positive residual
    seed: int = 0

    mu: ClassVar = None                      # mu_j = 1/j
    rank_tol: ClassVar = None
    restarts: ClassVar = 10
    admm: ClassVar = None
    raw_error: ClassVar = False

    def __post_init__(self):
        check_count("n", self.n, 1)
        check_count("seed", self.seed, 0)
        if self.projector not in ("pca", "spca"):
            raise ValueError("projector must be 'pca' or 'spca'")
        # SpcaParams owns the m and gamma rules; they hold under
        # either projector
        pj.SpcaParams(self.m, gamma=self.gamma)
        check_count("neighbors", self.neighbors, 1)
        check_range("lambda", self.lam, 0)
        for name in ("sigma", "sigma_e"):
            if getattr(self, name) is not None:
                check_range(name, getattr(self, name), 0, closed=False)


def build_affinity(Omega, E, sigma_e=None, raw_error=False):
    """Combine neighbor weights and residual similarity, then symmetrize.

    The residual enters as exp(-e/sigma_e) so small error (same local
    subspace) means strong connection; the literal absolute-error variant
    stays available behind ``raw_error`` for comparison.  E is consumed,
    and its buffer becomes the returned A: B = exp(-E/sigma_e) (or |E|) is
    formed there, |Omega| (a ``RowSparse``) is added at its stored
    entries, and B is symmetrized in place (``neighbors.symmetrize``).
    The automatic sigma_e is the exact median of E's positive entries,
    taken by selection (``_positive_median``) without a copy of E.  So no
    P x P array is made.  If some vertex links to every other one the
    graph is connected; only otherwise are the components counted
    (``_count_components``).
    """
    nb.require_row_sparse("Omega", Omega)
    if sigma_e is not None:
        check_range("sigma_e", sigma_e, 0, closed=False)
    A = E.data
    if raw_error:
        np.abs(A, out=A)
        sigma_e = None
    else:
        if sigma_e is None:
            sigma_e = _positive_median(A)
        np.divide(A, -sigma_e, out=A)
        np.exp(A, out=A)
    P = A.shape[0]
    A[np.arange(P)[:, None], Omega.cols] += np.abs(Omega.values)
    nb.symmetrize(A)
    np.fill_diagonal(A, 0.0)
    if any((np.count_nonzero(A[rows], axis=1) == P - 1).any()
           for rows in nb.row_blocks(P)):
        n_comp = 1
    else:
        n_comp = _count_components(A)
    return Affinity(A, n_comp, sigma_e)


def _count_components(A):
    """Connected components of the graph whose edges are the positive
    entries of a symmetric A, counted by breadth-first search: each
    vertex's row is read once, when it joins the frontier, in
    ``row_blocks`` chunks of frontier rows."""
    P = A.shape[0]
    seen = np.zeros(P, dtype=bool)
    count = 0
    while not seen.all():
        count += 1
        frontier = np.flatnonzero(~seen)[:1]
        seen[frontier] = True
        while frontier.size:
            reached = np.zeros(P, dtype=bool)
            for part in nb.row_blocks(frontier.size, P):
                reached |= (A[frontier[part]] > 0).any(axis=0)
            reached &= ~seen
            frontier = np.flatnonzero(reached)
            seen[frontier] = True
    return count


def _positive_median(E):
    """np.median(E[E > 0]) bit for bit, or 1.0 when no entry is positive,
    found by selection without copying E (Floyd and Rivest, 1975).

    The sample is a strided lattice view of about P^(4/3) entries,
    E[a * s + b, a + b * s] with s about P^(1/3).  Unlike E[::s, ::s] it
    visits every row and column about equally often, so rows whose
    residuals sit at round-off are drawn in proportion.  The values of its
    positive entries about 3 sqrt(n) sample ranks either side of its
    middle bracket the middle rank(s) of all positive entries.  One
    ``row_blocks`` pass counts the positive entries and those below the
    bracket and gathers those inside it; the middle one or two gathered
    entries are found by partition and averaged as np.median averages
    them.  If the bracket misses, the missed side reaches four times as
    far and the pass is repeated; past the sample's end a side is open,
    so the last resort gathers every positive entry.
    """
    P = E.shape[0]
    step = max(2, round(P ** (1 / 3)))
    side = (P - 1) // (step + 1) + 1
    down, right = E.strides
    sample = np.lib.stride_tricks.as_strided(
        E, (side, side), (step * down + right, down + step * right),
        writeable=False)
    sample = np.sort(sample[sample > 0])
    size = sample.size
    reach = [math.ceil(3 * math.sqrt(size))] * 2
    while True:
        low_rank = (size - 1) // 2 - reach[0]
        high_rank = size // 2 + reach[1]
        # x >= the smallest subnormal is x > 0
        lo = sample[low_rank] if low_rank > 0 else np.nextafter(0.0, 1.0)
        hi = sample[high_rank] if high_rank < size - 1 else np.inf
        positive = at_least_lo = 0
        inside = []
        for block in nb.row_blocks(P):
            rows = E[block]
            positive += np.count_nonzero(rows > 0)
            mask = rows >= lo
            at_least_lo += np.count_nonzero(mask)
            mask &= rows <= hi
            inside.append(rows[mask])
        if not positive:
            return 1.0
        below = positive - at_least_lo
        middle = np.array(sorted({(positive - 1) // 2, positive // 2})) - below
        inside = np.concatenate(inside)
        if middle[0] >= 0 and middle[-1] < inside.size:
            return float(np.mean(np.partition(inside, middle)[middle]))
        if middle[0] < 0:
            reach[0] *= 4
        if middle[-1] >= inside.size:
            reach[1] *= 4


def normalized_laplacian(A):
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}, formed in
    A's buffer: A is consumed and the returned L is that buffer.

    A must be symmetric, as ``build_affinity`` returns it.  Isolated
    vertices get identity rows; eigenvalues lie in [0, 2].  Each entry is
    scaled as A_ij * (-d_i^{-1/2} * d_j^{-1/2}), one ``row_blocks`` block
    at a time, so L is exactly symmetric.
    """
    d = A.sum(axis=1)
    inv_sqrt = np.zeros_like(d)
    np.divide(1.0, np.sqrt(d), out=inv_sqrt, where=d > 0)
    for block in nb.row_blocks(A.shape[0]):
        A[block] *= np.multiply.outer(-inv_sqrt[block], inv_sqrt)
    np.fill_diagonal(A, 1.0)
    return A


def spectral_embed(L, n):
    """Eigenvectors of the n smallest eigenvalues, rows unit-normalized.

    ``_block_krylov`` finds the n+1 smallest eigenvalues and the first n
    eigenvectors, the extra eigenvalue giving the spectral gap; for
    n + 1 >= P its first pass spans the whole space.  Repeated calls give
    the same bits.
    """
    check_count("n", n, 1)
    P = L.shape[0]
    if n > P:
        raise ValueError("n must be <= number of points")
    eigenvalues, U, passes, residual, bound = _block_krylov(L, n + 1)
    next_eigenvalue = float(eigenvalues[n]) if n < P else None
    norms = np.linalg.norm(U, axis=1)
    scale = np.ones_like(norms)
    np.divide(1.0, norms, out=scale, where=norms > 0)
    return SpectralEmbedding(U * scale[:, None], eigenvalues[:n],
                             next_eigenvalue, passes, residual, bound)


def _block_krylov(L, b):
    """The min(b, P) smallest eigenvalues of a symmetric L, by block
    Lanczos with full reorthogonalization, and the eigenvectors of all but
    the b-th: (eigenvalues, vectors, passes, largest residual of the
    returned vectors, eigenvalue bound of the b-th pair or None when
    b > P).  b must be at least the multiplicity of those eigenvalues.

    A pass forms W = V_new^T L, whose products with the basis rows Vt are
    V_new's rows of T = V^T L V, orthogonalizes W against Vt twice and
    appends the Q factor of W^T, with seeded random rows in place of
    collapsed columns.  A Ritz pair (theta, V y) has residual
    r = ||y_last^T W|| (L V = V T + W^T E_last).  A check ends the solve
    when the first b - 1 residuals are at most 1e-10 and so is the b-th
    pair's eigenvalue bound min(r, r^2 / delta), delta = theta_{b+1} -
    theta_b from the current Ritz values (Kato-Temple; r alone while no
    (b+1)-th Ritz value exists or delta <= 0): only that pair's
    eigenvalue is read, so its vector need not converge.  Checks fall at
    passes 3 and 5, then at the earlier of the fixed schedule's next pass
    (p + max(2, p // 2): 7, 10, 15, 22, ...) and the pass where the
    geometric rate of whichever test failed, between the last two checks,
    reaches 1e-10, so no scheduled pass is skipped.  At c = P the
    Rayleigh-Ritz step is exact.
    """
    P = L.shape[0]
    rng = np.random.default_rng(0)
    size = min(P, 16 * b)
    Vt, T = np.empty((size, P)), np.zeros((size, size))
    W = rng.uniform(-1.0, 1.0, (b, P))[:P]
    norms = np.linalg.norm(W, axis=1)
    c, passes, checks = 0, 0, []
    due = _next_check(passes, checks)
    while True:
        Q, R = np.linalg.qr(W[:P - c].T)
        lost = np.flatnonzero(np.abs(np.diagonal(R)) <= 1e-12 * norms[:P - c])
        if lost.size:
            W[lost] = rng.uniform(-1.0, 1.0, (lost.size, P))
            norms[lost] = np.linalg.norm(W[lost], axis=1)
            for _ in range(2):
                W -= (W @ Vt[:c].T) @ Vt[:c]
            continue
        if c + Q.shape[1] > size:
            size = min(P, 2 * size)
            Vt, T = np.resize(Vt, (size, P)), np.pad(T, (0, size - len(T)))
        start, c = c, c + Q.shape[1]
        Vt[start:c] = Q.T
        W = Q.T @ L
        norms = np.linalg.norm(W, axis=1)
        T[start:c, :c] = W @ Vt[:c].T
        W -= T[start:c, :c] @ Vt[:c]
        W -= (W @ Vt[:c].T) @ Vt[:c]
        passes += 1
        if passes == due or c == P:
            theta, Y = np.linalg.eigh(T[:c, :c])
            r = np.linalg.norm(Y[start:, :b].T @ W, axis=1)
            residual = float(r[:b - 1].max(initial=0.0))
            bound = _eigenvalue_bound(theta, r, b)
            miss = max(residual, bound or 0.0)
            if miss <= _RESIDUAL_TOL or c == P:
                vectors = (Y[:, :b - 1].T @ Vt[:c]).T
                return theta[:b], vectors, passes, residual, bound
            checks.append((passes, miss))
            due = _next_check(passes, checks)


def _eigenvalue_bound(theta, r, b):
    """min(r_b, r_b^2 / (theta_{b+1} - theta_b)) for the b-th Ritz pair,
    r_b alone when there is no (b+1)-th Ritz value or the gap is not
    positive, and None when there is no b-th pair."""
    if len(r) < b:
        return None
    last = float(r[b - 1])
    if len(theta) > b and theta[b] > theta[b - 1]:
        return min(last, last * last / float(theta[b] - theta[b - 1]))
    return last


def _next_check(passes, checks):
    """The pass of ``_block_krylov``'s next check after ``passes`` passes,
    given its failed checks as (pass, the larger of the residual and the
    eigenvalue bound) pairs."""
    due = 3
    while due <= passes:
        due += max(2, due // 2)
    if len(checks) >= 2:
        (p0, r0), (p1, r1) = checks[-2:]
        if r1 < r0:
            rate = math.log(r1 / r0) / (p1 - p0)
            ahead = math.ceil(math.log(_RESIDUAL_TOL / r1) / rate)
            due = min(due, passes + max(1, ahead))
    return due


def kmeans(X, n, restarts=10, seed=0):
    """Seeded k-means++ with Lloyd iterations; best inertia over restarts.

    When a Lloyd step leaves clusters empty, each one, before any center
    moves, takes a different point: the one farthest from its center
    among the clusters that keep another member.  So every one of the n
    labels is used whenever X has at least n rows, coincident rows
    included.  Deterministic for a fixed seed.
    """
    check_count("n", n, 1)
    check_count("restarts", restarts, 1)
    check_count("seed", seed, 0)
    X = np.asarray(X, dtype=float)
    if n > X.shape[0]:
        raise ValueError("n must be <= number of points")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        centers = _kmeanspp_init(X, n, rng)
        labels, inertia = _lloyd(X, centers, n)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return Labeling(best_labels, n)


def segment(W, config):
    """Full pipeline: project, sparse neighbors, residuals, affinity,
    spectral clustering.  Returns (labeling, report) where the report
    carries per-stage timings, eigenvalues, and solver diagnostics; its
    key set is versioned by ``report["schema"]``.

    The neighbor stage forms and searches the NSI distances one row
    block at a time; C and Omega are sparse.  One P x P buffer serves
    every later dense stage: E is formed in it, the affinity A replaces
    E there (sigma_e by selection, symmetrized in place) and the
    Laplacian replaces A.  So one P x P array, plus tile-sized scratch,
    is alive at once.
    """
    if config.n > W.points:
        raise ValueError(f"n = {config.n} exceeds the {W.points} trajectories")
    report = {"schema": 4, "stages": {}, "n": config.n,
              "projector": config.projector}
    clock = time.perf_counter

    t0 = clock()
    if config.projector == "pca":
        G = pj.pca_project(W, config.m)
    else:
        params = pj.SpcaParams(config.m, gamma=config.gamma)
        loadings = pj.gpower_block(W, params)
        G = pj.assemble_global(W, loadings)
        report["spca"] = {"iterations": loadings.iterations,
                          "converged": loadings.converged,
                          "active_fraction": float(loadings.pattern.mean())}
    report["stages"]["projection"] = clock() - t0

    t0 = clock()
    solution = nb.solve_all_neighbors(G, size=config.neighbors,
                                      sigma=config.sigma, lam=config.lam)
    Omega = nb.weight_matrix(solution.C, solution.X).Omega
    report["stages"]["sparse_neighbors"] = clock() - t0
    report["solver"] = {"rows": W.points, "exact": True}
    del solution

    t0 = clock()
    E, subspaces = se.build_error_matrix(G, Omega)
    report["stages"]["error_matrix"] = clock() - t0
    report["local_subspaces"] = {"members": len(subspaces[0].members),
                                 "dim": subspaces[0].rank}
    del subspaces

    t0 = clock()
    affinity = build_affinity(Omega, E, config.sigma_e)
    del Omega, E
    L = normalized_laplacian(affinity.A)
    embedding = spectral_embed(L, config.n)
    labeling = kmeans(embedding.U, config.n, config.restarts, config.seed)
    report["stages"]["clustering"] = clock() - t0
    report["connected_components"] = affinity.n_components
    report["sigma_e"] = affinity.sigma_e
    report["eigenvalues"] = embedding.eigenvalues.tolist()
    report["spectral_gap"] = embedding.spectral_gap
    report["spectral"] = {
        "passes": embedding.passes, "residual": embedding.residual,
        "next_eigenvalue_bound": embedding.next_eigenvalue_bound}
    report["labels"] = labeling.labels.tolist()
    return labeling, report


def _kmeanspp_init(X, n, rng):
    P = X.shape[0]
    centers = np.empty((n, X.shape[1]))
    centers[0] = X[rng.integers(P)]
    dist = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, n):
        total = dist.sum()
        if total <= 0:
            centers[k] = X[rng.integers(P)]
            continue
        centers[k] = X[rng.choice(P, p=dist / total)]
        dist = np.minimum(dist, np.sum((X - centers[k]) ** 2, axis=1))
    return centers


def _lloyd(X, centers, n):
    """Lloyd steps from ``centers``; returns the labels that step
    ``_LLOYD_MAX_ITER`` would reach and their inertia about their means.

    A step's labels depend only on the previous step's labels, whose
    means are its centers.  So once a label vector recurs, the steps cycle
    with the period found (1 once converged), and the last step's labels
    are read off the cycle.  Coincident rows can cycle with a longer
    period: the mean of identical rows can miss the row by an ulp, and
    argmin ties between the centers then flip from step to step.
    """
    history, seen = [], {}
    for step in range(_LLOYD_MAX_ITER):
        sq = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(sq, axis=1)
        counts = np.bincount(labels, minlength=n)
        if not counts.all():
            # re-seed every empty cluster before any center moves
            dist = np.min(sq, axis=1)
            for k in np.flatnonzero(counts == 0):
                far = int(np.argmax(np.where(counts[labels] > 1, dist,
                                             -np.inf)))
                counts[labels[far]] -= 1
                counts[k] = 1
                labels[far] = k
        first = seen.setdefault(labels.tobytes(), step)
        if first < step:
            period = step - first
            labels = history[first + (_LLOYD_MAX_ITER - 1 - first) % period]
            break
        history.append(labels)
        for k in range(n):
            centers[k] = X[labels == k].mean(axis=0)
    for k in range(n):
        centers[k] = X[labels == k].mean(axis=0)
    sq = np.sum((X - centers[labels]) ** 2, axis=1)
    return labels, float(sq.sum())
