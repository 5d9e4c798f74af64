"""Affinity assembly, normalized spectral clustering, and the full pipeline.

The affinity combines the sparse neighbor weights with a similarity
derived from the subspace residuals; normalized spectral clustering on
the symmetrized graph yields the motion labels.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from . import neighbors as nb
from . import projection as pj
from . import subspace_error as se
from .synthcam import Labeling


@dataclass
class Affinity:
    """Symmetric nonnegative affinity with a connectivity diagnostic and
    the residual scale it used (None under ``raw_error``)."""

    A: np.ndarray
    n_components: int
    sigma_e: float


@dataclass
class SpectralEmbedding:
    """Rows of the n smallest Laplacian eigenvectors, unit-normalized, their
    eigenvalues, and the (n+1)-th smallest eigenvalue (None when n = P)."""

    U: np.ndarray
    eigenvalues: np.ndarray
    next_eigenvalue: float | None

    @property
    def spectral_gap(self):
        """lambda_{n+1} - lambda_n, or None when n = P."""
        if self.next_eigenvalue is None:
            return None
        return self.next_eigenvalue - float(self.eigenvalues[-1])


@dataclass
class SegmentConfig:
    """All pipeline knobs; defaults follow the method's reference settings
    (m=5, gamma=0.01, mu_j=1/j, 20-candidate search area)."""

    n: int
    projector: str = "spca"
    m: int = 5
    gamma: float = 0.01
    mu: np.ndarray = None
    neighbors: int = 20
    lam: float = 0.07
    sigma: float = None          # None = mean candidate distance per row
    sigma_e: float = None        # None = median positive residual
    raw_error: bool = False
    rank_tol: float = se.DEFAULT_RANK_TOL
    restarts: int = 10
    seed: int = 0
    admm: nb.AdmmParams = field(default_factory=nb.AdmmParams)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.projector not in ("pca", "spca"):
            raise ValueError("projector must be 'pca' or 'spca'")
        if not nb.is_integer(self.neighbors):
            raise ValueError("neighbors must be an integer")
        if self.neighbors < 1:
            raise ValueError("neighbors: search area size must be >= 1")
        if not nb.is_integer(self.restarts) or self.restarts < 1:
            raise ValueError("restarts must be an integer >= 1")
        if not 0 <= self.rank_tol < 1:
            raise ValueError("rank_tol must be >= 0 and < 1")


def build_affinity(Omega, E, sigma_e=None, raw_error=False):
    """Combine neighbor weights and residual similarity, then symmetrize.

    The residual enters as exp(-e/sigma_e) so small error (same local
    subspace) means strong connection; the literal absolute-error variant
    stays available behind ``raw_error`` for comparison.  E is consumed:
    B = exp(-E/sigma_e) (or |E|) is formed in E's buffer and |Omega|, coerced
    to a CSR array (a dense Omega stores its nonzeros), is added at its
    stored entries.  B is then symmetrized tile by tile
    (``neighbors.symmetrize``) into A, the one P x P array made.  The
    automatic sigma_e, the exact median of E's positive entries, is taken
    by partitioning a copy of those entries inside A's buffer before A is
    written.  If some vertex links to every other one the graph is
    connected; only otherwise are the components counted on a sparse copy
    of the edge pattern.
    """
    if sigma_e is not None and not 0 < sigma_e < np.inf:
        raise ValueError("sigma_e must be > 0 and finite")
    B = E.data
    A = np.empty(B.shape)
    if raw_error:
        np.abs(B, out=B)
        sigma_e = None
    else:
        if sigma_e is None:
            # E's positive entries, in row-major order, copied row block
            # by row block to the front of A's buffer
            positive = A.reshape(-1)
            count = 0
            for block in nb.row_blocks(B.shape[0]):
                rows = B[block]
                kept = rows[rows > 0]
                positive[count:count + kept.size] = kept
                count += kept.size
            sigma_e = (float(np.median(positive[:count], overwrite_input=True))
                       if count else 1.0)
        np.divide(B, -sigma_e, out=B)
        np.exp(B, out=B)
    weights = csr_array(Omega).tocoo()
    weights.sum_duplicates()
    B[weights.row, weights.col] += np.abs(weights.data)
    nb.symmetrize(B, out=A)
    np.fill_diagonal(A, 0.0)
    P = A.shape[0]
    if (np.count_nonzero(A, axis=1) == P - 1).any():
        n_comp = 1
    else:
        n_comp, _ = connected_components(csr_array(A > 0), directed=False)
    return Affinity(A, int(n_comp), sigma_e)


def normalized_laplacian(A):
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}, formed in
    A's buffer: A is consumed and the returned L is that buffer.

    Isolated vertices get identity rows; eigenvalues lie in [0, 2].  Each
    entry is scaled as (A_ij * -d_i^{-1/2}) * d_j^{-1/2}, and the scaled
    matrix is made exactly symmetric in place by ``neighbors.symmetrize``.
    """
    d = A.sum(axis=1)
    inv_sqrt = np.zeros_like(d)
    np.divide(1.0, np.sqrt(d), out=inv_sqrt, where=d > 0)
    np.multiply(A, -inv_sqrt[:, None], out=A)
    A *= inv_sqrt
    np.fill_diagonal(A, 1.0)
    return nb.symmetrize(A, out=A)


def spectral_embed(L, n):
    """Eigenvectors of the n smallest eigenvalues, rows unit-normalized.

    ARPACK's Lanczos iteration (``eigsh``) finds the n+1 smallest
    eigenpairs from a fixed start vector and a seeded restart stream, so
    repeated calls give the same output; the extra eigenvalue gives the
    spectral gap.  A dense ``eigh`` serves n + 1 >= P, which ARPACK
    cannot.
    """
    P = L.shape[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > P:
        raise ValueError("n must be <= number of points")
    if n + 1 < P:
        rng = np.random.default_rng(0)
        eigenvalues, U = eigsh(L, k=n + 1, which="SA",
                               v0=rng.uniform(-1.0, 1.0, P), rng=rng)
        order = np.argsort(eigenvalues)
        eigenvalues, U = eigenvalues[order], U[:, order]
    else:
        eigenvalues, U = eigh(L)
    next_eigenvalue = float(eigenvalues[n]) if n < P else None
    U = U[:, :n]
    norms = np.linalg.norm(U, axis=1)
    scale = np.ones_like(norms)
    np.divide(1.0, norms, out=scale, where=norms > 0)
    return SpectralEmbedding(U * scale[:, None], eigenvalues[:n],
                             next_eigenvalue)


def kmeans(X, n, restarts=10, seed=0):
    """Seeded k-means++ with Lloyd iterations; best inertia over restarts.

    Empty clusters are re-seeded at the point farthest from its centroid.
    Deterministic for a fixed seed.
    """
    X = np.asarray(X, dtype=float)
    P = X.shape[0]
    if n > P:
        raise ValueError("n must be <= number of points")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(max(1, restarts)):
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

    Only E and A are P x P: the neighbor stage keeps its NSI distance
    matrix only for the candidate search, C and Omega are sparse, the
    affinity is built in E's buffer and symmetrized into A, and the
    Laplacian overwrites A.  So at most two P x P arrays (plus
    block-sized scratch) are alive at once.
    """
    if config.n > W.points:
        raise ValueError(f"n = {config.n} exceeds the {W.points} trajectories")
    report = {"schema": 1, "stages": {}, "n": config.n,
              "projector": config.projector}
    clock = time.perf_counter

    t0 = clock()
    if config.projector == "pca":
        G = pj.pca_project(W, config.m)
    else:
        params = pj.SpcaParams(config.m, gamma=config.gamma, mu=config.mu)
        loadings = pj.gpower_block(W, params)
        G = pj.assemble_global(W, loadings)
        report["spca"] = {"iterations": loadings.iterations,
                          "converged": loadings.converged,
                          "active_fraction": float(loadings.pattern.mean())}
    report["stages"]["projection"] = clock() - t0

    t0 = clock()
    solution = nb.solve_all_neighbors(G, size=config.neighbors,
                                      sigma=config.sigma, lam=config.lam,
                                      admm=config.admm)
    Omega = nb.weight_matrix(solution.C, solution.X).Omega
    report["stages"]["sparse_neighbors"] = clock() - t0
    stats, stalled_rows = solution.stats, solution.stalled_rows
    del solution
    converged = int(stats.converged.sum())
    p50, p90 = np.percentile(stats.iterations, [50, 90])
    report["solver"] = {
        "rows": len(stats),
        "rows_converged": converged,
        "rows_capped": len(stats) - converged,
        "stalled_rows": stalled_rows,
        "max_primal_residual": float(stats.primal_residual.max()),
        "mean_iterations": float(np.mean(stats.iterations)),
        "iterations_p50": float(p50),
        "iterations_p90": float(p90),
        "iterations_max": int(stats.iterations.max()),
    }

    t0 = clock()
    E, _ = se.build_error_matrix(G, Omega, config.rank_tol)
    report["stages"]["error_matrix"] = clock() - t0

    t0 = clock()
    affinity = build_affinity(Omega, E, config.sigma_e, config.raw_error)
    del Omega, E
    L = normalized_laplacian(affinity.A)
    embedding = spectral_embed(L, config.n)
    labeling = kmeans(embedding.U, config.n, config.restarts, config.seed)
    report["stages"]["clustering"] = clock() - t0
    report["connected_components"] = affinity.n_components
    report["sigma_e"] = affinity.sigma_e
    report["eigenvalues"] = embedding.eigenvalues.tolist()
    report["spectral_gap"] = embedding.spectral_gap
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


def _lloyd(X, centers, n, max_iter=300):
    labels = None
    for _ in range(max_iter):
        sq = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(sq, axis=1)
        for k in range(n):
            members = new_labels == k
            if not np.any(members):
                # re-seed an empty cluster at the farthest point
                far = int(np.argmax(np.min(sq, axis=1)))
                centers[k] = X[far]
                new_labels[far] = k
                members = new_labels == k
            centers[k] = X[members].mean(axis=0)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    sq = np.sum((X - centers[labels]) ** 2, axis=1)
    return labels, float(sq.sum())
