"""Affinity assembly, normalized spectral clustering, and the full pipeline.

The affinity combines the sparse neighbor weights with a similarity
derived from the subspace residuals; normalized spectral clustering on
the symmetrized graph yields the motion labels.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components
from scipy.sparse import csr_matrix

from . import neighbors as nb
from . import projection as pj
from . import subspace_error as se
from .synthcam import Labeling


class EmptyCluster(RuntimeError):
    """k-means produced an empty cluster that could not be re-seeded."""


@dataclass
class Affinity:
    """Symmetric nonnegative affinity with a connectivity diagnostic and
    the residual scale it used (None under ``raw_error``)."""

    A: np.ndarray
    n_components: int
    sigma_e: float


@dataclass
class SpectralEmbedding:
    """Rows of the n smallest Laplacian eigenvectors, unit-normalized."""

    U: np.ndarray
    eigenvalues: np.ndarray


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


def build_affinity(Omega, E, sigma_e=None, raw_error=False):
    """Combine neighbor weights and residual similarity, then symmetrize.

    The residual enters as exp(-e/sigma_e) so small error (same local
    subspace) means strong connection; the literal absolute-error variant
    stays available behind ``raw_error`` for comparison.
    """
    e = E.data
    if raw_error:
        S = np.abs(e)
        sigma_e = None
    else:
        if sigma_e is None:
            positive = e[e > 0]
            sigma_e = float(np.median(positive)) if positive.size else 1.0
        elif sigma_e <= 0:
            raise ValueError("sigma_e must be > 0")
        S = np.exp(-e / sigma_e)
    B = np.abs(Omega) + S
    np.fill_diagonal(B, 0.0)
    A = 0.5 * (B + B.T)
    n_comp, _ = connected_components(csr_matrix(A > 0), directed=False)
    return Affinity(A, int(n_comp), sigma_e)


def normalized_laplacian(A):
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Isolated vertices get identity rows; eigenvalues lie in [0, 2].
    """
    d = A.sum(axis=1)
    inv_sqrt = np.zeros_like(d)
    np.divide(1.0, np.sqrt(d), out=inv_sqrt, where=d > 0)
    L = -inv_sqrt[:, None] * A * inv_sqrt[None, :]
    np.fill_diagonal(L, 1.0)
    return 0.5 * (L + L.T)


def spectral_embed(L, n):
    """Eigenvectors of the n smallest eigenvalues, rows unit-normalized."""
    if n < 1:
        raise ValueError("n must be >= 1")
    eigenvalues, U = eigh(L, subset_by_index=[0, n - 1])
    norms = np.linalg.norm(U, axis=1)
    scale = np.ones_like(norms)
    np.divide(1.0, norms, out=scale, where=norms > 0)
    return SpectralEmbedding(U * scale[:, None], eigenvalues)


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
    carries per-stage timings, eigenvalues, and solver diagnostics.
    """
    if config.n > W.points:
        raise ValueError(f"n = {config.n} exceeds the {W.points} trajectories")
    report = {"stages": {}, "n": config.n, "projector": config.projector}
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
    converged = sum(s.converged for s in solution.stats)
    report["solver"] = {
        "rows": len(solution.stats),
        "rows_converged": converged,
        "rows_capped": len(solution.stats) - converged,
        "stalled_rows": solution.stalled_rows,
        "max_primal_residual": max(s.primal_residual for s in solution.stats),
        "mean_iterations": float(np.mean([s.iterations for s in solution.stats])),
    }

    t0 = clock()
    E, _ = se.build_error_matrix(G, Omega, config.rank_tol)
    report["stages"]["error_matrix"] = clock() - t0

    t0 = clock()
    affinity = build_affinity(Omega, E, config.sigma_e, config.raw_error)
    L = normalized_laplacian(affinity.A)
    embedding = spectral_embed(L, config.n)
    labeling = kmeans(embedding.U, config.n, config.restarts, config.seed)
    report["stages"]["clustering"] = clock() - t0
    report["connected_components"] = affinity.n_components
    report["sigma_e"] = affinity.sigma_e
    report["eigenvalues"] = [float(v) for v in embedding.eigenvalues]
    report["labels"] = [int(v) for v in labeling.labels]
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
