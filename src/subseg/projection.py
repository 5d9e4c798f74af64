"""Global subspace transformation: plain PCA and block sparse PCA.

The sparse variant maximizes, over the Stiefel manifold, the sum of
thresholded squares sum_j sum_i [(mu_j w_i^T y_j)^2 - gamma_j]_+ where the
samples w_i are the 2F rows of the trajectory matrix.  A gradient step
followed by a polar retraction keeps Y column-orthonormal and the
objective nondecreasing.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_count, check_range

# The power iteration stops at a relative gain below _TOL or at _MAX_ITER
_TOL = 1e-8
_MAX_ITER = 500


class RankDeficient(UserWarning):
    """Input matrix has fewer nonzero singular values than requested."""


class DidNotConverge(UserWarning):
    """Iteration cap reached; the last iterate is still returned."""


class ZeroColumn(ValueError):
    """A projected trajectory is numerically zero and cannot be normalized."""


@dataclass
class SpcaParams:
    """Block sparse PCA parameters; the stopping rule is fixed.

    ``gamma`` and ``mu`` broadcast from scalars to length m.  The mu values
    must be positive and pairwise distinct; gamma feasibility against the
    data (gamma_j <= mu_j^2 max_i ||w_i||^2, else the column pattern is
    forced empty) is checked when a solve starts.
    """

    m: int
    gamma: np.ndarray = 0.01
    mu: np.ndarray = None

    def __post_init__(self):
        check_count("m", self.m, 1)
        if self.mu is None:
            self.mu = 1.0 / np.arange(1, self.m + 1)
        for name, closed in (("gamma", True), ("mu", False)):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape not in ((), (1,), (self.m,)):
                raise ValueError(f"{name} must be a scalar or have m={self.m} "
                                 f"entries, got shape {value.shape}")
            check_range(f"{name} entries", value, 0, closed=closed)
            setattr(self, name, np.broadcast_to(value, (self.m,)).copy())
        if len(set(self.mu.tolist())) != self.m:
            raise ValueError("mu entries must be pairwise distinct")

    def check_feasible(self, samples):
        """Reject gamma values that force an all-zero sparsity pattern."""
        bound = self.mu ** 2 * np.max(np.sum(samples ** 2, axis=1))
        if np.any(self.gamma > bound):
            bad = int(np.argmax(self.gamma > bound))
            raise ValueError(
                f"gamma[{bad}]={self.gamma[bad]:g} exceeds the feasibility "
                f"bound {bound[bad]:g}; the pattern would be empty")


@dataclass
class SparseLoadings:
    """Result of the block sparse PCA solve."""

    Z: np.ndarray          # (2F, m) sparse loadings, unit columns or zero
    Y: np.ndarray          # (P, m) orthonormal
    pattern: np.ndarray    # (2F, m) boolean active set
    objective: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = True


@dataclass
class GlobalSubspace:
    """m x P matrix of unit-norm projected trajectory columns."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)

    @property
    def m(self):
        return self.data.shape[0]

    @property
    def points(self):
        return self.data.shape[1]


def pca_project(W, m):
    """Project trajectories onto the top-m right-singular subspace of W.

    Output columns are unit-normalized.  If W has fewer than m nonzero
    singular values the missing rows are zero-padded and a RankDeficient
    warning is issued.
    """
    check_count("m", m, 1)
    A = W.data
    _check_m(m, A)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.count_nonzero(s > 0))
    if rank < m:
        warnings.warn(f"matrix rank {rank} < m={m}; padding with zero rows",
                      RankDeficient)
    proj = U[:, :m].T @ A
    proj[rank:] = 0.0
    return GlobalSubspace(_normalize_columns(proj))


def gpower_block(W, params):
    """Block sparse PCA by the generalized power method.

    Iterates Y <- Polar(G(Y)) where column j of G sums the gradient
    contributions 2 mu_j^2 (w_i^T y_j) w_i over active samples; the
    thresholded-square objective is nondecreasing across iterations.
    ``_MAX_ITER`` iterations without convergence raise DidNotConverge.
    """
    A = W.data
    if not np.any(A):
        raise ValueError("trajectory matrix is zero")
    _check_m(params.m, A)
    params.check_feasible(A)
    m, gamma, mu = params.m, params.gamma, params.mu

    _, _, Vt = np.linalg.svd(A, full_matrices=False)
    Y = Vt[:m].T.copy()                     # (P, m) warm start

    history = []
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        S = A @ Y                           # (2F, m), entries w_i^T y_j
        vals = (mu * S) ** 2
        active = vals > gamma
        objective = float(np.sum(np.where(active, vals - gamma, 0.0)))
        history.append(objective)

        G = 2.0 * mu ** 2 * (A.T @ np.where(active, S, 0.0))
        if not np.any(G):
            converged = True                # pattern emptied; Y is stationary
            break
        U, _, Vt = np.linalg.svd(G, full_matrices=False)
        Y = U @ Vt

        if len(history) > 1:
            gain = history[-1] - history[-2]
            if gain < _TOL * max(abs(history[-2]), 1.0):
                converged = True
                break

    if not converged:
        warnings.warn(f"no convergence in {iterations} iterations",
                      DidNotConverge)

    pattern = extract_pattern(Y, W, params)
    Z = np.where(pattern, A @ Y, 0.0)
    norms = np.linalg.norm(Z, axis=0)
    nonzero = norms > 0
    Z[:, nonzero] /= norms[nonzero]
    return SparseLoadings(Z, Y, pattern, history, iterations, converged)


def extract_pattern(Y, W, params):
    """Active set of the sparsity criterion: (mu_j w_i^T y_j)^2 > gamma_j.

    Strict inequality; ties at exact equality are inactive.
    """
    S = W.data @ Y
    return (params.mu * S) ** 2 > params.gamma


def assemble_global(W, loadings):
    """Normalize the projected data Z^T W column-wise into the global subspace."""
    proj = loadings.Z.T @ W.data
    return GlobalSubspace(_normalize_columns(proj))


def _check_m(m, A):
    if m > min(A.shape):
        raise ValueError(f"m must be <= min(2F, P); m = {m} exceeds "
                         f"min(2F, P) = {min(A.shape)}")


def _normalize_columns(M):
    norms = np.linalg.norm(M, axis=0)
    if np.any(norms < 1e-12):
        bad = int(np.argmin(norms))
        raise ZeroColumn(f"projected trajectory {bad} is numerically zero")
    return M / norms
