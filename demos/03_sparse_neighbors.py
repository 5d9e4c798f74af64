"""
Sparse neighbor selection on the unit sphere
============================================

Each projected trajectory picks a handful of affine-combination
neighbors from its closest candidates, where "close" means a small
subspace-inclusion distance 1 - (alpha_i' alpha_j)^2.  A proximity-
weighted L1 penalty keeps the selection sparse under the affine
constraint 1'c = 1; each row's program is solved exactly, in closed form.
"""

import numpy as np

from subseg import SceneConfig, make_scene
from subseg.neighbors import (neighbor_objective, nsi_distances,
                              proximity_weights, solve_all_neighbors,
                              weight_matrix)
from subseg.projection import pca_project

W, truth = make_scene(SceneConfig(n_motions=2, seed=4))
G = pca_project(W, 5)
labels = truth.labels

# Distances: within-motion pairs sit much closer than cross-motion pairs
X = nsi_distances(G)
same = labels[:, None] == labels[None, :]
off = ~np.eye(len(labels), dtype=bool)
print(f"NSI distance, within-motion mean {X[same & off].mean():.3f}, "
      f"cross-motion mean {X[~same].mean():.3f}")

# Solve every row; inspect sparsity and the objective reached.  C is
# sparse: it stores each row's 20 candidates; a dense copy is fine here
sol = solve_all_neighbors(G, size=20, lam=0.07)
C = sol.C.toarray()
support_sizes = (C != 0).sum(axis=1)
print(f"support sizes: min {support_sizes.min()}, "
      f"median {int(np.median(support_sizes))}, max {support_sizes.max()}")
coeffs = sol.C.values
q = proximity_weights(sol.X, sol.X.mean(axis=1, keepdims=True))
objective = np.array([neighbor_objective(c, x, qi, 0.07)
                      for c, x, qi in zip(coeffs, sol.X, q)])
print(f"objective per row: median {np.median(objective):.2e}, "
      f"max {objective.max():.2e}")
print(f"affine constraint worst error "
      f"{np.abs(C.sum(axis=1) - 1).max():.1e}")

# How pure are the selections?  Count neighbors that share the true label
purity = np.array([
    np.mean(labels[np.flatnonzero(C[i])] == labels[i])
    for i in range(len(labels))])
print(f"neighbor purity: mean {purity.mean():.3f}, "
      f"rows fully pure {int((purity == 1).sum())}/{len(labels)}")

# Weight matrix: coefficients rescaled by inverse distance, rows sum to 1.
# sol.X holds the distances of the stored candidates, aligned with C
Omega = weight_matrix(sol.C, sol.X).Omega
rows = np.abs(Omega.toarray()).sum(axis=1)
print(f"weight-matrix rows sum to 1 within {np.abs(rows - 1).max():.1e}")
