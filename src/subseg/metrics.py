"""Misclassification scoring with optimal label-bijection matching."""

from dataclasses import dataclass

import numpy as np


class LengthMismatch(ValueError):
    """Predicted and ground-truth labelings have different lengths."""


@dataclass
class ScoreReport:
    misclassification: float
    best_permutation: dict    # predicted id -> true id
    confusion: np.ndarray     # (n, n), [predicted, true]


def misclassification(pred, truth):
    """Minimum error rate over all bijections between label sets.

    The best bijection is a maximum-weight assignment on the confusion
    matrix (Kuhn 1955), exact for any cluster count.  csgraph's full
    bipartite matching solves it; scipy.optimize's linear_sum_assignment
    would too, but importing scipy.optimize adds about 9 MB of resident
    memory (scipy 1.17) that nothing else in the package needs.  csgraph
    is imported on the first call, so ``import subseg`` loads no scipy.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    if len(pred) != len(truth):
        raise LengthMismatch(
            f"predicted {len(pred)} labels, ground truth {len(truth)}")
    n = max(pred.n, truth.n)

    P = len(truth)
    confusion = np.zeros((n, n), dtype=int)
    np.add.at(confusion, (pred.labels, truth.labels), 1)

    # a sparse graph has no edge where the weight is 0; adding 1 keeps the
    # graph complete and adds n to every bijection, so the best one is kept
    rows, cols = min_weight_full_bipartite_matching(csr_matrix(confusion + 1),
                                                    maximize=True)
    correct = int(confusion[rows, cols].sum())
    return ScoreReport(1.0 - correct / P,
                       dict(zip(rows.tolist(), cols.tolist())), confusion)

