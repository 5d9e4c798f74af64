from itertools import permutations

import numpy as np
import pytest

from subseg.metrics import LengthMismatch, misclassification
from subseg.synthcam import Labeling


def lab(values, n=None):
    values = np.asarray(values)
    return Labeling(values, n if n is not None else int(values.max()) + 1)


def test_identical_labelings():
    truth = lab([0, 0, 1, 1, 2])
    assert misclassification(truth, truth).misclassification == 0.0


def test_swapped_ids_score_zero():
    truth = lab([0, 0, 1, 1])
    pred = lab([1, 1, 0, 0])
    report = misclassification(pred, truth)
    assert report.misclassification == 0.0
    assert report.best_permutation == {0: 1, 1: 0}


def test_one_of_four_wrong():
    truth = lab([0, 0, 1, 1])
    pred = lab([0, 1, 1, 1])
    assert misclassification(pred, truth).misclassification == 0.25


def test_confusion_sums_to_p():
    rng = np.random.default_rng(0)
    truth = lab(rng.integers(0, 3, size=40), 3)
    pred = lab(rng.integers(0, 3, size=40), 3)
    report = misclassification(pred, truth)
    assert report.confusion.sum() == 40
    # consistency: error equals 1 - permuted trace / P
    best = sum(report.confusion[i, report.best_permutation[i]]
               for i in range(3))
    assert report.misclassification == pytest.approx(1 - best / 40)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        misclassification(lab([0, 1]), lab([0, 1, 0]))


def brute_force_error(confusion):
    """Reference: minimum error over every bijection, by enumeration."""
    n = confusion.shape[0]
    best = max(sum(confusion[i, perm[i]] for i in range(n))
               for perm in permutations(range(n)))
    return 1.0 - best / confusion.sum()


def test_many_clusters_scored_exactly():
    truth = lab(np.repeat(np.arange(12), 5), 12)
    pred_labels = (truth.labels + 3) % 12
    pred_labels[:4] = 11          # four points of cluster 0 go astray
    report = misclassification(lab(pred_labels, 12), truth)
    assert report.misclassification == pytest.approx(4 / 60)
    assert report.best_permutation == {(i + 3) % 12: i for i in range(12)}


def test_matches_brute_force_bijection_search():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        P = int(rng.integers(n, 40))
        truth = lab(rng.integers(0, n, size=P), n)
        pred = lab(rng.integers(0, n, size=P), n)
        report = misclassification(pred, truth)
        assert report.misclassification == pytest.approx(
            brute_force_error(report.confusion), abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    truth = lab(rng.integers(0, 4, size=30), 4)
    pred_labels = rng.integers(0, 4, size=30)
    base = misclassification(lab(pred_labels, 4), truth).misclassification
    for _ in range(5):
        perm = rng.permutation(4)
        relabeled = lab(perm[pred_labels], 4)
        assert misclassification(relabeled, truth).misclassification == base


def test_symmetry():
    rng = np.random.default_rng(2)
    a = lab(rng.integers(0, 3, size=25), 3)
    b = lab(rng.integers(0, 3, size=25), 3)
    assert misclassification(a, b).misclassification == \
        misclassification(b, a).misclassification


def test_error_range_bound():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = np.r_[np.arange(3), rng.integers(0, 3, size=20)]
        b = np.r_[np.arange(3), rng.integers(0, 3, size=20)]
        err = misclassification(lab(a, 3), lab(b, 3)).misclassification
        assert 0.0 <= err <= 1 - 1 / 3 + 1e-12

