import numpy as np
import pytest

import subseg
from subseg.clustering import (SegmentConfig, build_affinity, kmeans,
                               normalized_laplacian, segment, spectral_embed)
from subseg.metrics import misclassification
from subseg.subspace_error import ErrorMatrix
from subseg.synthcam import Labeling, SceneConfig, make_scene


def two_block_error(per_block=4):
    P = 2 * per_block
    E = np.ones((P, P))
    E[:per_block, :per_block] = 0.0
    E[per_block:, per_block:] = 0.0
    return ErrorMatrix(E)


def test_affinity_closed_form_exponential():
    E = two_block_error(3)
    A = build_affinity(np.zeros((6, 6)), E, sigma_e=0.2).A
    within = A[0, 1]
    cross = A[0, 4]
    assert within == pytest.approx(1.0, abs=1e-12)
    assert cross == pytest.approx(np.exp(-5.0), rel=1e-12)


def test_affinity_symmetrization_idempotent():
    rng = np.random.default_rng(0)
    Omega = rng.uniform(size=(5, 5))
    Omega = 0.5 * (Omega + Omega.T)
    np.fill_diagonal(Omega, 0.0)
    E = ErrorMatrix(np.zeros((5, 5)))
    A = build_affinity(Omega, E, sigma_e=1.0).A
    B = np.abs(Omega) + np.exp(-E.data)
    np.fill_diagonal(B, 0.0)
    assert np.array_equal(A, B)


def test_affinity_exactly_symmetric():
    rng = np.random.default_rng(1)
    Omega = rng.normal(size=(8, 8))
    E = ErrorMatrix(np.abs(rng.uniform(size=(8, 8))))
    A = build_affinity(Omega, E).A
    assert np.max(np.abs(A - A.T)) == 0.0
    assert np.all(A >= 0)
    assert np.all(np.diag(A) == 0)


def test_affinity_raw_error_variant():
    E = two_block_error(2)
    affinity = build_affinity(np.zeros((4, 4)), E, raw_error=True)
    A = affinity.A
    assert A[0, 2] == 1.0   # literal |e| strengthens cross links
    assert A[0, 1] == 0.0
    assert affinity.sigma_e is None


@pytest.mark.parametrize("sigma_e", [0.0, -1.0])
def test_affinity_rejects_nonpositive_sigma_e(sigma_e):
    with pytest.raises(ValueError, match="sigma_e must be > 0"):
        build_affinity(np.zeros((4, 4)), two_block_error(2), sigma_e=sigma_e)


def test_laplacian_complete_graph_eigenvalues():
    A = np.ones((3, 3)) - np.eye(3)
    vals = np.linalg.eigvalsh(normalized_laplacian(A))
    assert np.allclose(sorted(vals), [0.0, 1.5, 1.5], atol=1e-12)


def test_laplacian_disconnected_cliques():
    A = np.zeros((6, 6))
    A[:3, :3] = 1.0
    A[3:, 3:] = 1.0
    np.fill_diagonal(A, 0.0)
    vals = np.linalg.eigvalsh(normalized_laplacian(A))
    assert np.sum(np.abs(vals) < 1e-10) == 2


def test_laplacian_zero_graph_is_identity():
    assert np.array_equal(normalized_laplacian(np.zeros((4, 4))), np.eye(4))


def test_laplacian_eigenvalue_range():
    rng = np.random.default_rng(2)
    A = np.abs(rng.normal(size=(10, 10)))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    vals = np.linalg.eigvalsh(normalized_laplacian(A))
    assert vals.min() > -1e-9
    assert vals.max() < 2 + 1e-9


def test_embed_disconnected_cliques():
    A = np.zeros((6, 6))
    A[:3, :3] = 1.0
    A[3:, 3:] = 1.0
    np.fill_diagonal(A, 0.0)
    emb = spectral_embed(normalized_laplacian(A), 2)
    # rows form exactly two direction clusters
    directions = {tuple(np.round(row, 6)) for row in emb.U}
    assert len(directions) == 2
    labels = kmeans(emb.U, 2, seed=0)
    assert len(set(labels.labels[:3])) == 1
    assert len(set(labels.labels[3:])) == 1


def test_embed_full_dimension_orthonormal():
    rng = np.random.default_rng(3)
    A = np.abs(rng.normal(size=(5, 5)))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    L = normalized_laplacian(A)
    vals, vecs = np.linalg.eigh(L)
    assert np.allclose(vecs.T @ vecs, np.eye(5), atol=1e-10)
    emb = spectral_embed(L, 5)
    assert np.allclose(sorted(emb.eigenvalues), emb.eigenvalues)


def test_embed_planted_three_blocks():
    rng = np.random.default_rng(4)
    blocks = [np.arange(0, 10), np.arange(10, 20), np.arange(20, 30)]
    A = np.full((30, 30), 0.01)
    for block in blocks:
        A[np.ix_(block, block)] = 1.0 + 0.05 * rng.uniform(size=(10, 10))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    emb = spectral_embed(normalized_laplacian(A), 3)
    labels = kmeans(emb.U, 3, seed=1)
    truth = Labeling(np.repeat([0, 1, 2], 10), 3)
    assert misclassification(labels, truth).misclassification == 0.0


def test_kmeans_single_cluster():
    rng = np.random.default_rng(5)
    labels = kmeans(rng.normal(size=(7, 3)), 1, seed=0)
    assert np.all(labels.labels == 0)


def test_kmeans_two_separated_groups():
    rng = np.random.default_rng(6)
    X = np.r_[rng.normal(0, 0.1, size=(10, 2)),
              rng.normal(5, 0.1, size=(12, 2))]
    labels = kmeans(X, 2, seed=0)
    assert len(set(labels.labels[:10])) == 1
    assert len(set(labels.labels[10:])) == 1
    assert labels.labels[0] != labels.labels[-1]


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 4))
    a = kmeans(X, 3, seed=5)
    b = kmeans(X, 3, seed=5)
    assert np.array_equal(a.labels, b.labels)


def test_zero_eigenvalue_multiplicity_vs_components():
    A = np.zeros((7, 7))
    A[:3, :3] = 1.0
    A[3:5, 3:5] = 1.0
    np.fill_diagonal(A, 0.0)  # vertices 5, 6 isolated
    aff = build_affinity(np.zeros((7, 7)),
                         ErrorMatrix(np.full((7, 7), 50.0)), sigma_e=1e-3)
    # use the raw clique graph here; the affinity call checks diagnostics
    vals = np.linalg.eigvalsh(normalized_laplacian(A))
    components = 4  # two cliques + two isolated vertices
    assert np.sum(np.abs(vals) < 1e-8) >= 2
    assert aff.n_components >= 1


def test_segment_noiseless_two_motions_exact():
    cfg = SceneConfig(n_motions=2, points_per_motion=(60, 60), frames=30,
                      rotation_rate=(0.15, 0.22),
                      translation_rate=(1.0, 1.6), seed=1)
    W, truth = make_scene(cfg)
    labeling, report = segment(W, SegmentConfig(n=2, seed=1))
    assert misclassification(labeling, truth).misclassification == 0.0
    assert set(report["stages"]) == {"projection", "sparse_neighbors",
                                     "error_matrix", "clustering"}
    assert len(report["eigenvalues"]) == 2
    assert report["labels"] == labeling.labels.tolist()
    assert report["sigma_e"] > 0
    solver = report["solver"]
    assert set(solver) == {"rows", "rows_converged", "rows_capped",
                           "stalled_rows", "max_primal_residual",
                           "mean_iterations"}
    assert solver["rows"] == W.points
    assert solver["rows_converged"] + solver["rows_capped"] == W.points


def test_segment_label_permutation_metamorphic():
    cfg = SceneConfig(n_motions=2, points_per_motion=(40, 40), frames=30,
                      rotation_rate=(0.15, 0.22),
                      translation_rate=(1.0, 1.6), seed=2)
    W, truth = make_scene(cfg)
    rng = np.random.default_rng(0)
    perm = rng.permutation(W.points)
    W_perm = subseg.TrajectoryMatrix(W.data[:, perm], W.mask[:, perm],
                                     W.frames, W.points)
    lab_a, _ = segment(W, SegmentConfig(n=2, seed=2))
    lab_b, _ = segment(W_perm, SegmentConfig(n=2, seed=2))
    permuted = Labeling(lab_a.labels[perm], 2)
    assert misclassification(lab_b, permuted).misclassification == 0.0


def test_segment_config_validation():
    with pytest.raises(ValueError):
        SegmentConfig(n=0)
    with pytest.raises(ValueError):
        SegmentConfig(n=2, projector="nope")
    with pytest.raises(ValueError, match="m must be >= 1"):
        SegmentConfig(n=2, m=0)


def test_segment_rejects_more_motions_than_points():
    W = subseg.TrajectoryMatrix.from_dense(np.ones((6, 4)))
    with pytest.raises(ValueError, match="exceeds"):
        segment(W, SegmentConfig(n=5))
