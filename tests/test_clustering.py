import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

import subseg
from subseg.clustering import (SegmentConfig, build_affinity, kmeans,
                               normalized_laplacian, segment, spectral_embed)
from subseg.metrics import misclassification
from subseg.neighbors import solve_all_neighbors, weight_matrix
from subseg.projection import pca_project
from subseg.subspace_error import ErrorMatrix, build_error_matrix
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
    B = np.abs(Omega) + np.exp(-E.data)
    np.fill_diagonal(B, 0.0)
    A = build_affinity(Omega, E, sigma_e=1.0).A
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
    for raw_error in (False, True):
        with pytest.raises(ValueError, match="sigma_e must be > 0"):
            build_affinity(np.zeros((4, 4)), two_block_error(2),
                           sigma_e=sigma_e, raw_error=raw_error)


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


def clique_error(groups, P):
    """Residuals that are 0 inside each index group and 50 elsewhere, so
    exp(-e/sigma_e) at sigma_e = 1e-3 is exactly 1 inside, 0 across."""
    E = np.full((P, P), 50.0)
    for group in groups:
        E[np.ix_(group, group)] = 0.0
    return ErrorMatrix(E)


def test_zero_eigenvalue_multiplicity_vs_components():
    P = 7
    # every residual underflows: no edges, seven isolated vertices
    empty = build_affinity(np.zeros((P, P)), clique_error([], P), sigma_e=1e-3)
    assert not empty.A.any()
    assert empty.n_components == 7

    # two cliques plus the isolated vertices 5 and 6
    aff = build_affinity(np.zeros((P, P)),
                         clique_error([[0, 1, 2], [3, 4]], P), sigma_e=1e-3)
    assert aff.n_components == 4
    # isolated vertices carry eigenvalue 1, each clique one zero
    vals = np.linalg.eigvalsh(normalized_laplacian(aff.A))
    assert np.sum(np.abs(vals) < 1e-8) == 2

    complete = build_affinity(np.zeros((P, P)), clique_error([range(P)], P),
                              sigma_e=1e-3)
    assert complete.n_components == 1


def test_connectivity_shortcut_agrees_with_sparse_count(monkeypatch):
    import subseg.clustering as cl

    calls = []
    count = cl.connected_components

    def counted(*args, **kwargs):
        calls.append(1)
        return count(*args, **kwargs)

    monkeypatch.setattr(cl, "connected_components", counted)
    P = 6
    # vertex 0 links to all others: connected without a sparse graph
    star = [[0, v] for v in range(1, P)]
    aff = build_affinity(np.zeros((P, P)), clique_error(star, P), sigma_e=1e-3)
    assert aff.n_components == 1 and not calls
    # a path is connected but has no such vertex: the sparse count runs
    path = [[v, v + 1] for v in range(P - 1)]
    aff = build_affinity(np.zeros((P, P)), clique_error(path, P), sigma_e=1e-3)
    assert aff.n_components == 1 and len(calls) == 1


def test_affinity_and_laplacian_match_whole_matrix_forms():
    """The tiled symmetrization gives the bits of the whole-matrix
    expressions across tile boundaries."""
    P = 600
    rng = np.random.default_rng(6)
    Omega = np.where(rng.uniform(size=(P, P)) < 0.03,
                     rng.uniform(-0.2, 1.0, size=(P, P)), 0.0)
    E = rng.exponential(size=(P, P))
    B = np.exp(E / -0.5) + np.abs(Omega)
    want = 0.5 * (B + B.T)
    np.fill_diagonal(want, 0.0)
    A = build_affinity(Omega, ErrorMatrix(E), sigma_e=0.5).A
    assert np.array_equal(A, want)

    inv_sqrt = 1.0 / np.sqrt(A.sum(axis=1))
    L = A * -inv_sqrt[:, None] * inv_sqrt
    np.fill_diagonal(L, 1.0)
    assert np.array_equal(normalized_laplacian(A), 0.5 * (L + L.T))


def random_graph(P, seed):
    A = np.random.default_rng(seed).uniform(size=(P, P))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A


def clique_graph(sizes):
    truth = np.repeat(np.arange(len(sizes)), sizes)
    A = (truth[:, None] == truth[None, :]).astype(float)
    np.fill_diagonal(A, 0.0)
    return A, truth


def unit_rows(U):
    return U / np.linalg.norm(U, axis=1, keepdims=True)


@pytest.mark.parametrize("P,n,seed", [(12, 1, 0), (40, 3, 1), (150, 2, 2),
                                      (300, 6, 3)])
def test_embed_matches_dense_eigh_on_random_graphs(P, n, seed):
    L = normalized_laplacian(random_graph(P, seed))
    vals, vecs = np.linalg.eigh(L)
    emb = spectral_embed(L, n)
    assert np.max(np.abs(emb.eigenvalues - vals[:n])) < 1e-10
    assert abs(emb.next_eigenvalue - vals[n]) < 1e-10
    assert emb.spectral_gap == pytest.approx(vals[n] - vals[n - 1], abs=1e-10)
    # eigenvalues are simple here, so the vectors agree up to sign
    signs = np.sign(np.sum(emb.U * unit_rows(vecs[:, :n]), axis=0))
    assert np.max(np.abs(emb.U - unit_rows(vecs[:, :n]) * signs)) < 1e-8


@pytest.mark.parametrize("sizes", [(20, 20, 20), (100, 60, 140),
                                   (50,) * 8, (300, 250, 350, 300),
                                   (150, 160, 170, 180, 190, 210, 140)])
def test_embed_matches_dense_eigh_on_disjoint_cliques(sizes):
    A, truth = clique_graph(sizes)
    n = len(sizes)
    L = normalized_laplacian(A)
    vals = np.linalg.eigvalsh(L)
    emb = spectral_embed(L, n)
    # zero has multiplicity exactly n; each clique contributes one
    assert np.max(np.abs(emb.eigenvalues)) < 1e-10
    assert abs(emb.next_eigenvalue - vals[n]) < 1e-10
    assert emb.spectral_gap > 0.5
    labels = kmeans(emb.U, n, seed=0)
    dense = kmeans(unit_rows(np.linalg.eigh(L)[1][:, :n]), n, seed=0)
    truth = Labeling(truth, n)
    assert misclassification(labels, truth).misclassification == 0.0
    assert misclassification(dense, truth).misclassification == 0.0


@pytest.mark.parametrize("A", [random_graph(200, 4),
                               clique_graph((70, 70, 70))[0]],
                         ids=["random", "cliques"])
def test_embed_repeats_bit_for_bit(A):
    L = normalized_laplacian(A)
    a = spectral_embed(L, 3)
    b = spectral_embed(L, 3)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert a.next_eigenvalue == b.next_eigenvalue


def test_embed_near_and_at_full_dimension():
    P = 6
    L = normalized_laplacian(random_graph(P, 5))
    vals = np.linalg.eigvalsh(L)
    # n = P - 2 is the largest n the Lanczos path serves
    for n in (P - 2, P - 1):
        emb = spectral_embed(L, n)
        assert np.allclose(emb.eigenvalues, vals[:n], atol=1e-12)
        assert emb.next_eigenvalue == pytest.approx(vals[n], abs=1e-12)
    full = spectral_embed(L, P)
    assert np.allclose(full.eigenvalues, vals, atol=1e-12)
    assert full.next_eigenvalue is None and full.spectral_gap is None
    assert full.U.shape == (P, P)
    with pytest.raises(ValueError, match="n must be <= number of points"):
        spectral_embed(L, P + 1)


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
    assert report["spectral_gap"] > 0
    solver = report["solver"]
    assert solver["rows"] == W.points
    assert solver["rows_converged"] + solver["rows_capped"] == W.points
    assert (solver["iterations_p50"] <= solver["iterations_p90"]
            <= solver["iterations_max"] <= SegmentConfig(n=2).admm.max_iter)


REPORT_KEYS = {"schema", "stages", "n", "projector", "solver",
               "connected_components", "sigma_e", "eigenvalues",
               "spectral_gap", "labels"}
SOLVER_KEYS = {"rows", "rows_converged", "rows_capped", "stalled_rows",
               "max_primal_residual", "mean_iterations", "iterations_p50",
               "iterations_p90", "iterations_max"}


@pytest.mark.parametrize("projector, extra", [("spca", {"spca"}),
                                              ("pca", set())])
def test_report_schema_pins_every_key(projector, extra):
    W, _ = make_scene(SceneConfig(n_motions=2, points_per_motion=20,
                                  frames=10, seed=4))
    _, report = segment(W, SegmentConfig(n=2, projector=projector))
    assert report["schema"] == 1
    assert set(report) == REPORT_KEYS | extra
    assert set(report["solver"]) == SOLVER_KEYS
    if extra:
        assert set(report["spca"]) == {"iterations", "converged",
                                       "active_fraction"}


def test_segment_peak_memory_at_most_two_and_a_half_dense_arrays():
    """Only E and A are P x P: the NSI distances are freed before the
    solve, C and Omega are sparse, the affinity reuses E's buffer and the
    Laplacian A's, so at most 2.5 P x P float arrays are allocated at
    once."""
    P = 900
    W, _ = make_scene(SceneConfig(n_motions=3, points_per_motion=P // 3,
                                  seed=1))
    tracemalloc.start()
    try:
        segment(W, SegmentConfig(n=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * P * P * 8


@st.composite
def residual_matrices(draw):
    """Square matrices over a few values, so that ties are common; zeros
    of both signs are never positive."""
    P = draw(st.integers(1, 12) | st.integers(257, 300))
    pool = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-3, 0.5, 1.0, 3.0])
                         | st.floats(1e-3, 10.0), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).choice(pool, size=(P, P))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(residual_matrices())
@example(np.zeros((3, 3)))
@example(np.array([[-0.0, 0.0], [2.5, -0.0]]))
@example(np.array([[0.0, 1.0], [2.0, 2.0]]))
def test_sigma_e_is_exact_median_of_positive_residuals(E):
    """The median taken inside A's buffer is np.median(E[E > 0]) bit for
    bit, and 1.0 when no entry is positive; multi-block sizes included."""
    positive = E[E > 0]
    want = np.float64(np.median(positive) if positive.size else 1.0)
    got = build_affinity(np.zeros(E.shape), ErrorMatrix(E.copy())).sigma_e
    assert np.float64(got).tobytes() == want.tobytes()


def test_dense_and_csr_omega_give_same_error_affinity_and_laplacian():
    W, _ = make_scene(SceneConfig(n_motions=3, points_per_motion=100,
                                  seed=2))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G)
    Omega = weight_matrix(sol.C, sol.X).Omega
    assert isinstance(Omega, csr_array)
    results = []
    for weights in (Omega, Omega.toarray()):
        E, _ = build_error_matrix(G, weights)
        E_bits = E.data.copy()
        affinity = build_affinity(weights, E)
        A = affinity.A.copy()
        results.append((E_bits, affinity.sigma_e, A,
                        normalized_laplacian(affinity.A)))
    for got, want in zip(*results):
        assert np.array_equal(np.float64(got).view(np.int64),
                              np.float64(want).view(np.int64))


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


@pytest.mark.parametrize("field,value", [
    ("neighbors", 2.5), ("neighbors", 0), ("neighbors", -3),
    ("neighbors", True), ("neighbors", "20"),
    ("restarts", -1), ("restarts", 0), ("restarts", 2.0),
    ("restarts", False),
    ("rank_tol", np.nan), ("rank_tol", -1.0), ("rank_tol", 1.0),
    ("rank_tol", np.inf), ("rank_tol", -np.inf)])
def test_segment_config_rejects_bad_counts_and_rank_tol(field, value):
    with pytest.raises(ValueError, match=field):
        SegmentConfig(n=2, **{field: value})


def test_segment_config_accepts_boundary_counts_and_rank_tol():
    config = SegmentConfig(n=2, neighbors=np.int64(1), restarts=1,
                           rank_tol=0.0)
    assert (config.neighbors, config.restarts, config.rank_tol) == (1, 1, 0.0)
    SegmentConfig(n=2, rank_tol=np.nextafter(1.0, 0.0))


def test_segment_rejects_more_motions_than_points():
    W = subseg.TrajectoryMatrix.from_dense(np.ones((6, 4)))
    with pytest.raises(ValueError, match="exceeds"):
        segment(W, SegmentConfig(n=5))


def test_segment_rejects_one_trajectory():
    W = subseg.TrajectoryMatrix.from_dense(np.arange(1.0, 7.0)[:, None])
    with pytest.raises(ValueError, match="need at least 2 trajectories"):
        segment(W, SegmentConfig(n=1, m=1))
