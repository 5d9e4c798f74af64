import dataclasses
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import TWO_MOTION
from test_neighbors import row_sparse

import subseg
from subseg import clustering
from subseg import projection
from subseg.clustering import (_EXP_FLOOR, _LLOYD_MAX_ITER, SIGMA_E_SCALE,
                               SegmentConfig, _lloyd, _pivot_rows,
                               build_affinity, kmeans, normalized_laplacian,
                               segment, spectral_embed)
from subseg.metrics import misclassification
from subseg.neighbors import solve_all_neighbors, weight_matrix
from subseg.projection import SpcaParams, pca_project
from subseg.subspace_error import ErrorMatrix, build_error_matrix
from subseg.synthcam import Labeling, SceneConfig, make_scene


def no_weights(P):
    """Weights with no entries: k = 0 columns."""
    return row_sparse(np.zeros((P, P)))


def two_block_error(per_block=4):
    P = 2 * per_block
    E = np.ones((P, P))
    E[:per_block, :per_block] = 0.0
    E[per_block:, per_block:] = 0.0
    return ErrorMatrix(E)


def test_affinity_closed_form_exponential():
    E = two_block_error(3)
    A = build_affinity(no_weights(6), E, sigma_e=0.2).A
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
    A = build_affinity(row_sparse(Omega), E, sigma_e=1.0).A
    assert np.array_equal(A, B)


def test_affinity_exactly_symmetric():
    rng = np.random.default_rng(1)
    Omega = rng.normal(size=(8, 8))
    E = ErrorMatrix(np.abs(rng.uniform(size=(8, 8))), fit=0.01)
    A = build_affinity(row_sparse(Omega), E).A
    assert np.shares_memory(A, E.data)
    assert np.max(np.abs(A - A.T)) == 0.0
    assert np.all(A >= 0)
    assert np.all(np.diag(A) == 0)


def test_affinity_raw_error_variant():
    E = two_block_error(2)
    affinity = build_affinity(no_weights(4), E, raw_error=True)
    A = affinity.A
    assert A[0, 2] == 1.0   # literal |e| strengthens cross links
    assert A[0, 1] == 0.0
    assert affinity.sigma_e is None


@pytest.mark.parametrize("sigma_e", [0.0, -1.0])
def test_affinity_rejects_nonpositive_sigma_e(sigma_e):
    for raw_error in (False, True):
        with pytest.raises(ValueError, match="sigma_e must be > 0"):
            build_affinity(no_weights(4), two_block_error(2),
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
    labels = kmeans(emb.U, 2)
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
    labels = kmeans(emb.U, 3)
    truth = Labeling(np.repeat([0, 1, 2], 10), 3)
    assert misclassification(labels, truth).misclassification == 0.0


def test_kmeans_single_cluster():
    rng = np.random.default_rng(5)
    labels = kmeans(rng.normal(size=(7, 3)), 1)
    assert np.all(labels.labels == 0)


def test_kmeans_two_separated_groups():
    rng = np.random.default_rng(6)
    X = np.r_[rng.normal(0, 0.1, size=(10, 2)),
              rng.normal(5, 0.1, size=(12, 2))]
    labels = kmeans(X, 2)
    assert len(set(labels.labels[:10])) == 1
    assert len(set(labels.labels[10:])) == 1
    assert labels.labels[0] != labels.labels[-1]


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 4))
    a = kmeans(X, 3)
    b = kmeans(X, 3)
    assert np.array_equal(a.labels, b.labels)


@st.composite
def coincident_rows(draw):
    """2-12 rows drawn from at most four points, so rows often coincide,
    and a cluster count n <= P."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-5, 5),
                         min_size=dim, max_size=4 * dim))
    points = np.resize(np.array(pool), (len(pool) // dim, dim))
    picks = draw(st.lists(st.integers(0, len(points) - 1), min_size=2,
                          max_size=12))
    X = points[picks]
    return X, draw(st.integers(1, X.shape[0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coincident_rows())
@example((np.repeat([[0.0], [1.0]], 3, axis=0), 4))
@example((np.zeros((5, 2)), 3))
def test_kmeans_uses_every_label_on_coincident_rows(case):
    """Clusters left empty in one Lloyd step, duplicate pivots included,
    each take a different point, so all n labels are used; ids are
    numbered by first appearance, and no step warns."""
    X, n = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = kmeans(X, n).labels
    _, first = np.unique(labels, return_index=True)
    assert first.size == n
    assert np.all(np.diff(first) > 0)
    assert np.array_equal(kmeans(X, n).labels, labels)


def greedy_pivots(X, n):
    """Row 0, then at each step the row of largest least-squares residual
    against the rows already chosen."""
    pivots = [0]
    while len(pivots) < n:
        B = X[pivots].T
        fit = B @ np.linalg.lstsq(B, X.T, rcond=None)[0]
        pivots.append(int(np.argmax(np.sum((X.T - fit) ** 2, axis=0))))
    return pivots


@pytest.mark.parametrize("seed", range(20))
def test_pivot_rows_match_least_squares_greedy(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    X = rng.normal(size=(int(rng.integers(dim, 80)), dim))
    n = int(rng.integers(1, dim + 1))
    assert _pivot_rows(X, n) == greedy_pivots(X, n)


def every_step_lloyd(X, centers, n):
    """Lloyd's loop that stops only when two consecutive label vectors
    agree, else after _LLOYD_MAX_ITER steps; returns the labels and the
    steps run."""
    labels = None
    for step in range(1, _LLOYD_MAX_ITER + 1):
        sq = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(sq, axis=1)
        counts = np.bincount(new_labels, minlength=n)
        if not counts.all():
            dist = np.min(sq, axis=1)
            for k in np.flatnonzero(counts == 0):
                far = int(np.argmax(np.where(counts[new_labels] > 1, dist,
                                             -np.inf)))
                counts[new_labels[far]] -= 1
                counts[k] = 1
                new_labels[far] = k
        for k in range(n):
            centers[k] = X[new_labels == k].mean(axis=0)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels, step


def assert_lloyd_matches_every_step(X, n):
    centers = X[_pivot_rows(X, n)]
    want, steps = every_step_lloyd(X, centers.copy(), n)
    assert np.array_equal(_lloyd(X, centers, n), want)
    return steps


def test_lloyd_reads_cycling_labels_off_the_cycle():
    """Coincident rows flip between tied centers for every step; the
    labels of the last step are read off the cycle."""
    X = np.full((14, 2), 0.3)
    assert assert_lloyd_matches_every_step(X, 4) == _LLOYD_MAX_ITER


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coincident_rows())
def test_lloyd_matches_every_step_on_coincident_rows(case):
    assert_lloyd_matches_every_step(*case)


@pytest.mark.parametrize("seed", range(40))
def test_lloyd_matches_every_step_on_continuous_rows(seed):
    rng = np.random.default_rng(seed)
    P = int(rng.integers(2, 60))
    X = rng.normal(size=(P, int(rng.integers(1, 5))))
    assert_lloyd_matches_every_step(X, int(rng.integers(1, min(P, 8) + 1)))


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
    empty = build_affinity(no_weights(P), clique_error([], P), sigma_e=1e-3)
    assert not empty.A.any()
    assert empty.n_components == 7

    # two cliques plus the isolated vertices 5 and 6
    aff = build_affinity(no_weights(P),
                         clique_error([[0, 1, 2], [3, 4]], P), sigma_e=1e-3)
    assert aff.n_components == 4
    # isolated vertices carry eigenvalue 1, each clique one zero
    vals = np.linalg.eigvalsh(normalized_laplacian(aff.A))
    assert np.sum(np.abs(vals) < 1e-8) == 2

    complete = build_affinity(no_weights(P), clique_error([range(P)], P),
                              sigma_e=1e-3)
    assert complete.n_components == 1


def test_connectivity_shortcut_agrees_with_sparse_count(monkeypatch):
    """The count equals scipy's csgraph count on random graphs, from one
    component to all vertices isolated, with frontiers spanning several
    row blocks; a graph with a vertex linked to all others skips it."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(7)
    for P in (1, 2, 9, 150, 700):
        for density in (0.0, 0.5 / P, 1.5 / P, 4.0 / P, 0.2):
            upper = np.triu(rng.uniform(size=(P, P)) < density, 1)
            A = np.where(upper | upper.T, rng.uniform(0.1, 1.0, (P, P)), 0.0)
            want, _ = connected_components(csr_array(A > 0), directed=False)
            assert clustering._count_components(A) == want, (P, density)

    calls = []
    count = clustering._count_components
    monkeypatch.setattr(clustering, "_count_components",
                        lambda A: calls.append(1) or count(A))
    P = 6
    # vertex 0 links to all others: connected without a count
    star = [[0, v] for v in range(1, P)]
    aff = build_affinity(no_weights(P), clique_error(star, P), sigma_e=1e-3)
    assert aff.n_components == 1 and not calls
    # a path is connected but has no such vertex: the count runs
    path = [[v, v + 1] for v in range(P - 1)]
    aff = build_affinity(no_weights(P), clique_error(path, P), sigma_e=1e-3)
    assert aff.n_components == 1 and len(calls) == 1


def test_affinity_and_laplacian_match_whole_matrix_forms():
    """The tiled symmetrization and the row-block scaling give the bits
    of the whole-matrix expressions across tile and block boundaries."""
    P = 600
    rng = np.random.default_rng(6)
    Omega = np.where(rng.uniform(size=(P, P)) < 0.03,
                     rng.uniform(-0.2, 1.0, size=(P, P)), 0.0)
    E = rng.exponential(size=(P, P))
    B = np.exp(E / -0.5) + np.abs(Omega)
    want = 0.5 * (B + B.T)
    np.fill_diagonal(want, 0.0)
    A = build_affinity(row_sparse(Omega), ErrorMatrix(E), sigma_e=0.5).A
    assert np.array_equal(A, want)

    isolated = [0, 350]                 # in the first and a middle block
    A[isolated] = A[:, isolated] = 0.0
    d = A.sum(axis=1)
    inv_sqrt = np.divide(1.0, np.sqrt(d), out=np.zeros(P), where=d > 0)
    want = A * np.multiply.outer(-inv_sqrt, inv_sqrt)
    np.fill_diagonal(want, 1.0)
    L = normalized_laplacian(A)
    assert np.array_equal(L, want)
    assert np.array_equal(L, L.T)
    assert np.array_equal(L[isolated], np.eye(P)[isolated])


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
    labels = kmeans(emb.U, n)
    dense = kmeans(unit_rows(np.linalg.eigh(L)[1][:, :n]), n)
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


def bridged_cliques(size, weight):
    """Two cliques joined by one edge of the given weight."""
    A, _ = clique_graph((size, size))
    A[size - 1, size] = A[size, size - 1] = weight
    return A


@pytest.mark.parametrize("n", [1, 2])
def test_embed_separates_eigenvalues_a_weak_bridge_puts_1e6_apart(n):
    L = normalized_laplacian(bridged_cliques(30, 4.35e-4))
    vals = np.linalg.eigvalsh(L)
    assert 5e-7 < vals[1] - vals[0] < 2e-6
    emb = spectral_embed(L, n)
    assert np.max(np.abs(emb.eigenvalues - vals[:n])) < 1e-10
    assert abs(emb.next_eigenvalue - vals[n]) < 1e-10
    assert emb.residual <= 1e-10
    if n == 2:
        truth = Labeling(np.repeat([0, 1], 30), 2)
        labels = kmeans(emb.U, 2)
        assert misclassification(labels, truth).misclassification == 0.0


@pytest.mark.parametrize("n", [1, 3, 6])
def test_embed_zero_eigenvalue_of_multiplicity_n_plus_1(n):
    """n + 1 disjoint cliques: the block of n + 1 vectors holds the whole
    null space, so the next eigenvalue is zero too."""
    L = normalized_laplacian(clique_graph((12,) * (n + 1))[0])
    vals = np.linalg.eigvalsh(L)
    emb = spectral_embed(L, n)
    assert np.max(np.abs(emb.eigenvalues)) < 1e-10
    assert abs(emb.next_eigenvalue) < 1e-10
    assert abs(emb.next_eigenvalue - vals[n]) < 1e-10
    assert emb.residual <= 1e-10


def circulant_graph(P, seed, bump=0.0):
    """Random weights that depend only on the cyclic distance |i - j|:
    for odd P every eigenvalue but the constant mode's zero is double.
    ``bump`` is added to the edge (0, 1) and splits each pair."""
    w = np.random.default_rng(seed).uniform(size=P // 2 + 1)
    k = np.abs(np.subtract.outer(np.arange(P), np.arange(P)))
    A = w[np.minimum(k, P - k)]
    np.fill_diagonal(A, 0.0)
    A[0, 1] += bump
    A[1, 0] += bump
    return A


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("bump, split", [(0.0, (0.0, 1e-14)),
                                         (3e-6, (5e-10, 2e-9))],
                         ids=["equal", "1e-9-apart"])
def test_embed_next_eigenvalue_when_the_gap_bound_cannot_certify(
        n, bump, split):
    """lambda_{n+1} and lambda_{n+2} are equal or about 1e-9 apart, so
    delta is about 0 or 1e-9 and the bound r^2 / delta certifies the
    (n+1)-th eigenvalue no earlier than r itself nears 1e-10: that
    eigenvalue still matches the dense solve."""
    L = normalized_laplacian(circulant_graph(151, 0, bump))
    vals = np.linalg.eigvalsh(L)
    assert split[0] <= vals[n + 1] - vals[n] < split[1]
    emb = spectral_embed(L, n)
    assert np.max(np.abs(emb.eigenvalues - vals[:n])) < 1e-10
    assert abs(emb.next_eigenvalue - vals[n]) < 1e-10
    assert emb.residual <= 1e-10
    assert emb.next_eigenvalue_bound <= 1e-10


def test_embed_with_one_spare_point_ends_at_the_full_basis():
    """P = n + 2: the second pass completes the basis, where the
    Rayleigh-Ritz step is exact, before any convergence check."""
    P = 9
    L = normalized_laplacian(random_graph(P, 6))
    vals = np.linalg.eigvalsh(L)
    emb = spectral_embed(L, P - 2)
    assert emb.passes == 2
    assert np.max(np.abs(emb.eigenvalues - vals[:P - 2])) < 1e-10
    assert abs(emb.next_eigenvalue - vals[P - 2]) < 1e-10
    assert emb.residual <= 1e-10


def test_embed_identity():
    """L = I: every block collapses onto the basis and is replaced by
    random directions; any orthonormal vectors are eigenvectors."""
    emb = spectral_embed(np.eye(40), 3)
    assert np.max(np.abs(emb.eigenvalues - 1.0)) < 1e-12
    assert abs(emb.next_eigenvalue - 1.0) < 1e-12
    assert emb.residual <= 1e-10
    assert np.allclose(np.linalg.norm(emb.U, axis=1), 1.0)


def fixed_schedule(passes, checks):
    """Checks at pass 3, then at p + max(2, p // 2), whatever the residuals."""
    due = 3
    while due <= passes:
        due += max(2, due // 2)
    return due


def every_pass(passes, checks):
    return passes + 1


def krylov_with_checks(monkeypatch, L, b, placement):
    with monkeypatch.context() as patch:
        patch.setattr(clustering, "_next_check", placement)
        return clustering._block_krylov(L, b)


def hopkins_laplacian(monkeypatch):
    """The Laplacian and block size of a two-motion, 120-point scene of
    Hopkins size whose checks on the fixed schedule end at pass 15."""
    W, _ = make_scene(SceneConfig(
        n_motions=2, points_per_motion=(56, 64), frames=30,
        rotation_rate=(0.12883192254392675, 0.28972988942744876),
        translation_rate=(1.1118314520104855, 1.2233264489725757),
        noise_sigma=0.5, seed=586626706))
    calls = []
    solve = clustering._block_krylov
    with monkeypatch.context() as patch:
        patch.setattr(clustering, "_block_krylov",
                      lambda L, b: calls.append((L, b)) or solve(L, b))
        segment(W, SegmentConfig(n=2))
    return calls[0]


@pytest.mark.parametrize("case", [(12, 1, 0), (40, 3, 1), (150, 2, 2),
                                  (300, 6, 3), "hopkins"],
                         ids=["P12-n1", "P40-n3", "P150-n2", "P300-n6",
                              "hopkins"])
def test_krylov_checks_stop_between_every_pass_and_the_fixed_schedule(
        monkeypatch, case):
    """The checks the residual rate places stop no later than the fixed
    schedule and no earlier than checks at every pass do."""
    if case == "hopkins":
        L, b = hopkins_laplacian(monkeypatch)
    else:
        P, n, seed = case
        L, b = normalized_laplacian(random_graph(P, seed)), n + 1
    first = krylov_with_checks(monkeypatch, L, b, every_pass)
    fixed = krylov_with_checks(monkeypatch, L, b, fixed_schedule)
    placed = clustering._block_krylov(L, b)
    assert first[2] <= placed[2] <= fixed[2]
    assert placed[3] <= 1e-10
    assert np.max(np.abs(placed[0] - first[0])) < 1e-10
    if case == "hopkins":
        assert fixed[2] == 15 and placed[2] < 15


@st.composite
def weighted_graphs(draw):
    """Symmetric nonnegative weights on P <= 60 vertices, sparse enough
    at times to split the graph, and a cluster count n <= P."""
    P = draw(st.integers(2, 60))
    density = draw(st.sampled_from([0.05, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.uniform(size=(P, P)) * (rng.uniform(size=(P, P)) < density)
    A = A + A.T
    np.fill_diagonal(A, 0.0)
    return A, draw(st.integers(1, P))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(weighted_graphs())
def test_embed_eigenvalues_match_dense_solve(case):
    A, n = case
    L = normalized_laplacian(A)
    vals = np.linalg.eigvalsh(L)
    emb = spectral_embed(L, n)
    assert np.max(np.abs(emb.eigenvalues - vals[:n])) <= 1e-10
    if n < len(A):
        assert abs(emb.next_eigenvalue - vals[n]) <= 1e-10
    assert emb.residual <= 1e-10


def test_segment_noiseless_two_motions_exact():
    cfg = SceneConfig(n_motions=2, points_per_motion=(60, 60), frames=30,
                      rotation_rate=(0.15, 0.22),
                      translation_rate=(1.0, 1.6), seed=1)
    W, truth = make_scene(cfg)
    labeling, report = segment(W, SegmentConfig(n=2))
    assert misclassification(labeling, truth).misclassification == 0.0
    assert set(report["stages"]) == {"projection", "sparse_neighbors",
                                     "error_matrix", "clustering"}
    assert len(report["eigenvalues"]) == 2
    assert report["labels"] == labeling.labels.tolist()
    assert report["sigma_e"] > 0
    assert report["spectral_gap"] > 0
    assert report["solver"] == {"rows": W.points, "exact": True}
    assert report["local_subspaces"] == {"members": 6, "dim": 4}


def test_noiseless_labels_and_sigma_e_ignore_rounding(monkeypatch):
    """On criterion 5's 20 noiseless scenes, noise of 1e-15 added to G
    leaves the labels and sigma_e unchanged: the member fit is at
    rounding level there, and the 1e-12 floor sets sigma_e."""
    assemble = projection.assemble_global
    rng = np.random.default_rng(0)

    def perturbed(W, loadings):
        G = assemble(W, loadings)
        G.data += 1e-15 * rng.standard_normal(G.data.shape)
        return G

    for seed in range(20):
        W, _ = make_scene(SceneConfig(**TWO_MOTION, seed=seed))
        config = SegmentConfig(n=2)
        with monkeypatch.context() as patch:
            patch.setattr(projection, "assemble_global", perturbed)
            moved = segment(W, config)[1]
        report = segment(W, config)[1]
        assert moved["labels"] == report["labels"], seed
        assert moved["sigma_e"] == report["sigma_e"], seed


REPORT_KEYS = {"schema", "stages", "n", "projector", "solver",
               "local_subspaces", "connected_components", "sigma_e",
               "eigenvalues", "spectral_gap", "spectral", "labels"}
SOLVER_KEYS = {"rows", "exact"}


@pytest.mark.parametrize("projector, extra", [("spca", {"spca"}),
                                              ("pca", set())])
def test_report_schema_pins_every_key(projector, extra):
    W, _ = make_scene(SceneConfig(n_motions=2, points_per_motion=20,
                                  frames=10, seed=4))
    _, report = segment(W, SegmentConfig(n=2, projector=projector))
    assert report["schema"] == 4
    assert set(report) == REPORT_KEYS | extra
    assert set(report["solver"]) == SOLVER_KEYS
    assert set(report["spectral"]) == {"passes", "residual",
                                       "next_eigenvalue_bound"}
    assert report["spectral"]["passes"] >= 1
    assert report["spectral"]["residual"] <= 1e-10
    assert report["spectral"]["next_eigenvalue_bound"] <= 1e-10
    assert set(report["local_subspaces"]) == {"members", "dim"}
    if extra:
        assert set(report["spca"]) == {"iterations", "converged",
                                       "active_fraction"}


def test_segment_peak_memory_at_most_one_and_a_half_dense_arrays():
    """One P x P buffer serves the dense tail: the NSI distances are freed
    before the solve, C and Omega are sparse, the affinity replaces E in
    its buffer (sigma_e from E's member fit, exp by row blocks,
    symmetrized in place) and the Laplacian replaces A, so at most 1.5
    P x P float arrays are allocated at once."""
    P = 900
    W, _ = make_scene(SceneConfig(n_motions=3, points_per_motion=P // 3,
                                  seed=1))
    tracemalloc.start()
    try:
        segment(W, SegmentConfig(n=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * P * P * 8


def test_build_affinity_allocates_no_dense_array():
    """The floored exp, the sum and the symmetrization take only block-
    and tile-sized scratch: far less than one P x P array.  The fit puts
    most exponents below the floor."""
    P = 1000
    E = np.random.default_rng(3).uniform(size=(P, P))
    Omega = row_sparse(np.eye(P, k=1))
    tracemalloc.start()
    try:
        build_affinity(Omega, ErrorMatrix(E, fit=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * P * P * 8


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_sigma_e_is_scaled_median_member_residual(noise):
    """The automatic sigma_e is SIGMA_E_SCALE times the median of
    E[i, j] over every point i and each member j != i of its local
    subspace, floored at 1e-12: noiseless members fit to rounding, so
    there the floor sets sigma_e."""
    W, _ = make_scene(SceneConfig(n_motions=2, points_per_motion=(60, 60),
                                  frames=30, noise_sigma=noise, seed=3))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G)
    Omega = weight_matrix(sol.C, sol.X).Omega
    E, subspaces = build_error_matrix(G, Omega)
    own = np.concatenate([E.data[s.members[0], s.members[1:]]
                          for s in subspaces])
    assert own.size == len(subspaces) * 5
    want = SIGMA_E_SCALE * max(float(np.median(own)), 1e-12)
    assert (np.median(own) < 1e-12) == (noise == 0.0)
    assert build_affinity(Omega, E).sigma_e == want


def test_automatic_sigma_e_needs_a_member_fit():
    with pytest.raises(ValueError, match="no member fit"):
        build_affinity(no_weights(4), two_block_error(2))


def test_exp_is_floored_to_exact_zero():
    """A is exp(-e / sigma_e) wherever that is at least exp(_EXP_FLOOR)
    and exactly 0 below it, with no warning, over exponents spanning
    [-800, 0] across several row blocks."""
    P = 700
    x = -np.random.default_rng(5).uniform(0.0, 800.0, size=(P, P))
    x = np.minimum(x, x.T)          # symmetric, so A is B itself
    x[0, 1:4] = x[1:4, 0] = [_EXP_FLOOR, np.nextafter(_EXP_FLOOR, 0), -745.5]
    np.fill_diagonal(x, 0.0)
    sigma_e = 0.5
    E = ErrorMatrix(x * -sigma_e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = build_affinity(no_weights(P), E, sigma_e=sigma_e).A
    kept = x >= _EXP_FLOOR
    np.fill_diagonal(kept, False)
    assert np.array_equal(A[kept], np.exp(x[kept]))
    assert not A[~kept].any()
    assert A[0, 1] == np.exp(_EXP_FLOOR) and A[0, 3] == 0.0


def test_weight_stages_refuse_dense_and_csr_weights():
    """The weights, the error stage and the affinity take C and Omega only
    as a RowSparse: a dense or CSR matrix, which could store other entries
    than the solver's, is refused, naming the expected type."""
    from scipy.sparse import csr_array

    W, _ = make_scene(SceneConfig(n_motions=3, points_per_motion=100,
                                  seed=2))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G)
    Omega = weight_matrix(sol.C, sol.X).Omega
    E = build_error_matrix(G, Omega)[0]
    for form in (np.asarray, csr_array):
        with pytest.raises(TypeError, match="C must be a RowSparse"):
            weight_matrix(form(sol.C.toarray()), sol.X)
        with pytest.raises(TypeError, match="Omega must be a RowSparse"):
            build_error_matrix(G, form(Omega.toarray()))
        with pytest.raises(TypeError, match="Omega must be a RowSparse"):
            build_affinity(form(Omega.toarray()), E)


def test_segment_label_permutation_metamorphic():
    cfg = SceneConfig(n_motions=2, points_per_motion=(40, 40), frames=30,
                      rotation_rate=(0.15, 0.22),
                      translation_rate=(1.0, 1.6), seed=2)
    W, truth = make_scene(cfg)
    rng = np.random.default_rng(0)
    perm = rng.permutation(W.points)
    W_perm = subseg.TrajectoryMatrix(W.data[:, perm], W.mask[:, perm])
    lab_a, _ = segment(W, SegmentConfig(n=2))
    lab_b, _ = segment(W_perm, SegmentConfig(n=2))
    permuted = Labeling(lab_a.labels[perm], 2)
    assert misclassification(lab_b, permuted).misclassification == 0.0


def test_segment_config_validation():
    with pytest.raises(ValueError):
        SegmentConfig(n=0)
    with pytest.raises(ValueError):
        SegmentConfig(n=2, projector="nope")
    with pytest.raises(ValueError, match="m must be an integer >= 1"):
        SegmentConfig(n=2, m=0)


@pytest.mark.parametrize("field,value", [
    ("n", 2.5), ("n", True), ("m", 2.5), ("m", True),
    ("neighbors", 2.5), ("neighbors", 0), ("neighbors", -3),
    ("neighbors", True), ("neighbors", "20"),
    ("restarts", -1), ("restarts", 0), ("restarts", 2.0),
    ("restarts", False),
    ("rank_tol", np.nan), ("rank_tol", -1.0), ("rank_tol", 1.0),
    ("rank_tol", np.inf), ("rank_tol", -np.inf),
    ("sigma", 0.0), ("sigma", -1.0), ("sigma", np.nan), ("sigma", np.inf),
    ("sigma_e", 0.0), ("sigma_e", -1.0), ("sigma_e", np.nan),
    ("sigma_e", np.inf),
    ("lam", -1.0), ("lam", np.nan), ("lam", np.inf),
    ("seed", -1), ("seed", 2.5), ("seed", True)])
def test_segment_config_rejects_bad_counts_and_rank_tol(field, value):
    # the messages name "lambda" for lam, which the pattern "lam" matches;
    # restarts, seed and rank_tol are class constants: no value is accepted
    error = TypeError if field in ("restarts", "seed", "rank_tol") else ValueError
    with pytest.raises(error, match=field):
        SegmentConfig(**{"n": 2, field: value})


def test_segment_config_accepts_boundary_counts_and_rank_tol():
    config = SegmentConfig(n=np.int64(2), m=np.int64(1),
                           neighbors=np.int64(1), lam=0.0, sigma=1e-300,
                           sigma_e=1e-300)
    assert (config.neighbors, config.lam) == (1, 0.0)
    # build_error_matrix takes and ignores the rank_tol the benchmark
    # replay passes
    X = np.random.default_rng(8).normal(size=(6, 2))
    G = pca_project(subseg.TrajectoryMatrix.from_dense(X.T), 2)
    E = build_error_matrix(G, no_weights(6))[0].data
    for rank_tol in (0.0, np.nextafter(1.0, 0.0)):
        assert np.array_equal(build_error_matrix(G, no_weights(6),
                                                 rank_tol)[0].data, E)


def test_segment_config_fields_are_the_eight_settings():
    assert {f.name for f in dataclasses.fields(SegmentConfig)} == {
        "n", "projector", "m", "gamma", "neighbors", "lam", "sigma",
        "sigma_e"}
    for name in ("mu", "rank_tol", "restarts", "seed", "admm", "raw_error"):
        with pytest.raises(TypeError, match=name):
            SegmentConfig(n=2, **{name: getattr(SegmentConfig, name)})
    with pytest.raises(TypeError, match="seed"):
        SegmentConfig(n=2, seed=0)


def test_segment_config_constants_are_the_function_defaults():
    def default(function, name):
        return inspect.signature(function).parameters[name].default

    assert SegmentConfig.restarts is default(kmeans, "restarts")
    assert SegmentConfig.seed is default(kmeans, "seed")
    assert SegmentConfig.rank_tol == default(build_error_matrix, "rank_tol")
    assert SegmentConfig.raw_error == default(build_affinity, "raw_error")
    assert SegmentConfig.mu is default(SpcaParams, "mu")
    assert SegmentConfig.admm is default(solve_all_neighbors, "admm")


@pytest.mark.parametrize("n,restarts", [(0, 10), (-1, 10), (2, 0), (2, -3),
                                        (2, 2.5), (2, True)])
def test_kmeans_rejects_bad_counts(n, restarts):
    """kmeans checks n; restarts, the replay's argument, is ignored, so
    any value of it gives the labels of kmeans(X, n)."""
    X = np.random.default_rng(8).normal(size=(6, 2))
    if n < 1:
        with pytest.raises(ValueError, match="n must"):
            kmeans(X, n, restarts)
    else:
        assert np.array_equal(kmeans(X, n, restarts, -1).labels,
                              kmeans(X, n).labels)


@pytest.mark.parametrize("settings, local", [
    ({"neighbors": 1}, {"members": 2, "dim": 1}),
    ({"m": 3}, {"members": 6, "dim": 2})])
def test_segment_runs_with_few_members_or_a_small_projection(settings, local):
    # one candidate per row: every solve is a single forced coefficient and
    # every local subspace a line; m = 3 caps the local dimension at m - 1
    W, truth = make_scene(SceneConfig(n_motions=2, points_per_motion=(30, 30),
                                      seed=6))
    labeling, report = segment(W, SegmentConfig(n=2, **settings))
    assert labeling.labels.shape == (60,)
    assert report["local_subspaces"] == local
    assert np.isfinite(report["sigma_e"]) and report["sigma_e"] > 0


def test_segment_rejects_more_motions_than_points():
    W = subseg.TrajectoryMatrix.from_dense(np.ones((6, 4)))
    with pytest.raises(ValueError, match="exceeds"):
        segment(W, SegmentConfig(n=5))


def test_segment_rejects_one_trajectory():
    W = subseg.TrajectoryMatrix.from_dense(np.arange(1.0, 7.0)[:, None])
    with pytest.raises(ValueError, match="need at least 2 trajectories"):
        segment(W, SegmentConfig(n=1, m=1))
