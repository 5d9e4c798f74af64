import numpy as np
import pytest

from subseg import neighbors as nb
from subseg.clustering import SegmentConfig, segment
from subseg.neighbors import (neighbor_objective, nsi, nsi_dissimilarity_rows,
                              proximity_weights, search_area,
                              solve_all_neighbors, solve_sparse_neighbors,
                              weight_matrix)
from subseg.projection import GlobalSubspace, pca_project
from subseg.synthcam import SceneConfig, make_scene


def simplex_grid_minimum(x, q, lam, step=1e-2):
    """Independent oracle: grid descent over the probability simplex.

    The objective is convex and its minimizer is nonnegative (dropping a
    negative entry and shrinking the rest lowers both terms), so moving
    mass between coordinate pairs on a shrinking grid converges to the
    global minimum.  Starts from the 1e-2 grid, refines locally.
    """
    k = x.size
    c = np.full(k, 1.0 / k)
    best = neighbor_objective(c, x, q, lam)
    delta = step
    while delta > 1e-7:
        improved = True
        while improved:
            improved = False
            for b in range(k):
                if c[b] < delta:
                    continue
                for a in range(k):
                    if a == b:
                        continue
                    trial = c.copy()
                    trial[b] -= delta
                    trial[a] += delta
                    value = neighbor_objective(trial, x, q, lam)
                    if value < best - 1e-15:
                        c, best = trial, value
                        improved = True
        delta /= 2.0
    return c, best


def unit_subspace(M):
    return GlobalSubspace(M / np.linalg.norm(M, axis=0), M.shape[0])


def test_nsi_identical():
    v = np.array([0.6, 0.8])
    assert nsi(v, v) == pytest.approx(1.0, abs=1e-12)


def test_nsi_orthogonal():
    assert nsi([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)


def test_nsi_45_degrees():
    r = np.sqrt(2) / 2
    assert nsi([1.0, 0.0], [r, r]) == pytest.approx(0.5, abs=1e-12)


def test_nsi_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert nsi(a, b) == pytest.approx(nsi(b, a), abs=1e-12)
        assert -1e-12 <= nsi(a, b) <= 1.0 + 1e-12


def test_dissimilarity_matches_pairwise_nsi():
    rng = np.random.default_rng(1)
    G = unit_subspace(rng.normal(size=(5, 12)))
    sim, X = nsi_dissimilarity_rows(G)
    for i in range(12):
        for j in range(12):
            value = nsi(G.data[:, i], G.data[:, j])
            assert X[i, j] == pytest.approx(1.0 - value, abs=1e-9)
            assert sim[i, j] == pytest.approx(value, abs=1e-9)
    assert np.max(np.abs(sim - sim.T)) < 1e-12
    assert np.allclose(np.diag(sim), 1.0, atol=1e-12)


def test_search_area_all_when_unconstrained():
    x = np.array([0.5, 0.0, 0.3, 0.2])
    got = search_area(x, 1, 10)
    assert sorted(got.tolist()) == [0, 2, 3]


def test_search_area_default_size():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=60)
    assert search_area(x, 7, 20).size == 20


def test_search_area_tie_break_lower_index():
    x = np.array([0.9, 0.1, 0.1, 0.1, 0.1, 0.0])
    got = search_area(x, 5, 2)
    assert got.tolist() == [1, 2]
    # stacked rows: ties at distance 0, and points 1 and 3 duplicate each
    # other, so each sits at distance 0 from itself and from the other;
    # every row equals the single-row call
    X = np.array([[0.0, 0.5, 0.0, 0.5, 0.2],
                  [0.5, 0.0, 0.3, 0.0, 0.3],
                  [0.0, 0.3, 0.0, 0.3, 0.0],
                  [0.5, 0.0, 0.3, 0.0, 0.3],
                  [0.2, 0.3, 0.0, 0.3, 0.0]])
    for size in (1, 2, 3, 4, 10):
        got = search_area(X, np.arange(5), size)
        assert got.shape == (5, min(size, 4))
        for i in range(5):
            assert got[i].tolist() == search_area(X[i], i, size).tolist()
    assert search_area(X, np.arange(5), 2).tolist() == \
        [[2, 4], [3, 2], [0, 4], [1, 2], [2, 0]]
    # the point itself sorts after the search area
    assert search_area(np.array([0.3, 0.1, 0.2, 0.0]), 0, 2).tolist() == [3, 1]


def test_single_candidate_forced():
    c, stats = solve_sparse_neighbors(np.array([0.4]))
    assert c.tolist() == [1.0]
    assert stats.converged


def test_two_candidates_large_lambda_picks_closest():
    x = np.array([0.0, 0.5])
    c, _ = solve_sparse_neighbors(x, sigma=0.25, lam=5.0)
    assert abs(c.sum() - 1.0) < 1e-8
    q = proximity_weights(x, 0.25)
    returned = neighbor_objective(c, x, q, 5.0)
    # no grid point on the 1-simplex does better
    for t in np.arange(0.0, 1.0 + 1e-12, 1e-3):
        grid = np.array([t, 1.0 - t])
        assert returned <= neighbor_objective(grid, x, q, 5.0) + 1e-12
    assert c[0] == pytest.approx(1.0, abs=1e-6)


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, size=10)
        sigma = float(np.mean(x))
        lam = 0.1
        c, stats = solve_sparse_neighbors(x, sigma=sigma, lam=lam)
        assert abs(c.sum() - 1.0) < 1e-8
        q = proximity_weights(x, sigma)
        _, oracle = simplex_grid_minimum(x, q, lam)
        assert neighbor_objective(c, x, q, lam) <= oracle + 1e-4


def test_solver_deterministic():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=15)
    c1, _ = solve_sparse_neighbors(x)
    c2, _ = solve_sparse_neighbors(x)
    assert np.array_equal(c1, c2)


def test_batch_matches_per_row():
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(25, 25)))
    G = pca_project(W, 5)
    batch = solve_all_neighbors(G, size=12)
    _, X = nsi_dissimilarity_rows(G)
    for i, cand in enumerate(batch.candidates):
        c, stats = solve_sparse_neighbors(X[i, cand])
        assert np.array_equal(batch.C[i, cand], c)
        assert batch.stats[i].iterations == stats.iterations
    # rows freeze at different iterations, so the check covers freezing
    assert len({s.iterations for s in batch.stats}) > 1


def test_solution_carries_distance_matrix():
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(25, 25)))
    G = pca_project(W, 5)
    assert np.array_equal(solve_all_neighbors(G, size=12).X,
                          nsi_dissimilarity_rows(G)[1])


def test_segment_builds_nsi_matrix_once(monkeypatch):
    calls = []
    original = nb.nsi_dissimilarity_rows

    def counting(subspace):
        calls.append(subspace)
        return original(subspace)

    monkeypatch.setattr(nb, "nsi_dissimilarity_rows", counting)
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(25, 25)))
    segment(W, SegmentConfig(n=2))
    assert len(calls) == 1


def test_solution_contract():
    W, _ = make_scene(SceneConfig(seed=5))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G, size=20)
    P = G.points
    _, X = nsi_dissimilarity_rows(G)
    for i in range(P):
        assert abs(sol.C[i].sum() - 1.0) < 1e-8
        assert sol.C[i, i] == 0.0
        support = set(np.flatnonzero(sol.C[i]).tolist())
        assert support <= set(sol.candidates[i].tolist())
        assert sol.candidates[i].tolist() == search_area(X[i], i, 20).tolist()


def test_weight_matrix_one_hot():
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    X = np.full((3, 3), 0.5)
    Om = weight_matrix(C, X).Omega
    assert Om[0].tolist() == [0.0, 1.0, 0.0]
    assert np.all(np.diag(Om) == 0)


def test_weight_matrix_uniform_pair():
    C = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    X = np.full((3, 3), 0.3)
    Om = weight_matrix(C, X).Omega
    assert np.allclose(Om[0], [0.0, 0.5, 0.5])


def test_weight_matrix_rows_sum_to_one():
    rng = np.random.default_rng(6)
    P = 10
    C = rng.normal(size=(P, P)) * (rng.uniform(size=(P, P)) < 0.3)
    np.fill_diagonal(C, 0.0)
    C = C / np.where(C.sum(axis=1, keepdims=True) == 0, 1.0,
                     C.sum(axis=1, keepdims=True))
    X = np.abs(rng.uniform(0.1, 1.0, size=(P, P)))
    Om = weight_matrix(C, X).Omega
    for i in range(P):
        if np.any(Om[i] != 0):
            assert abs(Om[i].sum() - 1.0) < 1e-8
        assert set(np.flatnonzero(Om[i])) <= set(np.flatnonzero(C[i]))


def test_weight_matrix_zero_distance_clamped():
    C = np.array([[0.0, 0.9, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    X = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    Om = weight_matrix(C, X).Omega
    # the coincident point draws essentially all the weight
    assert Om[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_sparse_neighbors(np.array([]))
    with pytest.raises(ValueError):
        solve_sparse_neighbors(np.array([0.1, 0.2]), lam=-1.0)
    with pytest.raises(ValueError):
        proximity_weights(np.array([0.1]), 0.0)
