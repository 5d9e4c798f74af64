import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseg import neighbors as nb
from subseg.clustering import SegmentConfig, segment
from subseg.neighbors import (RowSparse, neighbor_objective,
                              nsi_dissimilarity_rows, nsi_distances,
                              proximity_weights, search_area,
                              solve_all_neighbors, solve_sparse_neighbors,
                              symmetrize, weight_matrix)
from subseg.projection import GlobalSubspace, pca_project
from subseg.synthcam import SceneConfig, make_scene


def nsi(a, b):
    """Oracle: normalized subspace inclusion between two (multi-)vectors.

    tr(a^T b b^T a) / min(dim a, dim b); for unit column vectors this is
    the squared inner product.  Symmetric, in [0, 1].
    """
    A = np.atleast_2d(np.asarray(a, dtype=float))
    B = np.atleast_2d(np.asarray(b, dtype=float))
    if A.shape[0] == 1:
        A = A.T
    if B.shape[0] == 1:
        B = B.T
    cross = A.T @ B
    return float(np.sum(cross ** 2) / min(A.shape[1], B.shape[1]))


def row_sparse(dense):
    """RowSparse of the off-diagonal nonzeros of a square ``dense``; a
    RowSparse stores no diagonal entry.  Every row stores as many columns
    as the fullest one: a shorter row also stores, at its weight 0 in
    ``dense``, the lowest other columns it lacks."""
    dense = np.asarray(dense, dtype=float)
    P = len(dense)
    off = (dense != 0) & ~np.eye(P, dtype=bool)
    k = int(off.sum(axis=1).max(initial=0))
    cols = np.empty((P, k), dtype=int)
    for i, row in enumerate(off):
        lacking = np.flatnonzero(~row & (np.arange(P) != i))
        cols[i] = np.union1d(np.flatnonzero(row), lacking[:k - row.sum()])
    return RowSparse(cols, np.take_along_axis(dense, cols, axis=1))


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
    return GlobalSubspace(M / np.linalg.norm(M, axis=0))


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
    """The (sim, X) pair the benchmark's layer replay reads: X is
    ``nsi_distances`` and sim = 1 - X, both symmetric."""
    rng = np.random.default_rng(1)
    G = unit_subspace(rng.normal(size=(5, 12)))
    sim, X = nsi_dissimilarity_rows(G)
    assert np.array_equal(X, nsi_distances(G))
    assert np.array_equal(sim, 1.0 - X)
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


def search_area_oracle(x, self_index, size):
    """The first ``size`` indices of a full stable argsort, self left out."""
    order = np.argsort(x, kind="stable")
    return order[order != self_index][:size].tolist()


@st.composite
def tied_distances(draw):
    """Stacked rows of integer-valued distances with many ties (plus an
    occasional -0.0, inf or NaN), and per row the sorted position of the
    point itself, so it falls inside, at and outside the boundary."""
    rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0, -0.0, np.inf, np.nan])
    X = np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n),
                               min_size=rows, max_size=rows)))
    positions = draw(st.lists(st.integers(0, n - 1), min_size=rows,
                              max_size=rows))
    return X, positions


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tied_distances())
def test_search_area_matches_stable_argsort(case):
    X, positions = case
    n = X.shape[1]
    self_index = np.array([np.argsort(x, kind="stable")[p]
                           for x, p in zip(X, positions)])
    for size in range(1, n + 1):
        expected = [search_area_oracle(x, i, size)
                    for x, i in zip(X, self_index)]
        assert search_area(X, self_index, size).tolist() == expected
        for x, i, want in zip(X, self_index, expected):
            assert search_area(x, i, size).tolist() == want


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


def support_enumeration_minimum(x, t):
    """Oracle: the exact minimizer by enumerating every support S.

    On S the minimizer with 1^T c = 1 solves the KKT system
    x_j^2 c_j - nu = -t_j (j in S), sum c_j = 1; a singular system (two
    zero distances) or a negative coefficient rules S out.  The global
    minimizer is nonnegative, so the best feasible S holds it.  Returns
    (c, objective); among equal objectives the first S found is kept.
    """
    k = x.size
    best_c, best = None, np.inf
    for size in range(1, k + 1):
        for S in map(list, itertools.combinations(range(k), size)):
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = np.diag(x[S] ** 2)
            kkt[:size, size] = -1.0
            kkt[size, :size] = 1.0
            try:
                sol = np.linalg.solve(kkt, np.r_[-t[S], 1.0])
            except np.linalg.LinAlgError:
                continue
            if (sol[:size] < 0).any():
                continue
            c = np.zeros(k)
            c[S] = sol[:size]
            value = np.sum(t * c) + 0.5 * np.sum((x * c) ** 2)
            if value < best - 1e-15:
                best_c, best = c, value
    return best_c, best


def test_exact_solve_matches_support_enumeration():
    """Every row is the exact minimizer: against the enumeration of all
    supports, k <= 8, with tied thresholds, zero distances and lam = 0.
    The objective and, where the minimizer is unique (no zero distance),
    the coefficients agree to 1e-12; with zero distances every tied
    minimizer puts all weight on one zero-distance candidate, the lowest
    index."""
    rng = np.random.default_rng(12)
    cases = [(np.array([0.3, 0.3, 0.3, 0.6]), 0.07),      # tied thresholds
             (np.array([0.0, 0.4, 0.0, 0.2]), 0.07),      # two zeros: index 0
             (np.array([0.5, 0.2, 0.0]), 0.0),            # lam = 0, a zero
             (np.array([0.5, 0.2, 0.9, 0.1]), 0.0),       # lam = 0: all kept
             (np.array([0.4]), 0.07)]                     # k = 1
    for _ in range(120):
        k = int(rng.integers(1, 9))
        x = rng.uniform(0.0, 1.0, size=k)
        if rng.uniform() < 0.4:
            x = np.round(x * 4) / 4                       # ties and zeros
        cases.append((x, float(rng.choice([0.0, 0.07, rng.uniform(0.01, 3)]))))
    for x, lam in cases:
        c, stats = solve_sparse_neighbors(x, lam=lam)
        q = proximity_weights(x, x.mean() or 1.0)
        want_c, want = support_enumeration_minimum(x, lam * q)
        assert abs(neighbor_objective(c, x, q, lam) - want) <= 1e-12
        assert abs(c.sum() - 1.0) <= 1e-12 and (c >= 0).all()
        if (x > 0).all():
            assert np.max(np.abs(c - want_c)) <= 1e-12, (x, lam)
        else:
            assert c.tolist() == np.eye(x.size)[np.argmin(x)].tolist()
        assert stats.converged and stats.iterations == 0


def test_solver_deterministic():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=15)
    c1, _ = solve_sparse_neighbors(x)
    c2, _ = solve_sparse_neighbors(x)
    assert np.array_equal(c1, c2)


def test_search_area_of_an_empty_stack():
    """No rows give an empty (0, width) index array, width the count a
    row of that length would keep."""
    for size, width in ((2, 2), (4, 4), (9, 4)):
        got = search_area(np.zeros((0, 5)), np.zeros(0, dtype=int), size)
        assert got.shape == (0, width) and got.dtype == np.intp
    assert search_area(np.zeros((3, 1)), np.zeros(3, dtype=int),
                       2).shape == (3, 0)


@st.composite
def tied_subspaces(draw):
    """Unit columns in R^m, P of them at one block (200) or several (300,
    700), where some columns repeat others, possibly negated, so that
    rows hold tied distances and the ties span block boundaries."""
    P = draw(st.sampled_from([200, 300, 700]))
    m = draw(st.sampled_from([3, 5, 12]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.normal(size=(m, P))
    for _ in range(draw(st.integers(0, 40))):
        source, target = rng.integers(P, size=2)
        G[:, target] = G[:, source] * rng.choice([-1.0, 1.0])
    return unit_subspace(G), draw(st.integers(1, 25))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tied_subspaces())
def test_block_search_matches_stable_argsort_of_nsi_rows(case):
    """Each row's candidates are the first ``size`` entries of a stable
    argsort of its ``nsi_distances`` row, self left out, stored in
    column order, and X holds that row's bits at them."""
    G, size = case
    X = nsi_distances(G)
    sol = solve_all_neighbors(G, size=size)
    want = np.sort([search_area_oracle(x, i, size)
                    for i, x in enumerate(X)], axis=1)
    assert np.array_equal(sol.C.cols, want)
    assert np.array_equal(sol.X, np.take_along_axis(X, want, axis=1))


def test_neighbor_stage_allocates_no_dense_array():
    """The NSI distances live one row block at a time: the stage takes far
    less than one P x P array."""
    P = 1000
    G = unit_subspace(np.random.default_rng(4).normal(size=(5, P)))
    tracemalloc.start()
    try:
        solve_all_neighbors(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * P * P * 8


def test_batch_matches_per_row():
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(25, 25)))
    G = pca_project(W, 5)
    batch = solve_all_neighbors(G, size=12)
    X = nsi_distances(G)
    coeffs = batch.C.values
    for i, cand in enumerate(batch.C.cols):
        c, stats = solve_sparse_neighbors(X[i, cand])
        assert np.array_equal(coeffs[i], c)
        assert batch.stats[i].tolist() == stats.tolist()
    # supports of several sizes, so rows take different breakpoints
    assert len(set(np.count_nonzero(coeffs, axis=1).tolist())) > 1


def test_stats_are_one_record_array():
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(20, 20)))
    G = pca_project(W, 5)
    batch = solve_all_neighbors(G, size=10).stats
    single = solve_all_neighbors(G, size=1).stats  # one candidate per row
    # the fields the benchmark replay reads, each constant for an exact solve
    for stats in (batch, single):
        assert isinstance(stats, np.recarray) and len(stats) == 40
        assert stats.dtype.names == ("iterations", "converged", "stalled")
        assert (stats.iterations == 0).all() and stats.converged.all()
        assert not stats.stalled.any()


def test_row_result_independent_of_batch_and_block():
    """A row solved inside a batch of hundreds of rows gives the same bits
    as the row solved alone, coefficients and stats, at every position:
    the solve runs on the whole batch at once, with no blocks, and acts
    on each row alone."""
    for points_per_motion, size in [((301, 300), 20), ((257, 256), 20),
                                    ((750, 750), 7)]:
        W, _ = make_scene(SceneConfig(points_per_motion=points_per_motion,
                                      seed=3))
        G = pca_project(W, 5)
        sol = solve_all_neighbors(G, size=size)
        coeffs = sol.C.values
        for i in range(G.points):
            c, stats = solve_sparse_neighbors(sol.X[i])
            assert np.array_equal(coeffs[i], c), (G.points, size, i)
            assert sol.stats[i].tolist() == stats.tolist()


@pytest.mark.parametrize("P", [1, 255, 256, 257, 600])
def test_symmetrize_matches_whole_matrix_expression(P):
    """In place, for either layout, the bits of 0.5 * (M + M.T)."""
    M = np.random.default_rng(P).normal(size=(P, P))
    # an overflowing and a subnormal pair pin the order: add, then halve
    M[0, -1] = M[-1, 0] = 1.5e308
    M[P // 2, 0] = M[0, P // 2] = 5e-324
    with np.errstate(over="ignore"):
        want = 0.5 * (M + M.T)
        for source in (M, np.asfortranarray(M)):
            got = source.copy(order="K")
            assert symmetrize(got) is got
            assert got.flags.f_contiguous == source.flags.f_contiguous
            assert np.array_equal(got, want)
            assert np.array_equal(got, got.T)


def test_nsi_rows_same_bits_for_any_layout():
    M = np.random.default_rng(2).normal(size=(6, 300))
    G = M / np.linalg.norm(M, axis=0)
    wide = np.zeros((6, 600))
    wide[:, ::2] = G
    want = nsi_distances(GlobalSubspace(G))
    assert np.array_equal(want, want.T)
    for data in (np.asfortranarray(G), wide[:, ::2]):
        assert np.array_equal(nsi_distances(GlobalSubspace(data)), want)


def test_solution_carries_candidate_distances():
    """C stores every row's k candidates in ascending column order, and
    X is aligned with C's stored entries."""
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(25, 25)))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G, size=12)
    P = G.points
    assert isinstance(sol.C, RowSparse) and sol.C.shape == (P, P)
    assert sol.C.cols.shape == sol.C.values.shape == sol.X.shape == (P, 12)
    assert np.all(np.diff(sol.C.cols, axis=1) > 0)
    assert np.array_equal(sol.X, np.take_along_axis(
        nsi_distances(G), sol.C.cols, axis=1))


def test_segment_never_calls_nsi_distances(monkeypatch):
    """``segment`` forms the NSI distances block by block inside the
    neighbor stage and never the whole matrix."""
    calls = []
    monkeypatch.setattr(nb, "nsi_distances", calls.append)
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(25, 25)))
    segment(W, SegmentConfig(n=2))
    assert not calls


def test_solution_contract():
    W, _ = make_scene(SceneConfig(seed=5))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G, size=20)
    P = G.points
    X = nsi_distances(G)
    C = sol.C.toarray()
    for i in range(P):
        assert abs(C[i].sum() - 1.0) < 1e-8
        assert C[i, i] == 0.0
        support = set(np.flatnonzero(C[i]).tolist())
        assert support <= set(sol.C.cols[i].tolist())
        assert sol.C.cols[i].tolist() == sorted(search_area(X[i], i, 20))


def test_row_sparse_rejects_other_column_layouts():
    """A row stores distinct off-diagonal columns in ascending order; k = 0
    is a valid layout."""
    values = np.ones((3, 2))
    RowSparse(np.array([[1, 2], [0, 2], [0, 1]]), values)
    RowSparse(np.empty((3, 0), dtype=int), np.empty((3, 0)))
    for cols in ([[0, 2], [0, 2], [0, 1]],      # diagonal entry
                 [[1, 2], [2, 2], [0, 1]],      # repeated column
                 [[2, 1], [0, 2], [0, 1]]):     # descending columns
        with pytest.raises(ValueError, match="ascending order"):
            RowSparse(np.array(cols), values)


def test_weight_matrix_one_hot():
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    X = np.full((3, 3), 0.5)
    Om = weight_matrix(row_sparse(C), X).Omega.toarray()
    assert Om[0].tolist() == [0.0, 1.0, 0.0]
    assert np.all(np.diag(Om) == 0)


def test_weight_matrix_uniform_pair():
    C = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    X = np.full((3, 3), 0.3)
    Om = weight_matrix(row_sparse(C), X).Omega.toarray()
    assert np.allclose(Om[0], [0.0, 0.5, 0.5])


def test_weight_matrix_rows_sum_to_one():
    rng = np.random.default_rng(6)
    P = 10
    C = rng.normal(size=(P, P)) * (rng.uniform(size=(P, P)) < 0.3)
    np.fill_diagonal(C, 0.0)
    C = C / np.where(C.sum(axis=1, keepdims=True) == 0, 1.0,
                     C.sum(axis=1, keepdims=True))
    X = np.abs(rng.uniform(0.1, 1.0, size=(P, P)))
    Om = weight_matrix(row_sparse(C), X).Omega.toarray()
    for i in range(P):
        if np.any(Om[i] != 0):
            assert abs(Om[i].sum() - 1.0) < 1e-8
        assert set(np.flatnonzero(Om[i])) <= set(np.flatnonzero(C[i]))


def test_weight_matrix_zero_distance_clamped():
    C = np.array([[0.0, 0.9, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    X = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    Om = weight_matrix(row_sparse(C), X).Omega.toarray()
    # the coincident point draws essentially all the weight
    assert Om[0, 1] == pytest.approx(1.0, abs=1e-9)


def weight_matrix_dense(C, X):
    """The dense form of the weights: every ratio, then masked division.
    Each row is summed sequentially; the zeros it adds between the stored
    ratios are exact, so the sum has the bits of the stored-entry sum."""
    ratios = C / np.maximum(X, 1e-12)
    denom = np.cumsum(ratios, axis=1)[:, -1:]
    Omega = np.zeros_like(ratios)
    np.divide(ratios, denom, out=Omega, where=np.abs(denom) > 1e-12)
    return Omega


def test_weight_matrix_matches_dense_form():
    rng = np.random.default_rng(11)
    P = 12
    C = rng.normal(size=(P, P)) * (rng.uniform(size=(P, P)) < 0.3)
    C[3] = 0.0                          # all-zero row
    C[5, :3] = [0.5, -0.5, 0.0]         # normalizer cancels to zero
    C[6] = -np.abs(C[6]) - 0.1          # negative row sum ...
    C[6, ::2] = -0.0                    # ... with signed zeros
    np.fill_diagonal(C, 0.0)            # a RowSparse stores no diagonal
    X = rng.uniform(0.0, 1.0, size=(P, P))
    X[1, :] = 0.0                       # coincident points
    cases = [(C, X), (C, np.zeros((P, P))), (np.zeros((P, P)), X),
             (C.T, X.T)]
    for C_case, X_case in cases:
        got = weight_matrix(row_sparse(C_case), X_case).Omega
        want = weight_matrix_dense(C_case, X_case)
        assert isinstance(got, RowSparse)
        assert np.array_equal(got.toarray(), want)
        # every entry Omega stores has the dense form's sign bit; the
        # entries it does not store are zeros of either sign there
        assert np.array_equal(np.signbit(got.values), np.signbit(
            np.take_along_axis(want, got.cols, axis=1)))


def test_weight_matrix_of_solution_keeps_support_and_dense_bits():
    """On a solver result, with the candidate distances or the full NSI
    matrix, Omega stores C's entries, has the dense form's nonzeros, and
    every row has the dense form's bits."""
    W, _ = make_scene(SceneConfig(seed=3, points_per_motion=(150, 151)))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G, size=20)
    X = nsi_distances(G)
    want = weight_matrix_dense(sol.C.toarray(), X)
    for distances in (sol.X, X):
        Omega = weight_matrix(sol.C, distances).Omega
        assert Omega.cols is sol.C.cols
        got = Omega.toarray()
        assert np.array_equal(got != 0, want != 0)
        assert np.array_equal(got, want)


def test_weight_matrix_rejects_misaligned_distances():
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="one distance per stored entry"):
        weight_matrix(row_sparse(C), np.full((3, 2), 0.5))


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_sparse_neighbors(np.array([]))
    with pytest.raises(ValueError):
        solve_sparse_neighbors(np.array([0.1, 0.2]), lam=-1.0)
    with pytest.raises(ValueError):
        proximity_weights(np.array([0.1]), 0.0)
