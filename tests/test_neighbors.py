import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from subseg import neighbors as nb
from subseg.clustering import SegmentConfig, segment
from subseg.neighbors import (AdmmParams, neighbor_objective,
                              nsi_dissimilarity_rows, proximity_weights,
                              search_area,
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


def reference_admm(x, lam, max_iter):
    """Plain one-row ADMM at rho = 1: the textbook update sequence,
    np.linalg.norm residuals and the sign/abs soft threshold, stopping at
    the first iteration that meets the module's tolerances.  nu takes the
    left-to-right sum of w, the order the solver sums a row's candidates.

    Returns (c, iterations, r, s, converged, stalled, dual_only), with c
    reduced to the support of z and renormalized as the solver does;
    dual_only counts the iterations whose dual residual passed its
    tolerance while the primal residual did not.
    """
    k = x.size
    sigma = x.mean() or 1.0
    thresh = lam * proximity_weights(x, sigma)
    H = 1.0 / (x ** 2 + 1.0)
    H_sum = H.sum()
    c = np.full(k, 1.0 / k)
    z = c.copy()
    u = np.zeros(k)
    r = s = 0.0
    converged = False
    dual_only = 0
    for it in range(1, max_iter + 1):
        w = H * (z - u)
        nu = (np.cumsum(w)[-1] - 1.0) / H_sum
        c = w - nu * H
        v = c + u
        z_new = np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        u = u + c - z_new
        r = np.linalg.norm(c - z_new)
        s = np.linalg.norm(z_new - z)
        z = z_new
        eps_pri = np.sqrt(k) * nb._TOL_ABS + nb._TOL_REL * max(
            np.linalg.norm(c), np.linalg.norm(z))
        eps_dual = np.sqrt(k) * nb._TOL_ABS + nb._TOL_REL * np.linalg.norm(u)
        if r <= eps_pri and s <= eps_dual:
            converged = True
            break
        dual_only += s <= eps_dual
    kept = np.where(z != 0.0, c, 0.0)
    if abs(kept.sum()) > 1e-3:
        c = kept / kept.sum()
    return c, it, r, s, converged, not converged and r > 1e-3, dual_only


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
    coeffs = batch.C.data.reshape(batch.candidates.shape)
    for i, cand in enumerate(batch.candidates):
        c, stats = solve_sparse_neighbors(X[i, cand])
        assert np.array_equal(coeffs[i], c)
        assert batch.stats[i].iterations == stats.iterations
    # rows freeze at different iterations, so the check covers freezing
    assert len({s.iterations for s in batch.stats}) > 1


def test_stats_are_one_record_array():
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(20, 20)))
    G = pca_project(W, 5)
    batch = solve_all_neighbors(G, size=10).stats
    single = solve_all_neighbors(G, size=1).stats  # one candidate per row
    for stats in (batch, single):
        assert isinstance(stats, np.recarray) and len(stats) == 40
        assert stats.dtype.names == ("iterations", "primal_residual",
                                     "dual_residual", "converged", "stalled")
    assert single.dtype == batch.dtype
    assert (single.iterations == 0).all() and single.converged.all()
    assert not single.stalled.any()


@pytest.mark.parametrize("max_iter", [1, 2, 5, 6, 2000])
def test_solver_matches_reference_iterates(max_iter):
    """The solver forms the primal half of its stopping test only when an
    active row passes the dual half, or at the cap; the oracle forms both
    halves every iteration.  At odd and even caps, and at a cap of one,
    where the first iteration is also the last, the solver must give the
    oracle's coefficients, iterations, flags and residuals."""
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(20, 20),
                                  noise_sigma=0.5))
    G = pca_project(W, 5)
    _, X = nsi_dissimilarity_rows(G)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_all_neighbors(G, size=10,
                                  admm=AdmmParams(max_iter=max_iter))
    assert ([w.category for w in caught]
            == [nb.SolverStall] * bool(sol.stalled_rows))
    coeffs = sol.C.data.reshape(sol.candidates.shape)
    frozen = set()
    dual_only = 0
    for i, cand in enumerate(sol.candidates):
        c, it, r, s, converged, stalled, passes = reference_admm(
            X[i, cand], 0.07, max_iter)
        stats = sol.stats[i]
        assert np.array_equal(coeffs[i], c)
        assert stats.iterations == it
        assert (stats.converged, stats.stalled) == (converged, stalled)
        assert stats.primal_residual == pytest.approx(r, rel=1e-12, abs=0)
        assert stats.dual_residual == pytest.approx(s, rel=1e-12, abs=0)
        if converged:
            frozen.add(it)
        dual_only += passes
    if max_iter < 2000:
        # every row runs to the cap and reports its last residuals; a cap
        # of 5 makes some rows stall
        assert (sol.stats.iterations == max_iter).all()
        assert max_iter != 5 or sol.stalled_rows
    else:
        # rows converge at different iterations while others run to the
        # cap, and some row passes the dual half but not the primal half,
        # so the primal half is formed where that row does not stop
        assert len(frozen) > 1
        assert any(not s.converged and not s.stalled for s in sol.stats)
        assert dual_only > 0


def test_row_result_independent_of_batch_and_block():
    """A row solved inside the whole batch, in a full, a partial or a
    one-row last block, gives the same bits as the row solved alone:
    coefficients, iterations, flags and both residual norms."""
    for points_per_motion, size in [
            ((301, 300), 20),    # a full block and a partial last block
            ((257, 256), 20),    # P = 513: the last block holds one row
            ((750, 750), 7)]:    # block slices of 7 * rows doubles, not 8 * n
        W, _ = make_scene(SceneConfig(points_per_motion=points_per_motion,
                                      seed=3))
        G = pca_project(W, 5)
        block = nb._BLOCK_ENTRIES // size
        P = G.points
        assert block < P < 2 * block and P % 8 != 0
        sol = solve_all_neighbors(G, size=size)
        # rows converge in either block, unless the last holds one row
        converged = np.flatnonzero(sol.stats.converged)
        assert converged.min() < block
        assert P - block == 1 or converged.max() >= block
        # capped rows spread over the batch, around the block boundary and
        # at the end, and up to about 30 of the rows that converge
        rows = np.union1d(
            np.r_[0:P:P // 12, block - 2:min(block + 3, P), P - 9:P],
            converged[::-(-converged.size // 30)])
        coeffs = sol.C.data.reshape(sol.X.shape)
        for i in rows:
            c, stats = solve_sparse_neighbors(sol.X[i])
            assert np.array_equal(coeffs[i], c), (P, size, i)
            assert sol.stats[i].tolist() == stats.tolist(), (P, size, i)


@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (6000,), (10240,),
                                   (7, 3), (20, 512)])
@pytest.mark.parametrize("count", [1, 5])
def test_aligned_stack_slices_are_aligned(shape, count):
    stack = nb._aligned_stack(count, shape)
    assert stack.shape == (count,) + shape and stack.dtype == float
    for i, part in enumerate(stack):
        assert part.flags.c_contiguous and part.flags.writeable
        assert part.ctypes.data % 64 == 0
        part[...] = i
    # the slices do not overlap
    for i, part in enumerate(stack):
        assert np.all(part == i)


@pytest.mark.parametrize("field,value", [
    ("rho", 0.0), ("rho", np.nan), ("rho", -1.0), ("rho", np.inf),
    ("tol_abs", -1e-8), ("tol_abs", np.nan), ("tol_rel", np.inf),
    ("max_iter", -5), ("max_iter", 0), ("max_iter", 2.5),
    ("max_iter", True)])
def test_admm_params_reject_bad_values(field, value):
    # the penalty and the tolerances are constants: no value is accepted
    error = ValueError if field == "max_iter" else TypeError
    with pytest.raises(error, match=field):
        AdmmParams(**{field: value})


def test_admm_params_accept_boundary_values():
    params = AdmmParams(max_iter=np.int64(1))
    c, stats = solve_sparse_neighbors(np.array([0.1, 0.5, 0.9]), admm=params)
    assert stats.iterations == 1 and c.sum() == pytest.approx(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.max_iter = -5


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
    want_sim, want_X = nsi_dissimilarity_rows(GlobalSubspace(G))
    assert np.array_equal(want_sim, want_sim.T)
    for data in (np.asfortranarray(G), wide[:, ::2]):
        sim, X = nsi_dissimilarity_rows(GlobalSubspace(data))
        assert np.array_equal(sim, want_sim)
        assert np.array_equal(X, want_X)


def test_solution_carries_candidate_distances():
    """C stores every row's k candidates in ascending column order, and
    candidates and X are aligned with C's stored entries."""
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(25, 25)))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G, size=12)
    P = G.points
    assert isinstance(sol.C, csr_array) and sol.C.has_canonical_format
    assert np.array_equal(sol.C.indptr, np.arange(0, 12 * P + 1, 12))
    assert np.array_equal(sol.C.indices.reshape(P, 12), sol.candidates)
    assert np.all(np.diff(sol.candidates, axis=1) > 0)
    assert np.array_equal(sol.X, np.take_along_axis(
        nsi_dissimilarity_rows(G)[1], sol.candidates, axis=1))


def test_segment_builds_nsi_matrix_once(monkeypatch):
    calls = []
    original = nb.nsi_distances

    def counting(subspace):
        calls.append(subspace)
        return original(subspace)

    monkeypatch.setattr(nb, "nsi_distances", counting)
    W, _ = make_scene(SceneConfig(seed=8, points_per_motion=(25, 25)))
    segment(W, SegmentConfig(n=2))
    assert len(calls) == 1


def test_solution_contract():
    W, _ = make_scene(SceneConfig(seed=5))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G, size=20)
    P = G.points
    _, X = nsi_dissimilarity_rows(G)
    C = sol.C.toarray()
    for i in range(P):
        assert abs(C[i].sum() - 1.0) < 1e-8
        assert C[i, i] == 0.0
        support = set(np.flatnonzero(C[i]).tolist())
        assert support <= set(sol.candidates[i].tolist())
        assert sol.candidates[i].tolist() == sorted(search_area(X[i], i, 20))


def test_weight_matrix_one_hot():
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    X = np.full((3, 3), 0.5)
    Om = weight_matrix(C, X).Omega.toarray()
    assert Om[0].tolist() == [0.0, 1.0, 0.0]
    assert np.all(np.diag(Om) == 0)


def test_weight_matrix_uniform_pair():
    C = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    X = np.full((3, 3), 0.3)
    Om = weight_matrix(C, X).Omega.toarray()
    assert np.allclose(Om[0], [0.0, 0.5, 0.5])


def test_weight_matrix_rows_sum_to_one():
    rng = np.random.default_rng(6)
    P = 10
    C = rng.normal(size=(P, P)) * (rng.uniform(size=(P, P)) < 0.3)
    np.fill_diagonal(C, 0.0)
    C = C / np.where(C.sum(axis=1, keepdims=True) == 0, 1.0,
                     C.sum(axis=1, keepdims=True))
    X = np.abs(rng.uniform(0.1, 1.0, size=(P, P)))
    Om = weight_matrix(C, X).Omega.toarray()
    for i in range(P):
        if np.any(Om[i] != 0):
            assert abs(Om[i].sum() - 1.0) < 1e-8
        assert set(np.flatnonzero(Om[i])) <= set(np.flatnonzero(C[i]))


def test_weight_matrix_zero_distance_clamped():
    C = np.array([[0.0, 0.9, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    X = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    Om = weight_matrix(C, X).Omega.toarray()
    # the coincident point draws essentially all the weight
    assert Om[0, 1] == pytest.approx(1.0, abs=1e-9)


def weight_matrix_dense(C, X):
    """The dense form of the weights: every ratio, then masked division.
    Each row is summed sequentially; the zeros it adds between the stored
    ratios are exact, so the sum has the bits of the stored-entry sum."""
    ratios = C / np.maximum(X, 1e-12)
    np.fill_diagonal(ratios, 0.0)
    denom = np.cumsum(ratios, axis=1)[:, -1:]
    Omega = np.zeros_like(ratios)
    np.divide(ratios, denom, out=Omega, where=np.abs(denom) > 1e-12)
    return Omega


def test_weight_matrix_matches_dense_form():
    rng = np.random.default_rng(11)
    P = 12
    C = rng.normal(size=(P, P)) * (rng.uniform(size=(P, P)) < 0.3)
    C[3] = 0.0                          # all-zero row
    C[4, 4] = 0.7                       # nonzero diagonal
    C[5, :3] = [0.5, -0.5, 0.0]         # normalizer cancels to zero
    C[6] = -np.abs(C[6]) - 0.1          # negative row sum ...
    C[6, ::2] = -0.0                    # ... with signed zeros
    X = rng.uniform(0.0, 1.0, size=(P, P))
    X[1, :] = 0.0                       # coincident points
    cases = [(C, X), (C, np.zeros((P, P))), (np.zeros((P, P)), X),
             (C.T, X.T)]
    for C_case, X_case in cases:
        got = weight_matrix(C_case, X_case).Omega
        want = weight_matrix_dense(C_case, X_case)
        assert isinstance(got, csr_array)
        assert np.array_equal(got.toarray(), want)
        # every entry Omega stores has the dense form's sign bit; the
        # entries it does not store are zeros of either sign there
        rows = np.repeat(np.arange(P), np.diff(got.indptr))
        assert np.array_equal(np.signbit(got.data),
                              np.signbit(want[rows, got.indices]))


def test_weight_matrix_of_solution_keeps_support_and_dense_bits():
    """On a solver result, with the candidate distances or the full NSI
    matrix, Omega stores C's entries, has the dense form's nonzeros, and
    every row has the dense form's bits."""
    W, _ = make_scene(SceneConfig(seed=3, points_per_motion=(150, 151)))
    G = pca_project(W, 5)
    sol = solve_all_neighbors(G, size=20)
    _, X = nsi_dissimilarity_rows(G)
    want = weight_matrix_dense(sol.C.toarray(), X)
    for distances in (sol.X, X):
        Omega = weight_matrix(sol.C, distances).Omega
        assert np.array_equal(Omega.indptr, sol.C.indptr)
        assert np.array_equal(Omega.indices, sol.C.indices)
        got = Omega.toarray()
        assert np.array_equal(got != 0, want != 0)
        assert np.array_equal(got, want)


def test_weight_matrix_rejects_misaligned_distances():
    C = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="one distance per stored entry"):
        weight_matrix(C, np.full((3, 2), 0.5))


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_sparse_neighbors(np.array([]))
    with pytest.raises(ValueError):
        solve_sparse_neighbors(np.array([0.1, 0.2]), lam=-1.0)
    with pytest.raises(ValueError):
        proximity_weights(np.array([0.1]), 0.0)
