import numpy as np
import pytest

from subseg import projection as pj
from subseg.projection import (DidNotConverge, RankDeficient, SparseLoadings,
                               SpcaParams, ZeroColumn, assemble_global,
                               extract_pattern, gpower_block, pca_project)
from subseg.synthcam import SceneConfig, TrajectoryMatrix, make_scene

from test_neighbors import nsi


def random_trajectory(rng, rows, cols):
    return TrajectoryMatrix.from_dense(rng.normal(size=(rows, cols)))


def principal_angles(A, B):
    """Angles between the column spans of two matrices (orthonormalized)."""
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    s = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


def test_pca_identity_input():
    W = TrajectoryMatrix.from_dense(np.eye(4))
    G = pca_project(W, 4)
    # columns are identity columns up to sign/order: pairwise NSI of
    # distinct columns is 0, self-NSI is 1
    for i in range(4):
        for j in range(4):
            value = nsi(G.data[:, i], G.data[:, j])
            assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_pca_rank4_reconstruction():
    W, _ = make_scene(SceneConfig(n_motions=1, points_per_motion=(50,),
                                  seed=1))
    A = W.data
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    recon = U[:, :4] * s[:4] @ Vt[:4]
    assert np.linalg.norm(recon - A) / np.linalg.norm(A) < 1e-9
    G = pca_project(W, 4)
    assert np.allclose(np.linalg.norm(G.data, axis=0), 1.0, atol=1e-12)


def test_pca_default_dimension():
    W, _ = make_scene(SceneConfig(seed=2))
    G = pca_project(W, 5)
    assert G.data.shape == (5, W.points)


def test_pca_rank_deficient_pads_and_warns():
    A = np.zeros((6, 5))
    A[0, 0] = A[1, 1] = 1.0
    A[:2, 2:] = 1.0  # keep every column nonzero
    W = TrajectoryMatrix.from_dense(A)
    with pytest.warns(RankDeficient):
        G = pca_project(W, 4)
    assert np.allclose(np.linalg.norm(G.data, axis=0), 1.0)


def test_gpower_gamma_zero_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(3):
        W = random_trajectory(rng, 40, 60)
        out = gpower_block(W, SpcaParams(m=4, gamma=0.0))
        assert np.all(out.pattern | (W.data @ out.Y == 0))
        U, _, _ = np.linalg.svd(W.data, full_matrices=False)
        angles = principal_angles(out.Z, U[:, :4])
        assert np.max(angles) < 1e-6


def test_gpower_objective_monotone_and_orthonormal():
    rng = np.random.default_rng(1)
    W = random_trajectory(rng, 30, 50)
    out = gpower_block(W, SpcaParams(m=3, gamma=0.05))
    diffs = np.diff(out.objective)
    assert np.all(diffs >= -1e-9 * max(out.objective))
    assert np.max(np.abs(out.Y.T @ out.Y - np.eye(3))) < 1e-10


def test_gpower_warns_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(pj, "_MAX_ITER", 1)
    W = random_trajectory(np.random.default_rng(1), 30, 50)
    with pytest.warns(DidNotConverge, match="1 iterations"):
        out = gpower_block(W, SpcaParams(m=3, gamma=0.05))
    assert out.converged is False
    assert out.iterations == 1


def test_gpower_near_bound_gamma_keeps_at_most_one_term():
    rng = np.random.default_rng(2)
    W = random_trajectory(rng, 12, 8)
    mu = np.array([1.0, 0.5])
    bound = mu ** 2 * np.max(np.sum(W.data ** 2, axis=1))
    params = SpcaParams(m=2, gamma=bound * (1 - 1e-9), mu=mu)
    out = gpower_block(W, params)
    assert np.all(out.pattern.sum(axis=0) <= 1)


def test_gpower_pipeline_defaults_run():
    W, _ = make_scene(SceneConfig(seed=3))
    params = SpcaParams(m=5)  # gamma=0.01, mu_j = 1/j
    assert np.allclose(params.gamma, 0.01)
    assert np.allclose(params.mu, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5])
    out = gpower_block(W, params)
    assert out.converged


def test_gpower_rejects_infeasible_gamma():
    rng = np.random.default_rng(3)
    W = random_trajectory(rng, 10, 6)
    bound = np.max(np.sum(W.data ** 2, axis=1))
    with pytest.raises(ValueError):
        gpower_block(W, SpcaParams(m=2, gamma=2 * bound, mu=[1.0, 0.5]))


def test_projectors_reject_m_above_min_dimension():
    rng = np.random.default_rng(4)
    for rows, cols in ((6, 20), (12, 5)):
        W = random_trajectory(rng, rows, cols)
        m = min(rows, cols) + 2
        for project in (lambda: pca_project(W, m),
                        lambda: gpower_block(W, SpcaParams(m=m))):
            with pytest.raises(ValueError, match=r"m must be <= min\(2F, P\)"):
                project()


@pytest.mark.parametrize("m", [2.5, True, 0])
def test_spca_params_reject_bad_m(m):
    with pytest.raises(ValueError, match="m must be"):
        SpcaParams(m=m)


def test_spca_params_accept_numpy_integer_m():
    assert SpcaParams(m=np.int64(3)).mu.shape == (3,)


def test_spca_params_validation():
    with pytest.raises(ValueError):
        SpcaParams(m=2, mu=[1.0, 1.0])       # not distinct
    with pytest.raises(ValueError):
        SpcaParams(m=2, mu=[1.0, -0.5])
    with pytest.raises(ValueError):
        SpcaParams(m=2, gamma=-0.1)


@pytest.mark.parametrize("m, field, value", [
    (2, "gamma", [0.1, 0.2, 0.3]),
    (3, "mu", [1.0, 0.5]),
    (2, "gamma", [[0.1, 0.2]]),
])
def test_spca_params_reject_length_other_than_m(m, field, value):
    with pytest.raises(ValueError,
                       match=f"{field} must be a scalar or have m={m} entries"):
        SpcaParams(m=m, **{field: value})


def test_extract_pattern_matches_brute_force():
    rng = np.random.default_rng(4)
    W = random_trajectory(rng, 10, 6)
    params = SpcaParams(m=2, gamma=[0.3, 0.1], mu=[1.0, 0.7])
    Y, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    pattern = extract_pattern(Y, W, params)
    for i in range(10):
        for j in range(2):
            value = (params.mu[j] * W.data[i] @ Y[:, j]) ** 2
            assert pattern[i, j] == (value > params.gamma[j])


def test_extract_pattern_gamma_zero_strictness():
    W = TrajectoryMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0],
                                              [0.0, 0.0], [1.0, 1.0]]))
    params = SpcaParams(m=1, gamma=0.0, mu=1.0)
    Y = np.array([[1.0], [0.0]])
    pattern = extract_pattern(Y, W, params)
    # active everywhere except rows exactly orthogonal to y
    assert pattern[:, 0].tolist() == [True, False, False, True]


def test_extract_pattern_huge_gamma_all_inactive():
    rng = np.random.default_rng(5)
    W = random_trajectory(rng, 8, 4)
    params = SpcaParams(m=1, gamma=1e12, mu=1.0)
    Y, _ = np.linalg.qr(rng.normal(size=(4, 1)))
    assert not extract_pattern(Y, W, params).any()


def test_assemble_global_gamma_zero_equals_pca():
    rng = np.random.default_rng(6)
    W = random_trajectory(rng, 20, 30)
    out = gpower_block(W, SpcaParams(m=4, gamma=0.0))
    G_spca = assemble_global(W, out)
    G_pca = pca_project(W, 4)
    # equal up to per-row sign
    for r in range(4):
        row = G_spca.data[r]
        ref = G_pca.data[r]
        assert np.allclose(row, ref, atol=1e-8) or np.allclose(row, -ref, atol=1e-8)


def test_assemble_global_single_column():
    W = TrajectoryMatrix.from_dense(np.array([[2.0], [1.0], [0.5], [3.0]]))
    out = gpower_block(W, SpcaParams(m=1, gamma=0.0))
    G = assemble_global(W, out)
    assert G.data.shape == (1, 1)
    assert abs(np.linalg.norm(G.data[:, 0]) - 1.0) < 1e-12


def test_assemble_global_unit_columns():
    rng = np.random.default_rng(7)
    W = random_trajectory(rng, 16, 25)
    out = gpower_block(W, SpcaParams(m=3, gamma=0.01))
    G = assemble_global(W, out)
    assert np.allclose(np.linalg.norm(G.data, axis=0), 1.0, atol=1e-12)


def test_assemble_global_zero_column_rejected():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(10, 6))
    A[:, 2] = 0.0
    out = gpower_block(TrajectoryMatrix.from_dense(rng.normal(size=(10, 6))),
                       SpcaParams(m=2, gamma=0.0))
    with pytest.raises(ZeroColumn):
        assemble_global(TrajectoryMatrix.from_dense(A),
                        SparseLoadings(out.Z, out.Y, out.pattern))


def test_sparsity_monotone_in_gamma():
    rng = np.random.default_rng(9)
    W = random_trajectory(rng, 20, 30)
    mu = [1.0, 0.6, 0.3]
    bound_min = min(mu) ** 2 * np.max(np.sum(W.data ** 2, axis=1))
    cards = []
    for frac in (0.0, 0.01, 0.05, 0.2, 0.5, 0.9):
        out = gpower_block(W, SpcaParams(m=3, gamma=frac * bound_min, mu=mu))
        cards.append(int(out.pattern.sum()))
    assert all(a >= b for a, b in zip(cards, cards[1:]))
