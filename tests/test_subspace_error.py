import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_neighbors import row_sparse

from subseg.neighbors import RowSparse, solve_all_neighbors, weight_matrix
from subseg.projection import GlobalSubspace, pca_project
from subseg.subspace_error import (LOCAL_DIM, LOCAL_MEMBERS,
                                   build_error_matrix, complement_is_cheaper)
from subseg.synthcam import SceneConfig, make_scene


def unit_subspace(M):
    return GlobalSubspace(M / np.linalg.norm(M, axis=0))


# one global dimension on each side of ``complement_is_cheaper``: E is
# formed from the complement of each local basis at m = 6 and from the
# basis itself at m = 24
RESIDUAL_PATHS = pytest.mark.parametrize(
    "m, complement", [(6, True), (24, False)], ids=["complement", "basis"])


def takes_path(m, complement):
    return complement_is_cheaper(m, min(LOCAL_DIM, m - 1)) == complement


def planted_two_subspace(rng, dim=6, per_block=20):
    """Unit columns drawn from two random rank-4 subspaces of R^dim, the
    rank of one rigid motion's trajectories."""
    cols = [np.linalg.qr(rng.normal(size=(dim, 4)))[0]
            @ rng.normal(size=(4, per_block)) for _ in range(2)]
    return (unit_subspace(np.hstack(cols)),
            np.r_[np.zeros(per_block), np.ones(per_block)])


def random_rows(rng, P, k):
    """RowSparse of k random other columns per row, random weights."""
    cols = np.array([np.sort(rng.choice(np.delete(np.arange(P), i), size=k,
                                        replace=False)) for i in range(P)])
    return RowSparse(cols.reshape(P, k), rng.normal(size=(P, k)))


def nsi_distance(G, i, j):
    """1 - (g_i^T g_j)^2 with the dot product summed coordinate by
    coordinate in order, as the member rule sums it."""
    dot = sum(G[c, i] * G[c, j] for c in range(len(G)))
    return 1.0 - min(dot * dot, 1.0)


def reference_members(G, candidates, i):
    """Member rule, one row: i, then the LOCAL_MEMBERS - 1 candidates of
    smallest NSI distance, ties to the lower index."""
    ranked = sorted((nsi_distance(G, i, j), j) for j in candidates)
    return [i] + [j for _, j in ranked][:LOCAL_MEMBERS - 1]


def test_collect_degenerate_row():
    G = unit_subspace(np.random.default_rng(0).normal(size=(3, 6)))
    _, subspaces = build_error_matrix(G, row_sparse(np.zeros((6, 6))))
    assert subspaces[3].members.tolist() == [3]


def test_collect_one_hot():
    G = unit_subspace(np.random.default_rng(0).normal(size=(3, 6)))
    Omega = np.zeros((6, 6))
    Omega[1, 4] = 1.0
    _, subspaces = build_error_matrix(G, row_sparse(Omega))
    assert subspaces[1].members.tolist() == [1, 4]


def test_members_ignore_the_weights():
    """Only the stored columns choose the members: any weights, zero
    and negative ones included, give the same members and E bits."""
    rng = np.random.default_rng(0)
    G = unit_subspace(rng.normal(size=(5, 30)))
    Omega = random_rows(rng, 30, 9)
    E, subspaces = build_error_matrix(G, Omega)
    for values in (np.zeros((30, 9)), -np.abs(Omega.values),
                   rng.permutation(Omega.values, axis=1)):
        E2, other = build_error_matrix(G, RowSparse(Omega.cols, values))
        assert np.array_equal(E2.data, E.data)
        for a, b in zip(subspaces, other):
            assert np.array_equal(a.members, b.members)


def test_basis_single_member():
    # k = 0: a lone point fixes no direction, d = count - 1 = 0, and every
    # residual is the whole squared norm
    G = unit_subspace(np.random.default_rng(0).normal(size=(3, 4)))
    E, subspaces = build_error_matrix(G, row_sparse(np.zeros((4, 4))))
    assert subspaces[0].rank == 0 and subspaces[0].basis.shape == (3, 0)
    assert np.allclose(E.data, 1.0, atol=1e-12)


def test_basis_two_orthogonal_members():
    # k = 1: two members give d = 1, the stronger of the two directions
    G = GlobalSubspace(np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]))
    _, subspaces = build_error_matrix(G, row_sparse(1.0 - np.eye(2)))
    for local in subspaces:
        assert local.rank == 1
        assert np.allclose(np.abs(local.basis[:, 0]), [1.0, 0.0, 0.0],
                           atol=1e-12)


def test_basis_planted_plane():
    """k = 4: five members drawn from a rank-4 subspace of R^6 give
    d = LOCAL_DIM and a basis spanning exactly that subspace."""
    rng = np.random.default_rng(1)
    plane = np.linalg.qr(rng.normal(size=(6, 4)))[0]
    G = unit_subspace(plane @ rng.normal(size=(4, 5)))
    _, subspaces = build_error_matrix(G, row_sparse(1.0 - np.eye(5)))
    for local in subspaces:
        assert local.rank == LOCAL_DIM == 4
        # the basis lies in the plant
        outside = local.basis - plane @ (plane.T @ local.basis)
        assert np.max(np.abs(outside)) < 1e-12
    # below the global dimension even when the members span all of it
    G = unit_subspace(rng.normal(size=(3, 5)))
    _, subspaces = build_error_matrix(G, row_sparse(1.0 - np.eye(5)))
    assert {local.rank for local in subspaces} == {2}


def test_error_vector_in_span():
    # local subspace 0 is span{e1, e2, e3} (four members, d = 3 in R^4);
    # point 4 lies in it, point 5 is orthogonal to it
    G = unit_subspace(np.array([[1.0, 0.0, 0.0, 0.6, 0.3, 0.0],
                                [0.0, 1.0, 0.0, 0.8, 0.4, 0.0],
                                [0.0, 0.0, 1.0, 0.0, 0.5, 0.0],
                                [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]))
    Omega = np.zeros((6, 6))
    Omega[0, [1, 2, 3]] = [0.5, 0.3, 0.2]
    E, subspaces = build_error_matrix(G, row_sparse(Omega))
    assert subspaces[0].rank == 3
    assert E.data[0, 4] < 1e-12
    assert E.data[0, 5] == pytest.approx(1.0, abs=1e-12)


def test_error_vector_orthogonal():
    G = unit_subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    E, _ = build_error_matrix(G, row_sparse(np.zeros((2, 2))))
    assert E.data[0, 1] == pytest.approx(1.0, abs=1e-12)


@RESIDUAL_PATHS
def test_error_vector_planted_separation(m, complement):
    assert takes_path(m, complement)
    rng = np.random.default_rng(2)
    G, labels = planted_two_subspace(rng, dim=m)
    # row 0 stores the rest of the first block, so its members are the
    # point and LOCAL_MEMBERS - 1 other points of that block
    Omega = np.zeros((len(labels), len(labels)))
    Omega[0, 1:20] = 1.0
    E, subspaces = build_error_matrix(G, row_sparse(Omega))
    members = subspaces[0].members
    assert members[0] == 0 and len(set(members)) == LOCAL_MEMBERS
    assert (labels[members] == 0).all()
    e = E.data[0]
    assert e[labels == 0].max() < 1e-20
    assert e[labels == 1].mean() > 0.1


def test_point_in_planted_motion_subspace_has_zero_residual():
    """On a noiseless two-motion scene each motion spans a rank-4
    subspace of the m = 5 projection.  A local subspace whose members all
    belong to one motion is that subspace, so every point of the motion
    has residual 0 (round-off) against it, and the other motion's points
    do not."""
    W, truth = make_scene(SceneConfig(n_motions=2, points_per_motion=(40, 40),
                                      seed=3))
    G = pca_project(W, 5)
    Omega = weight_matrix(solve_all_neighbors(G).C, np.zeros((80, 80))).Omega
    E, subspaces = build_error_matrix(G, Omega)
    y = truth.labels
    pure = [i for i, local in enumerate(subspaces)
            if (y[local.members] == y[i]).all()]
    assert len(pure) > 60
    for i in pure:
        assert subspaces[i].rank == 4
        assert E.data[i, y == y[i]].max() < 1e-20
        assert E.data[i, y != y[i]].mean() > 1e-6


def test_error_matrix_identical_points():
    col = np.array([0.6, 0.8, 0.0])
    G = unit_subspace(np.tile(col[:, None], (1, 4)))
    Omega = np.ones((4, 4)) - np.eye(4)
    Omega /= 3.0
    E, _ = build_error_matrix(G, row_sparse(Omega))
    assert np.max(E.data) < 1e-12


def test_error_matrix_orthogonal_pair():
    # no stored candidates: one member, an empty basis, so every residual,
    # the point's own included, is the whole squared norm
    G = unit_subspace(np.array([[1.0, 0.0], [0.0, 1.0]]))
    E, subspaces = build_error_matrix(G, row_sparse(np.zeros((2, 2))))
    assert [s.rank for s in subspaces] == [0, 0]
    assert np.allclose(E.data, 1.0, atol=1e-12)


def test_error_matrix_block_structure():
    rng = np.random.default_rng(3)
    G, labels = planted_two_subspace(rng)
    P = len(labels)
    Omega = np.zeros((P, P))
    for i in range(P):
        same = np.flatnonzero((labels == labels[i]) & (np.arange(P) != i))
        picks = rng.choice(same, size=LOCAL_MEMBERS - 1, replace=False)
        Omega[i, picks] = 1.0 / len(picks)
    E, _ = build_error_matrix(G, row_sparse(Omega))
    within = np.concatenate([E.data[np.ix_(labels == k, labels == k)].ravel()
                             for k in (0, 1)])
    cross = E.data[np.ix_(labels == 0, labels == 1)].ravel()
    assert within.mean() * 10 < cross.mean()


def test_projector_idempotent():
    rng = np.random.default_rng(4)
    G = unit_subspace(rng.normal(size=(6, 10)))
    _, subspaces = build_error_matrix(G, random_rows(rng, 10, 2))
    basis = subspaces[0].basis
    once = G.data - basis @ (basis.T @ G.data)
    twice = once - basis @ (basis.T @ once)
    assert np.max(np.abs(once - twice)) < 1e-12


@RESIDUAL_PATHS
def test_self_error_small(m, complement):
    # points of one rank-4 subspace of R^m, each with five members beside
    # itself: every local subspace is the plant, so no residual is left
    assert takes_path(m, complement)
    rng = np.random.default_rng(5)
    G = unit_subspace(np.linalg.qr(rng.normal(size=(m, 4)))[0]
                      @ rng.normal(size=(4, 15)))
    Omega = np.zeros((15, 15))
    for i in range(15):
        Omega[i, (i + np.arange(1, 6)) % 15] = 0.2
    E, subspaces = build_error_matrix(G, row_sparse(Omega))
    for i in range(15):
        assert E.data[i, i] < 1e-20
        basis, rank = subspaces[i].basis, subspaces[i].rank
        assert rank == 4
        assert np.max(np.abs(basis.T @ basis - np.eye(rank))) < 1e-10


def test_error_entries_in_unit_range():
    rng = np.random.default_rng(6)
    G = unit_subspace(rng.normal(size=(4, 12)))
    Omega = np.zeros((12, 12))
    E, _ = build_error_matrix(G, row_sparse(Omega))
    assert np.all(E.data >= 0)
    assert np.all(E.data <= 1 + 1e-9)


@RESIDUAL_PATHS
def test_error_rows_match_least_squares_projection(m, complement):
    """Each row of E is the residual of a least-squares fit of every point
    onto the top-d singular vectors of that row's member set, taken
    alone, for k = 0, 1, 3, 5 and 8 stored columns per row."""
    assert takes_path(m, complement)
    for seed, k in enumerate((0, 1, 3, 5, 8)):
        rng = np.random.default_rng(seed)
        P = 25
        M = rng.normal(size=(m, P))
        M[:, 7] = M[:, 3]    # coincident points
        M[:, 12] = M[:, 3]
        G = unit_subspace(M)
        Omega = random_rows(rng, P, k)
        E, subspaces = build_error_matrix(G, Omega)
        for i in range(P):
            members = reference_members(G.data, Omega.cols[i], i)
            assert subspaces[i].members.tolist() == members
            d = min(4, m - 1, len(members) - 1)
            U = np.linalg.svd(G.data[:, members])[0][:, :d]
            coef = np.linalg.lstsq(U, G.data, rcond=None)[0]
            expected = np.sum((G.data - U @ coef) ** 2, axis=0)
            assert subspaces[i].rank == d
            assert np.max(np.abs(E.data[i] - expected)) < 1e-10


def test_members_and_rows_match_per_row_reference():
    """Members follow the per-row rule: i, then the stored columns by NSI
    distance, ties to the lower index, LOCAL_MEMBERS in all; a row with
    fewer stored columns keeps them all.  E's rows equal the plain
    residual expression of each basis, and the weights are not changed
    in place."""
    rng = np.random.default_rng(8)
    m, P = 5, 30
    copies = [4, 9, 21, 25, 27, 28]      # six copies of point 2: ties
    M = rng.normal(size=(m, P))
    M[:, copies] = M[:, [2]]
    G = unit_subspace(M)
    others = [j for j in range(P) if j != 2 and j not in copies]
    for k in (3, 8, P - 1):
        cols = random_rows(rng, P, k).cols
        cols[2] = np.sort(np.r_[copies, others][:k])
        case = RowSparse(cols, rng.normal(size=(P, k)))
        before = case.cols.copy(), case.values.copy()
        E, subspaces = build_error_matrix(G, case)
        for i in range(P):
            members = reference_members(G.data, case.cols[i], i)
            assert subspaces[i].members.tolist() == members
            B = subspaces[i].basis
            assert np.allclose(
                E.data[i], np.sum((G.data - B @ (B.T @ G.data)) ** 2, axis=0),
                rtol=0, atol=1e-14)
        want = [2, 4, 9, 21] if k == 3 else [2, 4, 9, 21, 25, 27]
        assert subspaces[2].members.tolist() == want
        assert np.array_equal(case.cols, before[0])
        assert np.array_equal(case.values, before[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8),
       P=st.integers(LOCAL_MEMBERS, 40), extra=st.integers(0, 30),
       lam=st.sampled_from([0.0, 0.07, 1.0, 50.0]),
       sigma=st.sampled_from([None, 0.01, 1.0]))
def test_members_are_the_nearest_points_overall(seed, m, P, extra, lam,
                                                 sigma):
    """On a solver result with at least LOCAL_MEMBERS - 1 candidates per
    row, of Gaussian (non-coincident) points, the members are the point
    and its LOCAL_MEMBERS - 1 nearest other points by NSI distance over
    all j != i: they depend on neither the candidate count nor lam or
    sigma."""
    G = unit_subspace(np.random.default_rng(seed).normal(size=(m, P)))
    size = min(LOCAL_MEMBERS - 1 + extra, P - 1)
    sol = solve_all_neighbors(G, size=size, sigma=sigma, lam=lam)
    _, subspaces = build_error_matrix(G, weight_matrix(sol.C, sol.X).Omega)
    for i, local in enumerate(subspaces):
        everyone = [j for j in range(P) if j != i]
        assert local.members.tolist() == reference_members(G.data,
                                                           everyone, i)
