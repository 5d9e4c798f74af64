import numpy as np
import pytest
from scipy.sparse import csr_array

from subseg.neighbors import solve_all_neighbors, weight_matrix
from subseg.projection import GlobalSubspace, pca_project
from subseg.subspace_error import (LOCAL_DIM, LOCAL_MEMBERS,
                                   build_error_matrix, subspace_basis)
from subseg.synthcam import SceneConfig, make_scene


def unit_subspace(M):
    return GlobalSubspace(M / np.linalg.norm(M, axis=0))


def planted_two_subspace(rng, dim=6, per_block=20):
    """Unit columns drawn from two random rank-4 subspaces of R^dim, the
    rank of one rigid motion's trajectories."""
    cols = [np.linalg.qr(rng.normal(size=(dim, 4)))[0]
            @ rng.normal(size=(4, per_block)) for _ in range(2)]
    return (unit_subspace(np.hstack(cols)),
            np.r_[np.zeros(per_block), np.ones(per_block)])


def test_collect_degenerate_row():
    G = unit_subspace(np.random.default_rng(0).normal(size=(3, 6)))
    _, subspaces = build_error_matrix(G, np.zeros((6, 6)))
    assert subspaces[3].members.tolist() == [3]


def test_collect_one_hot():
    G = unit_subspace(np.random.default_rng(0).normal(size=(3, 6)))
    Omega = np.zeros((6, 6))
    Omega[1, 4] = 1.0
    _, subspaces = build_error_matrix(G, Omega)
    assert subspaces[1].members.tolist() == [1, 4]


def test_collect_matches_nonzero_pattern():
    """Without stored zeros the members are i, then the nonzero weights by
    descending |weight|, at most LOCAL_MEMBERS in all."""
    rng = np.random.default_rng(0)
    G = unit_subspace(rng.normal(size=(12, 12)))
    Omega = np.zeros((12, 12))
    for i in range(5):
        Omega[i] = rng.normal(size=12) * (rng.uniform(size=12) < 0.3)
    Omega[4] = rng.normal(size=12)       # more than LOCAL_MEMBERS entries
    _, subspaces = build_error_matrix(G, Omega)
    lengths = set()
    for i in range(5):
        support = [j for j in np.flatnonzero(Omega[i]) if j != i]
        expected = [i] + sorted(support, key=lambda j: -abs(Omega[i, j]))
        assert subspaces[i].members.tolist() == expected[:LOCAL_MEMBERS]
        lengths.add(len(expected) > LOCAL_MEMBERS)
    assert lengths == {False, True}


def test_basis_single_member():
    # a lone point fixes no direction: d = count - 1 = 0
    col = np.array([[0.6], [0.8], [0.0]])
    basis, rank = subspace_basis(col)
    assert rank == 0 and basis.shape == (3, 0)


def test_basis_two_orthogonal_members():
    # two members give d = 1, the stronger of the two directions
    cols = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
    basis, rank = subspace_basis(cols)
    assert rank == 1
    assert np.allclose(np.abs(basis[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)


def test_basis_planted_plane():
    """Members drawn from a rank-4 subspace of R^6 give d = LOCAL_DIM and
    a basis spanning exactly that subspace."""
    rng = np.random.default_rng(1)
    plane = np.linalg.qr(rng.normal(size=(6, 4)))[0]
    cols = plane @ rng.normal(size=(4, 5))
    basis, rank = subspace_basis(cols)
    assert rank == LOCAL_DIM == 4
    # principal angles against the plant
    s = np.linalg.svd(basis.T @ plane, compute_uv=False)
    assert np.max(np.arccos(np.clip(s, 0, 1))) < 1e-8
    # below the global dimension even when the members span all of it
    assert subspace_basis(rng.normal(size=(3, 6)))[1] == 2


def test_error_vector_in_span():
    # local subspace 0 is span{e1, e2, e3} (four members, d = 3 in R^4);
    # point 4 lies in it, point 5 is orthogonal to it
    G = unit_subspace(np.array([[1.0, 0.0, 0.0, 0.6, 0.3, 0.0],
                                [0.0, 1.0, 0.0, 0.8, 0.4, 0.0],
                                [0.0, 0.0, 1.0, 0.0, 0.5, 0.0],
                                [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]))
    Omega = np.zeros((6, 6))
    Omega[0, [1, 2, 3]] = [0.5, 0.3, 0.2]
    E, subspaces = build_error_matrix(G, Omega)
    assert subspaces[0].rank == 3
    assert E.data[0, 4] < 1e-12
    assert E.data[0, 5] == pytest.approx(1.0, abs=1e-12)


def test_error_vector_orthogonal():
    G = unit_subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    E, _ = build_error_matrix(G, np.zeros((2, 2)))
    assert E.data[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_error_vector_planted_separation():
    rng = np.random.default_rng(2)
    G, labels = planted_two_subspace(rng)
    # row 0 weights the whole first block equally: ties go to the lower
    # index, so its members are the first LOCAL_MEMBERS points
    Omega = np.zeros((len(labels), len(labels)))
    Omega[0, labels == 0] = 1.0
    E, subspaces = build_error_matrix(G, Omega)
    assert subspaces[0].members.tolist() == list(range(LOCAL_MEMBERS))
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
    E, _ = build_error_matrix(G, Omega)
    assert np.max(E.data) < 1e-12


def test_error_matrix_orthogonal_pair():
    # no stored candidates: one member, an empty basis, so every residual,
    # the point's own included, is the whole squared norm
    G = unit_subspace(np.array([[1.0, 0.0], [0.0, 1.0]]))
    E, subspaces = build_error_matrix(G, np.zeros((2, 2)))
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
    E, _ = build_error_matrix(G, Omega)
    within = np.concatenate([E.data[np.ix_(labels == k, labels == k)].ravel()
                             for k in (0, 1)])
    cross = E.data[np.ix_(labels == 0, labels == 1)].ravel()
    assert within.mean() * 10 < cross.mean()


def test_projector_idempotent():
    rng = np.random.default_rng(4)
    cols = rng.normal(size=(6, 3))
    basis, _ = subspace_basis(cols)
    G = unit_subspace(rng.normal(size=(6, 10)))
    once = G.data - basis @ (basis.T @ G.data)
    twice = once - basis @ (basis.T @ once)
    assert np.max(np.abs(once - twice)) < 1e-12


def test_self_error_small():
    # points of one rank-4 subspace of R^5, each with five members beside
    # itself: every local subspace is the plant, so no residual is left
    rng = np.random.default_rng(5)
    G = unit_subspace(np.linalg.qr(rng.normal(size=(5, 4)))[0]
                      @ rng.normal(size=(4, 15)))
    Omega = np.zeros((15, 15))
    for i in range(15):
        Omega[i, (i + np.arange(1, 6)) % 15] = 0.2
    E, subspaces = build_error_matrix(G, Omega)
    for i in range(15):
        assert E.data[i, i] < 1e-20
        basis, rank = subspaces[i].basis, subspaces[i].rank
        assert rank == 4
        assert np.max(np.abs(basis.T @ basis - np.eye(rank))) < 1e-10


def test_error_entries_in_unit_range():
    rng = np.random.default_rng(6)
    G = unit_subspace(rng.normal(size=(4, 12)))
    Omega = np.zeros((12, 12))
    E, _ = build_error_matrix(G, Omega)
    assert np.all(E.data >= 0)
    assert np.all(E.data <= 1 + 1e-9)


def reference_members(G, weights, stored, i):
    """Member rule, one row: i, then the stored columns with a nonzero
    weight by descending |weight|, then the stored zero-weight columns by
    NSI distance, ties to the lower index, LOCAL_MEMBERS in all."""
    others = [j for j in np.flatnonzero(stored[i]) if j != i]
    nonzero = sorted((-abs(weights[i, j]), j) for j in others
                     if weights[i, j] != 0)
    zero = sorted((1.0 - min((G[:, i] @ G[:, j]) ** 2, 1.0), j)
                  for j in others if weights[i, j] == 0)
    return [i] + [j for _, j in nonzero + zero][:LOCAL_MEMBERS - 1]


def test_error_rows_match_least_squares_projection():
    """Each row of E is the residual of a least-squares fit of every point
    onto the top-d singular vectors of that row's member set, taken
    alone."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m, P = 6, 25
        M = rng.normal(size=(m, P))
        M[:, 7] = M[:, 3]    # coincident points
        M[:, 12] = M[:, 3]
        G = unit_subspace(M)
        Omega = np.zeros((P, P))
        for i in range(P):
            support = rng.choice(P, size=int(rng.integers(0, 9)),
                                 replace=False)   # size 0: an empty row
            Omega[i, support] = rng.uniform(0.1, 1.0, size=len(support))
        Omega[3, [7, 12]] = 0.5
        E, subspaces = build_error_matrix(G, Omega)
        for i in range(P):
            members = reference_members(G.data, Omega, Omega != 0, i)
            d = min(4, m - 1, len(members) - 1)
            U = np.linalg.svd(G.data[:, members])[0][:, :d]
            coef = np.linalg.lstsq(U, G.data, rcond=None)[0]
            expected = np.sum((G.data - U @ coef) ** 2, axis=0)
            assert subspaces[i].rank == d
            assert np.max(np.abs(E.data[i] - expected)) < 1e-10


def csr_with_entries(dense, extra):
    """CSR array of the nonzeros of ``dense``, each row i led by the
    (column, value) pairs of ``extra[i]`` stored as given: explicit zeros
    and duplicate columns stay."""
    rows = [extra.get(i, []) + [(j, dense[i, j]) for j in np.flatnonzero(dense[i])]
            for i in range(dense.shape[0])]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([j for row in rows for j, _ in row])
    data = np.array([v for row in rows for _, v in row], dtype=float)
    return csr_array((data, indices, indptr), shape=dense.shape)


def test_members_and_rows_match_per_row_reference():
    """Members follow the per-row rule: stored zeros rank after every
    nonzero weight, by NSI distance; duplicate entries are summed first
    (entries that cancel are a stored zero); the point itself is never
    taken twice; rows with fewer than LOCAL_MEMBERS - 1 entries keep them
    all.  E's rows equal the plain residual expression of each basis, and
    a CSR input is not changed in place."""
    rng = np.random.default_rng(8)
    m, P = 5, 30
    G = unit_subspace(rng.normal(size=(m, P)))
    Omega = rng.normal(size=(P, P)) * (rng.uniform(size=(P, P)) < 0.15)
    Omega[2] = 0.0                       # empty row: the point alone
    Omega[4, 4] = 0.3                    # the point already in its support
    Omega[5, :] = -0.0                   # negative zeros are not stored
    Omega[6, 6:] = 1.0                   # a saturated row of tied weights
    Omega[7, :] = 0.0                    # two stored zeros, nothing else
    Omega[8, :] = 0.0                    # one weight, then column 9
    Omega[8, 12] = 0.7                   # stored as 0.5 and -0.5 below
    Omega[9, :] = 0.0                    # one weight, then three stored zeros
    Omega[9, 20] = 0.4
    zeros = {7: [(0, 0.0), (11, 0.0)], 8: [(9, 0.5), (9, -0.5)],
             9: [(1, 0.0), (2, 0.0), (3, 0.0)]}
    stored = Omega != 0
    for i, entries in zeros.items():
        stored[i, [j for j, _ in entries]] = True
    case = csr_with_entries(Omega, zeros)
    before = case.copy()
    E, subspaces = build_error_matrix(G, case)
    sizes = set()
    for i in range(P):
        members = reference_members(G.data, Omega, stored, i)
        assert subspaces[i].members.tolist() == members
        sizes.add(len(members))
        B = subspaces[i].basis
        assert np.allclose(E.data[i],
                           np.sum((G.data - B @ (B.T @ G.data)) ** 2, axis=0),
                           rtol=0, atol=1e-15)
    assert subspaces[7].members[0] == 7
    assert sorted(subspaces[7].members.tolist()) == [0, 7, 11]
    assert subspaces[8].members.tolist() == [8, 12, 9]
    assert subspaces[9].members.tolist()[:2] == [9, 20]
    assert {1, 2, LOCAL_MEMBERS} <= sizes
    assert (case != before).nnz == 0 and case.nnz == before.nnz
