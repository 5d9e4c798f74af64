import numpy as np
import pytest
from scipy.sparse import csr_array

from subseg.projection import GlobalSubspace
from subseg.subspace_error import build_error_matrix, subspace_basis


def unit_subspace(M):
    return GlobalSubspace(M / np.linalg.norm(M, axis=0))


def planted_two_subspace(rng, dim=5, per_block=20, angle_deg=30.0):
    """Unit columns drawn from two planes sharing one direction, the other
    directions separated by the given angle."""
    theta = np.radians(angle_deg)
    basis_a = np.zeros((dim, 2))
    basis_a[0, 0] = 1.0
    basis_a[1, 1] = 1.0
    basis_b = np.zeros((dim, 2))
    basis_b[2, 0] = 1.0
    basis_b[1, 1] = np.cos(theta)
    basis_b[3, 1] = np.sin(theta)
    cols = []
    for basis in (basis_a, basis_b):
        coeff = rng.normal(size=(2, per_block))
        cols.append(basis @ coeff)
    M = np.hstack(cols)
    return unit_subspace(M), np.r_[np.zeros(per_block), np.ones(per_block)]


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
    rng = np.random.default_rng(0)
    G = unit_subspace(rng.normal(size=(12, 12)))
    Omega = np.zeros((12, 12))
    for i in range(5):
        Omega[i] = rng.normal(size=12) * (rng.uniform(size=12) < 0.3)
    _, subspaces = build_error_matrix(G, Omega)
    for i in range(5):
        expected = sorted(set(np.flatnonzero(Omega[i]).tolist()) | {i})
        assert subspaces[i].members.tolist() == expected


def test_basis_single_member():
    col = np.array([[0.6], [0.8], [0.0]])
    basis, rank = subspace_basis(col)
    assert rank == 1
    assert np.allclose(np.abs(basis[:, 0]), [0.6, 0.8, 0.0])


def test_basis_two_orthogonal_members():
    cols = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    basis, rank = subspace_basis(cols)
    assert rank == 2
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-10)


def test_basis_planted_plane():
    rng = np.random.default_rng(1)
    plane = np.zeros((5, 2))
    plane[1, 0] = 1.0
    plane[3, 1] = 1.0
    cols = plane @ rng.normal(size=(2, 5))
    basis, rank = subspace_basis(cols)
    assert rank == 2
    # principal angles against the plant
    s = np.linalg.svd(basis.T @ plane, compute_uv=False)
    assert np.max(np.arccos(np.clip(s, 0, 1))) < 1e-8


def test_error_vector_in_span():
    # local subspace 0 is span{e1, e2}; point 2 lies in it
    G = unit_subspace(np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8],
                                [0.0, 0.0, 0.0]]))
    Omega = np.zeros((3, 3))
    Omega[0, 1] = 1.0
    E, _ = build_error_matrix(G, Omega)
    assert E.data[0, 2] < 1e-12


def test_error_vector_orthogonal():
    G = unit_subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    E, _ = build_error_matrix(G, np.zeros((2, 2)))
    assert E.data[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_error_vector_planted_separation():
    rng = np.random.default_rng(2)
    G, labels = planted_two_subspace(rng)
    # row 0 spans the whole first block
    Omega = np.zeros((len(labels), len(labels)))
    Omega[0, labels == 0] = 1.0
    E, subspaces = build_error_matrix(G, Omega)
    assert subspaces[0].members.tolist() == np.flatnonzero(labels == 0).tolist()
    e = E.data[0]
    assert e[labels == 0].mean() < 1e-6
    assert e[labels == 1].mean() > 0.1


def test_error_matrix_identical_points():
    col = np.array([0.6, 0.8, 0.0])
    G = unit_subspace(np.tile(col[:, None], (1, 4)))
    Omega = np.ones((4, 4)) - np.eye(4)
    Omega /= 3.0
    E, _ = build_error_matrix(G, Omega)
    assert np.max(E.data) < 1e-12


def test_error_matrix_orthogonal_pair():
    G = unit_subspace(np.array([[1.0, 0.0], [0.0, 1.0]]))
    E, _ = build_error_matrix(G, np.zeros((2, 2)))
    assert E.data[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert E.data[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.diag(E.data), 0.0, atol=1e-12)


def test_error_matrix_block_structure():
    rng = np.random.default_rng(3)
    G, labels = planted_two_subspace(rng)
    P = len(labels)
    Omega = np.zeros((P, P))
    for i in range(P):
        same = np.flatnonzero((labels == labels[i]) & (np.arange(P) != i))
        picks = rng.choice(same, size=3, replace=False)
        Omega[i, picks] = 1.0 / 3.0
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
    rng = np.random.default_rng(5)
    G = unit_subspace(rng.normal(size=(5, 15)))
    Omega = np.zeros((15, 15))
    for i in range(15):
        Omega[i, (i + 1) % 15] = 1.0
    E, subspaces = build_error_matrix(G, Omega)
    for i in range(15):
        assert E.data[i, i] < 1e-12  # (rank_tol)^2 bound
        basis = subspaces[i].basis
        assert np.max(np.abs(basis.T @ basis - np.eye(subspaces[i].rank))) < 1e-10


def test_error_entries_in_unit_range():
    rng = np.random.default_rng(6)
    G = unit_subspace(rng.normal(size=(4, 12)))
    Omega = np.zeros((12, 12))
    E, _ = build_error_matrix(G, Omega)
    assert np.all(E.data >= 0)
    assert np.all(E.data <= 1 + 1e-9)


def test_adding_member_never_increases_error():
    rng = np.random.default_rng(7)
    G = unit_subspace(rng.normal(size=(5, 8)))
    small = np.zeros((8, 8))
    small[0, [2, 5]] = 1.0
    large = small.copy()
    large[0, 6] = 1.0
    e_small = build_error_matrix(G, small, rank_tol=1e-12)[0].data[0]
    e_large = build_error_matrix(G, large, rank_tol=1e-12)[0].data[0]
    assert np.all(e_large <= e_small + 1e-12)


def test_error_rows_match_least_squares_projection():
    """Each row of E is the residual of a least-squares fit of every point
    onto that row's member columns, found without the SVD basis."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m, P = 6, 25
        M = rng.normal(size=(m, P))
        M[:, 7] = M[:, 3]    # coincident points
        M[:, 12] = M[:, 3]
        G = unit_subspace(M)
        Omega = np.zeros((P, P))
        for i in range(P):
            support = rng.choice(P, size=int(rng.integers(0, 5)),
                                 replace=False)   # size 0: an empty row
            Omega[i, support] = rng.uniform(0.1, 1.0, size=len(support))
        Omega[3, [7, 12]] = 0.5
        E, _ = build_error_matrix(G, Omega)
        for i in range(P):
            cols = G.data[:, sorted(set(np.flatnonzero(Omega[i])) | {i})]
            coef = np.linalg.lstsq(cols, G.data, rcond=None)[0]
            expected = np.sum((G.data - cols @ coef) ** 2, axis=0)
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
    """Members from the one support pass, and E from the reused residual
    buffer, equal the per-row unique/append form and the plain residual
    expression bit for bit.  A stored zero and duplicate entries that
    cancel are not support, and a CSR input is not changed in place."""
    rng = np.random.default_rng(8)
    m, P = 5, 30
    G = unit_subspace(rng.normal(size=(m, P)))
    Omega = rng.normal(size=(P, P)) * (rng.uniform(size=(P, P)) < 0.15)
    Omega[2] = 0.0                       # empty row: the point alone
    Omega[4, 4] = 0.3                    # the point already in its support
    Omega[5, :] = -0.0                   # negative zeros are not support
    Omega[6, 6:] = 1.0                   # a saturated row
    Omega[7, 0] = 0.0                    # stored as an explicit zero below
    Omega[8, 9] = 0.0                    # stored as 0.5 and -0.5 below
    stored_zero = csr_with_entries(Omega, {7: [(0, 0.0)]})
    cancelling = csr_with_entries(Omega, {8: [(9, 0.5), (9, -0.5)]})
    for case in (Omega, stored_zero, cancelling):
        E, subspaces = build_error_matrix(G, case)
        for i in range(P):
            members = np.unique(np.append(np.flatnonzero(Omega[i]), i))
            assert np.array_equal(subspaces[i].members, members)
            B = subspaces[i].basis
            assert np.array_equal(E.data[i],
                                  np.sum((G.data - B @ (B.T @ G.data)) ** 2,
                                         axis=0))
    assert stored_zero.nnz == np.count_nonzero(Omega) + 1
    assert cancelling.nnz == np.count_nonzero(Omega) + 2
