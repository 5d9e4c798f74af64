"""The request contract of ``segment()`` and of the public functions that
take a count or a bounded real.

On any small Gaussian scene, ``segment()`` either returns P labels in
[0, n) or rejects the request with a ``ValueError`` that is not a LAPACK
failure; requests that cannot fit the input are always rejected.  Each
public function rejects a bad count or bound with a ``ValueError`` that
names the field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseg.clustering import SegmentConfig, kmeans, segment, spectral_embed
from subseg.neighbors import search_area, solve_all_neighbors
from subseg.projection import GlobalSubspace, pca_project
from subseg.subspace_error import build_error_matrix, subspace_basis
from subseg.synthcam import (Labeling, TrajectoryMatrix, corrupt,
                             make_motion_track)


@st.composite
def requests(draw):
    F = draw(st.integers(1, 4))
    P = draw(st.integers(1, 12))
    m_max = min(2 * F, P)
    # half of the draws stay in range, half may fall outside it
    n = draw(st.integers(1, P) | st.integers(-1, P + 2))
    m = draw(st.integers(1, m_max) | st.integers(-1, m_max + 2))
    projector = draw(st.sampled_from(["pca", "spca"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    data = 100.0 * np.random.default_rng(seed).normal(size=(2 * F, P))
    return TrajectoryMatrix.from_dense(data), n, m, projector


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None, derandomize=True)
@given(requests())
def test_segment_returns_labels_or_rejects_request(case):
    W, n, m, projector = case
    P = W.points
    try:
        labeling, _ = segment(W, SegmentConfig(n=n, m=m, projector=projector))
    except ValueError as exc:
        assert not isinstance(exc, np.linalg.LinAlgError)
        return
    assert not (n < 1 or m < 1 or n > P or m > min(W.data.shape))
    assert labeling.labels.shape == (P,)
    assert np.all((labeling.labels >= 0) & (labeling.labels < n))


_X = np.random.default_rng(8).normal(size=(6, 3))
_G = GlobalSubspace(_X.T / np.linalg.norm(_X.T, axis=0))
_W = TrajectoryMatrix.from_dense(_X)
_CALLS = {
    ("kmeans", "n"): lambda value: kmeans(_X, value),
    ("kmeans", "seed"): lambda value: kmeans(_X, 2, seed=value),
    ("spectral_embed", "n"): lambda value: spectral_embed(np.eye(6), value),
    ("search_area", "size"): lambda value: search_area(_X[:, 0], 0, value),
    ("solve_all_neighbors", "size"):
        lambda value: solve_all_neighbors(_G, size=value),
    ("pca_project", "m"): lambda value: pca_project(_W, value),
    ("make_motion_track", "frames"):
        lambda value: make_motion_track(0, value, 0.1, 1.0),
    ("make_motion_track", "seed"):
        lambda value: make_motion_track(value, 3, 0.1, 1.0),
    ("corrupt", "noise_sigma"): lambda value: corrupt(_W, value, 0.0, 0),
    ("corrupt", "seed"): lambda value: corrupt(_W, 0.1, 0.0, value),
    ("build_error_matrix", "rank_tol"): lambda value: build_error_matrix(
        _G, np.zeros((6, 6)), rank_tol=value),
    ("subspace_basis", "rank_tol"):
        lambda value: subspace_basis(np.eye(3), value),
    ("Labeling", "n"): lambda value: Labeling(np.zeros(6, dtype=int), value),
}


@pytest.mark.parametrize("function, field, value", [
    ("kmeans", "n", 2.5), ("kmeans", "n", True),
    ("spectral_embed", "n", 2.5),
    ("search_area", "size", 2.5), ("solve_all_neighbors", "size", 2.5),
    ("pca_project", "m", 2.5), ("make_motion_track", "frames", 2.5),
    ("corrupt", "noise_sigma", np.nan), ("corrupt", "noise_sigma", np.inf),
    ("build_error_matrix", "rank_tol", 5.0), ("Labeling", "n", 2.5),
    ("kmeans", "seed", 2.5), ("kmeans", "seed", -1), ("kmeans", "seed", True),
    ("make_motion_track", "seed", 2.5), ("make_motion_track", "seed", -1),
    ("make_motion_track", "seed", True), ("make_motion_track", "seed", [1]),
    ("corrupt", "seed", 2.5), ("corrupt", "seed", -1),
    ("corrupt", "seed", None),
    ("subspace_basis", "rank_tol", 5.0), ("subspace_basis", "rank_tol", 1.0),
    ("subspace_basis", "rank_tol", -0.5),
    ("subspace_basis", "rank_tol", np.nan)])
def test_public_function_rejects_bad_value(function, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        _CALLS[function, field](value)


def test_seeds_take_an_integer_or_a_seed_sequence():
    # make_scene passes SeedSequence children; numpy integers are integers
    for seed in (0, np.int64(7), np.random.SeedSequence(7)):
        track = make_motion_track(seed, 3, 0.1, 1.0)
        assert track.frames == 3
        assert corrupt(_W, 0.1, 0.5, seed).data.shape == _W.data.shape
    assert np.array_equal(make_motion_track(7, 3, 0.1, 1.0).rotations,
                          make_motion_track(np.random.SeedSequence(7), 3,
                                            0.1, 1.0).rotations)
    assert kmeans(_X, 2, seed=np.int64(3)).n == 2


def test_subspace_basis_accepts_rank_tol_bounds():
    # [0, 1): zero keeps every nonzero direction, the float below 1 keeps
    # only directions as strong as the first
    cols = np.diag([1.0, 0.5, 0.0])
    assert subspace_basis(cols, 0.0)[1] == 2
    assert subspace_basis(cols, np.nextafter(1.0, 0.0))[1] == 1
