import math

import numpy as np
import pytest

import subseg
from subseg.synthcam import (FrameMismatch, PointCloud3D, SceneConfig,
                             TrajectoryMatrix, corrupt, make_motion_track,
                             make_scene, project_scene, read_trajectory,
                             write_trajectory)


def numerical_rank(M, rel_tol=1e-9):
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0]))


def random_cloud(rng, size=50):
    return PointCloud3D(rng.normal(0, 30, size=(3, size)))


def test_zero_rate_track_is_static():
    track = make_motion_track(seed=1, frames=5, rotation_rate=0.0,
                              translation_rate=0.0)
    for f in range(5):
        assert np.allclose(track.rotations[f], np.eye(3), atol=1e-15)
        assert np.all(track.translations[f] == 0)


def test_track_rotations_orthonormal():
    track = make_motion_track(seed=1, frames=5, rotation_rate=0.1,
                              translation_rate=0.05)
    R5 = track.rotations[4]
    assert np.max(np.abs(R5.T @ R5 - np.eye(3))) < 1e-12
    assert math.isclose(np.linalg.det(R5), 1.0, abs_tol=1e-9)


def test_track_deterministic():
    a = make_motion_track(seed=7, frames=30, rotation_rate=0.05,
                          translation_rate=0.1)
    b = make_motion_track(seed=7, frames=30, rotation_rate=0.05,
                          translation_rate=0.1)
    assert np.array_equal(a.rotations, b.rotations)
    assert np.array_equal(a.translations, b.translations)


def test_static_motion_degenerate_rank():
    rng = np.random.default_rng(0)
    track = make_motion_track(seed=1, frames=6, rotation_rate=0.0,
                              translation_rate=0.0)
    W, _ = project_scene([track], [random_cloud(rng)])
    for f in range(1, 6):
        assert np.allclose(W.data[2 * f], W.data[0])
        assert np.allclose(W.data[2 * f + 1], W.data[1])
    assert numerical_rank(W.data) <= 3


def test_single_motion_rank_at_most_4():
    rng = np.random.default_rng(3)
    track = make_motion_track(seed=3, frames=30, rotation_rate=0.1,
                              translation_rate=0.5)
    W, labels = project_scene([track], [random_cloud(rng)])
    assert numerical_rank(W.data) <= 4
    assert labels.n == 1


def test_two_motion_rank_at_most_8():
    rng = np.random.default_rng(4)
    tracks = [make_motion_track(seed=s, frames=30, rotation_rate=0.1,
                                translation_rate=0.5) for s in (5, 6)]
    clouds = [random_cloud(rng), random_cloud(rng)]
    W, labels = project_scene(tracks, clouds)
    assert numerical_rank(W.data) <= 8
    assert np.array_equal(labels.labels, np.r_[np.zeros(50), np.ones(50)])


def test_frame_mismatch_rejected():
    rng = np.random.default_rng(5)
    tracks = [make_motion_track(seed=1, frames=10, rotation_rate=0.1,
                                translation_rate=0.1),
              make_motion_track(seed=2, frames=12, rotation_rate=0.1,
                                translation_rate=0.1)]
    with pytest.raises(FrameMismatch):
        project_scene(tracks, [random_cloud(rng), random_cloud(rng)])


def test_motion_order_permutation_is_consistent():
    rng = np.random.default_rng(6)
    tracks = [make_motion_track(seed=s, frames=10, rotation_rate=0.1,
                                translation_rate=0.3) for s in (1, 2)]
    clouds = [random_cloud(rng, 20), random_cloud(rng, 30)]
    W_ab, lab_ab = project_scene(tracks, clouds)
    W_ba, lab_ba = project_scene(tracks[::-1], clouds[::-1])
    # swapped order = column blocks swapped; labels track their blocks
    assert np.array_equal(W_ba.data[:, :30], W_ab.data[:, 20:])
    assert np.array_equal(W_ba.data[:, 30:], W_ab.data[:, :20])
    assert np.array_equal(lab_ab.labels, np.r_[np.zeros(20), np.ones(30)])
    assert np.array_equal(lab_ba.labels, np.r_[np.zeros(30), np.ones(20)])


def test_corrupt_identity():
    W, _ = make_scene(SceneConfig(seed=1))
    out = corrupt(W, 0.0, 0.0, seed=9)
    assert np.array_equal(out.data, W.data)
    assert np.array_equal(out.mask, W.mask)


def test_corrupt_missing_column_count():
    W, _ = make_scene(SceneConfig(seed=2))
    out = corrupt(W, 0.0, 0.2, seed=9)
    truncated = np.flatnonzero(~out.mask.all(axis=0))
    assert truncated.size == math.ceil(0.2 * W.points)
    for j in truncated:
        col = out.mask[:, j]
        first_false = np.argmin(col)
        assert not col[first_false:].any()      # contiguous trailing suffix
        assert col[:first_false].all()
        assert np.all(out.data[first_false:, j] == 0)


def test_corrupt_noise_scale():
    W, _ = make_scene(SceneConfig(points_per_motion=(100, 100), frames=30,
                                  seed=3))
    assert 2 * W.frames * W.points >= 10_000
    out = corrupt(W, 0.5, 0.0, seed=11)
    ratio = np.linalg.norm(out.data - W.data) / math.sqrt(2 * W.frames * W.points)
    assert 0.45 <= ratio <= 0.55


def test_scene_deterministic():
    W1, l1 = make_scene(SceneConfig(seed=42, noise_sigma=0.3, missing_rate=0.1))
    W2, l2 = make_scene(SceneConfig(seed=42, noise_sigma=0.3, missing_rate=0.1))
    assert np.array_equal(W1.data, W2.data)
    assert np.array_equal(W1.mask, W2.mask)
    assert np.array_equal(l1.labels, l2.labels)


def test_single_motion_blocks_rank_property():
    # every noiseless single-motion block has numerical rank <= 4
    for seed in range(5):
        cfg = SceneConfig(n_motions=2, seed=seed)
        W, labels = make_scene(cfg)
        for k in range(2):
            block = W.data[:, labels.labels == k]
            assert numerical_rank(block) <= 4


@pytest.mark.parametrize("bad", [
    dict(n_motions=0),
    dict(frames=2),
    dict(missing_rate=1.0),
    dict(noise_sigma=-1.0),
    dict(points_per_motion=(3, 60)),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        SceneConfig(**bad)


def test_trajectory_file_round_trip(tmp_path):
    W, labels = make_scene(SceneConfig(seed=5, missing_rate=0.15))
    path = tmp_path / "scene.traj"
    write_trajectory(path, W, labels)
    W2, labels2 = read_trajectory(path)
    assert np.array_equal(W.data, W2.data)
    assert np.array_equal(W.mask, W2.mask)
    assert np.array_equal(labels.labels, labels2.labels)
    assert labels2.n == labels.n


def test_trajectory_file_without_labels(tmp_path):
    W, _ = make_scene(SceneConfig(seed=6))
    path = tmp_path / "scene.traj"
    write_trajectory(path, W, None)
    W2, labels2 = read_trajectory(path)
    assert labels2 is None
    assert np.array_equal(W.data, W2.data)


def test_masked_entries_must_be_zero():
    data = np.ones((4, 3))
    mask = np.ones((4, 3), dtype=bool)
    mask[3, 1] = False
    with pytest.raises(ValueError):
        TrajectoryMatrix(data, mask, 2, 3)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
def test_trajectory_coordinates_must_be_finite_without_overflow(value):
    data = np.ones((4, 3))
    data[2, 1] = value
    with pytest.raises(ValueError, match="sum of squares must not overflow"):
        TrajectoryMatrix.from_dense(data)


def test_trajectory_sum_of_squares_may_approach_float_limit():
    W = TrajectoryMatrix.from_dense(np.full((4, 3), np.sqrt(1.7e308 / 12)))
    assert np.isfinite(np.vdot(W.data, W.data))
