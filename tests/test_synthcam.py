import math

import numpy as np
import pytest

import subseg
from subseg.synthcam import (FrameMismatch, Labeling, MotionTrack,
                             PointCloud3D, SceneConfig, TrajectoryMatrix,
                             corrupt, make_motion_track, make_scene,
                             project_scene, read_trajectory, write_trajectory)


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


SKEWED = np.eye(3) + np.diag([1e-6, 0.0], k=1)   # a shear: det is +1
REFLECTION = np.diag([1.0, 1.0, -1.0])


@pytest.mark.parametrize("bad, message", [
    ({2: SKEWED}, "rotation 2 is not orthonormal"),
    ({2: REFLECTION}, "rotation 2 has det != +1"),
    ({1: REFLECTION, 3: SKEWED}, "rotation 1 has det != +1"),
    ({1: SKEWED, 3: REFLECTION}, "rotation 1 is not orthonormal"),
])
def test_motion_track_names_first_bad_rotation(bad, message):
    track = make_motion_track(seed=1, frames=5, rotation_rate=0.1,
                              translation_rate=0.05)
    rotations = track.rotations.copy()
    for f, R in bad.items():
        rotations[f] = R
    with pytest.raises(ValueError) as info:
        MotionTrack(rotations, track.translations)
    assert str(info.value) == message


def test_project_scene_matches_per_frame_reference():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        frames = int(rng.integers(3, 12))
        motions = [make_motion_track(seed=np.random.SeedSequence([trial, k]),
                                     frames=frames,
                                     rotation_rate=rng.uniform(0.0, 0.4),
                                     translation_rate=rng.uniform(0.0, 2.0))
                   for k in range(n)]
        clouds = [random_cloud(rng, size=int(rng.integers(4, 30)))
                  for _ in range(n)]
        W, labeling = project_scene(motions, clouds)
        blocks = []
        for track, cloud in zip(motions, clouds):
            block = np.empty((2 * frames, cloud.size))
            for f in range(frames):
                xy = (track.rotations[f][:2] @ cloud.points
                      + track.translations[f][:2, None])
                block[2 * f], block[2 * f + 1] = xy
            blocks.append(block)
        assert np.array_equal(W.data, np.hstack(blocks))
        assert labeling.labels.tolist() == [
            k for k, cloud in enumerate(clouds) for _ in range(cloud.size)]


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
    dict(seed=-1),
    dict(seed=True),
    dict(seed=1.5),
    dict(noise_sigma=float("nan")),
    dict(noise_sigma=float("inf")),
    dict(rotation_rate=float("nan")),
    dict(rotation_rate=(0.1, float("inf"))),
    dict(translation_rate=float("-inf")),
    dict(n_motions=2.0),
    dict(n_motions=True),
    dict(frames=3.5),
    dict(frames=np.float64(30)),
    dict(points_per_motion=60.5),
    dict(points_per_motion=(60, 60.5)),
    dict(points_per_motion=(True, 60)),
    dict(points_per_motion=(10, 10, 10)),   # n_motions is 2
])
def test_config_validation(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        SceneConfig(**bad)


def test_config_accepts_numpy_integer_seed():
    assert SceneConfig(seed=np.int64(3)).seed == 3


def test_config_accepts_numpy_integer_sizes():
    config = SceneConfig(n_motions=np.int64(2), frames=np.int64(5),
                         points_per_motion=(np.int64(6), 7))
    W, labels = make_scene(config)
    assert (W.frames, W.points, labels.n) == (5, 13, 2)


@pytest.mark.parametrize("rate", [1e308, -1e308])
def test_scene_rejects_overflowing_rotation_rate(rate):
    # finite, but the rotation angle of the step overflows
    config = SceneConfig(rotation_rate=rate)
    with pytest.raises(ValueError, match="rotation_rate"):
        make_scene(config)


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


def test_trajectory_file_golden_text(tmp_path):
    data = np.array([[0.1, -0.0, 1e-300],
                     [123456789.123, 0.0, -2.5]])
    mask = np.array([[True, True, True], [True, False, True]])
    W = TrajectoryMatrix(data, mask)
    body = ("0.10000000000000001 -0 1e-300\n"
            "123456789.123 0 -2.5\n"
            "1 1 1\n"
            "1 0 1\n")
    for labeling, header, last in ((Labeling([0, 1, 1], 2), "1 3 2", "0 1 1"),
                                   (None, "1 3 0", "-")):
        path = tmp_path / "tiny.traj"
        write_trajectory(path, W, labeling)
        assert path.read_text() == f"{header}\n{body}{last}\n"
        W2, labels2 = read_trajectory(path)
        assert np.array_equal(W2.data, data) and np.signbit(W2.data[0, 1])
        assert np.array_equal(W2.mask, mask)
        if labeling is None:
            assert labels2 is None
        else:
            assert labels2.labels.tolist() == [0, 1, 1] and labels2.n == 2


_TRACK = make_motion_track(seed=1, frames=3, rotation_rate=0.1,
                           translation_rate=0.05)
_CLOUD = PointCloud3D(np.arange(12.0).reshape(3, 4))


@pytest.mark.parametrize("build, message", [
    (lambda: PointCloud3D(np.ones((3, 3))), "need at least 4 points"),
    (lambda: PointCloud3D(np.ones((2, 5))), "points must be 3 x P_k"),
    (lambda: PointCloud3D(np.r_[np.ones((2, 5)), [[np.nan] + [1.0] * 4]]),
     "points must be finite"),
    (lambda: MotionTrack(np.ones((2, 3, 2)), np.zeros((2, 3))),
     "need (F,3,3) rotations"),
    (lambda: project_scene([], []), "need at least one motion"),
    (lambda: project_scene([_TRACK], [_CLOUD, _CLOUD]),
     "need one point cloud per motion"),
    (lambda: TrajectoryMatrix.from_dense(np.ones((3, 4))),
     "data must be 2F x P"),
    (lambda: TrajectoryMatrix(np.ones((4, 3)), np.ones((4, 2), dtype=bool)),
     "mask must match data shape"),
    (lambda: Labeling(np.zeros((2, 3), dtype=int), 1),
     "labels must be one-dimensional"),
], ids=["cloud-3-points", "cloud-2x5", "cloud-nan", "track-2x3x2",
        "scene-no-motion", "scene-cloud-count", "trajectory-odd-rows",
        "trajectory-mask-shape", "labels-2d"])
def test_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert message in str(info.value)


def test_masked_entries_must_be_zero():
    data = np.ones((4, 3))
    mask = np.ones((4, 3), dtype=bool)
    mask[3, 1] = False
    with pytest.raises(ValueError):
        TrajectoryMatrix(data, mask)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
def test_trajectory_coordinates_must_be_finite_without_overflow(value):
    data = np.ones((4, 3))
    data[2, 1] = value
    with pytest.raises(ValueError, match="sum of squares must not overflow"):
        TrajectoryMatrix.from_dense(data)


def test_trajectory_sum_of_squares_may_approach_float_limit():
    W = TrajectoryMatrix.from_dense(np.full((4, 3), np.sqrt(1.7e308 / 12)))
    assert np.isfinite(np.vdot(W.data, W.data))
