"""Synthetic multi-body rigid-motion scenes under an orthographic affine camera.

Every test scene is built here: rigid motion tracks, 3-D point clouds,
projection to a stacked 2F x P trajectory matrix, and optional corruption
(additive noise, trailing-suffix occlusion).  All generation is a pure
function of the seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation


class FrameMismatch(ValueError):
    """Motion tracks passed to a single scene disagree on frame count."""


@dataclass(frozen=True)
class MotionTrack:
    """Rigid pose sequence: one rotation and translation per frame."""

    rotations: np.ndarray    # (F, 3, 3)
    translations: np.ndarray  # (F, 3)

    def __post_init__(self):
        R = np.asarray(self.rotations, dtype=float)
        T = np.asarray(self.translations, dtype=float)
        if R.ndim != 3 or R.shape[1:] != (3, 3) or T.shape != (R.shape[0], 3):
            raise ValueError("need (F,3,3) rotations and (F,3) translations")
        eye = np.eye(3)
        for f in range(R.shape[0]):
            if np.max(np.abs(R[f].T @ R[f] - eye)) > 1e-12:
                raise ValueError(f"rotation {f} is not orthonormal")
            if not math.isclose(np.linalg.det(R[f]), 1.0, abs_tol=1e-9):
                raise ValueError(f"rotation {f} has det != +1")
        object.__setattr__(self, "rotations", R)
        object.__setattr__(self, "translations", T)

    @property
    def frames(self):
        return self.rotations.shape[0]


@dataclass(frozen=True)
class PointCloud3D:
    """Columns of 3-D world points belonging to one rigid body."""

    points: np.ndarray  # (3, P_k)

    def __post_init__(self):
        X = np.asarray(self.points, dtype=float)
        if X.ndim != 2 or X.shape[0] != 3:
            raise ValueError("points must be 3 x P_k")
        if X.shape[1] < 4:
            raise ValueError("need at least 4 points per body")
        if not np.all(np.isfinite(X)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", X)

    @property
    def size(self):
        return self.points.shape[1]


@dataclass
class TrajectoryMatrix:
    """2F x P stack of 2-D feature positions with an observation mask.

    Masked-out entries hold 0 by convention; ``mask`` is all-true for a
    fully observed scene.
    """

    data: np.ndarray
    mask: np.ndarray
    frames: int
    points: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.data.shape != (2 * self.frames, self.points):
            raise ValueError("data must be 2F x P")
        if self.mask.shape != self.data.shape:
            raise ValueError("mask must match data shape")
        # NaN, inf and squares that overflow all make this sum non-finite;
        # the solvers square the coordinates, so none of them can run
        with np.errstate(over="ignore"):
            square_sum = np.vdot(self.data, self.data)
        if not np.isfinite(square_sum):
            raise ValueError("trajectory coordinates must be finite and "
                             "their sum of squares must not overflow")
        if np.any(self.data[~self.mask] != 0.0):
            raise ValueError("masked-out entries must be zero")

    @classmethod
    def from_dense(cls, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] % 2 != 0:
            raise ValueError("data must be 2F x P")
        return cls(data, np.ones(data.shape, dtype=bool),
                   data.shape[0] // 2, data.shape[1])


@dataclass
class Labeling:
    """Cluster assignment for every trajectory, ids in [0, n)."""

    labels: np.ndarray
    n: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n):
            raise ValueError("labels must lie in [0, n)")

    def __len__(self):
        return self.labels.size


@dataclass(frozen=True)
class SceneConfig:
    """Parameters for a full synthetic scene, reproducible from the seed."""

    n_motions: int = 2
    points_per_motion: tuple = 60
    frames: int = 30
    rotation_rate: tuple = 0.15     # radians / frame per motion
    translation_rate: tuple = 1.2   # world units / frame per motion
    noise_sigma: float = 0.0
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_motions < 1:
            raise ValueError("n_motions must be >= 1")
        if self.frames < 3:
            raise ValueError("frames must be >= 3")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        for name in ("points_per_motion", "rotation_rate", "translation_rate"):
            value = getattr(self, name)
            if np.isscalar(value):
                value = (value,) * self.n_motions
            value = tuple(value)
            if len(value) != self.n_motions:
                raise ValueError(f"{name} must have one entry per motion")
            object.__setattr__(self, name, value)
        if any(p < 4 for p in self.points_per_motion):
            raise ValueError("points_per_motion entries must be >= 4")


def make_motion_track(seed, frames, rotation_rate, translation_rate):
    """Build a rigid motion as incremental per-frame axis-angle steps.

    The rotation axis and translation direction are drawn once from the
    seed; frame f then carries step^(f-1).  Deterministic for a fixed seed.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    rng = np.random.default_rng(seed)
    axis = _random_unit(rng)
    direction = _random_unit(rng)
    step = Rotation.from_rotvec(axis * rotation_rate).as_matrix()

    rotations = np.empty((frames, 3, 3))
    translations = np.empty((frames, 3))
    R = np.eye(3)
    for f in range(frames):
        # re-orthonormalize so long products stay on SO(3) to 1e-12
        U, _, Vt = np.linalg.svd(R)
        R = U @ Vt
        rotations[f] = R
        translations[f] = f * translation_rate * direction
        R = step @ R
    return MotionTrack(rotations, translations)


def project_scene(motions, clouds):
    """Project rigid bodies with an orthographic affine camera.

    Image coordinates are the first two rows of [R_f T_f] [X; 1]; the rows
    for frame f land at (2f, 2f+1).  Column block k of the result holds
    exactly the trajectories of motion k, labeled k.
    """
    if len(motions) != len(clouds):
        raise ValueError("need one point cloud per motion")
    if not motions:
        raise ValueError("need at least one motion")
    frames = motions[0].frames
    if any(m.frames != frames for m in motions):
        raise FrameMismatch("all motion tracks must share the frame count")

    blocks = []
    labels = []
    for k, (track, cloud) in enumerate(zip(motions, clouds)):
        X = cloud.points
        block = np.empty((2 * frames, cloud.size))
        for f in range(frames):
            xy = track.rotations[f][:2] @ X + track.translations[f][:2, None]
            block[2 * f] = xy[0]
            block[2 * f + 1] = xy[1]
        blocks.append(block)
        labels.append(np.full(cloud.size, k))

    data = np.hstack(blocks)
    W = TrajectoryMatrix.from_dense(data)
    return W, Labeling(np.concatenate(labels), len(motions))


def corrupt(W, noise_sigma, missing_rate, seed):
    """Add Gaussian noise and drop trailing trajectory suffixes.

    Missing data simulates occlusion: ceil(missing_rate * P) columns lose a
    trailing block of frames (at most half the sequence), zero-filled with
    the mask cleared.  Noise is applied to observed entries only.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if not 0.0 <= missing_rate < 1.0:
        raise ValueError("missing_rate must lie in [0, 1)")

    rng = np.random.default_rng(seed)
    data = W.data.copy()
    mask = W.mask.copy()

    if noise_sigma > 0:
        data[mask] += rng.normal(0.0, noise_sigma, size=int(mask.sum()))

    n_missing = math.ceil(missing_rate * W.points)
    if n_missing > 0:
        columns = rng.choice(W.points, size=n_missing, replace=False)
        for j in columns:
            first_lost = rng.integers((W.frames + 1) // 2, W.frames)
            mask[2 * first_lost:, j] = False
            data[2 * first_lost:, j] = 0.0

    return TrajectoryMatrix(data, mask, W.frames, W.points)


def make_scene(config):
    """Generate a labeled trajectory matrix from a SceneConfig."""
    children = np.random.SeedSequence(config.seed).spawn(config.n_motions + 2)
    cloud_rng = np.random.default_rng(children[-2])

    motions = []
    clouds = []
    for k in range(config.n_motions):
        motions.append(make_motion_track(children[k], config.frames,
                                         config.rotation_rate[k],
                                         config.translation_rate[k]))
        center = cloud_rng.normal(0.0, 40.0, size=3)
        spread = cloud_rng.uniform(-50.0, 50.0,
                                   size=(3, config.points_per_motion[k]))
        clouds.append(PointCloud3D(center[:, None] + spread))

    W, labeling = project_scene(motions, clouds)
    if config.noise_sigma > 0 or config.missing_rate > 0:
        W = corrupt(W, config.noise_sigma, config.missing_rate, children[-1])
    return W, labeling


def write_trajectory(path, W, labeling=None):
    """Write the plain-text trajectory format.

    Header ``F P n``, then 2F rows of data, 2F rows of mask bits, then one
    line of ground-truth labels or ``-`` when absent.
    """
    n = labeling.n if labeling is not None else 0
    with open(path, "w") as fh:
        fh.write(f"{W.frames} {W.points} {n}\n")
        for row in W.data:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")
        for row in W.mask:
            fh.write(" ".join("1" if v else "0" for v in row) + "\n")
        if labeling is not None:
            fh.write(" ".join(str(v) for v in labeling.labels) + "\n")
        else:
            fh.write("-\n")


def read_trajectory(path):
    """Read the plain-text trajectory format; returns (W, labeling-or-None)."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    try:
        F, P, n = (int(v) for v in lines[0].split())
        data = np.array([[float(v) for v in lines[1 + r].split()]
                         for r in range(2 * F)])
        mask = np.array([[v == "1" for v in lines[1 + 2 * F + r].split()]
                         for r in range(2 * F)])
        label_line = lines[1 + 4 * F]
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed trajectory file {path}: {exc}") from exc
    if data.shape != (2 * F, P) or mask.shape != (2 * F, P):
        raise ValueError(f"malformed trajectory file {path}: bad shape")

    W = TrajectoryMatrix(data, mask, F, P)
    labeling = None
    if label_line != "-":
        labels = np.array([int(v) for v in label_line.split()])
        if labels.size != P:
            raise ValueError(f"malformed trajectory file {path}: bad labels")
        labeling = Labeling(labels, n if n > 0 else int(labels.max()) + 1)
    return W, labeling


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
