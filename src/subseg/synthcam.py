"""Synthetic multi-body rigid-motion scenes under an orthographic affine camera.

Every test scene is built here: rigid motion tracks, 3-D point clouds,
projection to a stacked 2F x P trajectory matrix, and optional corruption
(additive noise, trailing-suffix occlusion).  All generation is a pure
function of the seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_count, check_range, check_seed


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
        gram_error = np.abs(R.transpose(0, 2, 1) @ R - np.eye(3))
        skewed = gram_error.max(axis=(1, 2)) > 1e-12
        improper = ~np.isclose(np.linalg.det(R), 1.0, rtol=0.0, atol=1e-9)
        if np.any(skewed | improper):
            f = int(np.argmax(skewed | improper))
            problem = "is not orthonormal" if skewed[f] else "has det != +1"
            raise ValueError(f"rotation {f} {problem}")
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

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.data.ndim != 2 or self.data.shape[0] % 2 != 0:
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

    @property
    def frames(self):
        return self.data.shape[0] // 2

    @property
    def points(self):
        return self.data.shape[1]

    @classmethod
    def from_dense(cls, data):
        return cls(data, np.ones(np.shape(data), dtype=bool))


@dataclass
class Labeling:
    """Cluster assignment for every trajectory, ids in [0, n)."""

    labels: np.ndarray
    n: int

    def __post_init__(self):
        check_count("n", self.n, 1)
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
        check_count("n_motions", self.n_motions, 1)
        check_count("frames", self.frames, 3)
        check_range("missing_rate", self.missing_rate, 0, 1)
        check_range("noise_sigma", self.noise_sigma, 0)
        check_count("seed", self.seed, 0)
        for name in ("points_per_motion", "rotation_rate", "translation_rate"):
            value = getattr(self, name)
            if np.isscalar(value):
                value = (value,) * self.n_motions
            value = tuple(value)
            if len(value) != self.n_motions:
                raise ValueError(f"{name} must have one entry per motion")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, value)
        for k, p in enumerate(self.points_per_motion):
            check_count(f"points_per_motion[{k}]", p, 4)


def make_motion_track(seed, frames, rotation_rate, translation_rate):
    """Build a rigid motion as incremental per-frame axis-angle steps.

    The rotation axis and translation direction are drawn once from the
    seed; frame f then carries step^(f-1).  Deterministic for a fixed seed.
    """
    check_seed(seed)
    check_count("frames", frames, 1)
    # imported here so that ``import subseg`` does not load scipy.spatial
    from scipy.spatial.transform import Rotation
    rng = np.random.default_rng(seed)
    axis = _random_unit(rng)
    direction = _random_unit(rng)
    step = Rotation.from_rotvec(axis * rotation_rate).as_matrix()
    # a rate near the float limit overflows the rotation angle
    if not np.all(np.isfinite(step)):
        raise ValueError(f"rotation_rate {rotation_rate} gives a non-finite "
                         "step rotation")

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

    # one (F, 2, P_k) product per motion, stacked frame by frame
    blocks = [(m.rotations[:, :2] @ c.points + m.translations[:, :2, None])
              .reshape(2 * frames, c.size) for m, c in zip(motions, clouds)]
    labels = np.repeat(np.arange(len(clouds)), [c.size for c in clouds])
    return (TrajectoryMatrix.from_dense(np.hstack(blocks)),
            Labeling(labels, len(motions)))


def corrupt(W, noise_sigma, missing_rate, seed):
    """Add Gaussian noise and drop trailing trajectory suffixes.

    Missing data simulates occlusion: ceil(missing_rate * P) columns lose a
    trailing block of frames (at most half the sequence), zero-filled with
    the mask cleared.  Noise is applied to observed entries only.
    """
    check_range("noise_sigma", noise_sigma, 0)
    check_range("missing_rate", missing_rate, 0, 1)
    check_seed(seed)

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

    return TrajectoryMatrix(data, mask)


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
        np.savetxt(fh, W.data, fmt="%.17g")
        np.savetxt(fh, W.mask, fmt="%d")
        if labeling is not None:
            np.savetxt(fh, labeling.labels[None], fmt="%d")
        else:
            fh.write("-\n")


def read_trajectory(path):
    """Read the plain-text trajectory format; returns (W, labeling-or-None)."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    try:
        F, P, n = (int(v) for v in lines[0].split())
        if n < 0:
            raise ValueError(f"negative motion count {n}")
        data = _float_rows(lines[1:1 + 2 * F])
        mask = _mask_rows(lines[1 + 2 * F:1 + 4 * F], P)
        label_row = lines[1 + 4 * F].split()
        labels = None if label_row == ["-"] else np.array(label_row, dtype=int)
    except (IndexError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed trajectory file {path}: {exc}") from exc
    if data.shape != (2 * F, P):
        raise ValueError(f"malformed trajectory file {path}: bad shape")
    if n > P:
        raise ValueError(f"malformed trajectory file {path}: "
                         f"{n} motions but {P} trajectories")
    if len(lines) > 2 + 4 * F:
        raise ValueError(f"malformed trajectory file {path}: "
                         "lines after the label line")

    W = TrajectoryMatrix(data, mask)
    if labels is None:
        return W, None
    if labels.size != P:
        raise ValueError(f"malformed trajectory file {path}: bad labels")
    return W, Labeling(labels, n if n > 0 else int(labels.max()) + 1)


def _float_rows(rows):
    """Parse rows of numbers as float() parses each token, in one
    ``np.loadtxt`` call.  loadtxt refuses a few tokens that float() takes
    (``1_0``, non-ASCII digits, a lone carriage return) and takes none
    that float() refuses; when it refuses, or there are no rows, the rows
    are parsed one by one, which accepts them or names the fault."""
    if rows:
        try:
            return np.loadtxt(rows, ndmin=2, comments=None)
        except ValueError:
            pass
    return np.array([np.array(row.split(), dtype=float) for row in rows])


def _mask_rows(rows, P):
    """Mask bits of rows that each hold P tokens, every one exactly ``0``
    or ``1``.  Each row is split once; the joined tokens are one
    character each exactly when their length is the token count, and
    their bytes give the bits."""
    tokens = [row.split() for row in rows]
    if any(len(row) != P for row in tokens):
        raise ValueError("bad shape")
    joined = "".join(map("".join, tokens))
    if len(joined) != len(rows) * P or joined.strip("01"):
        raise ValueError("mask entries must be 0 or 1")
    bits = np.frombuffer(joined.encode(), dtype=np.uint8) == ord("1")
    return bits.reshape(len(rows), P)


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
