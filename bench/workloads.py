"""Benchmark workloads: which scenes each one segments, made from a seed.

A workload fixes the scene sizes and pipeline settings; the seed draws
everything else (motions, point clouds, noise, occlusion), so the same
seed gives the same scenes and the size mix never changes between seeds.
The sizes follow the Hopkins155 categories (Tron & Vidal, CVPR 2007).
Grid entries are (motions n, points P, share of trajectories that lose
trailing frames).
"""

from dataclasses import dataclass

import numpy as np

from subseg import SceneConfig, SegmentConfig

FRAMES = 30
NOISE = 0.5


@dataclass(frozen=True)
class SceneSpec:
    """One scene of a workload and the configuration it is segmented with."""

    scene: SceneConfig
    config: SegmentConfig

    @property
    def points(self):
        return sum(self.scene.points_per_motion)


# hopkins-small: typical Hopkins-sized traffic.  The ADMM neighbor solve
# dominates and the dense P x P layers are a few percent, so solver changes
# show here and dense-matrix changes should not.  Every third scene loses
# trailing frames on 10 % of its trajectories.  Small and large scenes
# alternate, so the partial pass that ends a run is not biased to either
# size.  Each size appears three times: a run makes about one pass, and
# its medians and mean accuracy rest on 36 different scenes.
HOPKINS_GRID = [(2, 120, 0.0), (3, 450, 0.0), (2, 180, 0.1),
                (3, 390, 0.0), (2, 240, 0.0), (3, 330, 0.1),
                (2, 300, 0.0), (3, 270, 0.0), (2, 360, 0.1),
                (3, 210, 0.0), (2, 450, 0.0), (3, 150, 0.1)] * 3

# large-p3000: the dense P x P layers (NSI matrix, search area, weights,
# error matrix, affinity, Laplacian, eigh) take about 40 % of the time,
# and the affinity step holds about 1 GB of 72 MB P x P matrices.
LARGE_GRID = [(3, 3000, 0.0)]

# many-motions: wide SPCA (m = 4n), k-means with 6-8 centres and the n!
# bijection search in metrics.misclassification.  Sixteen scenes, because
# the share of rows whose ADMM solve converges early, and so the time of a
# scene, varies from scene to scene.
MANY_GRID = [(6, 480, 0.0), (8, 480, 0.0)] * 8

WORKLOADS = {
    "hopkins-small": (HOPKINS_GRID, lambda n: 5),
    "large-p3000": (LARGE_GRID, lambda n: 12),
    "many-motions": (MANY_GRID, lambda n: 4 * n),
}


def scene_specs(workload, seed, smoke=False):
    """The workload's scenes in run order, drawn from ``seed``.

    ``smoke`` keeps the first two scenes at a tenth of their size.
    """
    grid, m_of = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if smoke:
        grid = grid[:2]
    specs = []
    for n, P, missing in grid:
        if smoke:
            P = max(10 * n, P // 10)
        specs.append(SceneSpec(_scene(rng, n, P, missing), SegmentConfig(n=n, m=m_of(n))))
    return specs


def cold_spec(seed):
    """Small two-motion scene for the cold-start measurement."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    return SceneSpec(_scene(rng, 2, 120, 0.0), SegmentConfig(n=2))


def _scene(rng, n, P, missing):
    share = rng.uniform(0.8, 1.2, size=n)
    sizes = np.floor(P * share / share.sum()).astype(int)
    sizes[0] += P - sizes.sum()
    return SceneConfig(n_motions=n,
                       points_per_motion=tuple(int(s) for s in sizes),
                       frames=FRAMES,
                       rotation_rate=tuple(float(v) for v in rng.uniform(0.1, 0.3, size=n)),
                       translation_rate=tuple(float(v) for v in rng.uniform(0.8, 1.8, size=n)),
                       noise_sigma=NOISE, missing_rate=missing,
                       seed=int(rng.integers(2**31)))
