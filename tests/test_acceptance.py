"""Acceptance gate: one test per criterion, each printing a pass line
with its measured value and runtime."""

import time

import numpy as np
import pytest

import subseg
from subseg.neighbors import (neighbor_objective, proximity_weights,
                              solve_sparse_neighbors)
from subseg.projection import SpcaParams, gpower_block
from subseg.synthcam import SceneConfig, TrajectoryMatrix, make_scene

from test_neighbors import simplex_grid_minimum

TWO_MOTION = dict(n_motions=2, points_per_motion=(60, 60), frames=30,
                  rotation_rate=(0.15, 0.22), translation_rate=(1.0, 1.6))
THREE_MOTION = dict(n_motions=3, points_per_motion=(50, 50, 50), frames=30,
                    rotation_rate=(0.15, 0.22, 0.18),
                    translation_rate=(1.0, 1.6, 0.6))


def segment_error(scene_cfg, seg_cfg):
    W, truth = make_scene(scene_cfg)
    labeling, _ = subseg.segment(W, seg_cfg)
    return subseg.misclassification(labeling, truth).misclassification


def test_criterion_1_rank_oracle():
    start = time.perf_counter()
    checked = 0
    for seed in range(20):
        F = (10, 30)[seed % 2]
        P = (20, 60)[(seed // 2) % 2]
        cfg = SceneConfig(n_motions=1, points_per_motion=(P,), frames=F,
                          rotation_rate=(0.1,), translation_rate=(0.8,),
                          seed=seed)
        W, _ = make_scene(cfg)
        s = np.linalg.svd(W.data, compute_uv=False)
        rank = int(np.count_nonzero(s > 1e-9 * s[0]))
        assert rank <= 4, f"seed {seed}: rank {rank} > 4"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\n[criterion 1] PASS rank <= 4 on {checked}/20 scenes "
          f"({elapsed:.2f}s < 5s)")


@pytest.fixture(scope="module")
def gpower_runs():
    rng = np.random.default_rng(20240)
    runs = []
    start = time.perf_counter()
    for _ in range(10):
        W = TrajectoryMatrix.from_dense(rng.normal(size=(60, 100)))
        out = gpower_block(W, SpcaParams(m=5, gamma=0.0))
        runs.append((W, out))
    return runs, time.perf_counter() - start


def test_criterion_2_spca_degenerate_equivalence(gpower_runs):
    runs, elapsed = gpower_runs
    worst = 0.0
    for W, out in runs:
        U, _, _ = np.linalg.svd(W.data, full_matrices=False)
        Qz, _ = np.linalg.qr(out.Z)
        s = np.linalg.svd(Qz.T @ U[:, :5], compute_uv=False)
        angles = np.arccos(np.clip(s, -1.0, 1.0))
        worst = max(worst, float(np.max(angles)))
    assert worst < 1e-6
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS max principal angle {worst:.2e} < 1e-6 "
          f"on 10 matrices ({elapsed:.2f}s < 10s)")


def test_criterion_3_gpower_monotone(gpower_runs):
    runs, _ = gpower_runs
    violations = 0
    for _, out in runs:
        diffs = np.diff(out.objective)
        violations += int(np.sum(diffs < -1e-9 * max(out.objective)))
    assert violations == 0
    print(f"\n[criterion 3] PASS 0 objective decreases across "
          f"{sum(len(o.objective) for _, o in runs)} iterations")


def test_criterion_4_neighbor_solver_oracle():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst_gap = -np.inf
    worst_affine = 0.0
    for trial in range(50):
        k = int(rng.integers(2, 11))
        x = rng.uniform(0.0, 1.0, size=k)
        lam = float(rng.uniform(0.02, 0.5))
        sigma = float(np.mean(x))
        c, _ = solve_sparse_neighbors(x, sigma=sigma, lam=lam)
        affine = abs(c.sum() - 1.0)
        assert affine < 1e-8
        q = proximity_weights(x, sigma)
        _, oracle = simplex_grid_minimum(x, q, lam)
        gap = neighbor_objective(c, x, q, lam) - oracle
        assert gap <= 1e-4, f"trial {trial}: gap {gap:.2e}"
        worst_gap = max(worst_gap, gap)
        worst_affine = max(worst_affine, affine)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[criterion 4] PASS worst objective gap {worst_gap:.2e} <= 1e-4, "
          f"worst |1'c-1| {worst_affine:.1e} < 1e-8 ({elapsed:.2f}s < 30s)")


def test_criterion_5_end_to_end_planted_recovery():
    start = time.perf_counter()
    clean = [segment_error(SceneConfig(**TWO_MOTION, seed=seed),
                           subseg.SegmentConfig(n=2, seed=seed))
             for seed in range(20)]
    zeros = sum(e == 0.0 for e in clean)

    # m = 4n projection for the 3-motion noisy suite
    noisy = [segment_error(SceneConfig(**THREE_MOTION, noise_sigma=0.5,
                                       seed=seed),
                           subseg.SegmentConfig(n=3, m=12, seed=seed))
             for seed in range(20)]
    elapsed = time.perf_counter() - start

    assert zeros >= 19, f"only {zeros}/20 noiseless scenes exact"
    assert float(np.median(noisy)) < 0.05
    assert elapsed < 60.0
    print(f"\n[criterion 5] PASS {zeros}/20 noiseless exact (>=19); "
          f"noisy median {100 * np.median(noisy):.2f}% < 5% "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_6_missing_data_robustness():
    errors = [segment_error(SceneConfig(**TWO_MOTION, missing_rate=0.10,
                                        seed=seed),
                            subseg.SegmentConfig(n=2, seed=seed))
              for seed in range(20)]
    median = float(np.median(errors))
    assert median < 0.10
    print(f"\n[criterion 6] PASS median misclassification "
          f"{100 * median:.2f}% < 10% with 10% truncated trajectories")


def test_criterion_7_error_matrix_separation():
    from subseg import neighbors as nb
    from subseg import projection as pj
    from subseg import subspace_error as se
    within_all = []
    cross_all = []
    for seed in range(20):
        W, truth = make_scene(SceneConfig(**TWO_MOTION, seed=seed))
        y = truth.labels
        G = pj.pca_project(W, 5)
        sol = nb.solve_all_neighbors(G, 20, lam=0.07)
        Omega = nb.weight_matrix(sol.C, sol.X).Omega
        E, _ = se.build_error_matrix(G, Omega)
        positive = E.data[E.data > 0]
        sigma_e = float(np.median(positive))
        S = np.exp(-E.data / sigma_e)
        same = y[:, None] == y[None, :]
        off_diag = ~np.eye(len(y), dtype=bool)
        within_all.append(S[same & off_diag])
        cross_all.append(S[~same])
    ratio = (np.concatenate(within_all).mean()
             / np.concatenate(cross_all).mean())
    assert ratio >= 5.0
    print(f"\n[criterion 7] PASS within/cross similarity ratio "
          f"{ratio:.2f} >= 5 over 20 planted scenes")


def test_criterion_8_external_files_run_unmodified(tmp_path):
    # full-scale benchmark numbers are out of scope; the pipeline must
    # still run unmodified on any trajectory file a user supplies
    from subseg import cli
    from subseg.synthcam import write_trajectory
    W, labels = make_scene(SceneConfig(**TWO_MOTION, seed=0,
                                       noise_sigma=0.3, missing_rate=0.05))
    path = tmp_path / "user_supplied.traj"
    write_trajectory(path, W, labels)
    code = cli.main(["segment", str(path), "--labels-out",
                     str(tmp_path / "out.labels")])
    assert code == 0
    print("\n[criterion 8] PASS user-supplied trajectory file segmented "
          "unmodified (no numeric tolerance promised)")
