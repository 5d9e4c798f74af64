"""
End-to-end motion segmentation
==============================

Project -> select sparse neighbors -> estimate local subspaces and their
residual errors -> build an affinity -> normalized spectral clustering.
The whole chain is wrapped in `segment`; this script runs it on clean,
noisy, and partially occluded scenes and scores against ground truth.
"""

import numpy as np

import subseg

scenes = [
    ("2 motions, clean",
     subseg.SceneConfig(n_motions=2, points_per_motion=(60, 60), frames=30,
                        rotation_rate=(0.15, 0.22),
                        translation_rate=(1.0, 1.6), seed=0),
     subseg.SegmentConfig(n=2)),
    ("3 motions, noise 0.5",
     subseg.SceneConfig(n_motions=3, points_per_motion=(50, 50, 50),
                        frames=30, rotation_rate=(0.15, 0.22, 0.18),
                        translation_rate=(1.0, 1.6, 0.6),
                        noise_sigma=0.5, seed=0),
     subseg.SegmentConfig(n=3, m=12)),
    ("2 motions, 10% occluded",
     subseg.SceneConfig(n_motions=2, points_per_motion=(60, 60), frames=30,
                        rotation_rate=(0.15, 0.22),
                        translation_rate=(1.0, 1.6),
                        missing_rate=0.10, seed=0),
     subseg.SegmentConfig(n=2)),
]

for name, scene_cfg, seg_cfg in scenes:
    W, truth = subseg.make_scene(scene_cfg)
    labeling, report = subseg.segment(W, seg_cfg)
    score = subseg.misclassification(labeling, truth)
    timings = "  ".join(f"{k} {v:.2f}s" for k, v in report["stages"].items())
    print(f"{name}: misclassification {100 * score.misclassification:.2f}%")
    print(f"  stages: {timings}")
    print(f"  confusion:\n{np.array(score.confusion)}")

# A small Monte-Carlo: median error over seeds for the noisy 3-motion case
errors = []
for seed in range(10):
    cfg = subseg.SceneConfig(n_motions=3, points_per_motion=(50, 50, 50),
                             frames=30, rotation_rate=(0.15, 0.22, 0.18),
                             translation_rate=(1.0, 1.6, 0.6),
                             noise_sigma=0.5, seed=seed)
    W, truth = subseg.make_scene(cfg)
    labeling, _ = subseg.segment(W, subseg.SegmentConfig(n=3, m=12))
    errors.append(subseg.misclassification(labeling, truth).misclassification)
print(f"\n3-motion noisy, 10 seeds: median {100 * np.median(errors):.2f}%, "
      f"max {100 * max(errors):.2f}%")
