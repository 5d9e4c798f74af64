"""Smoke test of the benchmark: a seconds-long run of each mode, and the
output check that every operation must pass."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import subseg
import workloads

BENCH_DIR = Path(__file__).resolve().parent
# The eight end-to-end metrics every untraced run prints, gated or not.
PRINTED = ("scene_s_p50", "scene_s_tail", "points_per_s", "misclass_mean_pct",
           "misclass_max_pct", "failed_frac", "setup_s", "peak_rss_mb")


def smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload, trace, section", [
    ("hopkins-small", 0, "end_to_end"), ("many-motions", 1, "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace, section):
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())[section]
    lines = smoke_run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    printed = {fields[1]: fields[3] for fields in map(str.split, lines)
               if fields[0] == workload}
    expected = PRINTED if trace == 0 else [m["name"] for m in declared]
    assert all(printed.get(name) for name in expected)


def test_output_check_rejects_corrupted_labels():
    labels = np.array([0, 2, 1, 1, 0])
    assert harness.check_labels(labels, 5, 3) is None
    assert harness.check_labels(labels[:4], 5, 3) is not None
    assert harness.check_labels(labels + 1, 5, 3) is not None
    assert harness.check_labels(labels - 1, 5, 3) is not None
    assert harness.check_labels(labels.astype(float), 5, 3) is not None


def test_corrupted_labels_count_as_failed(monkeypatch, tmp_path):
    spec = workloads.scene_specs("hopkins-small", 0, smoke=True)[0]
    monkeypatch.setattr(harness, "operation", lambda path, spec:
                        (np.full(spec.points, spec.config.n), 0.0))
    loop = harness.Loop()
    assert loop.run(tmp_path / "scene.traj", spec, True) is None
    assert (loop.attempted, loop.failed, loop.seconds) == (1, 1, [])


def test_traced_label_mismatch_fails_the_run(monkeypatch, tmp_path):
    spec = workloads.scene_specs("hopkins-small", 0, smoke=True)[0]
    path = tmp_path / "scene.traj"
    subseg.write_trajectory(path, *subseg.make_scene(spec.scene))
    replayed = harness.traced_operation

    def corrupted(path, spec, tracer):
        labels, counters, X = replayed(path, spec, tracer)
        return (labels + 1) % spec.config.n, counters, X

    monkeypatch.setattr(harness, "traced_operation", corrupted)
    loop, _, mismatches = harness.traced_run([spec], [path], 0)
    assert loop.failed == 0 and mismatches == 1
