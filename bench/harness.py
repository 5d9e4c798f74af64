"""Run one workload: set-up, the timed closed loop, output checks, metrics.

One operation is what ``subseg segment`` followed by ``subseg eval`` does
for one scene: read the trajectory file set-up wrote, ``segment()`` it and
score the labels against ground truth.  One process runs one operation at
a time, cycling over the workload's scenes until ``--seconds`` have
elapsed, and always completes the first pass.  Scene generation is set-up
and is not timed.
"""

import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

import subseg
from subseg.neighbors import SolverStall
from subseg.projection import DidNotConverge, RankDeficient

import replay
import workloads

COLD_REPEATS = 5
WARNING_METRICS = {SolverStall: "neighbors.solver_stall_warnings",
                   DidNotConverge: "projection.did_not_converge_warnings",
                   RankDeficient: "projection.rank_deficient_warnings"}
# Metrics the final JSON line carries, as listed in BENCHMARK.json.  The
# misclassification and failure fractions are printed too, but they are
# zero on many seeds, so the gated forms are accuracy_mean_pct and the
# result line's own "failed" / "attempted".
END_TO_END = ("scene_s_p50", "scene_s_tail", "points_per_s",
              "accuracy_mean_pct", "setup_s", "peak_rss_mb")
# Layers whose tracemalloc peak is reported, by span name.
ALLOC_LAYERS = {"neighbors.solve_all_neighbors": "neighbors.alloc_peak_mb",
                "subspace_error.build_error_matrix": "subspace_error.alloc_peak_mb",
                "clustering.build_affinity": "clustering.build_affinity.alloc_peak_mb",
                "clustering.normalized_laplacian": "clustering.normalized_laplacian.alloc_peak_mb",
                "clustering.spectral_embed": "clustering.spectral_embed.alloc_peak_mb"}
clock = time.perf_counter


def check_labels(labels, points, n):
    """Output check of one operation: None when the labels are valid,
    otherwise the reason they are not."""
    labels = np.asarray(labels)
    if labels.shape != (points,):
        return f"expected {points} labels, got shape {labels.shape}"
    if not np.issubdtype(labels.dtype, np.integer):
        return f"labels have dtype {labels.dtype}, not integer"
    if labels.min() < 0 or labels.max() >= n:
        return f"label ids outside [0, {n})"
    return None


def operation(path, spec):
    """read_trajectory -> segment -> misclassification.

    Returns (labels, misclassification fraction).
    """
    W, truth = subseg.read_trajectory(path)
    labeling, _ = subseg.segment(W, spec.config)
    return labeling.labels, subseg.misclassification(labeling, truth).misclassification


def traced_operation(path, spec, tracer):
    """The same operation through the layer-by-layer replay.

    Returns (labels, counters, X); X feeds the standalone search timing.
    """
    with tracer.span("synthcam.read_trajectory"):
        W, truth = subseg.read_trajectory(path)
    labeling, counters, X = replay.traced_segment(W, spec.config, tracer)
    with tracer.span("metrics.misclassification"):
        subseg.misclassification(labeling, truth)
    return labeling.labels, counters, X


class Loop:
    """Counts and samples of the untraced operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = []
        self.points = []
        self.per_scene = defaultdict(list)   # path -> seconds of its operations
        self.misclass = []      # first pass: one value per scene
        self.warnings = Counter()

    def run(self, path, spec, first_pass):
        """One timed operation; returns its labels, or None if it failed."""
        self.attempted += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = clock()
            try:
                labels, misclass = operation(path, spec)
                reason = check_labels(labels, spec.points, spec.config.n)
            except Exception:
                reason = traceback.format_exc()
            elapsed = clock() - start
        if first_pass:
            self.warnings.update(WARNING_METRICS[w.category] for w in caught
                                 if w.category in WARNING_METRICS)
        if reason is not None:
            self.failed += 1
            print(f"operation failed on {path}: {reason}", file=sys.stderr)
            return None
        self.seconds.append(elapsed)
        self.points.append(spec.points)
        self.per_scene[path].append(elapsed)
        if first_pass:
            self.misclass.append(misclass)
        return labels


def passes(specs, paths, seconds):
    """Yield (spec, path, first_pass) cycling over the scenes until
    ``seconds`` have elapsed; the first pass always completes."""
    start = clock()
    for index in itertools.count():
        first_pass = index < len(specs)
        if not first_pass and clock() - start >= seconds:
            return
        yield specs[index % len(specs)], paths[index % len(paths)], first_pass


def tail(samples):
    """Highest order statistic with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or fewer
    there is none, so the maximum is returned with zero beyond it.
    """
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def scene_p50(loop):
    """Median over the scenes of each scene's median operation time.

    Every scene counts once, however often the partial last pass repeated
    it, so where a run ends does not move the median of a mixed-size set.
    """
    return statistics.median(statistics.median(v) for v in loop.per_scene.values())


def untraced_metrics(loop, cold_runs):
    value, percentile, beyond = tail(loop.seconds)
    misclass_pct = [100.0 * m for m in loop.misclass]
    metrics = {
        "scene_s_p50": (scene_p50(loop), "s"),
        "scene_s_tail": (value, "s"),
        "points_per_s": (sum(loop.points) / sum(loop.seconds), "1/s"),
        "misclass_mean_pct": (statistics.fmean(misclass_pct), "%"),
        "misclass_max_pct": (max(misclass_pct), "%"),
        "accuracy_mean_pct": (100.0 - statistics.fmean(misclass_pct), "%"),
        "failed_frac": (loop.failed / loop.attempted, "frac"),
        "setup_s": (statistics.median(r["import_s"] + r["first_segment_s"]
                                      for r in cold_runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
    }
    notes = [f"scene_s_tail is p{percentile:.1f} of {len(loop.seconds)} "
             f"operations, {beyond} beyond it",
             f"misclassification over {len(misclass_pct)} scenes of the first pass",
             "setup_s: median of {} cold starts, import {:.4f} s + first "
             "segment() {:.4f} s".format(
                 len(cold_runs),
                 statistics.median(r["import_s"] for r in cold_runs),
                 statistics.median(r["first_segment_s"] for r in cold_runs))]
    notes += [f"{name} {count}" for name, count in sorted(loop.warnings.items())]
    return metrics, notes


def traced_run(specs, paths, seconds):
    """Pairs of untraced and traced operations, then one memory pass.

    Returns (loop, per-layer metrics, mismatches).
    """
    loop = Loop()
    spans, overhead, unaccounted, mismatches = [], [], [], 0
    counters = []
    for spec, path, first_pass in passes(specs, paths, seconds):
        labels = loop.run(path, spec, first_pass)
        if labels is None:
            continue
        tracer = replay.Tracer()
        start = clock()
        try:
            traced_labels, scene_counters, X = traced_operation(path, spec, tracer)
        except Exception:
            print(f"traced operation failed on {path}:\n{traceback.format_exc()}",
                  file=sys.stderr)
            mismatches += 1
            continue
        elapsed = clock() - start
        replay.time_search_area(X, spec.config, tracer)
        if not np.array_equal(labels, traced_labels):
            print(f"traced labels differ from segment() on {path}", file=sys.stderr)
            mismatches += 1
            continue
        spans.append(tracer.seconds)
        overhead.append(elapsed - loop.seconds[-1])
        unaccounted.append(loop.seconds[-1]
                           - sum(tracer.seconds[name] for name in replay.PIPELINE))
        if first_pass:
            counters.append(scene_counters)

    if not spans:
        return loop, {}, mismatches
    median = lambda name: statistics.median(s[name] for s in spans)
    metrics = {f"{name}_s": (median(name), "s")
               for name in replay.PIPELINE + ("neighbors.search_area",)}
    # nsi_dissimilarity_rows and search_area also run inside
    # solve_all_neighbors; what remains is the ADMM solve itself (derived).
    metrics["neighbors.admm_solve_s"] = (statistics.median(
        s["neighbors.solve_all_neighbors"] - s["neighbors.nsi_dissimilarity_rows"]
        - s["neighbors.search_area"] for s in spans), "s")
    metrics["trace.layers_sum_s"] = (statistics.median(
        sum(s[name] for name in replay.PIPELINE) for s in spans), "s")
    # per pair: untraced time minus the traced layer sum, and traced minus
    # untraced time; both medians over the pairs
    metrics["trace.unaccounted_s"] = (statistics.median(unaccounted), "s")
    metrics["trace_overhead_s"] = (statistics.median(overhead), "s")

    rows = sum(c["neighbors.rows"] for c in counters)
    mean = lambda name: statistics.fmean(c[name] for c in counters)
    metrics.update({
        "projection.spca_iterations": (mean("projection.spca_iterations"), "count"),
        "projection.active_fraction": (mean("projection.active_fraction"), "frac"),
        "neighbors.admm_iterations_mean": (sum(
            c["neighbors.admm_iterations_mean"] * c["neighbors.rows"]
            for c in counters) / rows, "count"),
        "neighbors.admm_iterations_max": (max(
            c["neighbors.admm_iterations_max"] for c in counters), "count"),
        "neighbors.rows_converged_frac": (sum(
            c["neighbors.rows_converged"] for c in counters) / rows, "frac"),
        "neighbors.rows_capped": (sum(c["neighbors.rows_capped"] for c in counters), "count"),
        "neighbors.rows_stalled": (sum(c["neighbors.rows_stalled"] for c in counters), "count"),
        "subspace_error.local_rank_mean": (mean("subspace_error.local_rank_mean"), "count"),
        "clustering.connected_components": (max(
            c["clustering.connected_components"] for c in counters), "count"),
    })
    for name in WARNING_METRICS.values():
        metrics[name] = (loop.warnings[name], "count")
    metrics.update(memory_pass(specs, paths))
    return loop, metrics, mismatches


def memory_pass(specs, paths):
    """tracemalloc peaks per layer on the workload's largest scene, and the
    P x P float64 bytes the pipeline keeps referenced (computed)."""
    spec, path = max(zip(specs, paths), key=lambda sp: sp[0].points)
    tracer = replay.Tracer()
    tracemalloc.start()
    try:
        _, counters, _ = traced_operation(path, spec, tracer)
    finally:
        tracemalloc.stop()
    metrics = {metric: (tracer.alloc_peak_mb[span], "MB")
               for span, metric in ALLOC_LAYERS.items()}
    metrics["dense_pxp_mb_computed"] = (
        counters["dense_pxp_arrays"] * spec.points ** 2 * 8 / 1e6, "MB")
    return metrics


def cold_starts(src_dir, path, spec, repeats):
    """Run ``cold.py`` in fresh processes; one dict of seconds per run."""
    cmd = [sys.executable, str(Path(__file__).with_name("cold.py")), str(src_dir),
           str(path), str(spec.config.n), str(spec.config.m)]
    return [json.loads(subprocess.run(cmd, capture_output=True, text=True,
                                      check=True, timeout=120).stdout)
            for _ in range(repeats)]


def environment(args, subseg_threads_set):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "subseg_threads_set": subseg_threads_set}


def blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return {}
    threads = {}
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib_path).name] = fn()
                break
    return threads


def run(args, src_dir, subseg_threads_set):
    """Run the workload named in ``args``, print the report; exit status."""
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(workloads.WORKLOADS))}", file=sys.stderr)
        return 2
    specs = workloads.scene_specs(args.workload, args.seed, args.smoke)
    cold = workloads.cold_spec(args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_scenes-",
                                     dir=src_dir.parent) as tmp:
        paths = []
        for i, spec in enumerate(specs + [cold]):
            W, truth = subseg.make_scene(spec.scene)
            paths.append(Path(tmp) / f"scene{i}.traj")
            subseg.write_trajectory(paths[-1], W, truth)
        cold_path = paths.pop()

        # warm-up: the BLAS/LAPACK first-call cost belongs to setup_s
        subseg.segment(subseg.read_trajectory(cold_path)[0], cold.config)
        if args.trace:
            loop, metrics, mismatches = traced_run(specs, paths, args.seconds)
            notes = [f"{len(loop.seconds)} untraced/traced operation pairs, "
                     f"{mismatches} label mismatches or traced failures"]
            if metrics:
                notes.append("untraced scene_s_p50 {:.4f} s; the layer sum "
                             "leaves {:.4f} s of it unaccounted, trace_overhead_s "
                             "is {:.4f} s".format(
                                 scene_p50(loop),
                                 metrics["trace.unaccounted_s"][0],
                                 metrics["trace_overhead_s"][0]))
        else:
            cold_runs = cold_starts(src_dir, cold_path, cold,
                                    1 if args.smoke else COLD_REPEATS)
            loop = Loop()
            for spec, path, first_pass in passes(specs, paths, args.seconds):
                loop.run(path, spec, first_pass)
            mismatches = 0
            metrics, notes = (untraced_metrics(loop, cold_runs)
                              if loop.seconds else ({}, []))

    if not metrics:
        print("no operation succeeded; no metrics to report", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(args, subseg_threads_set), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<14} {name:<46} {value:>14.6g} {unit}")
    for note in notes:
        print(f"note: {note}")
    reported = END_TO_END if not args.trace else metrics
    print(json.dumps({
        "correct": loop.failed == 0 and mismatches == 0,
        "attempted": loop.attempted,
        "failed": loop.failed + mismatches,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported},
    }))
    return 0
