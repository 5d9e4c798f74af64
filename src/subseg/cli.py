"""Command-line front end: generate | segment | eval | report.

Exit codes: 0 success, 2 configuration error, 3 input parse error,
4 pipeline failure.
"""

import argparse
import json
import sys

import numpy as np

from . import clustering, metrics, synthcam

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_PIPELINE = 4

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subseg",
        description="Segment feature trajectories of multi-body rigid scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic trajectory file")
    gen.add_argument("--n-motions", type=int, default=2)
    gen.add_argument("--points-per-motion", default="60",
                     help="count, or comma-separated counts per motion")
    gen.add_argument("--frames", type=int, default=30)
    gen.add_argument("--rotation-rate", default="0.15",
                     help="radians/frame, scalar or comma-separated per motion")
    gen.add_argument("--translation-rate", default="1.0",
                     help="units/frame, scalar or comma-separated per motion")
    gen.add_argument("--noise-sigma", type=float, default=0.0)
    gen.add_argument("--missing-rate", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    seg = sub.add_parser("segment", help="segment a trajectory file")
    seg.add_argument("input")
    seg.add_argument("--n", type=int, default=None,
                     help="number of motions (defaults to the file header)")
    seg.add_argument("--projector", choices=("pca", "spca"), default="spca")
    seg.add_argument("--m", type=int, default=5)
    seg.add_argument("--gamma", type=float, default=0.01)
    seg.add_argument("--neighbors", type=int, default=20)
    seg.add_argument("--lambda", dest="lam", type=float, default=0.07)
    seg.add_argument("--sigma", default="auto",
                     help="solver weight scale, 'auto' or a value")
    seg.add_argument("--sigma-e", default="auto",
                     help="error similarity scale, 'auto' or a value")
    seg.add_argument("--affinity-raw-error", action="store_true")
    seg.add_argument("--seed", type=int, default=0)
    seg.add_argument("--labels-out", default=None,
                     help="labels output path (default: <input>.labels)")
    seg.add_argument("--report", default=None, help="report JSON path")
    seg.set_defaults(func=cmd_segment)

    ev = sub.add_parser("eval", help="score predicted labels against ground truth")
    ev.add_argument("truth", help="trajectory file carrying ground-truth labels")
    ev.add_argument("labels", help="predicted labels, one id per line")
    ev.set_defaults(func=cmd_eval)

    rep = sub.add_parser("report", help="render a report as an SVG scatter plot")
    rep.add_argument("report", help="report JSON from the segment command")
    rep.add_argument("out", help="output SVG path")
    rep.set_defaults(func=cmd_report)
    return parser


def cmd_generate(args):
    try:
        n = args.n_motions
        config = synthcam.SceneConfig(
            n_motions=n,
            points_per_motion=_per_motion(args.points_per_motion, n, int,
                                          "points_per_motion"),
            frames=args.frames,
            rotation_rate=_per_motion(args.rotation_rate, n, float,
                                      "rotation_rate"),
            translation_rate=_per_motion(args.translation_rate, n, float,
                                         "translation_rate"),
            noise_sigma=args.noise_sigma,
            missing_rate=args.missing_rate,
            seed=args.seed)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    W, labeling = synthcam.make_scene(config)
    synthcam.write_trajectory(args.out, W, labeling)
    print(f"wrote {args.out}: F={W.frames} P={W.points} n={labeling.n}")
    return 0


def cmd_segment(args):
    try:
        W, truth = synthcam.read_trajectory(args.input)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    n = args.n if args.n is not None else (truth.n if truth else 0)
    if n < 1:
        print("number of motions unknown: pass --n or provide labels",
              file=sys.stderr)
        return EXIT_CONFIG
    if n > W.points:
        print(f"number of motions {n} exceeds the {W.points} trajectories",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.m > min(W.data.shape):
        print(f"m = {args.m} exceeds min(2F, P) = {min(W.data.shape)}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = clustering.SegmentConfig(
            n=n, projector=args.projector, m=args.m, gamma=args.gamma,
            neighbors=args.neighbors, lam=args.lam,
            sigma=_auto_or_float(args.sigma),
            sigma_e=_auto_or_float(args.sigma_e),
            raw_error=args.affinity_raw_error, seed=args.seed)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        labeling, report = clustering.segment(W, config)
    except Exception as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return EXIT_PIPELINE

    labels_path = args.labels_out or args.input + ".labels"
    with open(labels_path, "w") as fh:
        fh.write("\n".join(str(v) for v in labeling.labels) + "\n")
    print(f"wrote {labels_path}")
    if report["solver"]["stalled_rows"]:
        print("stalled solver rows:",
              " ".join(str(r) for r in report["solver"]["stalled_rows"]),
              file=sys.stderr)

    if args.report:
        report["first_frame"] = {"x": list(W.data[0]), "y": list(W.data[1])}
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.report}")
    return 0


def cmd_eval(args):
    try:
        _, truth = synthcam.read_trajectory(args.truth)
        if truth is None:
            raise ValueError("trajectory file carries no labels")
        with open(args.labels) as fh:
            pred_labels = [int(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_PARSE

    pred = synthcam.Labeling(np.array(pred_labels),
                             max(pred_labels, default=0) + 1)
    try:
        score = metrics.misclassification(pred, truth)
    except metrics.LengthMismatch as exc:
        print(f"cannot score: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps({
        "misclassification": score.misclassification,
        "misclassification_percent": 100.0 * score.misclassification,
        "best_permutation": {str(k): v for k, v in score.best_permutation.items()},
        "confusion": score.confusion.tolist(),
    }, indent=2))
    return 0


def cmd_report(args):
    try:
        with open(args.report) as fh:
            report = json.load(fh)
        labels = report["labels"]
        xs = report["first_frame"]["x"]
        ys = report["first_frame"]["y"]
        if not labels or len(xs) != len(labels) or len(ys) != len(labels):
            raise ValueError("labels and coordinates disagree")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"malformed report {args.report}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    with open(args.out, "w") as fh:
        fh.write(render_svg(xs, ys, labels))
    print(f"wrote {args.out}")
    return 0


def render_svg(xs, ys, labels, width=640, height=480):
    """Scatter of first-frame feature positions, one color per cluster,
    with a cluster-size legend."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pad = 40.0
    span_x = max(xs.max() - xs.min(), 1e-9)
    span_y = max(ys.max() - ys.min(), 1e-9)
    px = pad + (xs - xs.min()) / span_x * (width - 2 * pad)
    py = pad + (ys - ys.min()) / span_y * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for x, y, lab in zip(px, py, labels):
        color = PALETTE[lab % len(PALETTE)]
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
                     f'fill="{color}" class="cluster-{lab}"/>')
    for rank, lab in enumerate(np.unique(labels)):
        color = PALETTE[lab % len(PALETTE)]
        count = int(np.sum(labels == lab))
        y = 20 + 18 * rank
        parts.append(f'<circle cx="{width - 130}" cy="{y}" r="5" fill="{color}"/>')
        parts.append(f'<text x="{width - 118}" y="{y + 4}" font-size="13" '
                     f'font-family="sans-serif">cluster {lab}: {count}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _per_motion(raw, n, cast, name):
    try:
        values = tuple(cast(v) for v in str(raw).split(","))
    except ValueError:
        raise ValueError(f"{name}: cannot parse {raw!r}")
    if len(values) == 1:
        return values * n
    return values


def _auto_or_float(raw):
    if raw == "auto":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected 'auto' or a number, got {raw!r}")


if __name__ == "__main__":
    sys.exit(main())
