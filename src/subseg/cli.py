"""Command-line front end: generate | segment | eval | report.

Exit codes: 0 success, 2 rejected request (any ValueError the library
raises for the options and the input, or an unwritable output), 3 input
parse error, 4 pipeline failure.
"""

import argparse
import json
import re
import sys

import numpy as np

from . import clustering, metrics, synthcam

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_PIPELINE = 4

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
_WIDTH, _HEIGHT = 640, 480        # SVG canvas, pixels


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
    scene = synthcam.SceneConfig
    gen.add_argument("--n-motions", type=int, default=scene.n_motions)
    gen.add_argument("--points-per-motion", default=scene.points_per_motion,
                     help="count, or comma-separated counts per motion")
    gen.add_argument("--frames", type=int, default=scene.frames)
    gen.add_argument("--rotation-rate", default=scene.rotation_rate,
                     help="radians/frame, scalar or comma-separated per motion")
    gen.add_argument("--translation-rate", default=scene.translation_rate,
                     help="units/frame, scalar or comma-separated per motion")
    gen.add_argument("--noise-sigma", type=float, default=scene.noise_sigma)
    gen.add_argument("--missing-rate", type=float, default=scene.missing_rate)
    gen.add_argument("--seed", type=int, default=scene.seed)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    seg = sub.add_parser("segment", help="segment a trajectory file")
    seg.add_argument("input")
    seg.add_argument("--n", type=int, default=None,
                     help="number of motions (defaults to the file header)")
    config = clustering.SegmentConfig
    seg.add_argument("--projector", default=config.projector,
                     help="'pca' or 'spca'")
    seg.add_argument("--m", type=int, default=config.m)
    seg.add_argument("--gamma", type=float, default=config.gamma)
    seg.add_argument("--neighbors", type=int, default=config.neighbors)
    seg.add_argument("--lambda", dest="lam", type=float, default=config.lam)
    seg.add_argument("--sigma", default="auto",
                     help="solver weight scale, 'auto' or a value")
    seg.add_argument("--sigma-e", default="auto",
                     help="error similarity scale: 'auto' "
                          f"({clustering.SIGMA_E_SCALE:g} times the median "
                          "residual of the local subspaces' own members, "
                          "that median floored at 1e-12) or a value")
    seg.add_argument("--seed", type=int, default=config.seed)
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
    # argparse (Python 3.11) would take a value such as "-1e-3" for an option
    for each in sub.choices.values():
        each._negative_number_matcher = re.compile(r"^-\.?\d")
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
        W, labeling = synthcam.make_scene(config)
    except np.linalg.LinAlgError as exc:
        return _fail(EXIT_PIPELINE, f"generation failed: {exc}")
    except ValueError as exc:
        return _fail(EXIT_CONFIG, f"configuration error: {exc}")
    except Exception as exc:
        return _fail(EXIT_PIPELINE, f"generation failed: {exc}")
    try:
        synthcam.write_trajectory(args.out, W, labeling)
    except OSError as exc:
        return _fail(EXIT_CONFIG, f"cannot write {args.out}: {exc}")
    print(f"wrote {args.out}: F={W.frames} P={W.points} n={labeling.n}")
    return 0


def cmd_segment(args):
    try:
        W, truth = synthcam.read_trajectory(args.input)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, f"cannot read {args.input}: {exc}")
    if args.n is None and truth is None:
        return _fail(EXIT_CONFIG,
                     "number of motions unknown: pass --n or provide labels")

    # the library owns every request check: its ValueError is a rejected
    # request (exit 2); LinAlgError, a ValueError subclass, is not
    try:
        config = clustering.SegmentConfig(
            n=truth.n if args.n is None else args.n,
            projector=args.projector, m=args.m, gamma=args.gamma,
            neighbors=args.neighbors, lam=args.lam,
            sigma=_auto_or_float(args.sigma),
            sigma_e=_auto_or_float(args.sigma_e), seed=args.seed)
        labeling, report = clustering.segment(W, config)
    except np.linalg.LinAlgError as exc:
        return _fail(EXIT_PIPELINE, f"pipeline failed: {exc}")
    except ValueError as exc:
        return _fail(EXIT_CONFIG, f"rejected request: {exc}")
    except Exception as exc:
        return _fail(EXIT_PIPELINE, f"pipeline failed: {exc}")

    outputs = [(args.labels_out or args.input + ".labels",
                "\n".join(str(v) for v in labeling.labels) + "\n")]
    if args.report:
        report["first_frame"] = {"x": list(W.data[0]), "y": list(W.data[1])}
        outputs.append((args.report, json.dumps(report, indent=2)))
    return _write(outputs)


def cmd_eval(args):
    try:
        _, truth = synthcam.read_trajectory(args.truth)
        if truth is None:
            raise ValueError("trajectory file carries no labels")
        with open(args.labels) as fh:
            pred_labels = [int(line) for line in fh if line.strip()]
        # the confusion matrix is square in the largest id: bound it by P
        top = max(pred_labels, default=0)
        if top >= len(truth):
            raise ValueError(f"predicted label {top} is not below the "
                             f"{len(truth)} trajectories")
        pred = synthcam.Labeling(np.array(pred_labels), top + 1)
    except (OSError, ValueError, OverflowError) as exc:
        return _fail(EXIT_PARSE, f"cannot read inputs: {exc}")

    try:
        score = metrics.misclassification(pred, truth)
    except metrics.LengthMismatch as exc:
        return _fail(EXIT_PARSE, f"cannot score: {exc}")
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
        labels = np.asarray(report["labels"])
        xs = np.asarray(report["first_frame"]["x"], dtype=float)
        ys = np.asarray(report["first_frame"]["y"], dtype=float)
        if labels.dtype.kind != "i":
            raise ValueError("labels must be integers")
        if (labels.ndim != 1 or not labels.size
                or xs.shape != labels.shape or ys.shape != labels.shape):
            raise ValueError("labels and coordinates disagree")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("coordinates must be finite")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(EXIT_PARSE, f"malformed report {args.report}: {exc}")
    return _write([(args.out, render_svg(xs, ys, labels))])


def render_svg(xs, ys, labels):
    """Scatter of first-frame feature positions, one color per cluster,
    with a cluster-size legend."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pad = 40.0
    span_x = max(xs.max() - xs.min(), 1e-9)
    span_y = max(ys.max() - ys.min(), 1e-9)
    px = pad + (xs - xs.min()) / span_x * (_WIDTH - 2 * pad)
    py = pad + (ys - ys.min()) / span_y * (_HEIGHT - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{_WIDTH}" height="{_HEIGHT}" '
             f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    for x, y, lab in zip(px, py, labels):
        color = PALETTE[lab % len(PALETTE)]
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
                     f'fill="{color}" class="cluster-{lab}"/>')
    for rank, lab in enumerate(np.unique(labels)):
        color = PALETTE[lab % len(PALETTE)]
        count = int(np.sum(labels == lab))
        y = 20 + 18 * rank
        parts.append(f'<circle cx="{_WIDTH - 130}" cy="{y}" r="5" fill="{color}"/>')
        parts.append(f'<text x="{_WIDTH - 118}" y="{y + 4}" font-size="13" '
                     f'font-family="sans-serif">cluster {lab}: {count}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _fail(code, message):
    print(message, file=sys.stderr)
    return code


def _write(outputs):
    """Write each (path, text) pair in order; exit 2 at the first path
    that cannot be written."""
    for path, text in outputs:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(EXIT_CONFIG, f"cannot write {path}: {exc}")
        print(f"wrote {path}")
    return 0


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
