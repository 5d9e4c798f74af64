import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from subseg import cli
from subseg.synthcam import SceneConfig, make_scene, read_trajectory


def run(args):
    # argparse rejects an unknown option with SystemExit(2)
    try:
        return cli.main(args)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.traj"
    code = run(["generate", "--n-motions", "2", "--points-per-motion", "30",
                "--frames", "20", "--rotation-rate", "0.15,0.22",
                "--translation-rate", "1.0,1.6", "--seed", "3",
                "--out", str(path)])
    assert code == 0
    return path


def test_generate_round_trip(tmp_path, scene_file):
    W, labels = read_trajectory(scene_file)
    out = tmp_path / "copy.traj"
    from subseg.synthcam import write_trajectory
    write_trajectory(out, W, labels)
    W2, labels2 = read_trajectory(out)
    assert np.array_equal(W.data, W2.data)
    assert np.array_equal(labels.labels, labels2.labels)


def test_generate_with_missing_mask(tmp_path):
    path = tmp_path / "gap.traj"
    assert run(["generate", "--missing-rate", "0.3", "--seed", "1",
                "--out", str(path)]) == 0
    W, _ = read_trajectory(path)
    assert not W.mask.all()
    assert np.all(W.data[~W.mask] == 0)


def test_generate_defaults_follow_scene_config(tmp_path):
    path = tmp_path / "default.traj"
    assert run(["generate", "--seed", "0", "--out", str(path)]) == 0
    W, labels = read_trajectory(path)
    W_lib, labels_lib = make_scene(SceneConfig(n_motions=2, seed=0))
    assert np.array_equal(W.data, W_lib.data)
    assert np.array_equal(labels.labels, labels_lib.labels)


@pytest.mark.parametrize("option, value, message", [
    ("--n-motions", "0", "n_motions"),
    ("--seed", "-1", "seed"),
    ("--rotation-rate", "nan", "rotation_rate"),
    ("--rotation-rate", "inf", "rotation_rate"),
    ("--rotation-rate", "1e308", "rotation_rate"),
    ("--translation-rate", "inf", "translation_rate"),
    ("--translation-rate", "1e308", "trajectory coordinates must be finite"),
    ("--noise-sigma", "inf", "noise_sigma"),
    ("--noise-sigma", "nan", "noise_sigma"),
    ("--points-per-motion", "60,x", "points_per_motion: cannot parse"),
], ids=["n-motions-0", "seed-negative", "rotation-nan", "rotation-inf",
        "rotation-1e308", "translation-inf", "translation-1e308", "noise-inf",
        "noise-nan", "points-per-motion-unparsed"])
def test_generate_invalid_config_exit_2(tmp_path, capsys, option, value,
                                       message):
    out = tmp_path / "x.traj"
    assert run(["generate", option, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--rotation-rate", "-1e-3"),
                                           ("--translation-rate", "-2e-1")])
def test_generate_takes_negative_exponent_values(tmp_path, option, value):
    spaced, joined = tmp_path / "spaced.traj", tmp_path / "joined.traj"
    assert run(["generate", option, value, "--out", str(spaced)]) == 0
    assert run(["generate", f"{option}={value}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_import_and_segment_do_not_load_scipy(tmp_path):
    """Segmentation runs on numpy alone: neither ``import subseg`` nor
    ``segment()`` calls on a 120-point scene load any part of scipy, also
    when a small explicit sigma_e leaves no vertex linked to all others,
    so the connected components are counted."""
    path = tmp_path / "scene.traj"
    assert run(["generate", "--points-per-motion", "60,60",
                "--out", str(path)]) == 0
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", "import subseg, sys; "
                           "from subseg import clustering as cl; "
                           "count = cl._count_components; calls = []; "
                           "cl._count_components = "
                           "lambda A: calls.append(1) or count(A); "
                           f"W, _ = subseg.read_trajectory({str(path)!r}); "
                           "subseg.segment(W, subseg.SegmentConfig(n=2)); "
                           "automatic = len(calls); "
                           "subseg.segment(W, subseg.SegmentConfig("
                           "n=2, sigma_e=1e-9)); "
                           "print(len(calls) - automatic, sorted(m for m in "
                           "sys.modules if m.split('.')[0] == 'scipy'))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "1 []", done.stderr


def test_segment_writes_labels_and_report(tmp_path, scene_file):
    labels_path = tmp_path / "pred.labels"
    report_path = tmp_path / "report.json"
    code = run(["segment", str(scene_file), "--labels-out", str(labels_path),
                "--report", str(report_path)])
    assert code == 0
    labels = [int(line) for line in labels_path.read_text().splitlines()]
    assert len(labels) == 60
    report = json.loads(report_path.read_text())
    assert report["labels"] == labels
    assert len(report["first_frame"]["x"]) == 60
    assert "stages" in report and "eigenvalues" in report


def test_segment_deterministic(tmp_path, scene_file):
    outs = []
    for tag in ("a", "b"):
        labels_path = tmp_path / f"{tag}.labels"
        assert run(["segment", str(scene_file), "--labels-out",
                    str(labels_path)]) == 0
        outs.append(labels_path.read_text())
    assert outs[0] == outs[1]


def _set_first_entry(lines, row, token):
    tokens = lines[row].split()
    tokens[0] = token
    lines[row] = " ".join(tokens)
    return lines


# the fixture's scene has 40 data rows, then 40 mask rows, then labels
@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["not a trajectory"], "malformed trajectory file"),
    # an unobserved entry (data 0) whose mask token is neither 0 nor 1
    (lambda lines: _set_first_entry(_set_first_entry(lines, 1, "0"), 41, "7"),
     "mask entries must be 0 or 1"),
    (lambda lines: _set_first_entry(lines, 41, "1.0"),
     "mask entries must be 0 or 1"),
    (lambda lines: lines + ["0 1"], "lines after the label line"),
    (lambda lines: _set_first_entry(lines, 81, "9" * 20), "too large"),
    (lambda lines: [lines[0].rsplit(maxsplit=1)[0] + " -1"] + lines[1:],
     "negative motion count -1"),
    (lambda lines: ["20 61 2"] + lines[1:], "bad shape"),
    (lambda lines: lines[:41] + [lines[41].rsplit(maxsplit=1)[0]] + lines[42:],
     "bad shape"),
    (lambda lines: lines[:81] + [lines[81].rsplit(maxsplit=1)[0]],
     "bad labels"),
], ids=["not-a-trajectory", "mask-token-7", "mask-token-1.0",
        "line-after-labels", "label-overflow", "negative-motion-count",
        "header-one-point-more", "mask-row-one-short", "labels-one-short"])
def test_segment_parse_failure_exit_3(tmp_path, scene_file, capsys, edit,
                                      message):
    bad = tmp_path / "bad.traj"
    bad.write_text("\n".join(edit(scene_file.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run(["segment", str(bad)]) == 3
    assert message in capsys.readouterr().err


def test_segment_non_finite_coordinate_exit_3(tmp_path, scene_file):
    lines = scene_file.read_text().splitlines()
    row = lines[1].split()
    row[0] = "nan"
    lines[1] = " ".join(row)
    bad = tmp_path / "nan.traj"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["segment", str(bad)]) == 3


def test_segment_more_motions_than_points_exit_2(tmp_path, scene_file, capsys):
    P = int(scene_file.read_text().split()[1])
    assert run(["segment", str(scene_file), "--n", str(P + 1)]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_header_more_motions_than_points_exit_3(tmp_path, scene_file, capsys):
    lines = scene_file.read_text().splitlines()
    F, P, _ = lines[0].split()
    lines[0] = f"{F} {P} {int(P) + 1}"
    bad = tmp_path / "toomany.traj"
    bad.write_text("\n".join(lines) + "\n")
    labels_path = tmp_path / "pred.labels"
    labels_path.write_text("0\n" * int(P))
    capsys.readouterr()
    assert run(["segment", str(bad)]) == 3
    assert run(["eval", str(bad), str(labels_path)]) == 3
    assert f"{int(P) + 1} motions but {P} trajectories" in \
        capsys.readouterr().err


@pytest.mark.parametrize("projector", ["spca", "pca"])
def test_segment_m_above_min_dimension_exit_2(tmp_path, capsys, projector):
    path = tmp_path / "short.traj"
    assert run(["generate", "--points-per-motion", "20", "--frames", "3",
                "--out", str(path)]) == 0
    capsys.readouterr()
    assert run(["segment", str(path), "--m", "8",
                "--projector", projector]) == 2
    assert "exceeds min(2F, P)" in capsys.readouterr().err


@pytest.mark.parametrize("options, message", [
    (["--gamma", "-1"], "gamma entries must be >= 0"),
    (["--gamma", "1e9"], "exceeds the feasibility bound"),
    (["--neighbors", "0"], "neighbors must be an integer >= 1"),
    (["--lambda", "-1"], "lambda must be >= 0"),
    (["--sigma", "0"], "sigma must be > 0"),
    (["--sigma-e", "0"], "sigma_e must be > 0"),
    (["--sigma-e", "-1"], "sigma_e must be > 0"),
    (["--m", "0"], "m must be an integer >= 1"),
    (["--n", "61"], "n = 61 exceeds the 60 trajectories"),
    (["--m", "41"], "m = 41 exceeds min(2F, P) = 40"),
    (["--m", "41", "--projector", "pca"], "m = 41 exceeds min(2F, P) = 40"),
    (["--affinity-raw-error"], "unrecognized arguments: --affinity-raw-error"),
    (["--projector", "nope"], "projector must be 'pca' or 'spca'"),
    (["--sigma", "nan"], "sigma must be > 0 and finite"),
    (["--lambda", "nan"], "lambda must be >= 0 and finite"),
    (["--sigma-e", "nan"], "sigma_e must be > 0 and finite"),
    (["--gamma", "nan"], "gamma entries must be >= 0 and finite"),
    (["--sigma-e", "inf"], "sigma_e must be > 0 and finite"),
    (["--lambda", "inf"], "lambda must be >= 0 and finite"),
    (["--gamma", "-1", "--projector", "pca"], "gamma entries must be >= 0"),
    (["--gamma", "nan", "--projector", "pca"],
     "gamma entries must be >= 0 and finite"),
    (["--seed", "1"], "unrecognized arguments: --seed"),
    (["--gamma", "-1e-3"], "gamma entries must be >= 0"),
    (["--sigma", "abc"], "expected 'auto' or a number, got 'abc'"),
])
def test_segment_rejected_request_exit_2(tmp_path, scene_file, capsys,
                                         options, message):
    capsys.readouterr()
    labels_path = tmp_path / "pred.labels"
    assert run(["segment", str(scene_file), "--labels-out", str(labels_path),
                *options]) == 2
    assert message in capsys.readouterr().err
    assert not labels_path.exists()


def test_segment_one_trajectory_exit_2(tmp_path, capsys):
    from subseg.synthcam import Labeling, TrajectoryMatrix, write_trajectory
    path = tmp_path / "one.traj"
    W = TrajectoryMatrix.from_dense(np.arange(1.0, 7.0)[:, None])
    write_trajectory(path, W, Labeling([0], 1))
    capsys.readouterr()
    assert run(["segment", str(path), "--m", "1"]) == 2
    assert "need at least 2 trajectories" in capsys.readouterr().err


def test_segment_zero_trajectory_exit_2(tmp_path, scene_file, capsys):
    lines = scene_file.read_text().splitlines()
    for r in range(1, 41):
        row = lines[r].split()
        row[5] = "0"
        lines[r] = " ".join(row)
    bad = tmp_path / "zero.traj"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["segment", str(bad), "--labels-out", str(tmp_path / "l")]) == 2
    err = capsys.readouterr().err
    assert "projected trajectory 5 is numerically zero" in err


def test_segment_all_zero_trajectories_exit_2(tmp_path, scene_file, capsys):
    lines = scene_file.read_text().splitlines()
    zero = " ".join(["0"] * 60)
    bad = tmp_path / "zero.traj"
    bad.write_text("\n".join(lines[:1] + [zero] * 40 + lines[41:]) + "\n")
    capsys.readouterr()
    assert run(["segment", str(bad), "--labels-out", str(tmp_path / "l")]) == 2
    assert "trajectory matrix is zero" in capsys.readouterr().err


def test_unlabeled_file_needs_n_and_cannot_be_scored(tmp_path, scene_file,
                                                     capsys):
    # header count 0 and label line "-": the motion count is unknown
    lines = scene_file.read_text().splitlines()
    lines[0] = lines[0].rsplit(maxsplit=1)[0] + " 0"
    unlabeled = tmp_path / "unlabeled.traj"
    unlabeled.write_text("\n".join(lines[:-1] + ["-"]) + "\n")
    labels_path = tmp_path / "pred.labels"
    labels_path.write_text("0\n" * 60)
    capsys.readouterr()
    assert run(["segment", str(unlabeled), "--labels-out",
                str(tmp_path / "l")]) == 2
    assert "number of motions unknown" in capsys.readouterr().err
    assert run(["eval", str(unlabeled), str(labels_path)]) == 3
    assert "carries no labels" in capsys.readouterr().err
    assert run(["segment", str(unlabeled), "--n", "2", "--labels-out",
                str(tmp_path / "l")]) == 0


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, RuntimeError])
def test_segment_pipeline_failure_exit_4(tmp_path, scene_file, capsys,
                                         monkeypatch, error):
    def fail(W, config):
        raise error("solver broke")

    monkeypatch.setattr(cli.clustering, "segment", fail)
    capsys.readouterr()
    assert run(["segment", str(scene_file),
                "--labels-out", str(tmp_path / "l")]) == 4
    assert "pipeline failed: solver broke" in capsys.readouterr().err


def test_segment_overflowing_coordinate_exit_3(tmp_path):
    path = tmp_path / "scene.traj"
    assert run(["generate", "--points-per-motion", "30", "--frames", "10",
                "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    row = lines[1].split()
    row[0] = "1e300"
    lines[1] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    # a subprocess with a timeout, so that a regression to the old hang
    # inside the sparse-PCA SVD fails instead of stalling the suite
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "subseg.cli", "segment",
                           str(path)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 3
    assert "sum of squares must not overflow" in done.stderr


@pytest.mark.parametrize("command", ["segment", "segment-report", "generate",
                                     "report"])
def test_unwritable_output_exit_2(tmp_path, scene_file, capsys, command):
    missing = str(tmp_path / "missing" / "out")
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps({
        "labels": [0, 1], "first_frame": {"x": [0.0, 1.0], "y": [0.0, 1.0]}}))
    argv = {
        "segment": ["segment", str(scene_file), "--labels-out", missing],
        "segment-report": ["segment", str(scene_file), "--labels-out",
                           str(tmp_path / "l"), "--report", missing],
        "generate": ["generate", "--out", missing],
        "report": ["report", str(report_path), missing],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    assert f"cannot write {missing}" in capsys.readouterr().err


def test_segment_pca_flag(tmp_path, scene_file):
    assert run(["segment", str(scene_file), "--projector", "pca",
                "--labels-out", str(tmp_path / "p.labels")]) == 0


def test_eval_scores_prediction(tmp_path, scene_file, capsys):
    labels_path = tmp_path / "pred.labels"
    assert run(["segment", str(scene_file), "--labels-out",
                str(labels_path)]) == 0
    capsys.readouterr()
    assert run(["eval", str(scene_file), str(labels_path)]) == 0
    score = json.loads(capsys.readouterr().out)
    assert 0.0 <= score["misclassification"] <= 1.0
    assert "confusion" in score


def test_eval_length_mismatch_exit_3(tmp_path, scene_file):
    labels_path = tmp_path / "short.labels"
    labels_path.write_text("0\n1\n")
    assert run(["eval", str(scene_file), str(labels_path)]) == 3


def test_eval_negative_label_exit_3(tmp_path, scene_file, capsys):
    labels_path = tmp_path / "neg.labels"
    labels_path.write_text("\n".join(["-1"] + ["0"] * 59) + "\n")
    capsys.readouterr()
    assert run(["eval", str(scene_file), str(labels_path)]) == 3
    assert "labels must lie in [0, n)" in capsys.readouterr().err


# the fixture has 60 trajectories; ids from 60 on, and ids beyond int64,
# cannot be scored
@pytest.mark.parametrize("label, message", [
    ("60", "predicted label 60 is not below the 60 trajectories"),
    ("65", "predicted label 65 is not below the 60 trajectories"),
    ("9" * 20, "is not below the 60 trajectories"),
    ("-" + "9" * 20, "too large"),
], ids=["P", "P+5", "int64-overflow", "negative-int64-overflow"])
def test_eval_label_out_of_range_exit_3(tmp_path, scene_file, capsys, label,
                                        message):
    labels_path = tmp_path / "pred.labels"
    labels_path.write_text("\n".join(["0"] * 59 + [label]) + "\n")
    capsys.readouterr()
    assert run(["eval", str(scene_file), str(labels_path)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def test_report_svg(tmp_path, scene_file):
    report_path = tmp_path / "report.json"
    svg_path = tmp_path / "plot.svg"
    assert run(["segment", str(scene_file), "--labels-out",
                str(tmp_path / "l"), "--report", str(report_path)]) == 0
    assert run(["report", str(report_path), str(svg_path)]) == 0

    tree = ET.parse(svg_path)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    circles = tree.getroot().findall(".//svg:circle", ns)
    points = [c for c in circles if c.get("class", "").startswith("cluster-")]
    assert len(points) == 60
    report = json.loads(report_path.read_text())
    labels = np.array(report["labels"])
    colors = {c.get("class"): c.get("fill") for c in points}
    assert len(colors) == len(set(labels))
    for lab, count in zip(*np.unique(labels, return_counts=True)):
        got = sum(1 for c in points if c.get("class") == f"cluster-{lab}")
        assert got == count
    texts = tree.getroot().findall(".//svg:text", ns)
    assert len(texts) == len(set(labels))


def test_report_single_cluster(tmp_path):
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps({
        "labels": [0, 0, 0],
        "first_frame": {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0, 0.5]}}))
    svg_path = tmp_path / "one.svg"
    assert run(["report", str(report_path), str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count("cluster-0") == 3


@pytest.mark.parametrize("body", [
    "{}",
    "{not json",
    "[1, 2]",
    '{"labels": 5, "first_frame": {"x": [0.0], "y": [0.0]}}',
    '{"labels": [0, 1], "first_frame": {"x": null, "y": [0.0, 1.0]}}',
    '{"labels": [0, 1], "first_frame": {"x": ["a", "b"], "y": [0.0, 1.0]}}',
    '{"labels": [0, "q"], "first_frame": {"x": [0.0, 1.0], "y": [0.0, 1.0]}}',
    '{"labels": [0, 1e30], "first_frame": {"x": [0.0, 1.0], "y": [0.0, 1.0]}}',
    '{"labels": [0.5, 1.7], "first_frame": {"x": [0.0, 1.0], "y": [0.0, 1.0]}}',
    '{"labels": [0, 1], "first_frame": {"x": [NaN, 1.0], "y": [0.0, 1.0]}}',
], ids=["empty", "not-json", "top-level-list", "labels-scalar", "x-null",
        "x-strings", "labels-string", "labels-overflow", "labels-fraction",
        "x-nan"])
def test_report_malformed_exit_3(tmp_path, capsys, body):
    report_path = tmp_path / "r.json"
    report_path.write_text(body)
    svg_path = tmp_path / "o.svg"
    capsys.readouterr()
    assert run(["report", str(report_path), str(svg_path)]) == 3
    assert "malformed report" in capsys.readouterr().err
    assert not svg_path.exists()
