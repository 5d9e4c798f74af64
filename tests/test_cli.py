import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from subseg import cli
from subseg.synthcam import read_trajectory


def run(args):
    return cli.main(args)


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


def test_generate_invalid_config_exit_2(tmp_path, capsys):
    code = run(["generate", "--n-motions", "0",
                "--out", str(tmp_path / "x.traj")])
    assert code == 2
    assert "n_motions" in capsys.readouterr().err


def test_segment_writes_labels_and_report(tmp_path, scene_file):
    labels_path = tmp_path / "pred.labels"
    report_path = tmp_path / "report.json"
    code = run(["segment", str(scene_file), "--labels-out", str(labels_path),
                "--report", str(report_path), "--seed", "7"])
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
                    str(labels_path), "--seed", "7"]) == 0
        outs.append(labels_path.read_text())
    assert outs[0] == outs[1]


def test_segment_parse_failure_exit_3(tmp_path):
    bad = tmp_path / "bad.traj"
    bad.write_text("not a trajectory\n")
    assert run(["segment", str(bad)]) == 3


def test_segment_non_finite_coordinate_exit_3(tmp_path, scene_file):
    lines = scene_file.read_text().splitlines()
    row = lines[1].split()
    row[0] = "nan"
    lines[1] = " ".join(row)
    bad = tmp_path / "nan.traj"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["segment", str(bad)]) == 3


def test_segment_more_motions_than_points_exit_2(tmp_path, scene_file, capsys):
    lines = scene_file.read_text().splitlines()
    F, P, _ = lines[0].split()
    lines[0] = f"{F} {P} {int(P) + 1}"
    bad = tmp_path / "toomany.traj"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["segment", str(bad)]) == 2
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("projector", ["spca", "pca"])
def test_segment_m_above_min_dimension_exit_2(tmp_path, capsys, projector):
    path = tmp_path / "short.traj"
    assert run(["generate", "--points-per-motion", "20", "--frames", "3",
                "--out", str(path)]) == 0
    capsys.readouterr()
    assert run(["segment", str(path), "--m", "8",
                "--projector", projector]) == 2
    assert "exceeds min(2F, P)" in capsys.readouterr().err


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


def test_report_malformed_exit_3(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run(["report", str(empty), str(tmp_path / "o.svg")]) == 3
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    assert run(["report", str(garbage), str(tmp_path / "o2.svg")]) == 3
