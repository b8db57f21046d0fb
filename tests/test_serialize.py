"""Canonical JSON/CSV serialization and document round trips."""

import json

import numpy as np
import pytest

from qframe.errors import DimensionMismatchError, ParseError, QframeError
from qframe.frames import DualFrame, Frame, QuasiDistribution
from qframe.representations import hardy_rep, mub_family, ruzzi_s0, wootters
from qframe.serialize import (
    distribution_from_doc,
    distribution_to_csv,
    distribution_to_doc,
    flatten_label,
    frame_from_doc,
    frame_to_doc,
    geometry_to_doc,
    label_from_doc,
    label_to_doc,
    load_json,
    matrix_from_doc,
    matrix_to_doc,
    render_json,
    table_to_csv,
    write_json,
)


def test_render_sorts_keys_and_formats_floats():
    out = render_json({"b": 1.0, "a": True, "c": None, "d": "x", "e": 3})
    assert out == '{"a": true, "b": 1.000000000000e+00, "c": null, "d": "x", "e": 3}'


def test_render_nested_lists_and_arrays():
    out = render_json({"v": np.array([0.5, -1.0]), "t": (1, 2)})
    assert out == '{"t": [1, 2], "v": [5.000000000000e-01, -1.000000000000e+00]}'


def test_render_is_deterministic():
    doc = {"z": [1 / 3, 2 / 7], "a": {"k": np.float64(0.1)}}
    assert render_json(doc) == render_json(doc)


def test_render_rejects_complex_and_bad_keys():
    with pytest.raises(TypeError):
        render_json({"x": 1j})
    with pytest.raises(TypeError):
        render_json({1: "x"})
    with pytest.raises(TypeError):
        render_json({"x": object()})


@pytest.mark.parametrize("seed", [0, 3])
def test_matrix_doc_round_trip(seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_doc(matrix_to_doc(M))
    assert np.array_equal(back, M)


def test_matrix_doc_validation():
    with pytest.raises(ParseError):
        matrix_to_doc(np.zeros((2, 3)))
    with pytest.raises(ParseError):
        matrix_from_doc({"dim": 2, "re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(ParseError):
        matrix_from_doc({"re": [[0.0]], "im": [[0.0]]})


def test_file_round_trip_keeps_twelve_digits(tmp_path):
    path = tmp_path / "m.json"
    write_json({"x": 1 / 3}, path)
    text = path.read_text()
    assert text.endswith("\n")
    loaded = load_json(path)
    assert abs(loaded["x"] - 1 / 3) < 1e-12


def test_load_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(path)


def test_label_docs_round_trip_nested_tuples():
    lab = ((0, 1), (1, 0))
    doc = label_to_doc(lab)
    assert doc == [[0, 1], [1, 0]]
    assert label_from_doc(doc) == lab
    assert label_to_doc(4) == 4
    assert label_from_doc(4) == 4


def test_flatten_label():
    assert flatten_label(((0, 1), 2)) == [0, 1, 2]
    assert flatten_label(5) == [5]


@pytest.mark.parametrize("d", [2, 3])
def test_frame_doc_round_trip(d):
    rep = wootters(d)
    frame = frame_from_doc(frame_to_doc(rep.frame))
    assert isinstance(frame, Frame)
    assert frame.dim == d
    assert frame.labels == rep.frame.labels
    assert np.allclose(frame.operators, rep.frame.operators, atol=0)
    dual = frame_from_doc(frame_to_doc(rep.dual), dual=True)
    assert isinstance(dual, DualFrame)
    assert np.allclose(dual.operators, rep.dual.operators, atol=0)


def test_frame_doc_validation():
    with pytest.raises(ParseError):
        frame_from_doc({"dim": 2, "labels": [0]})


def test_frame_doc_with_nan_is_a_dimension_error():
    doc = frame_to_doc(wootters(2).frame)
    doc["operators"][1]["re"][0][0] = float("nan")
    doc = json.loads(json.dumps(doc))  # Python's json writes and reads NaN
    with pytest.raises(QframeError) as info:
        frame_from_doc(doc)
    assert isinstance(info.value, DimensionMismatchError)  # exit code 4


def test_distribution_doc_round_trip():
    rep = wootters(3)
    mu = rep.represent(np.eye(3) / 3 + 0j)
    doc = distribution_to_doc(mu)
    assert set(doc) == {"representation", "dim", "labels", "values"}
    back = distribution_from_doc(doc)
    assert back.representation == mu.representation
    assert back.labels == mu.labels
    assert np.array_equal(back.values, mu.values)


def test_distribution_doc_warnings_key_only_when_present():
    dist = QuasiDistribution(
        representation="x",
        dim=2,
        labels=(0, 1),
        values=np.array([0.5, 0.5]),
        warnings=("w",),
    )
    doc = distribution_to_doc(dist)
    assert doc["warnings"] == ["w"]
    back = distribution_from_doc(doc)
    assert back.warnings == ("w",)
    with pytest.raises(ParseError):
        distribution_from_doc({"dim": 2})


def test_csv_headers_lattice_and_generic():
    rep = wootters(3)
    mu = rep.represent(np.eye(3) / 3 + 0j)
    csv = distribution_to_csv(mu)
    lines = csv.strip().split("\n")
    assert lines[0] == "q,p,value"
    assert len(lines) == 10
    assert lines[1].startswith("0,0,")

    hy = hardy_rep(2)
    csv2 = distribution_to_csv(hy.represent(np.eye(2) / 2 + 0j))
    assert csv2.split("\n")[0] == "l0,value"

    rz = ruzzi_s0(3)
    csv3 = distribution_to_csv(rz.represent(np.eye(3) / 3 + 0j))
    assert csv3.split("\n")[0] == "q,p,value"

    mb = mub_family(2).representation()
    csv4 = distribution_to_csv(mb.represent(np.eye(2) / 2 + 0j))
    assert csv4.split("\n")[0] == "l0,l1,value"


def test_csv_values_use_fixed_format():
    dist = QuasiDistribution(
        representation="wootters",
        dim=2,
        labels=((0, 0), (0, 1), (1, 0), (1, 1)),
        values=np.array([0.25, 0.25, 0.25, 0.25]),
    )
    csv = distribution_to_csv(dist)
    assert "2.500000000000e-01" in csv
    assert csv.endswith("\n")


def test_geometry_doc_shape():
    rep = wootters(2)
    doc = geometry_to_doc(rep.geometry)
    assert doc["kind"] == "prime-lattice"
    assert len(doc["points"]) == 4
    assert all(len(line) == 2 for line in doc["lines"])
    assert len(doc["striations"]) == 3
    assert render_json(doc) == render_json(doc)


def test_table_to_csv_formats_cells():
    csv = table_to_csv(["a", "b", "c"], [[1, 0.5, True], [2, -1.0, False]])
    lines = csv.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,5.000000000000e-01,true"
    assert lines[2] == "2,-1.000000000000e+00,false"
