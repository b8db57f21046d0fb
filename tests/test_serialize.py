"""Canonical JSON/CSV serialization and document round trips.

``tests/serialize_oracle.py`` keeps the recursive renderer and the
cell-by-cell CSV writer that row templates and streamed files replaced; the
rendered text, CSV and every file ``build`` writes must match them byte for
byte.
"""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serialize_oracle as oracle
from qframe.cli import FAMILIES, build_representation, main, parse_direct
from qframe.errors import DimensionMismatchError, ParseError, QframeError
from qframe.finitefield import FiniteField
from qframe.frames import Frame, QuasiDistribution
from qframe.geometry import composite_lattice, field_lattice, prime_lattice
from qframe.representations import ghw, hardy_rep, mub_family, ruzzi_s0, wootters
from qframe.serialize import (
    distribution_from_doc,
    distribution_to_csv,
    distribution_to_doc,
    flatten_label,
    frame_from_doc,
    geometry_to_doc,
    label_from_doc,
    label_to_doc,
    load_json,
    matrix_from_doc,
    matrix_to_doc,
    render_json,
    table_to_csv,
    write_frame,
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


@pytest.mark.parametrize("parse,doc", [
    (matrix_from_doc, {"dim": 1e400, "re": [[1.0]], "im": [[0.0]]}),
    (frame_from_doc, {"dim": 1e400, "labels": [0], "operators": []}),
    (distribution_from_doc, {"representation": "wootters", "dim": 1e400, "labels": [0], "values": [1.0]}),
], ids=["matrix", "frame", "distribution"])
def test_an_infinite_dim_is_a_parse_error(parse, doc):
    # JSON reads 1e400 as inf, and int(inf) overflows
    with pytest.raises(ParseError, match="bad .* document"):
        parse(doc)


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
    frame = frame_from_doc(oracle.frame_to_doc(rep.frame))
    assert isinstance(frame, Frame)
    assert frame.dim == d
    assert frame.labels == rep.frame.labels
    assert np.allclose(frame.operators, rep.frame.operators, atol=0)
    dual = frame_from_doc(oracle.frame_to_doc(rep.dual))
    assert isinstance(dual, Frame)
    assert np.allclose(dual.operators, rep.dual.operators, atol=0)


@pytest.mark.parametrize("d", [2, 3])
def test_written_frame_and_dual_load_back(tmp_path, d):
    rep = wootters(d)
    for family in (rep.frame, rep.dual):
        write_frame(family, tmp_path / "family.json")
        back = frame_from_doc(load_json(tmp_path / "family.json"))
        assert isinstance(back, Frame)
        assert (back.dim, back.name, back.labels) == (family.dim, family.name, family.labels)
        np.testing.assert_allclose(back.operators, family.operators, rtol=0, atol=1e-12)


def test_frame_doc_validation():
    with pytest.raises(ParseError):
        frame_from_doc({"dim": 2, "labels": [0]})


def test_frame_doc_dim_must_match_its_operators():
    doc = oracle.frame_to_doc(wootters(2).frame)
    doc["dim"] = 3
    with pytest.raises(DimensionMismatchError, match=r"^operators are 2x2, dim says 3$"):
        frame_from_doc(doc)


def test_frame_doc_with_nan_is_a_dimension_error():
    doc = oracle.frame_to_doc(wootters(2).frame)
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


@pytest.mark.parametrize("geom", [
    prime_lattice(13),
    field_lattice(FiniteField(3, 2)),
    composite_lattice([prime_lattice(3), prime_lattice(5)]),
], ids=["prime-13", "field-9", "composite-3x5"])
def test_geometry_doc_matches_the_per_line_form(geom):
    doc, want = geometry_to_doc(geom), oracle.geometry_to_doc(geom)
    assert doc == want
    assert render_json(doc) == oracle.render_json(want)


def test_table_to_csv_formats_cells():
    csv = table_to_csv(["a", "b", "c"], [[1, 0.5, True], [2, -1.0, False]])
    lines = csv.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,5.000000000000e-01,true"
    assert lines[2] == "2,-1.000000000000e+00,false"


# the renderer against the oracle

# edge floats, numpy scalars (which go item by item) and strings that need escaping
SCALARS = st.one_of(
    st.sampled_from([-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324, 1e308, -1e308,
                     True, False, None, 0, -1, 2**70]),
    st.floats(),
    st.integers(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t", "\x00\x1f", "\u00e9\u2028", "\ud800"]),
)
# homogeneous rows take the templates; bool rows (bool is an int subclass) and numpy rows must not
ROWS = st.one_of(
    st.lists(st.floats(), max_size=8),
    st.lists(st.sampled_from([-0.0, float("nan"), float("inf"), 5e-324, 1e308]), max_size=4),
    st.lists(st.integers(), max_size=8),
    st.lists(st.booleans(), max_size=4),
    st.lists(st.floats().map(np.float64), max_size=4),
    st.lists(st.integers(-9, 9).map(np.int64), max_size=4),
)


# a named function: hypothesis reads a lambda's source to decide whether it uses its argument
def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
    )


DOCS = st.recursive(SCALARS | ROWS, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_render_json_matches_the_oracle(doc):
    assert render_json(doc) == oracle.render_json(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(ROWS, max_size=4), st.lists(st.integers(), max_size=4))
def test_bool_rows_next_to_int_rows_match_the_oracle(rows, ints):
    doc = {"rows": rows + [[True, False], ints, []], "t": (tuple(ints), [1.0, 2])}
    assert render_json(doc) == oracle.render_json(doc)


CELLS = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.text(max_size=4),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-9, 9).map(np.int64), st.booleans().map(np.bool_),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(CELLS, min_size=1, max_size=5), max_size=5))
def test_table_csv_matches_the_oracle(rows):
    header = [f"c{i}" for i in range(5)]
    assert table_to_csv(header, rows) == oracle.table_to_csv(header, rows)


@pytest.mark.parametrize("rep", [wootters(3), mub_family(2).representation()], ids=["wootters", "mub"])
def test_distribution_csv_matches_the_oracle(rep):
    mu = rep.represent(np.diag(np.arange(1.0, rep.dim + 1)) / (rep.dim * (rep.dim + 1) / 2) + 0j)
    csv = distribution_to_csv(mu)
    rows = [[*map(str, flatten_label(lab)), v] for lab, v in zip(mu.labels, mu.values)]
    assert csv == oracle.table_to_csv(csv.split("\n", 1)[0].split(","), rows)


# files


@pytest.mark.parametrize("d", [2, 5])
def test_written_frame_is_the_oracle_text(tmp_path, d):
    frame = wootters(d).frame
    write_frame(frame, tmp_path / "frame.json")
    write_json(oracle.frame_to_doc(frame), tmp_path / "doc.json")
    want = oracle.file_text(oracle.frame_to_doc(frame))
    assert (tmp_path / "frame.json").read_text(encoding="utf-8") == want
    assert (tmp_path / "doc.json").read_text(encoding="utf-8") == want


def test_operator_template_is_the_row_renderer_to_the_byte(tmp_path):
    # one d x d operator per template %: signed zeros, extreme exponents and an empty family as well
    A = np.array([[-0.0, 1e-300 - 2.5e150j], [1e-300 + 2.5e150j, 7.0]])
    frames = [Frame(("a", "b"), np.stack([A, -A]), name="edge"), Frame((), np.zeros((0, 2, 2), complex)),
              ghw(2, 2).dual, wootters(7).frame]
    for i, frame in enumerate(frames):
        write_frame(frame, tmp_path / f"{i}.json")
        text = (tmp_path / f"{i}.json").read_bytes()
        want = oracle.file_text(oracle.frame_to_doc(frame)).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == hashlib.sha256(want).hexdigest(), i


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"kept": True}, path)
    before = path.read_bytes()
    # far more text than a file buffer precedes the bad value, so part of it reaches the disk
    doc = {"a": [0.5] * 20_000, "b": [1.0, object()], "c": list(range(100))}
    with pytest.raises(TypeError):
        write_json(doc, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["doc.json"]
    with pytest.raises(TypeError):
        write_json(doc, tmp_path / "new.json")
    assert os.listdir(tmp_path) == ["doc.json"]


def test_streamed_frame_write_peaks_below_its_stack(tmp_path):
    frame = wootters(13).frame
    path = tmp_path / "frame.json"
    tracemalloc.start()
    try:
        write_frame(frame, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frame.operators.nbytes
    assert path.read_text(encoding="utf-8") == oracle.file_text(oracle.frame_to_doc(frame))


# every family at two sizes: build's three files against the oracle
BUILDS = [
    ["wootters", "--d", "3"], ["wootters", "--dims", "2,3"],
    ["ghw", "--p", "2", "--n", "2"], ["ghw", "--p", "3"],
    ["cohendet", "--d", "3"], ["cohendet", "--d", "5"],
    ["leonhardt", "--d", "3"], ["leonhardt", "--d", "4"],
    ["stratonovich", "--s", "0.5"], ["stratonovich", "--s", "1"],
    ["ruzzi", "--d", "3"], ["ruzzi", "--d", "9"],
    ["mub", "--d", "2"], ["mub", "--d", "3"],
    ["hardy", "--d", "2"], ["hardy", "--d", "3"],
    ["havel", "--n", "1"], ["havel", "--n", "2"],
    ["sic", "--d", "2"], ["sic", "--d", "3"],
]


def test_builds_cover_every_cli_representation():
    assert {argv[0] for argv in BUILDS} == set(FAMILIES)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", BUILDS, ids=lambda argv: "-".join(x.lstrip("-") for x in argv))
def test_build_files_match_the_oracle(tmp_path, capsys, argv):
    argv = ["build", *argv, "--out", str(tmp_path)]
    assert main(argv) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    rep = build_representation(argv[1], parse_direct(argv))
    docs = {"frame": oracle.frame_to_doc(rep.frame), "dual": oracle.frame_to_doc(rep.dual)}
    if rep.geometry is not None:
        docs["geometry"] = geometry_to_doc(rep.geometry)
    assert sorted(files) == sorted(docs)
    for key, doc in docs.items():
        with open(files[key], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == _sha256(oracle.file_text(doc)), key
