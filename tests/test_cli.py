"""Command-line surface: verbs, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qframe import cli, errors
from qframe.cli import VERBS, build_representation, main, make_parser, parse_direct
from qframe.errors import UnsupportedDimensionError
from qframe.operators import maximally_mixed, random_state
from qframe.representations import wootters
from qframe.serialize import matrix_from_doc, matrix_to_doc, write_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# build


def test_build_wootters_writes_artifacts(tmp_path, capsys):
    code, out, err = run(
        capsys, "build", "wootters", "--d", "3", "--out", str(tmp_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["representation"] == "wootters"
    assert doc["dim"] == 3
    assert doc["outcomes"] == 9
    assert doc["duality_ok"] is True
    assert doc["duality_residual"] < 1e-9
    assert abs(doc["frame_bounds"][0] - 1 / 3) < 1e-9
    for key in ("frame", "dual", "geometry"):
        assert os.path.exists(doc["files"][key])
    assert "duality residual" in err


def test_build_havel_and_sic(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "havel", "--n", "2", "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["dim"] == 4

    code, out, _ = run(capsys, "build", "sic", "--d", "2", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["overlap_deviation"] < 1e-8
    assert "geometry" not in doc["files"]


def test_build_mub_nonprime_rejected(capsys):
    code, _, err = run(capsys, "build", "mub", "--d", "4")
    assert code == 2
    assert "d must be prime" in err


def test_build_missing_dimension_flag(capsys):
    code, _, err = run(capsys, "build", "cohendet")
    assert code == 2
    assert "--d" in err


@pytest.mark.parametrize("argv,message", [
    (["verify", "wootters"], "this representation needs --d"),
    (["represent", "wootters", "--dims", ",", "--mixed"], "this representation needs --d"),
    (["build", "ghw"], "ghw needs --p (and optionally --n)"),
    (["verify", "ghw", "--n", "2"], "ghw needs --p (and optionally --n)"),
    (["represent", "havel", "--mixed"], "havel needs --n qubits"),
    (["verify", "sic"], "this representation needs --d"),
])
def test_missing_dimension_flag_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_representation_is_refused_by_the_table():
    with pytest.raises(UnsupportedDimensionError, match="unknown representation 'nonsense'"):
        build_representation("nonsense", parse_direct(["build", "wootters", "--d", "3"]))


# represent / reconstruct


def test_represent_round_trip_through_files(tmp_path, capsys):
    rho = random_state(3, seed=12)
    state_file = tmp_path / "rho.json"
    write_json(matrix_to_doc(rho), state_file)
    dist_file = tmp_path / "mu.json"

    code, out, _ = run(
        capsys,
        "represent",
        "wootters",
        "--d",
        "3",
        "--state",
        str(state_file),
        "--out",
        str(dist_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["round_trip_error"] < 1e-9
    assert doc["labels"][1] == [0, 1]
    mu = wootters(3).represent(rho)
    assert np.allclose(doc["values"], mu.values, atol=1e-11)

    code, out, _ = run(
        capsys, "reconstruct", "wootters", "--d", "3", "--dist", str(dist_file)
    )
    assert code == 0
    back = matrix_from_doc(json.loads(out))
    assert np.max(np.abs(back - rho)) < 1e-9


def test_represent_csv_output(capsys):
    code, out, _ = run(
        capsys, "represent", "wootters", "--d", "2", "--mixed", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,p,value"
    assert len(lines) == 5
    assert all(line.endswith("2.500000000000e-01") for line in lines[1:])


def test_represent_needs_exactly_one_state_source(capsys):
    code, _, err = run(capsys, "represent", "wootters", "--d", "2")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run(
        capsys, "represent", "wootters", "--d", "2", "--mixed", "--pure", "3"
    )
    assert code == 2


def test_represent_state_dimension_mismatch(tmp_path, capsys):
    state_file = tmp_path / "rho2.json"
    write_json(matrix_to_doc(maximally_mixed(2)), state_file)
    code, _, err = run(
        capsys, "represent", "wootters", "--d", "3", "--state", str(state_file)
    )
    assert code == 4
    assert "3" in err


def test_reconstruct_rejects_foreign_distribution(tmp_path, capsys):
    dist_file = tmp_path / "mu.json"
    run(capsys, "represent", "cohendet", "--d", "3", "--mixed", "--out", str(dist_file))
    code, _, err = run(
        capsys, "reconstruct", "wootters", "--d", "3", "--dist", str(dist_file)
    )
    assert code == 4
    assert "cohendet" in err


# each error class the CLI maps, with the exit code the module docstring documents for it
ERROR_CODES = [
    (errors.ParseError, 3),
    (errors.DimensionMismatchError, 4),
    (errors.UnsupportedTransformError, 5),
    (errors.UnsupportedDimensionError, 2),
    (errors.FiducialSearchError, 1),
    (errors.NotAFrameError, 1),
    (errors.SingularBasisError, 1),
    (errors.QframeError, 2),
    (ValueError, 2),
    (FileNotFoundError, 3),
    (OSError, 3),
]


@pytest.mark.parametrize("error,code", ERROR_CODES, ids=[e.__name__ for e, _ in ERROR_CODES])
def test_error_classes_exit_with_their_codes(monkeypatch, capsys, error, code):
    def fail(name, args):
        raise error("boom")

    monkeypatch.setattr(cli, "build_representation", fail)
    assert run(capsys, "build", "wootters", "--d", "3") == (code, "", "error: boom\n")


def test_error_table_covers_every_error_class():
    classes = {obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes <= {error for error, _ in cli.ERROR_EXITS}


def test_unhandled_errors_propagate(monkeypatch):
    def fail(name, args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "build_representation", fail)
    with pytest.raises(KeyError):
        main(["build", "wootters", "--d", "3"])


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(
        capsys, "reconstruct", "wootters", "--d", "3", "--dist", str(bad)
    )
    assert code == 3
    missing = tmp_path / "nope.json"
    code, _, _ = run(
        capsys, "reconstruct", "wootters", "--d", "3", "--dist", str(missing)
    )
    assert code == 3
    assert err  # message went to stderr


# transform


def test_transform_between_minimal_frames(tmp_path, capsys):
    dist_file = tmp_path / "mu.json"
    run(
        capsys,
        "represent",
        "cohendet",
        "--d",
        "3",
        "--pure",
        "4",
        "--out",
        str(dist_file),
    )
    code, out, _ = run(
        capsys, "transform", "cohendet", "wootters", "--d", "3", "--dist", str(dist_file)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["representation"] == "wootters"
    rho = random_state(3, rank=1, seed=4)
    assert np.allclose(doc["values"], wootters(3).represent(rho).values, atol=1e-9)


def test_transform_rejects_overcomplete_frame(tmp_path, capsys):
    dist_file = tmp_path / "mu.json"
    run(capsys, "represent", "wootters", "--d", "3", "--mixed", "--out", str(dist_file))
    code, _, err = run(
        capsys, "transform", "mub", "wootters", "--d", "3", "--dist", str(dist_file)
    )
    assert code == 5
    assert "minimal" in err


def test_transform_rejects_foreign_distribution(tmp_path, capsys):
    # Cohendet's values sit on Wootters' labels at d = 3; only their name tells them apart
    dist_file = tmp_path / "c.json"
    run(capsys, "represent", "cohendet", "--d", "3", "--pure", "1", "--out", str(dist_file))
    code, out, err = run(
        capsys, "transform", "wootters", "hardy", "--d", "3", "--dist", str(dist_file)
    )
    assert code == 4
    assert out == ""
    assert "distribution came from 'cohendet', not 'wootters'" in err


def test_transform_dimension_mismatch(tmp_path, capsys):
    dist_file = tmp_path / "mu.json"
    run(capsys, "represent", "wootters", "--d", "3", "--mixed", "--out", str(dist_file))
    code, _, _ = run(
        capsys,
        "transform",
        "hardy",
        "wootters",
        "--d",
        "3",
        "--dist",
        str(dist_file),
    )
    # hardy and wootters are both minimal at d=3; Wootters values must not go in as Hardy's
    assert code == 4


# negativity


def test_negativity_report(capsys):
    code, out, _ = run(capsys, "negativity", "wootters", "--d", "2", "--pure", "6")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"representation", "dim", "min_value", "abs_sum", "negativity"}
    assert doc["abs_sum"] >= 1.0 - 1e-12


def test_negativity_mixed_state_is_classical(capsys):
    code, out, _ = run(capsys, "negativity", "wootters", "--d", "3", "--mixed")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_value"] > 0
    assert doc["negativity"] < 1e-12


def test_negativity_witness_mode(capsys):
    code, out, _ = run(capsys, "negativity", "mub", "--d", "3", "--witness")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["found"] is True
    assert doc["witness"]["kind"] in {"state", "effect"}
    assert "operator" in doc["witness"]


@pytest.mark.parametrize("argv", [("hardy", "--d", "3"), ("stratonovich",)])
def test_negativity_witness_integer_label(capsys, argv):
    code, out, _ = run(capsys, "negativity", *argv, "--witness")
    assert code == 0
    assert '"label": 0' in out
    assert json.loads(out)["witness"]["label"] == 0


# verify


def test_verify_passes_for_wootters(capsys):
    code, out, err = run(capsys, "verify", "wootters", "--d", "3", "--samples", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert "all passed" in err


def test_verify_stratonovich_at_the_spin_cap(capsys):
    # the Gram-inverse dual amplified last-bit skew of the point kernels past 1e-10 here
    assert main(["verify", "stratonovich", "--s", "4", "--samples", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert doc["checks"][0]["name"] == "hermitian_families" and doc["checks"][0]["tolerance"] == 1e-10


def test_verify_fiducial_failure_exits_one(capsys):
    code, out, err = run(capsys, "verify", "sic", "--d", "3", "--starts", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False
    assert doc["checks"][0]["name"] == "fiducial_search"
    assert "no fiducial" in err


# demo


def test_demo_bell_frozen_angles(capsys):
    code, out, _ = run(capsys, "demo", "bell", "--angles", "0,60,120")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lhs"] - 1.0) < 1e-10
    assert abs(doc["rhs"] - 0.5) < 1e-10
    assert doc["violated"] is True

    code, out, _ = run(capsys, "demo", "bell", "--angles", "0,90,180")
    doc = json.loads(out)
    assert doc["violated"] is False


def test_demo_bell_bad_angles(capsys):
    code, _, err = run(capsys, "demo", "bell", "--angles", "0,60")
    assert code == 2
    assert "three" in err


def test_demo_teleport(capsys):
    code, out, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_residual"] < 1e-9
    assert len(doc["outcomes"]) == 9
    probs = [o["probability"] for o in doc["outcomes"]]
    assert abs(sum(probs) - 1.0) < 1e-9


def test_demo_nmr_at_bound(capsys):
    code, out, _ = run(
        capsys, "demo", "nmr", "--n", "1", "--epsilon", str(1.0 / 3.0)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["classical"] is True
    assert doc["sampled_min"] > -1e-8


def test_demo_nmr_csv(capsys):
    code, out, _ = run(
        capsys, "demo", "nmr", "--n", "1", "--epsilon", "0.5", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("key,value")
    assert "classical,false" in out


def test_demo_entanglement(capsys):
    code, out, _ = run(
        capsys, "demo", "entanglement", "--samples", "20", "--seed", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 20
    assert doc["disagreements"] == 0
    assert doc["conclusive"] >= 1


def test_demo_entanglement_csv_has_one_row_per_sample(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "demo", "entanglement", "--samples", "3", "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed,rank,lattice_min,lattice_verdict,pt_min_eig,ppt_verdict"
    assert [line.split(",")[:2] for line in lines[1:]] == [["0", "1"], ["1", "2"], ["2", "3"]]
    assert out_file.read_text() == out


def test_json_output_renders_no_csv(tmp_path, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("CSV rendered for JSON output")

    monkeypatch.setattr("qframe.cli.table_to_csv", refuse)
    monkeypatch.setattr("qframe.cli.distribution_to_csv", refuse)
    dist_file = tmp_path / "mu.json"
    commands = [
        ["represent", "wootters", "--d", "3", "--pure", "2", "--out", str(dist_file)],
        ["transform", "wootters", "hardy", "--d", "3", "--dist", str(dist_file)],
        ["demo", "teleport", "--d", "3"],
        ["demo", "nmr", "--n", "1"],
        ["demo", "bell"],
        ["demo", "entanglement", "--samples", "5"],
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "entanglement", "--samples", "-1"],
        ["demo", "entanglement", "--samples", "0"],
        ["verify", "wootters", "--d", "3", "--samples", "0"],
        ["verify", "wootters", "--d", "3", "--samples", "-5"],
    ],
)
def test_non_positive_samples_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_state_file_exits_4(tmp_path, capsys, bad):
    path = tmp_path / "state.json"
    rho = maximally_mixed(3).astype(complex)
    rho[1, 1] = bad
    path.write_text(json.dumps(matrix_to_doc(rho)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "represent", "wootters", "--d", "3", "--state", str(path))
    assert code == 4
    assert out == ""
    assert "finite" in err
    # refused while reading the file, before a product with the entry could warn
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_non_hermitian_state_file_exits_4(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(matrix_to_doc(np.triu(np.ones((3, 3))) / 3)))
    code, out, err = run(capsys, "represent", "wootters", "--d", "3", "--state", str(path))
    assert code == 4
    assert out == ""
    assert "Hermitian" in err


def test_non_finite_distribution_file_exits_4(tmp_path, capsys):
    mu = wootters(3).represent(maximally_mixed(3))
    doc = {
        "representation": "wootters",
        "dim": 3,
        "labels": [list(lab) for lab in mu.labels],
        "values": [float("nan")] + [float(v) for v in mu.values[1:]],
    }
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reconstruct", "wootters", "--d", "3", "--dist", str(path))
    assert code == 4
    assert "finite" in err


@pytest.mark.parametrize("argv,message", [
    (("demo", "bell", "--angles", "0,60,nan"), "angles must be finite"),
    (("demo", "bell", "--angles", "inf,60,120"), "angles must be finite"),
    (("represent", "stratonovich", "--s", "inf", "--mixed"), "s = inf is out of range"),
    (("represent", "stratonovich", "--s", "nan", "--mixed"), "s = nan is out of range"),
    (("represent", "stratonovich", "--s", "1e308", "--mixed"), "s = 1e+308 is out of range"),
], ids=["bell-nan", "bell-inf", "spin-inf", "spin-nan", "spin-1e308"])
def test_non_finite_arguments_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    # one line of error, no traceback
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_import_leaves_scipy_optimize_unloaded():
    probe = (
        "import sys, qframe.cli; "
        "print('scipy.optimize' in sys.modules, 'numpy.random' in sys.modules)"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]


def test_well_formed_command_leaves_argparse_unloaded():
    probe = (
        "import contextlib, io, sys, qframe.cli\n"
        "print('argparse' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = qframe.cli.main(['demo', 'bell'])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "0", "False"]


# determinism


def test_equal_seeds_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "5")
    _, out2, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "6")
    assert out1 != out3


def test_seed_comes_from_the_command_line_alone(capsys, monkeypatch):
    _, out_default, _ = run(capsys, "demo", "teleport", "--d", "3")
    _, out_zero, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "0")
    monkeypatch.setenv("QFRAME_SEED", "5")
    _, out_env, _ = run(capsys, "demo", "teleport", "--d", "3")
    _, out_flag, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "5")
    assert out_env == out_default == out_zero != out_flag


def test_build_outputs_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(capsys, "build", "wootters", "--d", "3", "--out", str(a))
    run(capsys, "build", "wootters", "--d", "3", "--out", str(b))
    assert (a / "wootters-d3-frame.json").read_bytes() == (
        b / "wootters-d3-frame.json"
    ).read_bytes()
    assert (a / "wootters-d3-dual.json").read_bytes() == (
        b / "wootters-d3-dual.json"
    ).read_bytes()


def test_argparse_rejects_unknown_representation():
    with pytest.raises(SystemExit) as exc:
        main(["build", "nonsense", "--d", "2"])
    assert exc.value.code == 2


# the direct parser reads well-formed command lines; argparse prints help and errors


VERB_NAMES = ("build", "represent", "reconstruct", "transform", "negativity", "verify", "demo")


def _full_parse(capsys, argv):
    """(exit code, stdout, stderr) of the parser with every verb's arguments on ``argv``."""
    from qframe.cli import make_parser

    with pytest.raises(SystemExit) as exc:
        make_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _main_exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_parser_table_names_every_verb():
    from qframe.cli import VERBS

    assert tuple(row[0] for row in VERBS) == VERB_NAMES


@pytest.mark.parametrize("verb", VERB_NAMES)
def test_per_verb_parser_has_the_full_help(capsys, verb):
    full = _full_parse(capsys, [verb, "--help"])
    assert full[0] == 0 and full[1].startswith(f"usage: qframe {verb}")
    assert _main_exit(capsys, [verb, "--help"]) == full


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["bogus"],
        ["verif", "wootters"],
        ["verify", "--bogus"],
        ["verify"],
        ["verify", "wootters", "--d", "x"],
        ["transform", "wootters"],
        ["reconstruct", "wootters", "--d", "3"],
        ["demo", "teleportation"],
        ["represent", "wootters", "--dims", "a,b"],
        ["build", "nope"],
        ["negativity", "wootters", "--witness", "extra"],
        ["--", "verify", "wootters"],
        ["verify", "wootters", "--d", "5", "--format", "csv"],
    ],
)
def test_bad_arguments_keep_their_errors(capsys, argv):
    want = _full_parse(capsys, argv)
    assert want[0] in (0, 2)
    assert _main_exit(capsys, argv) == want


def test_csv_verbs_are_marked_in_the_table():
    formats = {verb: dict(flags)["--format"]["choices"] for verb, _, _, flags, _ in VERBS}
    csv = sorted(verb for verb, choices in formats.items() if "csv" in choices)
    assert csv == ["demo", "represent", "transform"]
    assert all("json" in choices for choices in formats.values())


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "wootters", "--d", "3"],
        ["reconstruct", "wootters", "--d", "3", "--dist", "mu.json"],
        ["negativity", "wootters", "--d", "3", "--mixed"],
        ["negativity", "mub", "--d", "3", "--witness"],
        ["verify", "wootters", "--d", "5"],
    ],
)
def test_csv_is_refused_while_parsing_where_a_verb_has_none(tmp_path, capsys, monkeypatch, argv):
    def refuse(*_):
        raise AssertionError("a factory ran")

    monkeypatch.setattr("qframe.cli.build_representation", refuse)
    out = tmp_path / "out"
    argv = argv + ["--out", str(out), "--format", "csv"]
    assert parse_direct(argv) is None
    code, stdout, err = _main_exit(capsys, argv)
    assert code == 2 and stdout == ""
    assert "--format: invalid choice: 'csv'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "wootters", "--d", "3", "--tol", "1e-3"],
        ["represent", "wootters", "--d", "3", "--pure", "1", "--tol", "1e-3"],
        ["reconstruct", "wootters", "--d", "3", "--dist", "mu.json", "--tol", "1e-3"],
        ["transform", "wootters", "hardy", "--d", "3", "--dist", "mu.json", "--tol", "1e-3"],
        ["demo", "nmr", "--tol", "1e-3"],
        ["demo", "nmr", "--dims", "2,2"],
        ["demo", "nmr", "--p", "3"],
        ["demo", "nmr", "--s", "1"],
    ],
)
def test_a_flag_no_verb_reads_is_refused(tmp_path, capsys, monkeypatch, argv):
    def refuse(*_):
        raise AssertionError("a factory ran")

    monkeypatch.setattr("qframe.cli.build_representation", refuse)
    assert parse_direct(argv) is None
    code, stdout, _ = _main_exit(capsys, argv)
    assert code == 2 and stdout == ""


def test_each_verb_lists_only_the_flags_it_reads():
    flags = {verb: [flag for flag, _ in row] for verb, _, _, row, _ in VERBS}
    assert sorted(verb for verb, names in flags.items() if "--tol" in names) == ["build", "negativity"]
    assert [f for f in flags["demo"] if f in ("--d", "--dims", "--p", "--n", "--s", "--seed")] == [
        "--d", "--n", "--seed"]
    assert all("--out" in names for names in flags.values())


# one command line per handler in VERBS, and one per demo runner
HANDLER_CASES = [
    ["build", "wootters", "--d", "3", "--out", "b"],
    ["represent", "wootters", "--d", "3", "--pure", "2", "--format", "csv", "--out", "o.csv"],
    ["reconstruct", "wootters", "--d", "3", "--dist", "mu.json", "--out", "o.json"],
    ["transform", "wootters", "hardy", "--d", "3", "--dist", "mu.json", "--format", "csv", "--out", "o.csv"],
    ["negativity", "mub", "--d", "3", "--witness", "--out", "o.json"],
    ["verify", "sic", "--d", "3", "--starts", "0", "--out", "o.json"],
    ["demo", "teleport", "--format", "csv", "--out", "o.csv"],
    ["demo", "nmr", "--n", "1"],
    ["demo", "bell", "--out", "o.json"],
    ["demo", "entanglement", "--samples", "5"],
]


def test_the_handler_cases_cover_every_verb_and_demo():
    rows = {row[0]: row for row in VERBS}
    assert {argv[0] for argv in HANDLER_CASES} == set(rows)
    demos = dict(rows["demo"][2])["name"]
    assert sorted(argv[1] for argv in HANDLER_CASES if argv[0] == "demo") == sorted(demos)


@pytest.mark.parametrize("argv", HANDLER_CASES, ids=lambda argv: "-".join(argv[:2]))
def test_a_handler_returns_its_result_and_main_alone_writes_it(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["represent", "wootters", "--d", "3", "--pure", "1", "--out", "mu.json"]) == 0
    capsys.readouterr()
    code = main(argv)
    want = capsys.readouterr()
    out = tmp_path / argv[-1]
    if "--out" in argv and argv[0] != "build":
        assert out.read_text() == want.out
        out.unlink()
    args = parse_direct(argv)
    result = args.func(args)
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", "")
    assert out.exists() == (argv[0] == "build")
    assert isinstance(result, tuple) and len(result) == 4
    doc, csv, summary, ok = result
    formats = next(dict(flags)["--format"]["choices"] for verb, _, _, flags, _ in VERBS if verb == argv[0])
    assert (csv is None) == ("csv" not in formats)
    text = csv() if args.format == "csv" else cli.render_json(doc) + "\n"
    assert (text, summary + "\n", 0 if ok else 1) == (want.out, want.err, code)


def test_failed_out_write_leaves_the_old_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "mu.json"
    assert main(["represent", "wootters", "--d", "3", "--pure", "1", "--out", str(out)]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    # far more text than a file buffer precedes a character UTF-8 cannot encode, so part of it reaches the disk
    monkeypatch.setattr(cli, "render_json", lambda doc: "0" * 100_000 + "\ud800")
    monkeypatch.setattr(sys, "stdout", io.StringIO())  # stdout takes the text as it is
    assert main(["represent", "wootters", "--d", "3", "--pure", "2", "--out", str(out)]) == 2
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["mu.json"]


# values every flag of a type accepts, and tokens that some flags refuse (mutations draw them)
GOOD_VALUES = {
    int: ["3", "0", "-2", "17"],
    float: ["0.5", "-.5", "2", "1e-3", "-7"],
    None: ["out.json", "0,60,120", "-4", "a b", ""],
}
ODD_TOKENS = ["x", "-x", "-1,0,1", "1.5", "a,b", "-", "--d", "nan", "2,-1", "xml", "-1e3"]


def _good_value(draw, kwargs):
    if "choices" in kwargs:
        return draw(st.sampled_from(kwargs["choices"]))
    if kwargs.get("type") not in GOOD_VALUES:  # --dims
        return draw(st.sampled_from(["2,2", "3", "2,3,", "-5"]))
    return draw(st.sampled_from(GOOD_VALUES[kwargs.get("type")]))


@st.composite
def command_lines(draw):
    """(argv, mutated): a well-formed command line from VERBS, mutated or not."""
    verb, _, positionals, flags, _ = draw(st.sampled_from(VERBS))
    units = [[draw(st.sampled_from(choices))] for _, choices in positionals]
    # a flag may come twice; argparse keeps its last value
    chosen = draw(st.lists(st.sampled_from(flags), max_size=6))
    chosen += [flag for flag in flags if flag[1].get("required")]
    for flag, kwargs in chosen:
        units.append([flag] if "action" in kwargs else [flag, _good_value(draw, kwargs)])
    # positionals keep their order; flags go anywhere between them
    order = draw(st.permutations(range(len(units))))
    pos = iter(units[: len(positionals)])
    units = [next(pos) if i < len(positionals) else units[i] for i in order]
    argv = [verb] + [token for unit in units for token in unit]
    mutations = draw(st.lists(st.integers(0, 6), max_size=2))
    for kind in mutations:
        i = draw(st.integers(1, max(1, len(argv))))
        flag_at = [j for j, t in enumerate(argv) if t.startswith("--")]
        if kind == 0 and flag_at:  # abbreviation
            j = draw(st.sampled_from(flag_at))
            argv[j] = argv[j][: draw(st.integers(2, len(argv[j])))]
        elif kind == 1 and flag_at:  # --flag=value
            j = draw(st.sampled_from(flag_at))
            argv[j : j + 2] = ["=".join(argv[j : j + 2])]
        elif kind == 2:  # a bad value, or any other token
            argv[i:i + 1] = [draw(st.sampled_from(ODD_TOKENS + ["wootters", "bell", "-h"]))]
        elif kind == 3:
            argv.insert(i, draw(st.sampled_from(["--", "-h", "--help", "--bogus", "wootters", "3"])))
        elif kind == 4 and len(argv) > 1:
            del argv[i if i < len(argv) else -1]
        elif kind == 5:
            argv[0] = draw(st.sampled_from(["verif", "--help", "-h", "bogus", ""]))
        elif kind == 6:
            argv.insert(i, draw(st.sampled_from(ODD_TOKENS)))
        else:
            continue
        return argv, True
    return argv, False


def _fields(ns):
    # repr compares nan and -0.0 as argparse produced them, and ints apart from floats
    return repr(sorted(vars(ns).items()))


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_direct_parser_agrees_with_argparse(case):
    argv, mutated = case
    direct = parse_direct(list(argv))
    if direct is None:
        assert mutated, f"refused a well-formed command line: {argv}"
        return
    assert _fields(direct) == _fields(make_parser().parse_args(list(argv)))


def test_well_formed_commands_never_build_a_parser(tmp_path, capsys, monkeypatch):
    import argparse

    state = tmp_path / "state.json"
    write_json(matrix_to_doc(random_state(3, rank=2, seed=1)), state)
    wootters_mu, cohendet_mu = tmp_path / "mu.json", tmp_path / "cohendet-mu.json"
    run(capsys, "represent", "wootters", "--d", "3", "--pure", "7", "--out", str(wootters_mu))
    run(capsys, "represent", "cohendet", "--d", "3", "--pure", "7", "--out", str(cohendet_mu))

    def refuse(*_, **__):
        raise AssertionError("built an argparse parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    session = [
        ["represent", "wootters", "--d", "3", "--pure", "3"],
        ["represent", "hardy", "--d", "3", "--state", str(state)],
        ["reconstruct", "wootters", "--d", "3", "--dist", str(wootters_mu)],
        ["transform", "wootters", "hardy", "--d", "3", "--dist", str(wootters_mu)],
        ["negativity", "wootters", "--d", "3", "--state", str(state)],
        ["negativity", "mub", "--d", "3", "--witness"],
        ["verify", "wootters", "--d", "5", "--samples", "50", "--seed", "3"],
        ["build", "ghw", "--p", "2", "--n", "2", "--out", str(tmp_path / "build")],
        ["demo", "teleport", "--d", "3", "--seed", "3"],
        ["demo", "entanglement", "--samples", "20", "--seed", "3"],
        ["demo", "nmr", "--n", "2", "--epsilon", "0.3"],
        ["demo", "bell"],
    ]
    readme = [
        ["build", "wootters", "--d", "3", "--out", str(tmp_path / "artifacts")],
        ["represent", "wootters", "--d", "3", "--pure", "7"],
        ["reconstruct", "wootters", "--d", "3", "--dist", str(wootters_mu)],
        ["transform", "cohendet", "wootters", "--d", "3", "--dist", str(cohendet_mu)],
        ["negativity", "mub", "--d", "3", "--witness"],
        ["verify", "sic", "--d", "3"],
        ["demo", "teleport", "--d", "5", "--seed", "1"],
        ["demo", "bell", "--angles", "0,60,120"],
    ]
    for argv in session + readme:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)


NOT_UTF8 = b"\xff{}"


@pytest.mark.parametrize("verb,flag,content", [
    ("represent", "--state", NOT_UTF8),
    ("represent", "--state", b'{"dim": 1e400, "re": [[1.0]], "im": [[0.0]]}'),
    ("reconstruct", "--dist", NOT_UTF8),
    ("reconstruct", "--dist", b'{"representation": "wootters", "dim": 1e400, "labels": [], "values": []}'),
], ids=["state-not-utf8", "state-dim-inf", "dist-not-utf8", "dist-dim-inf"])
def test_an_unreadable_input_file_exits_3(tmp_path, capsys, verb, flag, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, verb, "wootters", "--d", "3", flag, str(path))
    assert (code, out) == (3, "")
    assert "Traceback" not in err
    if content == NOT_UTF8:
        assert f"malformed JSON in {path}" in err


def test_transform_refuses_representations_of_two_dimensions(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    run(capsys, "represent", "wootters", "--d", "3", "--mixed", "--out", str(dist))
    # --dims makes the source wootters at d = 9, and hardy reads --d
    code, out, err = run(capsys, "transform", "wootters", "hardy", "--dims", "3,3", "--d", "3", "--dist", str(dist))
    assert (code, out) == (4, "")
    assert "source d=9 and target d=3 differ" in err


def test_reconstruct_refuses_a_distribution_with_a_value_missing(tmp_path, capsys):
    dist = tmp_path / "mu.json"
    run(capsys, "represent", "wootters", "--d", "3", "--mixed", "--out", str(dist))
    doc = json.loads(dist.read_text())
    doc["values"].pop()
    dist.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reconstruct", "wootters", "--d", "3", "--dist", str(dist))
    assert (code, out) == (4, "")
    assert "9 labels for (8,) values" in err


def test_an_out_file_in_a_missing_directory_exits_3_and_names_it(tmp_path, capsys):
    out = tmp_path / "MISSING" / "x.json"
    code, _, err = run(capsys, "represent", "wootters", "--d", "3", "--mixed", "--out", str(out))
    assert code == 3
    # the error names the file asked for, not the temporary file beside it, and no file is left
    assert f"'{out}'" in err and ".tmp" not in err
    assert os.listdir(tmp_path) == []
