"""Command-line surface: verbs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qframe.cli import main
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
    # hardy and wootters are both minimal at d=3; mismatched labels must fail
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
    code, out, err = run(capsys, "represent", "wootters", "--d", "3", "--state", str(path))
    assert code == 4
    assert out == ""
    assert "finite" in err


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


# determinism


def test_equal_seeds_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "5")
    _, out2, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "6")
    assert out1 != out3


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QFRAME_SEED", "5")
    _, out_env, _ = run(capsys, "demo", "teleport", "--d", "3")
    monkeypatch.delenv("QFRAME_SEED")
    _, out_flag, _ = run(capsys, "demo", "teleport", "--d", "3", "--seed", "5")
    assert out_env == out_flag


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


# the parser builds only the invoked verb's arguments


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
    from qframe.cli import make_parser

    assert make_parser(verb).format_usage() == make_parser().format_usage()
    assert make_parser(verb).format_help() == make_parser().format_help()
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
    ],
)
def test_bad_arguments_keep_their_errors(capsys, argv):
    want = _full_parse(capsys, argv)
    assert want[0] in (0, 2)
    assert _main_exit(capsys, argv) == want
