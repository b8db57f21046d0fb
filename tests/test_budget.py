"""Every factory refuses, before it allocates, a build over the operator-stack budget.

A displaced-parity factory allocates its geometry and label maps, and no
stack: the first read of either of its family's dense stacks is charged the
pair's two stacks, and the one-state paths read none.
"""

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

from qframe import analysis, frames, operators, verify
from qframe.cli import main
from qframe.errors import UnsupportedDimensionError
from qframe.frames import born_pair
from qframe.operators import frobenius, random_state
from qframe.representations import (
    cohendet,
    ghw,
    hardy_rep,
    leonhardt,
    mub_family,
    ruzzi_s0,
    sic_rep,
    wootters,
    wootters_composite,
)

wootters_module = importlib.import_module("qframe.representations.wootters")

C16 = np.dtype(complex).itemsize

# (id, build, module whose first allocating step is stubbed out, its name,
#  bytes of operator stacks the build is charged); a parity build at d = 3 holds no stack and is charged
#  4 + 12 operators: d + 1 for the line table as prime_lattice builds it and 12 for the label maps' tables
BUDGETED = [
    ("wootters-3", lambda: wootters(3), "wootters", "prime_lattice", (4 + 12) * 9 * C16),
    ("composite-2x3", lambda: wootters_composite([2, 3]), "wootters", "wootters",
     2 * 36 * 36 * C16),
    ("cohendet-3", lambda: cohendet(3), "cohendet", "odd_lattice", (4 + 12) * 9 * C16),
    ("leonhardt-3", lambda: leonhardt(3), "leonhardt", "odd_lattice", (4 + 12) * 9 * C16),
    ("leonhardt-2", lambda: leonhardt(2), "leonhardt", "displaced_parity", 2 * 16 * 4 * C16),
    ("ruzzi-3", lambda: ruzzi_s0(3), "ruzzi", "odd_lattice", (4 + 12) * 9 * C16),
    ("mub-3", lambda: mub_family(3), "mub", "mub_bases", 3 * 12 * 9 * C16),
    ("hardy-3", lambda: hardy_rep(3), "hardy", "_grid", 3 * 9 * 9 * C16),
    ("sic-3", lambda: sic_rep(3), "sic", "_orbit_stack", 3 * 9 * 9 * C16),
    ("ghw-2-2", lambda: ghw(2, 2), "ghw", "_build_structure", 3 * 16 * 16 * C16),
]
IDS = [case[0] for case in BUDGETED]


def _stub(monkeypatch, module, name):
    mod = importlib.import_module(f"qframe.representations.{module}")
    monkeypatch.setattr(mod, name, lambda *a, **k: pytest.fail("allocated past the budget"))


@pytest.mark.parametrize("name,build,module,builder,need", BUDGETED, ids=IDS)
def test_over_budget_refused_before_building(monkeypatch, name, build, module, builder, need):
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", need - 1)
    _stub(monkeypatch, module, builder)
    with pytest.raises(UnsupportedDimensionError, match="budget"):
        build()


@pytest.mark.parametrize("name,build,module,builder,need", BUDGETED, ids=IDS)
def test_request_at_the_budget_builds(monkeypatch, name, build, module, builder, need):
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", need)
    assert build() is not None


def test_ghw_charge_still_admits_d_64(monkeypatch):
    # three stacks of 64^2 operators on C^64 fit the default budget
    assert 3 * 64**2 * 64**2 * C16 <= frames.MAX_STACK_BYTES

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(importlib.import_module("qframe.representations.ghw"), "_build_structure", reached)
    with pytest.raises(Reached):
        ghw(2, 6)


def test_provided_fiducial_in_any_dimension_is_budgeted(monkeypatch):
    # no search bounds d here, so only the budget stands before the orbit stack
    _stub(monkeypatch, "sic", "_orbit_stack")
    with pytest.raises(UnsupportedDimensionError, match="budget"):
        sic_rep(70, fiducial=np.ones(70))


@pytest.mark.parametrize("build", [
    lambda: wootters(79).frame.operators,  # the pair's 2 * 79^4 complex entries: 1.25 GB
    lambda: wootters_composite([7, 11]),
    lambda: cohendet(81).dual.operators,
    lambda: leonhardt(56),  # even: 2 * 4 * 56^4 complex entries
    lambda: ruzzi_s0(81).frame.operators,
    lambda: hardy_rep(70),
    lambda: mub_family(71),
], ids=["wootters-79", "composite-7x11", "cohendet-81", "leonhardt-56", "ruzzi-81", "hardy-70",
        "mub-71"])
def test_default_budget_refuses_large_requests(monkeypatch, build):
    # a parity family builds its maps at these sizes; the first read of its dense stack is refused
    for module, step in [("wootters", "wootters"), ("leonhardt", "displaced_parity"), ("hardy", "_grid"),
                         ("mub", "mub_bases")]:
        _stub(monkeypatch, module, step)
    _stub_stacks(monkeypatch)
    with pytest.raises(UnsupportedDimensionError, match="budget"):
        build()


def _stub_stacks(monkeypatch):
    """Make every read of a label map's dense stack fail the test."""
    monkeypatch.setattr(frames._LabelMap, "stack", property(lambda lm: pytest.fail("made a dense stack")))


def test_the_stack_stub_fails_a_dense_read(monkeypatch, tmp_path, capsys):
    # the control for every test here that makes no stack under the stub: a read of a parity stack fails it
    _stub_stacks(monkeypatch)
    with pytest.raises(pytest.fail.Exception, match="made a dense stack"):
        wootters(5).dual.operators
    with pytest.raises(pytest.fail.Exception, match="made a dense stack"):
        main(["build", "wootters", "--d", "3", "--out", str(tmp_path)])


@pytest.mark.parametrize("build,d", [(wootters, 101), (cohendet, 81), (leonhardt, 99), (ruzzi_s0, 77)],
                         ids=["wootters-101", "cohendet-81", "leonhardt-99", "ruzzi-77"])
def test_a_parity_family_past_the_dense_budget_builds_and_pairs_without_a_stack(monkeypatch, build, d):
    _stub_stacks(monkeypatch)
    rep = build(d)
    rho = random_state(d, rank=1, seed=1)
    mu = rep.represent(rho)
    assert frobenius(rep.reconstruct(mu) - rho) <= 1e-8
    assert abs(born_pair(mu, rep.effect(rho)) - 1.0) <= 1e-8
    assert rep.frame.skew == rep.dual.skew == 0.0
    with pytest.raises(UnsupportedDimensionError, match=f"needs {2 * d**4 * C16} bytes"):
        rep.dual.operators


def _read_every_field(obj) -> None:
    """``getattr`` of every field of a dataclass, and of every dataclass a field holds."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            _read_every_field(value)


@pytest.mark.parametrize("d", [5, 101])
@pytest.mark.parametrize("build", [wootters, cohendet, leonhardt, ruzzi_s0])
def test_a_generic_field_walk_makes_no_stack(monkeypatch, build, d):
    # a family's fields are its labels, name, measured facts and pairing; its dense stack is none of them
    _stub_stacks(monkeypatch)
    rep = build(d)
    for family in (rep.frame, rep.dual):
        doc = dataclasses.asdict(family)
        assert doc["name"] == family.name and doc["pairing"]["dft"].shape == (2 * d, 2 * d)
        _read_every_field(family)


def test_the_first_read_charges_the_pair_and_a_later_read_is_free(monkeypatch):
    rep = wootters(5)
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", 2 * 25 * 25 * C16 - 1)
    with pytest.raises(UnsupportedDimensionError, match=f"wootters\\(5\\) needs {2 * 25 * 25 * C16} bytes"):
        rep.frame.operators
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", 2 * 25 * 25 * C16)
    ops = rep.frame.operators
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", 1)
    assert rep.frame.operators is ops and rep.frame.flat.base is ops


# the one-state paths of a parity family, each through its label map
ONE_STATE = {
    "represent": ["represent", "wootters", "--d", "7", "--pure", "1"],
    "represent-ruzzi": ["represent", "ruzzi", "--d", "9", "--mixed"],
    "negativity": ["negativity", "cohendet", "--d", "5", "--pure", "2"],
    "demo-teleport": ["demo", "teleport", "--d", "5"],
}


@pytest.mark.parametrize("argv", list(ONE_STATE.values()), ids=list(ONE_STATE))
def test_the_one_state_commands_make_no_stack(monkeypatch, capsys, argv):
    analysis._lattice.cache_clear()  # so the lattice is built under the stub
    _stub_stacks(monkeypatch)
    assert main(argv) == 0


def test_reconstruct_and_effect_make_no_stack(monkeypatch, tmp_path, capsys):
    assert main(["represent", "leonhardt", "--d", "5", "--pure", "3", "--out", str(tmp_path / "mu.json")]) == 0
    _stub_stacks(monkeypatch)
    assert main(["reconstruct", "leonhardt", "--d", "5", "--dist", str(tmp_path / "mu.json")]) == 0
    rep = leonhardt(5)
    assert rep.effect(random_state(5, seed=4)).warnings == ()
    analysis._lattice.cache_clear()
    outcomes = analysis._teleport_branches(7, random_state(7, rank=1, seed=0), [(1, 2), (3, 4)])
    assert max(out.displacement_residual for out in outcomes) <= 1e-12


def test_verify_of_a_parity_family_over_budget_exits_2_before_a_stack(monkeypatch, capsys):
    # wootters(3) builds at this budget, and the suite's charge for 20 samples does not fit it
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", (8 * 20 + 3 * 12 + 2 * 9) * 9 * C16 - 1)
    _stub_stacks(monkeypatch)
    assert main(["verify", "wootters", "--d", "3", "--samples", "20"]) == 2
    assert "budget" in capsys.readouterr().err


def test_build_over_the_dense_budget_exits_2_before_a_stack(monkeypatch, capsys):
    _stub_stacks(monkeypatch)
    assert main(["build", "wootters", "--d", "101"]) == 2
    assert capsys.readouterr().err == f"error: wootters(101) needs {2 * 101**4 * C16} bytes of operator stacks, " \
                                      f"over the {frames.MAX_STACK_BYTES}-byte budget\n"


@pytest.mark.parametrize("d", [3, 5, 7, 9, 13, 15, 23, 31])
@pytest.mark.parametrize("build", [wootters, cohendet, leonhardt, ruzzi_s0], ids=lambda f: f.__name__)
def test_a_parity_build_and_its_one_state_pairings_peak_within_its_charge(build, d):
    if build is wootters and d in (9, 15):
        return
    rho = random_state(d, seed=2)
    build(3).represent(random_state(3, seed=2))  # imports and caches outside the traced window
    tracemalloc.start()
    try:
        rep = build(d)
        mu = rep.represent(rho)
        rep.reconstruct(mu)
        rep.effect(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= frames.parity_operators(d) * d * d * C16 + SLACK


@pytest.mark.parametrize("argv", [
    ["build", "wootters", "--d", "3"],
    ["build", "cohendet", "--d", "3"],
    ["represent", "leonhardt", "--d", "3", "--mixed"],
    ["represent", "ruzzi", "--d", "3", "--mixed"],
    ["verify", "mub", "--d", "3"],
    ["verify", "hardy", "--d", "3"],
    ["build", "sic", "--d", "3"],
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_exits_2_over_budget(monkeypatch, capsys, argv):
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", 1)
    assert main(argv) == 2
    assert "budget" in capsys.readouterr().err


# the fixed slack above the charge that check_stack_budget states for a small build
SLACK = 256 * 1024


@pytest.mark.parametrize("d", range(2, 25))
def test_hardy_peak_stays_within_its_charge(d):
    # frame, dual and the solve on the coordinates: three stacks, as check_stack_budget charges,
    # plus the fixed slack, which d = 16 and d = 24 do not need
    hardy_rep(3)  # imports and caches outside the traced window
    tracemalloc.start()
    try:
        hardy_rep(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * d**4 * C16 + (0 if d in (16, 24) else SLACK)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_ghw_peak_stays_within_its_charge(p, n):
    # the frame and the dual, with room for the frames' checks and the tables: three stacks, as check_stack_budget charges
    d = p**n
    ghw(2, 2)  # imports and caches outside the traced window
    tracemalloc.start()
    try:
        ghw(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * d**4 * C16


@pytest.mark.parametrize("argv", [
    ["verify", "wootters", "--d", "3", "--samples", "1000"],
    ["demo", "entanglement", "--samples", "1000"],
], ids=["verify", "demo-entanglement"])
def test_a_sample_count_over_the_budget_exits_2_before_a_draw(monkeypatch, capsys, argv):
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", 2 * 9 * 9 * C16)  # wootters(3) builds at the budget
    for module in (operators, verify):
        monkeypatch.setattr(module, "_random_states", lambda *a, **k: pytest.fail("drew past the budget"))
    # every seeded state's Gaussians, demo entanglement's per-sample draws too, come from this one helper
    monkeypatch.setattr(operators, "_gaussian_pairs", lambda *a, **k: pytest.fail("drew past the budget"))
    assert main(argv) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("d,message", [(7, "budget"), (2004, "need an odd prime dimension, got 2004")],
                         ids=["over-budget", "not-prime"])
def test_demo_teleport_refuses_its_dimension_before_a_draw(monkeypatch, capsys, d, message):
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", 2 * 9 * 9 * C16)  # wootters(3) builds at the budget
    monkeypatch.setattr(operators, "_gaussian_pairs", lambda *a, **k: pytest.fail("drew before the refusal"))
    analysis._lattice.cache_clear()  # so the lattice is charged, not taken from an earlier test's build
    assert main(["demo", "teleport", "--d", str(d)]) == 2
    assert message in capsys.readouterr().err


def test_demo_teleport_refuses_a_line_table_over_the_budget_before_the_lattice(monkeypatch, capsys):
    # d = 7's line table alone, (7 + 1)/2 operators of 49 entries, is over this budget, and so is
    # every charge before the lattice
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", 4 * 49 * C16 - 1)
    monkeypatch.setattr(wootters_module, "prime_lattice", lambda *a, **k: pytest.fail("built the lattice"))
    monkeypatch.setattr(operators, "_gaussian_pairs", lambda *a, **k: pytest.fail("drew before the refusal"))
    analysis._lattice.cache_clear()
    assert main(["demo", "teleport", "--d", "7"]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("d", [3, 5, 7, 13, 23])
def test_the_teleport_branches_peak_within_their_charge(d):
    # three stacks of d^2 d x d matrices, as _teleport_lattice charges before the lattice
    rho = random_state(d, rank=1, seed=0)
    outcomes = [(a, b) for a in range(d) for b in range(d)]
    analysis._teleport_branches(d, rho, outcomes[:1])  # the lattice and caches outside the traced window
    tracemalloc.start()
    try:
        analysis._teleport_branches(d, rho, outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * d**4 * C16 + SLACK


@pytest.mark.parametrize("argv,need", [
    # 8 operators per sample, 3 per line of wootters(3)'s 12 and 2 per operator of its frame of 9
    (["verify", "wootters", "--d", "3", "--samples", "20"], (8 * 20 + 3 * 12 + 2 * 9) * 9 * C16),
    (["demo", "entanglement", "--samples", "20"], 3 * 20 * 16 * C16),
], ids=["verify", "demo-entanglement"])
def test_a_sample_count_at_the_budget_runs(monkeypatch, capsys, argv, need):
    # the demo's two-qubit lattice is charged 2 * 16 * 16 * C16, under the sample charge
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", need)
    assert main(argv) == 0
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", need - 1)
    assert main(argv) == 2


@pytest.mark.parametrize("d", [2, 3, 5])
def test_the_born_samples_peak_within_their_charge(d):
    # verify_representation charges eight d x d complex stacks per sample
    rep, samples = wootters(d) if d % 2 else leonhardt(d), 500
    verify._born_residual(rep, 0, 5)  # imports and caches outside the traced window
    tracemalloc.start()
    try:
        verify._born_residual(rep, 0, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * samples * d * d * C16 + SLACK


def test_verify_over_budget_exits_2_before_the_duality_check(monkeypatch, capsys):
    # wootters(3) builds at this budget, and one sample with the unsampled steps does not fit it
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", 2 * 9 * 9 * C16)
    monkeypatch.setattr(verify, "is_dual_pair", lambda *a, **k: pytest.fail("checked duality past the budget"))
    assert main(["verify", "wootters", "--d", "3", "--samples", "1"]) == 2
    assert "budget" in capsys.readouterr().err


def test_verify_charges_the_frame_and_dual_it_holds(monkeypatch, capsys):
    # 8 operators per sample, 3 per line of wootters(3)'s 12, and the frame and dual the run holds, 2 per
    # operator of its 9: one byte under that is refused before the first step
    need = (8 * 20 + 3 * 12 + 2 * 9) * 9 * C16
    monkeypatch.setattr(frames, "MAX_STACK_BYTES", need - 1)
    monkeypatch.setattr(verify, "is_dual_pair", lambda *a, **k: pytest.fail("checked duality past the budget"))
    assert main(["verify", "wootters", "--d", "3", "--samples", "20"]) == 2
    assert f"needs {need} bytes" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda: wootters(5), lambda: wootters_composite([2, 3]), lambda: ghw(2, 3), lambda: cohendet(5),
    lambda: mub_family(5).representation(), lambda: hardy_rep(6), lambda: leonhardt(4),
], ids=["wootters-5", "composite-2x3", "ghw-2-3", "cohendet-5", "mub-5", "hardy-6", "leonhardt-4"])
def test_the_whole_suite_peaks_within_its_charge(make):
    # 8 d x d operators per sample, and 3 per operator of the frame or per line, whichever are more
    rep, samples = make(), 20
    lines = rep.geometry.line_index.shape[:2] if rep.geometry is not None else (0, 0)
    charge = (8 * samples + 3 * max(len(rep.frame), lines[0] * lines[1])) * rep.dim**2 * C16
    verify.verify_representation(rep, 0, samples)  # imports and caches outside the traced window
    tracemalloc.start()
    try:
        verify.verify_representation(rep, 0, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charge + SLACK
