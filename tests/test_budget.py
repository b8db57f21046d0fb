"""Every factory refuses, before it allocates, a build over the operator-stack budget."""

import importlib
import tracemalloc

import numpy as np
import pytest

from qframe import operators, verify
from qframe.cli import main
from qframe.errors import UnsupportedDimensionError
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

base = importlib.import_module("qframe.representations.base")

C16 = np.dtype(complex).itemsize

# (id, build, module whose first allocating step is stubbed out, its name,
#  bytes of operator stacks the build is charged)
BUDGETED = [
    ("wootters-3", lambda: wootters(3), "wootters", "parity_pair", 2 * 9 * 9 * C16),
    ("composite-2x3", lambda: wootters_composite([2, 3]), "wootters", "wootters",
     2 * 36 * 36 * C16),
    ("cohendet-3", lambda: cohendet(3), "cohendet", "parity_pair", 2 * 9 * 9 * C16),
    ("leonhardt-3", lambda: leonhardt(3), "leonhardt", "parity_pair", 2 * 9 * 9 * C16),
    ("leonhardt-2", lambda: leonhardt(2), "leonhardt", "displaced_parity", 2 * 16 * 4 * C16),
    ("ruzzi-3", lambda: ruzzi_s0(3), "ruzzi", "parity_pair", 2 * 9 * 9 * C16),
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
    monkeypatch.setattr(base, "MAX_STACK_BYTES", need - 1)
    _stub(monkeypatch, module, builder)
    with pytest.raises(UnsupportedDimensionError, match="budget"):
        build()


@pytest.mark.parametrize("name,build,module,builder,need", BUDGETED, ids=IDS)
def test_request_at_the_budget_builds(monkeypatch, name, build, module, builder, need):
    monkeypatch.setattr(base, "MAX_STACK_BYTES", need)
    assert build() is not None


def test_ghw_charge_still_admits_d_64(monkeypatch):
    # three stacks of 64^2 operators on C^64 fit the default budget
    assert 3 * 64**2 * 64**2 * C16 <= base.MAX_STACK_BYTES

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
    lambda: wootters(79),  # 2 * 79^4 complex entries: 1.25 GB
    lambda: wootters_composite([7, 11]),
    lambda: cohendet(81),
    lambda: leonhardt(56),  # even: 2 * 4 * 56^4 complex entries
    lambda: ruzzi_s0(81),
    lambda: hardy_rep(70),
    lambda: mub_family(71),
], ids=["wootters-79", "composite-7x11", "cohendet-81", "leonhardt-56", "ruzzi-81", "hardy-70",
        "mub-71"])
def test_default_budget_refuses_large_requests(monkeypatch, build):
    for module, step in [("wootters", "wootters"), ("leonhardt", "displaced_parity"), ("wootters", "parity_pair"),
                         ("cohendet", "parity_pair"), ("leonhardt", "parity_pair"), ("ruzzi", "parity_pair"),
                         ("hardy", "_grid"), ("mub", "mub_bases")]:
        _stub(monkeypatch, module, step)
    with pytest.raises(UnsupportedDimensionError, match="budget"):
        build()


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
    monkeypatch.setattr(base, "MAX_STACK_BYTES", 1)
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
    monkeypatch.setattr(base, "MAX_STACK_BYTES", 2 * 9 * 9 * C16)  # wootters(3) builds at the budget
    for module in (operators, verify):
        monkeypatch.setattr(module, "_random_states", lambda *a, **k: pytest.fail("drew past the budget"))
    # every seeded state's Gaussians, demo entanglement's per-sample draws too, come from this one helper
    monkeypatch.setattr(operators, "_gaussian_pairs", lambda *a, **k: pytest.fail("drew past the budget"))
    assert main(argv) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv,need", [
    # 8 operators per sample, 3 per line of wootters(3)'s 12 and 2 per operator of its frame of 9
    (["verify", "wootters", "--d", "3", "--samples", "20"], (8 * 20 + 3 * 12 + 2 * 9) * 9 * C16),
    (["demo", "entanglement", "--samples", "20"], 3 * 20 * 16 * C16),
], ids=["verify", "demo-entanglement"])
def test_a_sample_count_at_the_budget_runs(monkeypatch, capsys, argv, need):
    # the demo's two-qubit lattice is charged 2 * 16 * 16 * C16, under the sample charge
    monkeypatch.setattr(base, "MAX_STACK_BYTES", need)
    assert main(argv) == 0
    monkeypatch.setattr(base, "MAX_STACK_BYTES", need - 1)
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
    monkeypatch.setattr(base, "MAX_STACK_BYTES", 2 * 9 * 9 * C16)
    monkeypatch.setattr(verify, "is_dual_pair", lambda *a, **k: pytest.fail("checked duality past the budget"))
    assert main(["verify", "wootters", "--d", "3", "--samples", "1"]) == 2
    assert "budget" in capsys.readouterr().err


def test_verify_charges_the_frame_and_dual_it_holds(monkeypatch, capsys):
    # 8 operators per sample, 3 per line of wootters(3)'s 12, and the frame and dual the run holds, 2 per
    # operator of its 9: one byte under that is refused before the first step
    need = (8 * 20 + 3 * 12 + 2 * 9) * 9 * C16
    monkeypatch.setattr(base, "MAX_STACK_BYTES", need - 1)
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
