"""The paper's identities at every size the CLI's factories admit.

A draw takes a representation from ``cli.FAMILIES`` and, for each flag its
row names, no value or one from a small range, and builds it through the
CLI's own parser and table.  The factory's ``UnsupportedDimensionError``
marks a draw outside the family's domain; every admitted draw must pass the
whole ``verify`` suite.  At odd d the lattice constructions that coincide up
to relabeling must map onto each other by an exact permutation.

Sizes stay at Hilbert dimension <= 16, havel at n <= 4 qubits and spin at
s <= 4 (the cap; 4.5 is drawn and refused), where a build and a verify take
tens of milliseconds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qframe.cli import FAMILIES, build_representation, parse_direct
from qframe.errors import UnsupportedDimensionError
from qframe.frames import transform_matrix
from qframe.verify import verify_representation

MAX_DIM = 16
# values each dimension flag of a row is drawn from, out-of-domain ones included
FLAG_VALUES = {
    "d": st.integers(1, MAX_DIM),
    "dims": st.lists(st.integers(1, 5), min_size=1, max_size=2).map(lambda xs: ",".join(map(str, xs))),
    "p": st.integers(1, MAX_DIM),
    "n": st.integers(0, 4),
    "s": st.integers(0, 9).map(lambda k: k / 2),
    "seed": st.integers(0, 2),
}
# Wootters (prime d), Cohendet, odd Leonhardt and Ruzzi: one lattice of point operators, relabeled
RELABELED = ("wootters", "cohendet", "leonhardt", "ruzzi")


def _small(flags: dict) -> bool:
    dims = [int(x) for x in flags.get("dims", "").split(",") if x]
    return math.prod(dims) <= MAX_DIM and flags.get("p", 1) ** flags.get("n", 1) <= MAX_DIM


def _build(name: str, flags: dict):
    """The representation ``qframe build`` makes from these flags, or None outside the domain."""
    argv = ["build", name, *(token for flag, value in flags.items() for token in (f"--{flag}", str(value)))]
    try:
        return build_representation(name, parse_direct(argv))
    except UnsupportedDimensionError:
        return None


def test_the_sweep_draws_every_flag_a_row_names():
    assert {flag for flags, _ in FAMILIES.values() for flag in flags} == set(FLAG_VALUES)


@pytest.mark.parametrize("name", list(FAMILIES))
@settings(max_examples=70, deadline=None)
@given(data=st.data())
def test_identities_hold_at_every_admitted_size(name, data):
    options = {flag: FLAG_VALUES[flag] for flag in FAMILIES[name][0]}
    flags = data.draw(st.fixed_dictionaries({}, optional=options).filter(_small), label="flags")
    rep = _build(name, flags)
    if rep is None:
        return
    # the dimension and name are read off the stacks and the frame, never restated
    assert rep.frame.dim == rep.dual.dim == rep.frame.operators.shape[1] == rep.dual.operators.shape[1] == rep.dim
    assert rep.name == rep.frame.name == rep.dual.name == name
    report = verify_representation(rep, seed=flags.get("seed", 0), samples=20)
    assert report["all_passed"], [check for check in report["checks"] if not check["passed"]]
    if name not in RELABELED or rep.dim % 2 == 0 or "dims" in flags:  # a product of lattices is not Z_d
        return
    for other in RELABELED:
        target = _build(other, {"d": rep.dim})
        if target is None:  # wootters at composite d
            continue
        T = transform_matrix(rep.dual, target.frame)
        P = np.eye(len(T))[np.argmax(T, axis=1)]
        assert np.abs(T - P).max() < 1e-12, other
        assert np.array_equal(P.sum(axis=0), np.ones(len(T))), other
