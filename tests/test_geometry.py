"""Lattice geometries: counting, ordering and affine axioms, and the line table against the tuple oracle."""

import itertools
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_oracle as oracle
from qframe.errors import UnsupportedDimensionError
from qframe.finitefield import FiniteField, _is_prime
from qframe.geometry import (
    PhaseSpaceGeometry,
    check_geometry_axioms,
    composite_lattice,
    extended_lattice,
    field_lattice,
    lines_through,
    plain_lattice,
    prime_lattice,
)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_prime_lattice_counts(d):
    g = prime_lattice(d)
    assert len(g.points) == d * d
    assert len(g.lines) == d * (d + 1)
    assert len(g.striations) == d + 1
    assert all(len(g.lines[i]) == d for i in range(len(g.lines)))


def test_prime_lattice_conventions():
    g = prime_lattice(3)
    assert g.points[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))  # row-major
    # striation 0 vertical: first line is q = 0
    assert g.lines[g.striations[0][0]] == ((0, 0), (0, 1), (0, 2))
    # striation 1 has slope 0: horizontal lines
    assert g.lines[g.striations[1][0]] == ((0, 0), (1, 0), (2, 0))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_prime_lattice_axioms(d):
    assert all(check_geometry_axioms(prime_lattice(d)).values())


def test_field_lattice_gf4():
    g = field_lattice(FiniteField(2, 2))
    assert len(g.points) == 16
    assert len(g.striations) == 5
    assert all(len(s) == 4 for s in g.striations)
    assert all(check_geometry_axioms(g).values())


def test_field_lattice_matches_prime_lattice_for_n1():
    gf = field_lattice(FiniteField(3, 1))
    gp = prime_lattice(3)
    assert gf.points == gp.points
    assert gf.lines == gp.lines
    assert gf.striations == gp.striations


def test_lines_through_point():
    g = prime_lattice(3)
    idx = lines_through(g, (1, 2))
    assert len(idx) == 4  # one line per striation
    strata = [next(s for s, lines in enumerate(g.striations) if i in lines) for i in idx]
    assert sorted(strata) == [0, 1, 2, 3]


def test_composite_lattice_two_qubits():
    g = composite_lattice([prime_lattice(2), prime_lattice(2)])
    assert len(g.points) == 16
    assert len(g.striations) == 9
    assert all(len(s) == 4 for s in g.striations)
    assert all(len(g.lines[i]) == 4 for s in g.striations for i in s)
    # composite points pair the component points
    assert g.points[0] == ((0, 0), (0, 0))


def test_extended_lattice_ordering():
    g = extended_lattice(3)
    assert len(g.points) == 18
    assert g.points[0] == (0, 0, 1)
    assert g.points[9] == (0, 0, -1)
    plus = [pt for pt in g.points if pt[2] == 1]
    assert plus == list(g.points[:9])


def test_nonprime_lattice_rejected():
    with pytest.raises(UnsupportedDimensionError):
        prime_lattice(4)


def test_geometry_is_points_and_one_read_only_table():
    assert [f.name for f in fields(PhaseSpaceGeometry)] == ["kind", "points", "line_index", "meta"]
    g = prime_lattice(3)
    assert g.line_index.shape == (4, 3, 3) and not g.line_index.flags.writeable
    assert extended_lattice(3).line_index.shape == (0, 0, 0)


def test_prime_lattice_memory_is_a_few_tables():
    tracemalloc.start()
    try:
        g = prime_lattice(101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * g.line_index.nbytes


# the index table and its views against the tuple-of-labels oracle

PRIMES = [p for p in range(2, 32) if _is_prime(p)]
FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]
COMPOSITES = [ps for r in (2, 3) for ps in itertools.product(PRIMES, repeat=r) if math.prod(ps) <= 36]


LATTICES = [("prime", d) for d in PRIMES] + [("field", pn) for pn in FIELDS] + [("composite", ps) for ps in COMPOSITES]


def _build(kind, arg):
    """The geometry and its tuple oracle."""
    if kind == "prime":
        return prime_lattice(arg), oracle.prime_lattice(arg)
    if kind == "field":
        return field_lattice(FiniteField(*arg)), oracle.field_lattice(*arg)
    return composite_lattice([prime_lattice(p) for p in arg]), oracle.composite_lattice(
        [oracle.prime_lattice(p) for p in arg])


def _assert_matches_oracle(geom, ref, probes):
    assert geom.points == ref.points
    assert geom.lines == ref.lines
    assert geom.striations == ref.striations
    at = {pt: i for i, pt in enumerate(ref.points)}
    want = [[[at[pt] for pt in ref.lines[i]] for i in lines] for lines in ref.striations]
    assert np.array_equal(geom.line_index, np.array(want, dtype=np.intp).reshape(geom.line_index.shape))
    for i in probes:
        assert lines_through(geom, ref.points[i]) == oracle.lines_through(ref, ref.points[i])
    assert check_geometry_axioms(geom) == oracle.check_geometry_axioms(ref)


@pytest.mark.parametrize("kind,arg", [case for case in LATTICES if case[0] != "composite"], ids=str)
def test_prime_and_field_lattices_match_oracle(kind, arg):
    geom, ref = _build(kind, arg)
    d = math.isqrt(len(geom.points))
    _assert_matches_oracle(geom, ref, range(0, d * d, d + 1))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(COMPOSITES))
def test_composite_lattice_matches_oracle(ps):
    geom, ref = _build("composite", ps)
    d = math.prod(ps)
    _assert_matches_oracle(geom, ref, range(0, d * d, d + 1))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LATTICES), st.data())
def test_lines_through_matches_oracle(case, data):
    geom, ref = _build(*case)
    pt = ref.points[data.draw(st.integers(0, len(ref.points) - 1))]
    assert lines_through(geom, pt) == oracle.lines_through(ref, pt)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 6), st.booleans())
def test_bare_grids_match_oracle(a, extended):
    geom = extended_lattice(a) if extended else plain_lattice(a)
    ref = oracle.TupleGeometry(geom.points, (), ())
    _assert_matches_oracle(geom, ref, [0])
    # no striations: the partition axiom holds vacuously
    assert check_geometry_axioms(geom)["striations-partition"]


def _swapped(geom, first, second):
    idx = geom.line_index.copy()
    idx[first], idx[second] = idx[second], idx[first]
    return PhaseSpaceGeometry(kind=geom.kind, points=geom.points, line_index=idx, meta=geom.meta)


def test_swapped_points_fail_the_same_axioms():
    # (0, 0) and (0, 1) trade places between the slope-0 lines p = 0 and p = 1
    geom = _swapped(prime_lattice(5), (1, 0, 0), (1, 1, 0))
    got = check_geometry_axioms(geom)
    assert got == oracle.check_geometry_axioms(geom)
    assert got == {"two-points-one-line": False, "striations-partition": True,
                   "nonparallel-lines-meet-once": False}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_any_swap_reads_the_same_in_both_checkers(d, data):
    entry = st.tuples(st.integers(0, d), st.integers(0, d - 1), st.integers(0, d - 1))
    geom = _swapped(prime_lattice(d), data.draw(entry), data.draw(entry))
    assert check_geometry_axioms(geom) == oracle.check_geometry_axioms(geom)
    for i in range(0, d * d, d + 1):
        assert lines_through(geom, geom.points[i]) == oracle.lines_through(geom, geom.points[i])
