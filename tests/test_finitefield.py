"""GF(p^n) arithmetic on integer codes, traces, dual-basis coordinates and modulus selection."""

import inspect
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf_oracle
from gf_oracle import PolyField
from qframe.errors import UnsupportedDimensionError
from qframe.finitefield import (
    CONWAY_POLYNOMIALS,
    MAX_ORDER,
    FiniteField,
    default_modulus,
    is_primitive_modulus,
)

# Every built-in field of order <= 64, then three on fallback moduli: at GF(11)
# and GF(13) x is not the smallest primitive root, and GF(121) is an extension.
ORACLE_FIELDS = sorted(case for case in CONWAY_POLYNOMIALS if case[0] ** case[1] <= 64) + [(11, 1), (13, 1), (11, 2)]


@lru_cache(maxsize=None)
def _fields(case):
    return FiniteField(*case), PolyField(*case)


def _power(F, a: int, e: int) -> int:
    """a^e for e >= 0 by repeated table multiplication."""
    out = 1
    for _ in range(e):
        out = int(F.mul(out, a))
    return out


def _dual_basis(F) -> list[int]:
    """The codes whose ``dual_coords`` rows are the unit vectors: the trace-dual of 1, x, ..., x^(n-1)."""
    return [int(np.flatnonzero((F.dual_coords == row).all(axis=1))[0]) for row in np.eye(F.n, dtype=int)]


def test_gf4_structure():
    F = FiniteField(2, 2)
    x = 2  # the code of x
    assert F.modulus == (1, 1, 1)
    assert tuple(F.coords[F.mul(x, x)]) == (1, 1)  # x^2 = x + 1
    assert tuple(F.coords[_power(F, x, 3)]) == (1, 0)  # multiplicative order 3


def test_gf4_trace_table():
    # tr(y) = y + y^2: hand-computed values for 0, 1, x, x+1.
    F = FiniteField(2, 2)
    assert F.traces.tolist() == [0, 0, 1, 1]


def test_gf4_dual_basis_hand_value():
    # Dual of {1, x} under tr(u*v): solved by hand to {1+x, 1}.
    F = FiniteField(2, 2)
    assert _dual_basis(F) == [3, 1]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_dual_basis_pairing(p, n):
    F = FiniteField(p, n)
    basis = p ** np.arange(n)
    for i, u in enumerate(_dual_basis(F)):
        assert F.traces[F.mul(u, basis)].tolist() == [1 if i == j else 0 for j in range(n)]


def test_expand_round_trip():
    F = FiniteField(3, 3)
    basis = F.p ** np.arange(F.n)
    for k in [0, 1, 5, 13, 25]:
        acc = 0
        for c, e in zip(F.coords[k], basis):
            acc = F.add(acc, F.mul(c, e))  # digits are prime-subfield codes
        assert acc == k


def test_field_axioms_gf9():
    F = FiniteField(3, 2)
    elems = np.arange(9)
    a, b = np.meshgrid(elems[:5], elems[:5])
    assert np.array_equal(F.add(a, b), F.add(b, a))
    assert np.array_equal(F.mul(a, b), F.mul(b, a))
    a, b, c = np.meshgrid(elems[:4], elems[:4], elems[:4])
    assert np.array_equal(F.add(F.add(a, b), c), F.add(a, F.add(b, c)))
    assert np.array_equal(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)))
    for a in elems[1:]:
        assert (F.mul(a, elems) == 1).sum() == 1  # one inverse each


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_fermat_and_frobenius(p, n):
    F = FiniteField(p, n)
    for x in range(F.order):
        assert _power(F, x, F.order) == x
        assert F.traces[_power(F, x, p)] == F.traces[x]


def test_trace_is_linear():
    F = FiniteField(2, 3)
    a, b = np.meshgrid(np.arange(8), np.arange(8))
    assert np.array_equal(F.traces[F.add(a, b)], (F.traces[a] + F.traces[b]) % 2)


def test_gf9_trace_hand_values():
    # modulus x^2+2x+2: x^2 = x+1, x^3 = 2x+1, tr(x) = x + x^3 = 1, tr(1) = 2.
    F = FiniteField(3, 2)
    assert F.traces[1] == 2
    assert F.traces[3] == 1  # the code of x


def test_default_modulus_table_and_fallback():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    mod = default_modulus(11, 2)  # outside the built-in table
    assert len(mod) == 3 and mod[-1] == 1
    assert gf_oracle.is_irreducible(mod, 11)
    assert is_primitive_modulus(mod, 11)


def test_conway_entries_are_primitive():
    for (p, n), modulus in CONWAY_POLYNOMIALS.items():
        assert default_modulus(p, n) == modulus
        assert is_primitive_modulus(modulus, p)
        assert gf_oracle.is_primitive_modulus(modulus, p)


def test_fallback_moduli_are_pinned():
    # the first primitive modulus in code order; at n = 1 the modulus x is not one, x = 0 generates nothing
    assert default_modulus(11, 1) == (3, 1)
    assert default_modulus(13, 1) == (2, 1)
    assert default_modulus(2, 7) == (1, 1, 0, 0, 0, 0, 0, 1)
    assert default_modulus(2, 8) == (1, 0, 1, 1, 1, 0, 0, 0, 1)
    assert default_modulus(3, 4) == (2, 1, 0, 0, 1)
    assert default_modulus(5, 3) == (2, 3, 0, 1)
    assert default_modulus(11, 2) == (7, 1, 1)
    for p in (11, 13, 17, 19, 23):
        assert not is_primitive_modulus((0, 1), p)
        assert is_primitive_modulus(default_modulus(p, 1), p)


# every coefficient tuple up to these degrees, every leading coefficient
EXHAUSTIVE_MODULI = [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2), (13, 1)]


@pytest.mark.parametrize("p,max_degree", EXHAUSTIVE_MODULI)
def test_modulus_predicates_match_the_list_oracle(p, max_degree):
    for n in range(1, max_degree + 1):
        for code in range(p**n, p ** (n + 1)):
            modulus = [code // p**i % p for i in range(n + 1)]
            assert is_primitive_modulus(modulus, p) == gf_oracle.is_primitive_modulus(modulus, p), modulus


def test_modulus_predicates_trim_and_normalise():
    assert is_primitive_modulus((1, 1, 1, 0, 0), 2) and is_primitive_modulus((1, 1, 1, 0), 2)
    assert is_primitive_modulus((6, 3, 3), 5) == is_primitive_modulus((2, 1, 1), 5)  # 3 (2, 1, 1) = (6, 3, 3) mod 5
    for modulus in [(), (0,), (1,), (3, 0, 0)]:
        assert not is_primitive_modulus(modulus, 3)
    with pytest.raises(UnsupportedDimensionError, match=f"exceeds supported {MAX_ORDER}"):
        is_primitive_modulus((1,) * 14, 2)


@pytest.mark.parametrize("check", [
    lambda p: FiniteField(p, 2),
    lambda p: is_primitive_modulus((1, 0, 1), p),
    lambda p: default_modulus(p, 2),
], ids=["FiniteField", "is_primitive_modulus", "default_modulus"])
@pytest.mark.parametrize("p", [6, 9, 1, 0])
def test_modulus_functions_refuse_a_non_prime_characteristic(check, p):
    with pytest.raises(UnsupportedDimensionError, match=f"field characteristic must be prime, got {p}"):
        check(p)


def test_a_field_is_made_from_p_and_n_alone():
    assert list(inspect.signature(FiniteField).parameters) == ["p", "n"]
    for p, n in [(2, 2), (11, 1), (11, 2)]:
        F = FiniteField(p, n)
        assert F.modulus == default_modulus(p, n)
        assert F.__reduce__() == (FiniteField, (p, n))


# at n = 1 the fallback fields' x is not the smallest primitive root: x = 8 in GF(11), x = 11 in GF(13)
@pytest.mark.parametrize("p,n", [(2, 2), (3, 3), (11, 1), (13, 1), (17, 1), (11, 2), (2, 7)])
def test_the_log_tables_are_the_orbit_of_x(p, n):
    F = FiniteField(p, n)
    exp, log = F._exp_log
    assert exp[1] == F._times_x[1]  # exp[1] is x
    assert np.array_equal(exp[1:], F._times_x[exp[:-1]])
    assert sorted(exp.tolist()) == list(range(1, F.order))
    assert np.array_equal(log[exp], np.arange(F.order - 1))


def test_order_bounds():
    with pytest.raises(UnsupportedDimensionError):
        FiniteField(2, 13)
    with pytest.raises(UnsupportedDimensionError):
        FiniteField(4, 1)


def test_element_int_round_trip():
    F = FiniteField(5, 2)
    assert np.array_equal(F.coords @ (5 ** np.arange(2)), np.arange(25))  # a code is its base-p digits


# table arithmetic against the polynomial oracle


@pytest.mark.parametrize("case", ORACLE_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_table_arithmetic_matches_polynomial_oracle(case, data):
    F, P = _fields(case)
    a, b = (data.draw(st.integers(0, F.order - 1)) for _ in range(2))
    e = data.draw(st.integers(-70, 70))
    assert F.add(a, b) == P.add(a, b)
    assert F.add(a, F.mul(F.p - 1, b)) == P.add(a, P.mul(P.p - 1, b))  # a - b
    assert F.mul(F.p - 1, a) == P.mul(P.p - 1, a)  # -a
    assert F.add(a, F.mul(F.p - 1, a)) == 0
    assert F.mul(a, b) == P.mul(a, b)
    assert F.coords[a].tolist() == P.coeffs(a)
    assert F.traces[a] == P.trace(a)
    if a == 0:
        return
    exp, log = F._exp_log
    assert exp[(log[a] * e) % (F.order - 1)] == P.pow(a, e)


@pytest.mark.parametrize("case", ORACLE_FIELDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_expand_and_dual_basis_match_polynomial_oracle(case, data):
    F, P = _fields(case)
    x = data.draw(st.integers(0, F.order - 1))
    basis = P.polynomial_basis()
    assert _dual_basis(F) == P.dual_basis(basis)
    assert tuple(F.coords[x]) == P.expand(x, basis)
    # coordinates in the trace-dual of the polynomial basis, whose own dual is the polynomial basis
    assert tuple(F.dual_coords[x]) == P.expand(x, P.dual_basis(basis))


def test_tables_are_built_lazily_and_read_only():
    F = FiniteField(2, 4)
    assert not {"coords", "traces", "dual_coords", "_exp_log"} & set(vars(F))
    assert F.traces[5] == PolyField(2, 4).trace(5)
    for table in (F.coords, F.traces, F.dual_coords):
        assert not table.flags.writeable


def test_long_coefficient_sequences_reduce_by_the_modulus():
    F, P = _fields((2, 3))
    # x^3 = x + 1 and x^5 = x^2 + x + 1 under x^3 + x + 1
    assert _power(F, 2, 3) == 3
    assert _power(F, 2, 5) == P.pow(2, 5) == 7
