"""GF(p^n) arithmetic, traces, dual bases and modulus selection."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf_oracle import PolyField
from qframe.errors import ParseError, UnsupportedDimensionError
from qframe.finitefield import (
    CONWAY_POLYNOMIALS,
    FiniteField,
    default_modulus,
    is_irreducible,
    is_primitive_modulus,
)

# Every built-in field of order <= 64, plus x^2 + 1 over GF(3): irreducible,
# but x has order 4, so the log tables must search for a generator.
ORACLE_FIELDS = sorted((p, n, None) for p, n in CONWAY_POLYNOMIALS if p**n <= 64) + [(3, 2, (1, 0, 1))]


@lru_cache(maxsize=None)
def _fields(case):
    p, n, modulus = case
    return FiniteField(p, n, modulus), PolyField(p, n, modulus)


def test_gf4_structure():
    F = FiniteField(2, 2)
    x = F.generator
    assert F.modulus == (1, 1, 1)
    assert (x * x).coeffs == (1, 1)  # x^2 = x + 1
    assert (x**3).coeffs == (1, 0)  # multiplicative order 3


def test_gf4_trace_table():
    # tr(y) = y + y^2: hand-computed values for 0, 1, x, x+1.
    F = FiniteField(2, 2)
    assert [F.element(k).trace() for k in range(4)] == [0, 0, 1, 1]


def test_gf4_dual_basis_hand_value():
    # Dual of {1, x} under tr(u*v): solved by hand to {1+x, 1}.
    F = FiniteField(2, 2)
    dual = F.dual_basis()
    assert [e.to_int() for e in dual] == [3, 1]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_dual_basis_pairing(p, n):
    F = FiniteField(p, n)
    basis = F.polynomial_basis()
    dual = F.dual_basis(basis)
    for i, u in enumerate(dual):
        for j, v in enumerate(basis):
            assert (u * v).trace() == (1 if i == j else 0)


def test_expand_round_trip():
    F = FiniteField(3, 3)
    basis = F.polynomial_basis()
    for k in [0, 1, 5, 13, 25]:
        x = F.element(k)
        coords = F.expand(x, basis)
        acc = F.zero
        for c, e in zip(coords, basis):
            acc = acc + F.element(c) * e
        assert acc == x
        assert coords == x.coeffs  # polynomial basis coords are the coefficients


def test_field_axioms_gf9():
    F = FiniteField(3, 2)
    elems = F.elements()
    assert len(elems) == 9
    for a, b in itertools.product(elems[:5], elems[:5]):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(elems[:4], elems[:4], elems[:4]):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
    for a in elems[1:]:
        assert a * a.inverse() == F.one


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_fermat_and_frobenius(p, n):
    F = FiniteField(p, n)
    for x in F.elements():
        assert x ** F.order == x
        assert (x**p).trace() == x.trace()


def test_trace_is_linear():
    F = FiniteField(2, 3)
    for a, b in itertools.product(F.elements(), repeat=2):
        assert (a + b).trace() == (a.trace() + b.trace()) % 2


def test_gf9_trace_hand_values():
    # modulus x^2+2x+2: x^2 = x+1, x^3 = 2x+1, tr(x) = x + x^3 = 1, tr(1) = 2.
    F = FiniteField(3, 2)
    assert F.one.trace() == 2
    assert F.generator.trace() == 1


def test_reducible_modulus_rejected():
    assert not is_irreducible((1, 0, 1), 2)  # x^2+1 = (x+1)^2 over GF(2)
    with pytest.raises(ParseError):
        FiniteField(2, 2, (1, 0, 1))


def test_default_modulus_table_and_fallback():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    mod = default_modulus(11, 2)  # outside the built-in table
    assert len(mod) == 3 and mod[-1] == 1
    assert is_irreducible(mod, 11)
    assert is_primitive_modulus(mod, 11)


def test_conway_entries_are_primitive():
    for (p, n) in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]:
        assert is_primitive_modulus(default_modulus(p, n), p)


def test_order_bounds():
    with pytest.raises(UnsupportedDimensionError):
        FiniteField(2, 13)
    with pytest.raises(UnsupportedDimensionError):
        FiniteField(4, 1)


def test_element_int_round_trip():
    F = FiniteField(5, 2)
    for k in range(25):
        assert F.element(k).to_int() == k


def test_json_round_trip():
    F = FiniteField(2, 3)
    assert FiniteField.from_json(F.to_json()) == F
    with pytest.raises(ParseError):
        FiniteField.from_json({"p": 2})


# table arithmetic against the polynomial oracle


def test_non_primitive_modulus_is_accepted():
    F = FiniteField(3, 2, (1, 0, 1))
    assert not is_primitive_modulus(F.modulus, 3)
    assert (F.generator**4).to_int() == 1  # x^2 = -1
    assert any(len({(g**k).to_int() for k in range(8)}) == 8 for g in F.elements())


@pytest.mark.parametrize("case", ORACLE_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_table_arithmetic_matches_polynomial_oracle(case, data):
    F, P = _fields(case)
    a, b = (data.draw(st.integers(0, F.order - 1)) for _ in range(2))
    e = data.draw(st.integers(-70, 70))
    x, y = F.element(a), F.element(b)
    assert (x + y).to_int() == P.add(a, b)
    assert (x - y).to_int() == P.add(a, P.mul(P.p - 1, b))
    assert (-x).to_int() == P.mul(P.p - 1, a)
    assert (x * y).to_int() == P.mul(a, b)
    assert x.coeffs == tuple(P.coeffs(a))
    assert x.trace() == P.trace(a)
    if a == 0:
        assert x**0 == F.one
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert (x**e).to_int() == P.pow(a, e)
    assert x.inverse().to_int() == P.inverse(a)


@pytest.mark.parametrize("case", ORACLE_FIELDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_expand_and_dual_basis_match_polynomial_oracle(case, data):
    F, P = _fields(case)
    codes = st.lists(st.integers(1, F.order - 1), min_size=F.n, max_size=F.n)
    basis = [F.element(c) for c in data.draw(codes)]
    x = F.element(data.draw(st.integers(0, F.order - 1)))
    bases = [F.polynomial_basis(), F.dual_basis(), basis]
    want = P.dual_basis([b.to_int() for b in basis])
    if want is None:
        with pytest.raises(ParseError):
            F.dual_basis(basis)
        bases.pop()
    else:
        assert [e.to_int() for e in F.dual_basis(basis)] == want
    for B in bases:
        assert F.expand(x, B) == P.expand(x.to_int(), [b.to_int() for b in B])


def test_tables_are_built_lazily_and_read_only():
    F = FiniteField(2, 4)
    assert not {"coords", "traces", "dual_coords", "_exp_log"} & set(vars(F))
    assert F.element(5).trace() == PolyField(2, 4).trace(5)
    for table in (F.coords, F.traces, F.dual_coords):
        assert not table.flags.writeable


def test_long_coefficient_sequences_reduce_by_the_modulus():
    F, P = _fields((2, 3, None))
    # x^3 = x + 1 and x^5 = x^2 + x + 1 under x^3 + x + 1
    assert F.element([0, 0, 0, 1]).to_int() == 3
    assert F.element([0, 0, 0, 0, 0, 1]).to_int() == P.pow(2, 5) == 7
