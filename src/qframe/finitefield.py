"""Arithmetic in GF(p^n) with trace maps and dual bases.

Elements are polynomials over Z_p modulo a monic irreducible polynomial,
coded by the integer ``sum c_i p^i`` of their coefficients.  A field keeps
integer tables, built on first use: digits (one table for every modulus of
a degree), multiplication by x, log/antilog, traces and dual-basis
coordinates of every code, each read-only.  ``add``, ``sub`` and ``mul``
act on codes or arrays of codes.  Pickle and ``copy`` remake a field through
its constructor, so a copy builds its own read-only tables.

The tables are the package's only arithmetic modulo a modulus, and the
modulus predicates read them too, on a modulus that is not yet known to be
irreducible.  ``is_primitive_modulus`` walks x's orbit from 1 under the
multiply-by-x table, the walk that finds the log tables' generator.
``is_irreducible`` is Rabin's test read off the same table (Rabin, SIAM J.
Comput. 9, 273 (1980)).  Both refuse a non-prime characteristic and, like
a field, an order beyond ``MAX_ORDER``.

The default modulus comes from a built-in Conway-polynomial table for the
small fields this package exercises; outside the table a deterministic
fallback picks the lexicographically smallest monic primitive polynomial,
at n = 1 as at n > 1.  A primitive modulus is irreducible, so a default
modulus is not checked again.  Any monic irreducible modulus can be
supplied explicitly instead, and that one is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParseError, UnsupportedDimensionError

__all__ = [
    "FiniteField",
    "default_modulus",
    "is_irreducible",
    "is_primitive_modulus",
    "CONWAY_POLYNOMIALS",
]

MAX_ORDER = 4096

# Little-endian coefficients (constant term first) of C_{p,n}.
CONWAY_POLYNOMIALS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
}


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def _require_prime(p: int) -> None:
    if not _is_prime(p):
        raise UnsupportedDimensionError(f"field characteristic must be prime, got {p}")


def _ring(modulus: tuple[int, ...] | list[int], p: int) -> FiniteField | None:
    """The tables of Z_p[x] modulo the monic multiple of ``modulus``, or None below degree 1.

    Trailing zero coefficients are trimmed.  The modulus is not checked, so the
    tables are a field's only when it is irreducible.
    """
    _require_prime(p)
    c = [int(a) % p for a in modulus]
    while c and not c[-1]:
        c.pop()
    n = len(c) - 1
    if n < 1:
        return None
    if p**n > MAX_ORDER:
        raise UnsupportedDimensionError(f"field order {p**n} exceeds supported {MAX_ORDER}")
    lead = pow(c[-1], -1, p)
    ring = object.__new__(FiniteField)
    vars(ring).update(p=p, n=n, modulus=tuple(a * lead % p for a in c))
    return ring


def _cycle(step: list[int], q: int) -> list[int] | None:
    """Powers 1, g, ..., g^(q-2) of the code g whose multiply-by map is ``step``, or None.

    The walk follows g's orbit from 1 for at most q - 1 steps: g generates the
    q - 1 units exactly when the orbit first returns to 1 at step q - 1.
    """
    powers, c = [1], step[1]
    while c != 1 and len(powers) < q - 1:
        powers.append(c)
        c = step[c]
    return powers if c == 1 and len(powers) == q - 1 else None


def is_irreducible(modulus: tuple[int, ...] | list[int], p: int) -> bool:
    """Rabin's test, read off the multiply-by-x table.

    The monic multiple m of ``modulus``, of degree n, is irreducible when
    x^(p^n) = x and, for each prime r | n, x^(p^(n/r)) - x is a unit mod m.
    """
    ring = _ring(modulus, p)
    if ring is None:
        return False
    n, step, powers = ring.n, ring._times_x.tolist(), [1]
    for _ in range(ring.order):  # powers[e] = x^e
        powers.append(step[powers[-1]])
    x = powers[1]
    return powers[-1] == x and all(
        (ring._times(ring.sub(powers[p ** (n // r)], x)) == 1).any()  # a unit: some product is 1
        for r in range(2, n + 1) if n % r == 0 and _is_prime(r)
    )


def is_primitive_modulus(modulus: tuple[int, ...] | list[int], p: int) -> bool:
    """True when x generates the multiplicative group mod the modulus.

    That is, x's orbit from 1 first returns to 1 at step q - 1.  Its powers
    are then q - 1 distinct units, so the modulus is irreducible too.
    """
    ring = _ring(modulus, p)
    if ring is None:
        return False
    # above degree 1 a root a in Z_p, m(a) = 0, shows the modulus reducible without the walk
    if ring.n > 1 and not (np.vander(np.arange(p), ring.n + 1, increasing=True) @ ring.modulus % p).all():
        return False
    return _cycle(ring._times_x.tolist(), ring.order) is not None


@lru_cache(maxsize=None)
def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Canonical monic primitive polynomial for GF(p^n): the table's, else the fallback's."""
    _require_prime(p)
    if (p, n) in CONWAY_POLYNOMIALS:
        return CONWAY_POLYNOMIALS[(p, n)]
    if p**n > MAX_ORDER:
        raise UnsupportedDimensionError(
            f"no built-in modulus beyond order {MAX_ORDER}; supply one explicitly"
        )
    # Deterministic fallback: smallest integer encoding that is primitive.
    for code in range(p**n):
        coeffs = tuple(code // p**i % p for i in range(n)) + (1,)
        if is_primitive_modulus(coeffs, p):
            return coeffs
    raise RuntimeError(f"no primitive polynomial found for GF({p}^{n})")


def _readonly(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _digits(p: int, n: int) -> np.ndarray:
    """Base-p digits of every code below p^n: one read-only table, which a fallback search builds once."""
    return _readonly((np.arange(p**n)[:, None] // p ** np.arange(n)) % p)


@dataclass(frozen=True)
class FiniteField:
    """GF(p^n) defined by a monic irreducible modulus of degree n."""

    p: int
    n: int
    modulus: tuple[int, ...]

    def __init__(self, p: int, n: int = 1, modulus: tuple[int, ...] | None = None):
        _require_prime(p)
        if n < 1:
            raise UnsupportedDimensionError(f"extension degree must be >= 1, got {n}")
        if p**n > MAX_ORDER:
            raise UnsupportedDimensionError(f"field order {p**n} exceeds supported {MAX_ORDER}")
        if modulus is None:
            modulus = default_modulus(p, n)  # primitive, hence irreducible
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ParseError(f"modulus must be monic of degree {n}")
            if not is_irreducible(modulus, p):
                raise ParseError(f"modulus {list(modulus)} is reducible over GF({p})")
        vars(self).update(p=p, n=n, modulus=modulus)

    def __reduce__(self):
        return FiniteField, (self.p, self.n, self.modulus)

    @property
    def order(self) -> int:
        return self.p**self.n

    # Integer tables, built on first use and cached on the field.

    @cached_property
    def coords(self) -> np.ndarray:
        """``(q, n)`` base-p digits of every code: coordinates in 1, x, ..., x^(n-1)."""
        return _digits(self.p, self.n)

    def _encode(self, digits) -> np.ndarray:
        """Codes of digit vectors (last axis), reduced mod p."""
        return (np.asarray(digits) % self.p) @ (self.p ** np.arange(self.n))

    @cached_property
    def _times_x(self) -> np.ndarray:
        """Code of x * c for every code c: shift the digits up, reduce by the modulus."""
        D = self.coords
        top = D[:, -1:]
        shifted = np.hstack([np.zeros_like(top), D[:, :-1]])
        return _readonly(self._encode(shifted - top * np.array(self.modulus[:-1])))

    def _times(self, g) -> np.ndarray:
        """Code of g * c for every code c, by Horner's rule over g's digits."""
        D = self.coords
        step = np.zeros(self.order, dtype=np.int64)
        for digit in D[g][::-1]:
            step = self._encode(D[self._times_x[step]] + digit * D)
        return step

    @cached_property
    def _exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        """Antilog and log tables over a primitive element.

        The primitive element is x when the modulus is primitive; otherwise
        the smallest code of multiplicative order q - 1.
        """
        q = self.order
        for g in sorted(range(1, q), key=lambda c: c != self.p):  # code p is x when n > 1
            powers = _cycle(self._times(g).tolist(), q)
            if powers is not None:
                exp = np.array(powers)
                log = np.zeros(q, dtype=np.int64)
                log[exp] = np.arange(q - 1)
                return _readonly(exp), _readonly(log)
        raise RuntimeError(f"no primitive element in GF({self.p}^{self.n})")

    @cached_property
    def traces(self) -> np.ndarray:
        """Trace into Z_p of every code: tr(c) = sum_j c^(p^j), by the log tables."""
        exp, log = self._exp_log
        frobenius = exp[(log[:, None] * self.p ** np.arange(self.n)) % (self.order - 1)]
        total = self.coords[frobenius].sum(axis=1) % self.p
        total[0] = 0  # log[0] is a placeholder
        if total[:, 1:].any():
            raise RuntimeError("trace did not land in the prime subfield")
        return _readonly(total[:, 0])

    @cached_property
    def dual_coords(self) -> np.ndarray:
        """``(q, n)`` coordinates of every code in the trace-dual of 1, x, ..., x^(n-1).

        The coordinate of c along the dual of x^j is tr(c * x^j).
        """
        products = self.mul(np.arange(self.order)[:, None], self.p ** np.arange(self.n))
        return _readonly(self.traces[products])

    def add(self, a, b):
        """Sum of codes; ints or arrays, broadcast."""
        return self._encode(self.coords[a] + self.coords[b])

    def sub(self, a, b):
        """Difference of codes; ints or arrays, broadcast."""
        return self._encode(self.coords[a] - self.coords[b])

    def mul(self, a, b):
        """Product of codes through the log/antilog tables; ints or arrays, broadcast."""
        exp, log = self._exp_log
        a, b = np.asarray(a), np.asarray(b)
        prod = exp[(log[a] + log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)
