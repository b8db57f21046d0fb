"""Arithmetic in GF(p^n) with trace maps and dual bases.

A field has one modulus: ``FiniteField(p, n)`` is the only way to make one,
and it always reduces by ``default_modulus(p, n)``.  Elements are
polynomials over Z_p modulo that modulus, coded by the integer
``sum c_i p^i`` of their coefficients.  A field keeps integer tables, built
on first use: digits (one table for every modulus of a degree),
multiplication by x, log/antilog, traces and dual-basis coordinates of
every code, each read-only.  ``add`` and ``mul`` act on codes or arrays of
codes.  Pickle and ``copy`` remake a field from ``(p, n)`` through its
constructor, so a copy builds its own read-only tables.

The default modulus comes from a built-in Conway-polynomial table for the
small fields this package exercises; outside the table a deterministic
fallback picks the lexicographically smallest monic primitive polynomial,
at n = 1 as at n > 1.  Every default modulus is primitive, so x generates
the units, and the log tables are x's orbit from 1 under the multiply-by-x
table: the walk ``is_primitive_modulus`` runs on a candidate modulus.  That
predicate refuses a non-prime characteristic and, like a field, an order
beyond ``MAX_ORDER``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import UnsupportedDimensionError

__all__ = [
    "FiniteField",
    "default_modulus",
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


def _require_order(p: int, n: int) -> None:
    if p**n > MAX_ORDER:
        raise UnsupportedDimensionError(f"field order {p**n} exceeds supported {MAX_ORDER}")


def _monic(modulus: tuple[int, ...] | list[int], p: int) -> tuple[int, ...] | None:
    """The monic multiple of ``modulus`` over Z_p, trailing zeros trimmed, or None below degree 1."""
    _require_prime(p)
    c = [int(a) % p for a in modulus]
    while c and not c[-1]:
        c.pop()
    if len(c) < 2:
        return None
    _require_order(p, len(c) - 1)
    lead = pow(c[-1], -1, p)
    return tuple(a * lead % p for a in c)


def _readonly(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _digits(p: int, n: int) -> np.ndarray:
    """Base-p digits of every code below p^n: one read-only table, which a fallback search builds once."""
    return _readonly((np.arange(p**n)[:, None] // p ** np.arange(n)) % p)


def _times_x_table(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """Code of x * c for every code c modulo the monic ``modulus``: shift the digits up, reduce."""
    n = len(modulus) - 1
    D = _digits(p, n)
    top = D[:, -1:]
    shifted = np.empty_like(D)
    shifted[:, 0] = 0
    shifted[:, 1:] = D[:, :-1]
    return _readonly(((shifted - top * np.array(modulus[:-1])) % p) @ (p ** np.arange(n)))


def _orbit(step: list[int], q: int) -> list[int] | None:
    """Powers 1, x, ..., x^(q-2) under the multiply-by-x map ``step``, or None.

    The walk follows x's orbit from 1 for at most q - 1 steps: x generates the
    q - 1 units exactly when the orbit first returns to 1 at step q - 1.
    """
    powers, c = [1], step[1]
    while c != 1 and len(powers) < q - 1:
        powers.append(c)
        c = step[c]
    return powers if c == 1 and len(powers) == q - 1 else None


def is_primitive_modulus(modulus: tuple[int, ...] | list[int], p: int) -> bool:
    """True when x generates the multiplicative group mod the modulus.

    That is, x's orbit from 1 first returns to 1 at step q - 1.  Its powers
    are then q - 1 distinct units, so the modulus is irreducible too.
    """
    monic = _monic(modulus, p)
    if monic is None:
        return False
    n = len(monic) - 1
    # above degree 1 a root a in Z_p, m(a) = 0, shows the modulus reducible without the walk
    if n > 1 and not (np.vander(np.arange(p), n + 1, increasing=True) @ monic % p).all():
        return False
    return _orbit(_times_x_table(monic, p).tolist(), p**n) is not None


@lru_cache(maxsize=None)
def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Canonical monic primitive polynomial for GF(p^n): the table's, else the fallback's."""
    _require_prime(p)
    if (p, n) in CONWAY_POLYNOMIALS:
        return CONWAY_POLYNOMIALS[(p, n)]
    _require_order(p, n)
    # Deterministic fallback: smallest integer encoding that is primitive.
    for code in range(p**n):
        coeffs = tuple(code // p**i % p for i in range(n)) + (1,)
        if is_primitive_modulus(coeffs, p):
            return coeffs
    raise RuntimeError(f"no primitive polynomial found for GF({p}^{n})")


@dataclass(frozen=True)
class FiniteField:
    """GF(p^n) under its default modulus, which is primitive."""

    p: int
    n: int
    modulus: tuple[int, ...]

    def __init__(self, p: int, n: int = 1):
        _require_prime(p)
        if n < 1:
            raise UnsupportedDimensionError(f"extension degree must be >= 1, got {n}")
        vars(self).update(p=p, n=n, modulus=default_modulus(p, n))

    def __reduce__(self):
        return FiniteField, (self.p, self.n)

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
        """Code of x * c for every code c."""
        return _times_x_table(self.modulus, self.p)

    @cached_property
    def _exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        """Antilog and log tables over x: its orbit from 1, which the primitive modulus makes every unit."""
        exp = np.array(_orbit(self._times_x.tolist(), self.order))
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(self.order - 1)
        return _readonly(exp), _readonly(log)

    @cached_property
    def traces(self) -> np.ndarray:
        """Trace into Z_p of every code: tr(c) = sum_j c^(p^j), by the log tables."""
        exp, log = self._exp_log
        frobenius = exp[(log[:, None] * self.p ** np.arange(self.n)) % (self.order - 1)]
        total = np.add.reduce(self.coords[frobenius], axis=1) % self.p
        total[0] = 0  # log[0] is a placeholder
        if np.logical_or.reduce(total[:, 1:], axis=None):
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

    def mul(self, a, b):
        """Product of codes through the log/antilog tables; ints or arrays, broadcast."""
        exp, log = self._exp_log
        a, b = np.asarray(a), np.asarray(b)
        prod = exp[(log[a] + log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)
