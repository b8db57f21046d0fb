"""Arithmetic in GF(p^n) with trace maps and dual bases.

Elements are polynomials over Z_p modulo a monic irreducible polynomial,
coded by the integer ``sum c_i p^i`` of their coefficients.  A field keeps
integer tables, built on first use: digits, log/antilog, traces and
dual-basis coordinates of every code.  ``add``, ``sub`` and ``mul`` act on
codes or arrays of codes.

The default modulus comes from a built-in Conway-polynomial table for the
small fields this package exercises; outside the table a deterministic
fallback picks the lexicographically smallest monic primitive polynomial.
Any monic irreducible modulus can be supplied explicitly instead.
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


def _poly_trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of polynomial division over Z_p (little-endian lists)."""
    num = _poly_trim([x % p for x in num])
    den = _poly_trim([x % p for x in den])
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    out = list(num)
    while len(out) >= len(den) and _poly_trim(list(out)) != [0]:
        shift = len(out) - len(den)
        factor = (out[-1] * inv_lead) % p
        if factor:
            for i, c in enumerate(den):
                out[shift + i] = (out[shift + i] - factor * c) % p
        out.pop()
        if not out:
            out = [0]
    return _poly_trim(out)


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def is_irreducible(modulus: tuple[int, ...] | list[int], p: int) -> bool:
    """Exhaustive check: no monic factor of degree up to deg/2."""
    mod = _poly_trim([c % p for c in modulus])
    n = len(mod) - 1
    if n < 1:
        return False
    for deg in range(1, n // 2 + 1):
        # Enumerate monic polynomials of this degree by their lower coefficients.
        for code in range(p**deg):
            cand = []
            k = code
            for _ in range(deg):
                cand.append(k % p)
                k //= p
            cand.append(1)
            if _poly_mod(mod, cand, p) == [0]:
                return False
    return True


def _factor(n: int) -> list[int]:
    out = []
    k = 2
    while k * k <= n:
        while n % k == 0:
            if k not in out:
                out.append(k)
            n //= k
        k += 1
    if n > 1 and n not in out:
        out.append(n)
    return out


def is_primitive_modulus(modulus: tuple[int, ...] | list[int], p: int) -> bool:
    """True when x generates the multiplicative group mod the modulus."""
    mod = _poly_trim([c % p for c in modulus])
    n = len(mod) - 1
    if not is_irreducible(mod, p):
        return False
    q = p**n
    x = [0, 1] if n > 1 else [_poly_mod([0, 1], mod, p)[0]]

    def poly_pow(base: list[int], e: int) -> list[int]:
        result = [1]
        b = list(base)
        while e:
            if e & 1:
                result = _poly_mod(_poly_mul(result, b, p), mod, p)
            b = _poly_mod(_poly_mul(b, b, p), mod, p)
            e >>= 1
        return result

    for r in _factor(q - 1):
        if poly_pow(x, (q - 1) // r) == [1]:
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Canonical monic irreducible polynomial for GF(p^n)."""
    if (p, n) in CONWAY_POLYNOMIALS:
        return CONWAY_POLYNOMIALS[(p, n)]
    if p**n > MAX_ORDER:
        raise UnsupportedDimensionError(
            f"no built-in modulus beyond order {MAX_ORDER}; supply one explicitly"
        )
    # Deterministic fallback: smallest integer encoding that is primitive.
    for code in range(p**n):
        coeffs = []
        k = code
        for _ in range(n):
            coeffs.append(k % p)
            k //= p
        coeffs.append(1)
        if is_primitive_modulus(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no primitive polynomial found for GF({p}^{n})")


def _readonly(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class FiniteField:
    """GF(p^n) defined by a monic irreducible modulus of degree n."""

    p: int
    n: int
    modulus: tuple[int, ...]

    def __init__(self, p: int, n: int = 1, modulus: tuple[int, ...] | None = None):
        if not _is_prime(p):
            raise UnsupportedDimensionError(f"field characteristic must be prime, got {p}")
        if n < 1:
            raise UnsupportedDimensionError(f"extension degree must be >= 1, got {n}")
        if p**n > MAX_ORDER:
            raise UnsupportedDimensionError(f"field order {p**n} exceeds supported {MAX_ORDER}")
        if modulus is None:
            modulus = default_modulus(p, n)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ParseError(f"modulus must be monic of degree {n}")
        if not is_irreducible(modulus, p):
            raise ParseError(f"modulus {list(modulus)} is reducible over GF({p})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)

    @property
    def order(self) -> int:
        return self.p**self.n

    # Integer tables, built on first use and cached on the field.

    @cached_property
    def coords(self) -> np.ndarray:
        """``(q, n)`` base-p digits of every code: coordinates in 1, x, ..., x^(n-1)."""
        return _readonly((np.arange(self.order)[:, None] // self.p ** np.arange(self.n)) % self.p)

    def _encode(self, digits) -> np.ndarray:
        """Codes of digit vectors (last axis), reduced mod p."""
        return (np.asarray(digits) % self.p) @ (self.p ** np.arange(self.n))

    @cached_property
    def _times_x(self) -> np.ndarray:
        """Code of x * c for every code c: shift the digits up, reduce by the modulus."""
        D = self.coords
        top = D[:, -1:]
        shifted = np.hstack([np.zeros_like(top), D[:, :-1]])
        return self._encode(shifted - top * np.array(self.modulus[:-1]))

    @cached_property
    def _exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        """Antilog and log tables over a primitive element.

        The primitive element is x when the modulus is primitive; otherwise
        the smallest code of multiplicative order q - 1.
        """
        D, q = self.coords, self.order
        for g in sorted(range(1, q), key=lambda c: c != self.p):  # code p is x when n > 1
            step = np.zeros(q, dtype=np.int64)  # step[c] = g * c by Horner's rule over g's digits
            for digit in D[g][::-1]:
                step = self._encode(D[self._times_x[step]] + digit * D)
            step, powers = step.tolist(), [1]
            while step[powers[-1]] != 1:
                powers.append(step[powers[-1]])
            if len(powers) == q - 1:
                exp = np.array(powers)
                log = np.zeros(q, dtype=np.int64)
                log[exp] = np.arange(q - 1)
                return exp, log
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
