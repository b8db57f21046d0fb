"""Odd and even lattice Wigner constructions with a shared entry point."""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedDimensionError
from ..finitefield import _is_prime
from ..frames import DualFrame, Frame, canonical_dual
from ..geometry import plain_lattice, prime_lattice
from ..operators import clock_matrix, omega, parity_matrix, shift_matrix, tau
from .base import Representation, check_stack_budget


def _odd_point(d: int, q: int, p: int) -> np.ndarray:
    X, Z, P = shift_matrix(d), clock_matrix(d), parity_matrix(d)
    word = np.linalg.matrix_power(X, (2 * q) % d) @ np.linalg.matrix_power(Z, (2 * p) % d)
    return word @ P * omega(d) ** ((2 * q * p) % d)


def _even_point(d: int, q: int, p: int) -> np.ndarray:
    # half-integer grid: q, p run over Z_2d and the phase uses the 2d-th root
    X, Z, P = shift_matrix(d), clock_matrix(d), parity_matrix(d)
    word = np.linalg.matrix_power(X, q % d) @ np.linalg.matrix_power(Z, p % d)
    return word @ P * tau(d) ** ((q * p) % (2 * d)) / (2 * d)


def leonhardt(d: int) -> Representation:
    """Minimal lattice representation for odd d, doubled-lattice one for even d."""
    if d < 2:
        raise UnsupportedDimensionError("need d >= 2")
    check_stack_budget(f"leonhardt({d})", d * d if d % 2 else 4 * d * d, d)
    if d % 2 == 1:
        geom = prime_lattice(d) if _is_prime(d) else plain_lattice(d)
        ops = np.array([_odd_point(d, q, p) for q, p in geom.points])
        frame = Frame(dim=d, labels=geom.points, operators=ops / d, name="leonhardt")
        dual = DualFrame(dim=d, labels=geom.points, operators=ops, name="leonhardt")
        meta = {"case": "odd"}
    else:
        geom = plain_lattice(2 * d, kind="half-integer-lattice")
        ops = np.array([_even_point(d, q, p) for q, p in geom.points])
        frame = Frame(dim=d, labels=geom.points, operators=ops, name="leonhardt")
        dual = canonical_dual(frame)
        meta = {"case": "even"}
    return Representation(
        name="leonhardt", dim=d, frame=frame, dual=dual, geometry=geom, meta=meta
    )
