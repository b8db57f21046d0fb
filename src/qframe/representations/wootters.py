"""Discrete Wigner representation on the Z_d x Z_d lattice (prime d).

Phase-point operators for odd prime d:

    A(q,p) = (1/d) sum_{j,m} omega**(p j - q m + j m / 2) X^j Z^m,

with the half exponent resolved by the inverse of 2 mod d.  For d = 2 that
inverse does not exist; the qubit operators are instead the unique solution
(up to relabeling) of the phase-point postulates with vertical lines carrying
the Z eigenbasis and horizontal lines the X eigenbasis:

    A(q,p) = (I + (-1)^q Z + (-1)^p X + (-1)^(q+p) Y) / 2.

Composite dimensions take tensor products of prime-lattice operators point
by point, so product states factorize.

The frame is ``{A/d}`` and the dual ``{A}``: states are represented by
``mu(q,p) = Tr[rho A(q,p)]/d`` and recovered as ``rho = sum mu A``.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import UnsupportedDimensionError
from ..finitefield import _is_prime
from ..frames import DualFrame, Frame
from ..geometry import composite_lattice, prime_lattice
from ..operators import make_pauli_family, omega, tensor
from .base import Representation, check_stack_budget

__all__ = ["phase_point_operators", "wootters", "wootters_composite"]


def _prime_points_odd(d: int) -> dict[tuple[int, int], np.ndarray]:
    fam = make_pauli_family(d)
    inv2 = (d + 1) // 2
    w = omega(d)
    # Precompute X^j Z^m once.
    xs = [np.linalg.matrix_power(fam.X, j) for j in range(d)]
    zs = [np.linalg.matrix_power(fam.Z, m) for m in range(d)]
    words = {(j, m): xs[j] @ zs[m] for j in range(d) for m in range(d)}
    out = {}
    for q in range(d):
        for p in range(d):
            A = np.zeros((d, d), dtype=complex)
            for j in range(d):
                for m in range(d):
                    A += w ** ((p * j - q * m + j * m * inv2) % d) * words[(j, m)]
            out[(q, p)] = A / d
    return out


def _qubit_points() -> dict[tuple[int, int], np.ndarray]:
    fam = make_pauli_family(2)
    eye = np.eye(2, dtype=complex)
    out = {}
    for q in range(2):
        for p in range(2):
            out[(q, p)] = 0.5 * (
                eye + (-1) ** q * fam.Z + (-1) ** p * fam.X + (-1) ** (q + p) * fam.Y
            )
    return out


def phase_point_operators(d: int) -> dict[tuple[int, int], np.ndarray]:
    """The d^2 phase-point operators A(q,p) for prime d."""
    if not _is_prime(d):
        raise UnsupportedDimensionError(f"phase-point operators need prime d, got {d}")
    return _qubit_points() if d == 2 else _prime_points_odd(d)


def wootters(d: int) -> Representation:
    """Discrete Wigner representation for a single prime dimension."""
    check_stack_budget(f"wootters({d})", d * d, d)
    points = phase_point_operators(d)
    geom = prime_lattice(d)
    ops = np.array([points[pt] for pt in geom.points])
    frame = Frame(dim=d, labels=geom.points, operators=ops / d, name="wootters")
    dual = DualFrame(dim=d, labels=geom.points, operators=ops, name="wootters")
    return Representation(
        name="wootters", dim=d, frame=frame, dual=dual, geometry=geom, meta={"dims": (d,)}
    )


def wootters_composite(dims: list[int] | tuple[int, ...]) -> Representation:
    """Tensor-product representation over a list of prime dimensions."""
    dims = tuple(int(x) for x in dims)
    if not dims:
        raise UnsupportedDimensionError("need at least one dimension")
    if len(dims) == 1:
        return wootters(dims[0])
    for x in dims:
        if not _is_prime(x):
            raise UnsupportedDimensionError(f"every factor must be prime, got {x}")
    d = int(np.prod(dims))
    check_stack_budget(f"wootters_composite({list(dims)})", d * d, d)
    parts = [phase_point_operators(x) for x in dims]
    geom = composite_lattice([prime_lattice(x) for x in dims])
    ops = []
    for label in geom.points:
        ops.append(tensor(*[part[pt] for part, pt in zip(parts, label)]))
    ops = np.array(ops)
    frame = Frame(dim=d, labels=geom.points, operators=ops / d, name="wootters")
    dual = DualFrame(dim=d, labels=geom.points, operators=ops, name="wootters")
    return Representation(
        name="wootters", dim=d, frame=frame, dual=dual, geometry=geom, meta={"dims": dims}
    )
