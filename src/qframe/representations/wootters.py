"""Discrete Wigner representation on the Z_d x Z_d lattice (prime d).

Phase-point operators for odd prime d:

    A(q,p) = (1/d) sum_{j,m} omega**(p j - q m + j m / 2) X^j Z^m,

with the half exponent resolved by the inverse of 2 mod d: the displaced
parity K(2q, 2p) of the kernel ``operators.displaced_parity`` shared with
the Cohendet, Leonhardt and Ruzzi constructions.  For d = 2 that inverse
does not exist; the qubit operators are instead the unique solution (up to
relabeling) of the phase-point postulates with vertical lines carrying the Z
eigenbasis and horizontal lines the X eigenbasis:

    A(q,p) = (I + (-1)^q Z + (-1)^p X + (-1)^(q+p) Y) / 2.

Composite dimensions take tensor products of prime-lattice operators point
by point (one batched Kronecker product), so product states factorize.

The frame is ``{A/d}`` and the dual ``{A}``: states are represented by
``mu(q,p) = Tr[rho A(q,p)]/d`` and recovered as ``rho = sum mu A``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import UnsupportedDimensionError
from ..finitefield import _is_prime
from ..frames import parity_pair
from ..geometry import composite_lattice, prime_lattice
from ..operators import SIGMA, tensor
from .base import Representation, check_stack_budget, phase_point_representation

__all__ = ["wootters", "wootters_composite"]


def _qubit_points() -> np.ndarray:
    X, Y, Z = SIGMA[0], -SIGMA[1], SIGMA[2]  # Y in the commutator convention
    eye = np.eye(2, dtype=complex)
    return np.array([
        0.5 * (eye + (-1) ** q * Z + (-1) ** p * X + (-1) ** (q + p) * Y)
        for q in range(2) for p in range(2)
    ])


def wootters(d: int) -> Representation:
    """Discrete Wigner representation for a single prime dimension."""
    check_stack_budget(f"wootters({d})", d * d, d)
    if not _is_prime(d):
        raise UnsupportedDimensionError(f"phase-point operators need prime d, got {d}")
    geom = prime_lattice(d)
    if d == 2:
        return phase_point_representation("wootters", geom, _qubit_points(), {"dims": (d,)})
    return Representation(*parity_pair(geom.points, ((2, 0), (0, 2)), "wootters"), geom, {"dims": (d,)})


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
    d = math.prod(dims)
    check_stack_budget(f"wootters_composite({list(dims)})", d * d, d)
    factors = [wootters(x) for x in dims]
    ops = tensor(*[rep.dual.operators for rep in factors])
    geom = composite_lattice([rep.geometry for rep in factors])
    return phase_point_representation("wootters", geom, ops, {"dims": dims})
