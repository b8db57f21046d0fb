"""Fourier transform of the symmetric operator basis on the odd lattice."""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedDimensionError
from ..finitefield import _is_prime
from ..frames import DualFrame, Frame
from ..geometry import plain_lattice, prime_lattice
from ..operators import omega, schwinger_basis
from .base import Representation, check_stack_budget


def ruzzi_point(d: int, q: int, p: int) -> np.ndarray:
    """T(q,p) = (1/sqrt d) sum_{eta,xi} S(eta,xi) w^{-(eta q + xi p)}."""
    S = schwinger_basis(d)
    w = omega(d)
    acc = np.zeros((d, d), dtype=complex)
    for (eta, xi), op in S.items():
        acc += op * w ** (-(eta * q + xi * p) % d)
    return acc / np.sqrt(d)


def ruzzi_s0(d: int) -> Representation:
    """Self-dual (up to 1/d) lattice representation from the symmetric basis."""
    if d % 2 == 0:
        raise UnsupportedDimensionError("the symmetric basis needs odd d")
    if d < 3:
        raise UnsupportedDimensionError("need d >= 3")
    check_stack_budget(f"ruzzi_s0({d})", d * d, d)
    geom = prime_lattice(d) if _is_prime(d) else plain_lattice(d)
    ops = np.array([ruzzi_point(d, q, p) for q, p in geom.points])
    frame = Frame(dim=d, labels=geom.points, operators=ops / d, name="ruzzi")
    dual = DualFrame(dim=d, labels=geom.points, operators=ops, name="ruzzi")
    return Representation(
        name="ruzzi", dim=d, frame=frame, dual=dual, geometry=geom, meta={"d": d}
    )
