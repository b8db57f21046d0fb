"""Fourier transform of the symmetric operator basis on the odd lattice.

T(q, p) is K(2p, -2q) of the displaced-parity kernel ``operators.displaced_parity``.
"""

from __future__ import annotations

from ..errors import UnsupportedDimensionError
from ..frames import check_stack_budget, parity_operators, parity_pair
from ..geometry import odd_lattice
from .base import Representation


def ruzzi_s0(d: int) -> Representation:
    """Self-dual (up to 1/d) lattice representation from the symmetric basis."""
    if d % 2 == 0:
        raise UnsupportedDimensionError("the symmetric basis needs odd d")
    if d < 3:
        raise UnsupportedDimensionError("need d >= 3")
    check_stack_budget(f"ruzzi_s0({d})", parity_operators(d), d)
    geom = odd_lattice(d)
    return Representation(*parity_pair(geom.points, ((0, 2), (-2, 0)), "ruzzi"), geom, {"d": d})
