"""Odd and even lattice Wigner constructions with a shared entry point.

Both are stacks of the displaced-parity kernel ``operators.displaced_parity``:
K(2q, 2p) for odd d, K(q, p)/(2d) on the doubled lattice for even d.  Both
frames are tight, so each dual is d times its frame.
"""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedDimensionError
from ..frames import check_stack_budget, parity_operators, parity_pair
from ..geometry import odd_lattice, plain_lattice
from ..operators import displaced_parity
from .base import Representation, phase_point_representation


def leonhardt(d: int) -> Representation:
    """Minimal lattice representation for odd d, doubled-lattice one for even d."""
    if d < 2:
        raise UnsupportedDimensionError("need d >= 2")
    check_stack_budget(f"leonhardt({d})", parity_operators(d) if d % 2 else 8 * d * d, d)
    if d % 2 == 1:
        geom = odd_lattice(d)
        return Representation(*parity_pair(geom.points, ((2, 0), (0, 2)), "leonhardt"), geom, {"case": "odd"})
    # half-integer grid: q, p run over Z_2d and the phase uses the 2d-th root.
    # The frame {K/(2d)} is tight with both bounds 1/d, so its canonical dual is d F = K/2.
    geom = plain_lattice(2 * d, kind="half-integer-lattice")
    q, p = np.array(geom.points).T
    ops = displaced_parity(d, q, p)
    ops /= 2
    return phase_point_representation("leonhardt", geom, ops, {"case": "even"})
