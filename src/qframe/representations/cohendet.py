"""Fano-operator representation on the odd lattice and its doubled extension.

W_qp P is K(-2q, 2p) of the displaced-parity kernel ``operators.displaced_parity``.
"""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedDimensionError
from ..frames import QuasiDistribution, _check_values, parity_pair
from ..geometry import extended_lattice, odd_lattice
from ..operators import _random_states
from .base import Representation, check_stack_budget


def cohendet(d: int) -> Representation:
    """Parity-displaced representation for odd d; frame W_qp P / d."""
    if d % 2 == 0:
        raise UnsupportedDimensionError("parity displacement splits only odd d")
    if d < 3:
        raise UnsupportedDimensionError("need d >= 3")
    check_stack_budget(f"cohendet({d})", 2 * d * d, d)
    geom = odd_lattice(d)
    return Representation(*parity_pair(geom.points, ((-2, 0), (0, 2)), "cohendet"), geom, {"d": d},
                          (("extended_nonnegativity", 1e-10, _extended_nonnegativity),))


def _extended_nonnegativity(rep: Representation, rng: np.random.Generator) -> float:
    """Most negative doubled-lattice value over 20 states drawn from ``rng``."""
    values = rep.frame.analyze(_random_states(rep.dim, 20, rng))
    return max(0.0, -float(_doubled(rep.dim, values).min()))


def _doubled(d: int, values: np.ndarray) -> np.ndarray:
    """(1/4d)(2/d + sigma * mu(q, p)), the sigma = +1 half first."""
    return np.concatenate([2.0 / d + values, 2.0 / d - values]) / (4.0 * d)


def extended_distribution(mu: QuasiDistribution) -> QuasiDistribution:
    """Lift the odd-lattice values to the nonnegative doubled-lattice form.

    Each point (q, p) splits into (q, p, +1) and (q, p, -1) carrying
    (1/4d)(2/d + sigma * mu(q, p)).  Only Cohendet's values are accepted:
    Wootters' prime lattice has the same points, but it places its values on
    them by another relabeling.
    """
    d = mu.dim
    _check_values(mu, odd_lattice(d).points if d % 2 else None, "cohendet", d,
                  "expected values from the odd-lattice representation")
    geom = extended_lattice(d)
    values = _doubled(d, mu.values)
    warnings = tuple(mu.warnings)
    if values.min() < -1e-12:
        warnings = warnings + ("extended-negative",)
    return QuasiDistribution(
        representation="cohendet-extended",
        dim=d,
        labels=geom.points,
        values=values,
        warnings=warnings,
    )


def from_extended(ext: QuasiDistribution) -> QuasiDistribution:
    """Undo ``extended_distribution``, and only it: mu(q, p) = 2d (mu(q,p,+1) - mu(q,p,-1))."""
    d = ext.dim
    _check_values(ext, extended_lattice(d).points if d % 2 else None, "cohendet-extended", d,
                  "expected values on the doubled lattice")
    half = d * d
    values = 2.0 * d * (ext.values[:half] - ext.values[half:])
    geom = odd_lattice(d)
    return QuasiDistribution(
        representation="cohendet",
        dim=d,
        labels=geom.points,
        values=values,
        warnings=(),
    )
