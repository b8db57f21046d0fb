"""Rank-one operator grid built from sums of basis vectors, row-stacked."""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedDimensionError
from ..frames import Frame, check_stack_budget, gram_dual
from .base import Representation


def _grid(d: int) -> np.ndarray:
    """The ``(d^2, d, d)`` operator grid, entry alpha = d k + j the projector on its vector v.

    Diagonal entries project on basis vectors; below-diagonal entries use
    phi_k + phi_j and above-diagonal ones phi_k + i phi_j.  The off-diagonal
    vectors are unnormalized, so those entries carry trace 2.  The d^2
    vectors are placed by index arithmetic and their outer products taken
    in one broadcast product.
    """
    alpha = np.arange(d * d)
    k, j = np.divmod(alpha, d)
    v = np.zeros((d * d, d), dtype=complex)
    v[alpha, j] = np.where(k < j, 1.0, 1.0j)
    v[alpha, k] = 1.0  # on the diagonal, k = j, this replaces the i
    return v[:, :, None] * v.conj()[:, None, :]


def hardy_rep(d: int) -> Representation:
    """Vector representation over alpha = d k + j with its one dual."""
    if d < 2:
        raise UnsupportedDimensionError("need d >= 2")
    # frame, dual and the dual's solve: V and its inverse, real n x n each, are one more stack's worth
    check_stack_budget(f"hardy_rep({d})", 3 * d * d, d)
    frame = Frame(tuple(range(d * d)), _grid(d), "hardy")
    dual = gram_dual(frame)
    return Representation(frame, dual, meta={"d": d})
