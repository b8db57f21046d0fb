"""Rank-one operator grid built from sums of basis vectors, row-stacked."""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedDimensionError
from ..frames import Frame, gram_dual
from .base import Representation, check_stack_budget


def hardy_projector(d: int, k: int, j: int) -> np.ndarray:
    """The (k, j) entry of the operator grid.

    Diagonal entries project on basis vectors; below-diagonal entries use
    phi_k + phi_j and above-diagonal ones phi_k + i phi_j.  The off-diagonal
    vectors are unnormalized, so those entries carry trace 2.
    """
    v = np.zeros(d, dtype=complex)
    if k == j:
        v[k] = 1.0
    elif k < j:
        v[k] = 1.0
        v[j] = 1.0
    else:
        v[k] = 1.0
        v[j] = 1.0j
    return np.outer(v, v.conj())


def hardy_rep(d: int) -> Representation:
    """Vector representation over alpha = d k + j with its one dual."""
    if d < 2:
        raise UnsupportedDimensionError("need d >= 2")
    # frame, dual and the dual's solve: V and its inverse, real n x n each, are one more stack's worth
    check_stack_budget(f"hardy_rep({d})", d * d, d, stacks=3)
    ops = np.array([hardy_projector(d, k, j) for k in range(d) for j in range(d)])
    frame = Frame(dim=d, labels=tuple(range(d * d)), operators=ops, name="hardy")
    dual = gram_dual(frame)
    return Representation(
        name="hardy", dim=d, frame=frame, dual=dual, geometry=None, meta={"d": d}
    )
