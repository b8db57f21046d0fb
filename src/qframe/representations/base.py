"""Common bundle type for concrete phase-space representations.

The minimal displaced-parity factories make their pair with
``frames.parity_pair``, the other lattice factories with
``phase_point_representation`` (frame {A/d}, dual {A}); each factory charges
``frames.check_stack_budget`` before it allocates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionMismatchError
from ..frames import (
    Frame,
    QuasiDistribution,
    _same_labels,
    reconstruct_state,
    represent_effect,
    represent_state,
)
from ..geometry import PhaseSpaceGeometry

__all__ = [
    "Representation",
    "striation_pvms",
    "phase_point_representation",
]


@dataclass(frozen=True, eq=False)
class Representation:
    """A frame/dual pair with its phase-space bookkeeping.

    ``represent`` maps states to quasi-probabilities over the frame labels,
    ``effect`` maps effects through the dual side, and ``reconstruct``
    resynthesizes operators from values.  The name, dimension and labels are
    the frame's own, and the dual must carry the same name and labels.
    Every ndarray in ``meta`` is made read-only, and pickle and ``copy``
    remake a pair through its constructor, so a copy's are read-only too.
    """

    frame: Frame
    dual: Frame
    geometry: PhaseSpaceGeometry | None = None
    meta: dict = field(default_factory=dict)
    # the factory's own identities, each (name, tolerance, residual(rep, rng) -> float)
    checks: tuple = ()

    def __post_init__(self):
        if self.dual.name != self.frame.name or not _same_labels(self.dual.labels, self.frame.labels):
            raise DimensionMismatchError("frame and dual must share name and labels")
        # so the geometry's point indices are frame indices
        if self.geometry is not None and self.geometry.points != self.frame.labels:
            raise DimensionMismatchError("frame labels must be the geometry's points")
        for value in self.meta.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __reduce__(self):
        return Representation, (self.frame, self.dual, self.geometry, self.meta, self.checks)

    @property
    def name(self) -> str:
        return self.frame.name

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def labels(self) -> tuple:
        return self.frame.labels

    def represent(self, rho: np.ndarray) -> QuasiDistribution:
        return represent_state(rho, self.frame)

    def effect(self, E: np.ndarray) -> QuasiDistribution:
        return represent_effect(E, self.dual)

    def reconstruct(self, dist: QuasiDistribution) -> np.ndarray:
        return reconstruct_state(dist, self.dual)


def phase_point_representation(name: str, geom: PhaseSpaceGeometry, ops: np.ndarray,
                               meta: dict) -> Representation:
    """The lattice families' pair over the points of ``geom``: frame {A/d}, dual {A}."""
    frame = Frame(geom.points, ops / ops.shape[1], name)
    dual = Frame(geom.points, ops, name)
    return Representation(frame, dual, geom, meta)


def striation_pvms(rep: Representation) -> np.ndarray:
    """Line-sum operators ``P(lam) = sum_{alpha in lam} F(alpha)``, shape (striations, lines, d, d).

    For the lattice representations whose frame elements are phase-point
    operators over d these are rank-1 projective measurements.
    """
    if rep.geometry is None or not rep.geometry.line_index.size:
        raise ValueError(f"representation {rep.name!r} has no striations")
    idx = rep.geometry.line_index
    ops = rep.frame.operators
    # point by point per striation: frame.operators[idx] would gather d + 1 frames
    out = ops[idx[..., 0]]
    for s, lines in enumerate(idx):
        for k in range(1, idx.shape[2]):
            out[s] += ops[lines[:, k]]
    return out
