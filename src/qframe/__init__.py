"""Quasi-probability representations of finite-dimensional quantum theory.

Operator frames and their duals turn density matrices into real
distributions over finite outcome sets and back.  The package bundles the
standard discrete constructions (lattice phase spaces over primes and prime
powers, spin kernels, unbiased-basis tables, equal-overlap POVMs, projector
grids, Pauli-word tables), conversion and transformation utilities, and
negativity, entanglement, and classicality diagnostics, all behind one
frame/dual interface and a deterministic CLI.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import analysis, errors, finitefield, frames, geometry, operators, representations
from .errors import (
    DimensionMismatchError,
    FiducialSearchError,
    NotAFrameError,
    ParseError,
    QframeError,
    SingularBasisError,
    UnsupportedDimensionError,
)
from .frames import (
    Frame,
    NegativityReport,
    QuasiDistribution,
    apply_transform,
    born_pair,
    canonical_dual,
    deformed_born,
    frame_bounds,
    frame_operator_matrix,
    gram_dual,
    is_dual_pair,
    negativity,
    reconstruct_effect,
    reconstruct_state,
    represent_effect,
    represent_state,
    transform_matrix,
)
from .representations import Representation

__all__ = [
    "__version__",
    "analysis",
    "errors",
    "finitefield",
    "frames",
    "geometry",
    "operators",
    "representations",
    "QframeError",
    "DimensionMismatchError",
    "UnsupportedDimensionError",
    "NotAFrameError",
    "SingularBasisError",
    "FiducialSearchError",
    "ParseError",
    "Frame",
    "QuasiDistribution",
    "NegativityReport",
    "Representation",
    "born_pair",
    "deformed_born",
    "canonical_dual",
    "gram_dual",
    "is_dual_pair",
    "frame_bounds",
    "frame_operator_matrix",
    "represent_state",
    "represent_effect",
    "reconstruct_state",
    "reconstruct_effect",
    "transform_matrix",
    "apply_transform",
    "negativity",
]
