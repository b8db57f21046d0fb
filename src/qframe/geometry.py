"""Discrete phase-space geometries: point lattices, lines and striations.

A striation is a maximal family of parallel lines partitioning the lattice.
For a lattice over Z_d (d prime) or GF(p^n) there are d+1 striations: the
vertical one and one per slope.  Composite lattices take Cartesian products
of component lines and extended lattices adjoin a sign bit to each point.

Point labels are plain tuples of integers so they serialize directly; field
elements are encoded by their canonical integer code.  The lines are one
integer table of point indices, ``line_index[s, c, k]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import UnsupportedDimensionError
from .finitefield import FiniteField, _is_prime

__all__ = [
    "PhaseSpaceGeometry",
    "prime_lattice",
    "odd_lattice",
    "field_lattice",
    "composite_lattice",
    "extended_lattice",
    "lines_through",
    "check_geometry_axioms",
]

@dataclass(frozen=True, eq=False)
class PhaseSpaceGeometry:
    """Points and, in ``line_index[s, c, k]``, the index of the k-th point of
    line c of striation s; a bare grid has shape (0, 0, 0).  Line c of
    striation s is line ``s * lines_per_striation + c`` of ``lines``.
    ``line_index`` is read-only, and pickle and ``copy`` remake a geometry
    through its constructor, so a copy's table is read-only too.
    """

    kind: str
    points: tuple
    line_index: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0), dtype=np.intp))
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.line_index.setflags(write=False)

    def __reduce__(self):
        return PhaseSpaceGeometry, (self.kind, self.points, self.line_index, self.meta)

    @cached_property
    def lines(self) -> tuple:
        """Each line as a tuple of point labels."""
        n_s, n_c, n_k = self.line_index.shape
        pts = self.points
        return tuple(tuple(pts[i] for i in row) for row in self.line_index.reshape(n_s * n_c, n_k).tolist())

    @property
    def striations(self) -> tuple:
        """Each striation as the tuple of its indices into ``lines``."""
        n_s, n_c, _ = self.line_index.shape
        return tuple(tuple(range(s * n_c, (s + 1) * n_c)) for s in range(n_s))


def _sloped_lattice(kind: str, ys: np.ndarray, meta: dict) -> PhaseSpaceGeometry:
    """The d x d lattice whose striation 0 holds the vertical lines and
    striation 1 + m the lines ``(a, ys[m, c, a])``, each in intercept order c.
    """
    d = len(ys)
    idx = np.empty((d + 1, d, d), dtype=np.intp)
    idx[0] = np.arange(d * d).reshape(d, d)
    np.add(ys, d * np.arange(d), out=idx[1:])
    return PhaseSpaceGeometry(
        kind=kind,
        points=tuple(itertools.product(range(d), repeat=2)),
        line_index=idx,
        meta={**meta, "d": d, "directions": [(0, 1)] + [(1, m) for m in range(d)]},
    )


def prime_lattice(d: int) -> PhaseSpaceGeometry:
    """The (q, p) lattice over Z_d with its d+1 striations.

    Striation 0 collects the vertical lines q = c; striation 1 + m the lines
    p = m q + c.  Lines are ordered by intercept c, points row-major.
    """
    if not _is_prime(d):
        raise UnsupportedDimensionError(f"lattice striations need prime d, got {d}")
    k = np.arange(d)
    ys = k[:, None, None] * k + k[:, None]
    ys %= d
    return _sloped_lattice("prime-lattice", ys, {})


def odd_lattice(d: int) -> PhaseSpaceGeometry:
    """The Z_d x Z_d lattice of an odd-d family: with striations for prime d, a bare grid otherwise."""
    return prime_lattice(d) if _is_prime(d) else plain_lattice(d)


def field_lattice(fieldobj: FiniteField) -> PhaseSpaceGeometry:
    """The (x, y) lattice over GF(p^n), labels by canonical integer code.

    Striation 0 collects the vertical lines x = c; striation 1 + m the lines
    (a, m a + c), computed over whole arrays of codes.
    """
    F = fieldobj
    k = np.arange(F.order)
    return _sloped_lattice("field-lattice", F.add(F.mul(k[:, None, None], k), k[:, None]), {"field": F})


def composite_lattice(parts: list[PhaseSpaceGeometry]) -> PhaseSpaceGeometry:
    """Cartesian product of component lattices.

    Points are tuples of component points, row-major; each product of
    component lines is a line, each product of component striations a
    striation, both ordered with the last component fastest.
    """
    if not parts:
        raise ValueError("need at least one component geometry")
    r = len(parts)
    # axes (s_1..s_r, c_1..c_r, k_1..k_r); component i enters scaled by its point stride
    idx, stride = np.zeros((1,) * (3 * r), dtype=np.intp), 1
    for i in reversed(range(r)):
        shape = [1] * (3 * r)
        shape[i::r] = parts[i].line_index.shape
        idx = idx + parts[i].line_index.reshape(shape) * stride
        stride *= len(parts[i].points)
    return PhaseSpaceGeometry(
        kind="composite-lattice",
        points=tuple(itertools.product(*[g.points for g in parts])),
        line_index=idx.reshape([math.prod(idx.shape[j * r:(j + 1) * r]) for j in range(3)]),
        meta={"dims": [len(g.points) for g in parts]},
    )


def plain_lattice(side: int, kind: str = "lattice") -> PhaseSpaceGeometry:
    """A bare side x side (q, p) grid with no line structure, serialized row-major."""
    points = tuple((q, p) for q in range(side) for p in range(side))
    return PhaseSpaceGeometry(kind=kind, points=points, meta={"shape": [side, side]})


def extended_lattice(d: int) -> PhaseSpaceGeometry:
    """The doubled lattice Z_d x Z_d x {+1, -1}; the +1 block comes first."""
    points = tuple((q, p, s) for s in (1, -1) for q in range(d) for p in range(d))
    return PhaseSpaceGeometry(kind="extended-lattice", points=points, meta={"d": d})


def lines_through(geom: PhaseSpaceGeometry, point) -> list[int]:
    """Indices of all lines containing the given point."""
    if point not in geom.points:
        return []
    hits = (geom.line_index == geom.points.index(point)).any(axis=2)
    return np.flatnonzero(hits).tolist()


def check_geometry_axioms(geom: PhaseSpaceGeometry) -> dict[str, bool]:
    """Affine-plane axioms for lattice geometries with lines.

    Checks that two distinct points share exactly one line, that striations
    partition the points, and that non-parallel lines meet in exactly one
    point, all on the line-point incidence matrix.
    """
    n_s, n_c, n_k = geom.line_index.shape
    n = len(geom.points)
    rows = geom.line_index.reshape(n_s * n_c, n_k)
    incidence = np.zeros((n_s * n_c, n))
    incidence[np.arange(n_s * n_c)[:, None], rows] = 1.0
    off = ~np.eye(n, dtype=bool)
    # lines of one striation are exempt from meeting once
    striation = np.repeat(np.arange(n_s), n_c)
    nonparallel = striation[:, None] != striation
    # how often each striation covers each point
    counts = np.bincount((rows.reshape(n_s, n_c * n_k) + n * np.arange(n_s)[:, None]).ravel(),
                         minlength=n_s * n)
    return {
        "two-points-one-line": bool(np.all((incidence.T @ incidence)[off] == 1)),
        "striations-partition": bool(np.all(counts == 1)),
        "nonparallel-lines-meet-once": bool(np.all((incidence @ incidence.T)[nonparallel] == 1)),
    }
