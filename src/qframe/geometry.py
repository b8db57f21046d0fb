"""Discrete phase-space geometries: point lattices, lines and striations.

A striation is a maximal family of parallel lines partitioning the lattice.
For a lattice over Z_d (d prime) or GF(p^n) there are d+1 striations: the
vertical one and one per slope.  Composite lattices take Cartesian products
of component lines and extended lattices adjoin a sign bit to each point.

Point labels are plain tuples of integers so they serialize directly; field
elements are encoded by their canonical integer code.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class PhaseSpaceGeometry:
    kind: str
    points: tuple
    lines: tuple
    striations: tuple
    meta: dict = field(default_factory=dict, compare=False)

    @cached_property
    def line_index(self) -> np.ndarray:
        """Point indices of the lines, shape (striations, lines per striation, points per line)."""
        at = {pt: i for i, pt in enumerate(self.points)}
        idx = np.array([[[at[pt] for pt in self.lines[li]] for li in lines] for lines in self.striations],
                       dtype=np.intp)
        idx.setflags(write=False)
        return idx


def _sloped_lattice(kind: str, ys: np.ndarray, meta: dict) -> PhaseSpaceGeometry:
    """The d x d lattice whose striation 0 holds the vertical lines and
    striation 1 + m the lines ``(a, ys[m, c, a])``, each in intercept order c.
    """
    d = len(ys)
    xs = list(range(d))
    lines = [tuple((c, b) for b in xs) for c in xs]
    lines += [tuple(zip(xs, row)) for rows in ys.tolist() for row in rows]
    return PhaseSpaceGeometry(
        kind=kind,
        points=tuple((a, b) for a in xs for b in xs),
        lines=tuple(lines),
        striations=tuple(tuple(range(s * d, (s + 1) * d)) for s in range(d + 1)),
        meta={**meta, "d": d, "directions": [(0, 1)] + [(1, m) for m in xs]},
    )


def prime_lattice(d: int) -> PhaseSpaceGeometry:
    """The (q, p) lattice over Z_d with its d+1 striations.

    Striation 0 collects the vertical lines q = c; striation 1 + m the lines
    p = m q + c.  Lines are ordered by intercept c, points row-major.
    """
    if not _is_prime(d):
        raise UnsupportedDimensionError(f"lattice striations need prime d, got {d}")
    k = np.arange(d)
    return _sloped_lattice("prime-lattice", (k[:, None, None] * k + k[:, None]) % d, {})


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

    Points are tuples of component points; each product of component lines is
    a line, each product of component striations a striation.
    """
    if not parts:
        raise ValueError("need at least one component geometry")
    points = tuple(itertools.product(*[g.points for g in parts]))
    lines: list[tuple] = []
    striations: list[tuple[int, ...]] = []
    for combo in itertools.product(*[range(len(g.striations)) for g in parts]):
        idxs = []
        for line_ids in itertools.product(*[g.striations[s] for g, s in zip(parts, combo)]):
            pts = tuple(itertools.product(*[g.lines[i] for g, i in zip(parts, line_ids)]))
            lines.append(pts)
            idxs.append(len(lines) - 1)
        striations.append(tuple(idxs))
    return PhaseSpaceGeometry(
        kind="composite-lattice",
        points=points,
        lines=tuple(lines),
        striations=tuple(striations),
        meta={"dims": [len(g.points) for g in parts]},
    )


def plain_lattice(side_q: int, side_p: int | None = None, kind: str = "lattice") -> PhaseSpaceGeometry:
    """A bare (q, p) grid with no line structure, serialized row-major."""
    if side_p is None:
        side_p = side_q
    points = tuple((q, p) for q in range(side_q) for p in range(side_p))
    return PhaseSpaceGeometry(
        kind=kind,
        points=points,
        lines=(),
        striations=(),
        meta={"shape": [side_q, side_p]},
    )


def extended_lattice(d: int) -> PhaseSpaceGeometry:
    """The doubled lattice Z_d x Z_d x {+1, -1}; the +1 block comes first."""
    points = tuple((q, p, s) for s in (1, -1) for q in range(d) for p in range(d))
    return PhaseSpaceGeometry(
        kind="extended-lattice",
        points=points,
        lines=(),
        striations=(),
        meta={"d": d},
    )


def lines_through(geom: PhaseSpaceGeometry, point) -> list[int]:
    """Indices of all lines containing the given point."""
    return [i for i, line in enumerate(geom.lines) if point in line]


def check_geometry_axioms(geom: PhaseSpaceGeometry) -> dict[str, bool]:
    """Affine-plane axioms for lattice geometries with lines.

    Checks that two distinct points share exactly one line, that striations
    partition the points, and that non-parallel lines meet in exactly one
    point.
    """
    membership: dict = {pt: set() for pt in geom.points}
    for i, line in enumerate(geom.lines):
        for pt in line:
            membership[pt].add(i)

    unique_join = True
    for a, b in itertools.combinations(geom.points, 2):
        if len(membership[a] & membership[b]) != 1:
            unique_join = False
            break

    partition = True
    for lines in geom.striations:
        seen: list = []
        for i in lines:
            seen.extend(geom.lines[i])
        if sorted(seen) != sorted(geom.points):
            partition = False
            break

    single_meet = True
    line_striation = {}
    for s, lines in enumerate(geom.striations):
        for i in lines:
            line_striation[i] = s
    for i, j in itertools.combinations(range(len(geom.lines)), 2):
        if line_striation.get(i) == line_striation.get(j):
            continue
        common = set(geom.lines[i]) & set(geom.lines[j])
        if len(common) != 1:
            single_meet = False
            break

    return {
        "two-points-one-line": unique_join,
        "striations-partition": partition,
        "nonparallel-lines-meet-once": single_meet,
    }
