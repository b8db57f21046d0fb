"""Reference phase-space geometries as tuples of point labels.

Each builder lists every line as a tuple of its points and every striation
as a tuple of line indices, point by point in Python: the prime lattice by
p = m q + c mod d, the field lattice by ``gf_oracle.lattice`` polynomial
arithmetic, and a composite as Cartesian products of component lines.  The
axiom check works on Python sets.  ``qframe.geometry``'s index table, its
``lines`` and ``striations`` views, ``lines_through`` and
``check_geometry_axioms`` must agree with them.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from gf_oracle import PolyField, lattice


class TupleGeometry(NamedTuple):
    points: tuple
    lines: tuple
    striations: tuple


def _striated(points, lines, per_striation: int) -> TupleGeometry:
    n_s = len(lines) // per_striation if per_striation else 0
    return TupleGeometry(
        points=tuple(points),
        lines=tuple(tuple(line) for line in lines),
        striations=tuple(tuple(range(s * per_striation, (s + 1) * per_striation)) for s in range(n_s)),
    )


def prime_lattice(d: int) -> TupleGeometry:
    """Vertical lines q = c, then for each slope m the lines p = m q + c, in intercept order."""
    xs = range(d)
    lines = [[(c, b) for b in xs] for c in xs]
    lines += [[(a, (m * a + c) % d) for a in xs] for m in xs for c in xs]
    return _striated([(a, b) for a in xs for b in xs], lines, d)


def field_lattice(p: int, n: int) -> TupleGeometry:
    points, lines, _ = lattice(PolyField(p, n))
    return _striated(points, lines, p**n)


def composite_lattice(parts: list[TupleGeometry]) -> TupleGeometry:
    """Each product of component striations is a striation of the products of their lines."""
    points = tuple(itertools.product(*[g.points for g in parts]))
    lines: list[tuple] = []
    striations: list[tuple[int, ...]] = []
    for combo in itertools.product(*[range(len(g.striations)) for g in parts]):
        idxs = []
        for line_ids in itertools.product(*[g.striations[s] for g, s in zip(parts, combo)]):
            lines.append(tuple(itertools.product(*[g.lines[i] for g, i in zip(parts, line_ids)])))
            idxs.append(len(lines) - 1)
        striations.append(tuple(idxs))
    return TupleGeometry(points, tuple(lines), tuple(striations))


def lines_through(geom, point) -> list[int]:
    return [i for i, line in enumerate(geom.lines) if point in line]


def check_geometry_axioms(geom) -> dict[str, bool]:
    """Two points share one line, striations partition the points, non-parallel lines meet once."""
    membership: dict = {pt: set() for pt in geom.points}
    for i, line in enumerate(geom.lines):
        for pt in line:
            membership[pt].add(i)

    unique_join = all(len(membership[a] & membership[b]) == 1
                      for a, b in itertools.combinations(geom.points, 2))

    partition = all(sorted(pt for i in lines for pt in geom.lines[i]) == sorted(geom.points)
                    for lines in geom.striations)

    line_striation = {i: s for s, lines in enumerate(geom.striations) for i in lines}
    sets = [set(line) for line in geom.lines]
    single_meet = all(len(sets[i] & sets[j]) == 1
                      for i, j in itertools.combinations(range(len(geom.lines)), 2)
                      if line_striation.get(i) != line_striation.get(j))

    return {
        "two-points-one-line": unique_join,
        "striations-partition": partition,
        "nonparallel-lines-meet-once": single_meet,
    }
