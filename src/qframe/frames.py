"""Operator frames on finite-dimensional Hilbert spaces.

A frame here is a finite family ``{F(lam)}`` of Hermitian operators on C^d,
indexed by phase-space labels, whose trace pairings ``Tr[F(lam) A]`` bound
``||A||^2`` above and below.  A dual family ``{D(lam)}`` recovers operators
through ``A = sum_lam Tr[F(lam) A] D(lam)``.  States map to real
quasi-probability values ``mu(lam) = Tr[rho F(lam)]`` and effects to
``xi(lam) = Tr[E D(lam)]``, so that ``Tr(rho E) = sum mu xi``.  That
holds only for one frame and its own dual, so values carry the labels, d and
name of the family that made them, and every pairing and reconstruction
refuses another family's values with ``DimensionMismatchError``: labels
alone cannot tell apart families that share them.

Superoperators act on the real d^2-dimensional space of Hermitian matrices,
in orthonormal coordinates read straight off the entries: the diagonal, then
``sqrt(2) Re A[j, k]`` and ``-sqrt(2) Im A[j, k]`` over the pairs j < k.  The
map is an isometry, so ``Tr[A B]`` is the dot product of two coordinate rows
and every pairing between two operator families is one real GEMM.

Every pairing of an operator with a family goes through the family's
``analyze`` (``Tr[A F(lam)]``) and ``synthesize`` (``sum v(lam) F(lam)``).  A
family built by ``parity_pair`` analyzes one operator, and synthesizes,
through its label map.  These are the minimal displaced-parity families, each
the kernel K(s, t) under one integer matrix, (s, t) = relabel (q, p):
Wootters at odd prime d and odd Leonhardt ((2, 0), (0, 2)), Cohendet
((-2, 0), (0, 2)) and Ruzzi ((0, 2), (-2, 0)).  At odd d and even s the
kernel is the phase point centred on (h, h), ``h = s/2``:
``K(s, t) = sum_u omega**(tu) |h + u><h - u|``, so
``Tr[A K(s, t)] = sum_u A[h + u, h - u] omega**(-tu)`` with no phase of its
own: one gather of the centred anti-diagonals of A and one product with the
scaled d x d DFT table, a real GEMM on interleaved floats, O(d^3).  The
labels of each family lie on a d x d grid whose rows fix s mod d and whose
columns fix t mod d, read off the matrix (transposed for Ruzzi's
anti-diagonal one), and the map stores its tables in that order, so the
product holds the values in label order.  Every other
pairing, and the analysis of a stack of operators in every family, is one
product on the zero-copy ``(n, d^2)`` view of the family's stack,
O(n d^2).  No other module reads that view or the label map's tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .errors import DimensionMismatchError, NotAFrameError, SingularBasisError
from .operators import EQ_TOL, _norm, displaced_parity, tau_powers, tol_for

__all__ = [
    "Frame",
    "QuasiDistribution",
    "NegativityReport",
    "frame_operator_matrix",
    "frame_bounds",
    "canonical_dual",
    "gram_dual",
    "is_dual_pair",
    "parity_pair",
    "represent_state",
    "represent_effect",
    "reconstruct_state",
    "reconstruct_effect",
    "born_pair",
    "deformed_born",
    "transform_matrix",
    "apply_transform",
    "negativity",
]

PINV_RCOND = 1e-10
# ||Im||^2 at or below this bounds every |Im| by EQ_TOL / 2, half the Hermiticity rule's floor
_IMAG_SCREEN = (EQ_TOL / 2) ** 2
_NON_FINITE = "values must be finite; the input has a NaN or inf entry"
_SQRT2 = math.sqrt(2)


def _as_stack(operators) -> np.ndarray:
    """The stack itself when it is a C-contiguous complex ndarray, else a converted copy.

    ``np.ascontiguousarray`` would return a view of an unpickled array, whose
    dtype is an equal object rather than numpy's own, and a label map takes
    only the very array it was built for.
    """
    ops = operators
    if not (type(ops) is np.ndarray and ops.dtype == complex and ops.flags.c_contiguous):
        ops = np.ascontiguousarray(ops, dtype=complex)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {ops.shape}")
    return ops


def _row_blocks(n: int, size: int) -> list[slice]:
    """Cache-sized slices of n rows of ``size`` entries, each 2^13 entries (128 KB complex) or one row.

    A whole-stack pass is slower at large d and holds stack-sized
    temporaries; ``_skew`` reads and ``_from_coordinates`` writes an
    ``(n, d, d)`` stack by these.
    """
    step = max(1, (1 << 13) // max(1, size))
    return [slice(i, i + step) for i in range(0, n, step)]


def _skew(ops: np.ndarray) -> tuple[float, float]:
    """Largest entry and largest per-operator Frobenius norm of ``F - F^dag`` over a stack, read by ``_row_blocks``."""
    entry = norm = 0.0
    for rows in _row_blocks(len(ops), ops.shape[1] ** 2):
        blk = ops[rows]
        diff = np.abs(blk - np.conj(blk).transpose(0, 2, 1))
        entry = max(entry, float(np.maximum.reduce(diff, axis=None)))
        norm = max(norm, math.sqrt(np.maximum.reduce(np.einsum("kij,kij->k", diff, diff))))
    return entry, norm


def _checked_skew(ops: np.ndarray, non_finite: str, non_hermitian: str) -> float:
    """``_skew(ops)[0]``, after refusing a NaN or inf entry and a non-Hermitian operator with those messages.

    A finite sum of squares means every entry is finite, and its root is the
    norm in the Hermiticity tolerance; finite entries whose squares overflow pass on.
    """
    flat = ops.reshape(-1).view(float)
    sq = float(flat.dot(flat))
    if not math.isfinite(sq) and not np.logical_and.reduce(np.isfinite(flat)):
        raise DimensionMismatchError(non_finite)
    skew, norm = _skew(ops)
    if norm > EQ_TOL * max(1.0, math.sqrt(sq)):
        raise DimensionMismatchError(non_hermitian)
    return skew


@cache
def _upper(d: int) -> np.ndarray:
    """The pairs j < k of a d x d matrix as a read-only ``(2, d (d - 1)/2)`` table, made once per d.

    Rows are j and k in ``np.triu_indices(d, 1)`` order, found by comparing
    the indices.
    """
    r = np.arange(d)
    upper = np.array((r[:, None] < r).nonzero())
    upper.setflags(write=False)
    return upper


def _coordinates(ops: np.ndarray) -> np.ndarray:
    """Real ``(n, d^2)`` coordinate rows of a Hermitian stack.

    Each row is the diagonal, then ``sqrt(2) Re F[j, k]`` and then
    ``-sqrt(2) Im F[j, k]`` over the pairs j < k of ``_upper``, so
    ``Tr[A B]`` is the dot product of the rows of A and B.
    """
    n, d = ops.shape[:2]
    j, k = _upper(d)
    half = len(j)
    upper = ops[:, j, k]
    V = np.empty((n, d * d))
    V[:, :d] = ops.diagonal(axis1=1, axis2=2).real
    np.multiply(upper.real, _SQRT2, out=V[:, d:d + half])
    np.multiply(upper.imag, -_SQRT2, out=V[:, d + half:])
    return V


def _from_coordinates(V: np.ndarray, d: int) -> np.ndarray:
    """Hermitian ``(n, d, d)`` stack with coordinate rows V, written by ``_row_blocks``; inverse of ``_coordinates``."""
    j, k = _upper(d)
    half = len(j)
    ops = np.zeros((len(V), d, d), dtype=complex)
    ops[:, np.arange(d), np.arange(d)] = V[:, :d]
    for rows in _row_blocks(len(V), d * d):
        re, im = V[rows, d:d + half], V[rows, d + half:]
        upper = (re - 1j * im) / _SQRT2
        ops[rows, j, k] = upper
        ops[rows, k, j] = upper.conj()
    return ops


def _pairings(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``Tr[A_n B_m]`` over two Hermitian stacks, as one real GEMM on their coordinates."""
    VA = _coordinates(A)
    return VA @ (VA if B is A else _coordinates(B)).T


def _same_labels(a: tuple, b: tuple) -> bool:
    """Label equality, by identity first: a family, its dual and their values share one tuple."""
    return a is b or a == b


def _check_values(dist: QuasiDistribution, labels: tuple | None, name: str, dim: int, mismatch: str) -> None:
    """The one test of whose values ``dist`` holds: the family's labels and d, else ``mismatch``, then its name.

    Families can share labels and place values on them differently (Wootters, Cohendet, Leonhardt, Ruzzi).
    """
    if dist.dim != dim or not _same_labels(dist.labels, labels):
        raise DimensionMismatchError(mismatch)
    if dist.representation != name:
        raise DimensionMismatchError(f"distribution came from {dist.representation!r}, not {name!r}")


def _centred_gather(d: int) -> np.ndarray:
    """``gather[s, u] = ((h + u) mod d) d + (h - u) mod d`` with ``h = s/2 mod d``, for odd d.

    Row s reads the anti-diagonal of a row-major A centred on (h, h), the
    entries ``A[h + u, h - u]`` of the phase point ``K(s, t)``.
    """
    u = np.arange(d)
    h = (u[:, None] * (d + 1) // 2) % d
    return ((h + u) % d) * d + (h - u) % d


@dataclass(frozen=True, eq=False)
class _LabelMap:
    """Where each operator ``scale K(s, t)`` of a displaced-parity family sits among the d^2 kernel labels.

    With s even and d odd, ``K(s, t) = sum_u omega**(tu) |h + u><h - u|``,
    ``h = s/2``: the phase point centred on (h, h), which carries no phase of
    its own.  The labels lie on a d x d grid whose row i fixes
    ``s mod d = rows[i]`` and whose column j fixes ``t mod d = cols[j]``;
    they run over it row by row, or column by column where ``transposed``
    (Ruzzi).  The tables are stored in grid order, so no call gathers its
    values by label: ``gather`` is ``_centred_gather`` with its rows in grid
    row order, and ``dft`` is the family's scaled DFT table
    ``Z[u, j] = scale omega**(-u cols[j])`` in real form, with its
    columns in grid column order: rows 2u and 2u + 1 of ``dft`` are row u
    of Z and of iZ as interleaved floats, so a complex row ``x + iy`` read as
    interleaved floats times ``dft`` is ``(x + iy) Z``, one real GEMM.  Z
    comes from ``tau_powers``, so it is conjugate-symmetric bit for bit.
    ``stack`` is the operator stack the map was built for, and a ``Frame``
    takes the map only with that very array.  Every array is frozen, as the
    family's stack is, and pickle and ``copy`` remake the map through its
    constructor, so a copy's arrays are frozen too.
    """

    stack: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    transposed: bool
    gather: np.ndarray
    dft: np.ndarray

    def __post_init__(self):
        for table in (self.stack, self.rows, self.cols, self.gather, self.dft):
            table.setflags(write=False)

    def __reduce__(self):
        return _LabelMap, (self.stack, self.rows, self.cols, self.transposed, self.gather, self.dft)

    @cached_property
    def half_dft(self) -> np.ndarray:
        """Z's transpose over the columns ``u <= (d - 1)/2``, rows in grid column order: a real ``(d, d + 1)`` table.

        Made on a family's first synthesis.
        """
        d = len(self.cols)
        table = np.ascontiguousarray(self.dft[0::2].view(complex).T[:, :(d + 1) // 2]).view(float)
        table.setflags(write=False)
        return table

    @cached_property
    def mirror(self) -> tuple[np.ndarray, np.ndarray]:
        """How a synthesized operator is read off its half-width product, Hermitian bit for bit.

        Column u of grid row i of the product Q is entry (h - u, h + u),
        ``h = rows[i]/2``, of the operator, so entry (r, c) is ``Q[i, -u]``
        with ``rows[i] = r + c`` and ``u = (r - c)/2`` (mod d), and for real
        values it is also ``conj(Q[i, u])``.  Q holds the columns
        ``u <= (d - 1)/2`` as interleaved floats: ``mirror`` reads column
        d - u where u is past the half and column u elsewhere, and ``sign``
        negates the imaginary part of the latter, taking it as the exact
        conjugate.  Made on a family's first synthesis, as ``half_dft`` is; a
        frame and its dual share ``rows``, so each pair makes these O(d^2)
        tables twice, once per side, for no per-call cost.
        """
        d = len(self.rows)
        half = (d + 1) // 2
        c = np.arange(d)
        r = c[:, None]
        u = ((r - c) * half) % d
        past = u >= half
        at = 2 * (self.rows.argsort()[(r + c) % d] * half + np.where(past, d - u, u)).reshape(-1)
        mirror = np.empty(2 * d * d, dtype=np.intp)
        mirror[0::2], mirror[1::2] = at, at + 1
        sign = np.empty(2 * d * d)
        sign[0::2] = 1.0
        sign[1::2] = np.where(past.reshape(-1), 1.0, -1.0)
        mirror.setflags(write=False)
        sign.setflags(write=False)
        return mirror, sign

    def analyze(self, A: np.ndarray) -> np.ndarray:
        """Complex ``Tr[A F(lam)] = scale sum_u A[h + u, h - u] omega**(-tu)`` of one ``(d, d)`` A.

        One gather of its centred anti-diagonals, one real product of them,
        read as interleaved floats, with ``dft``; the product is the values
        on the grid, in label order or, where ``transposed``, its transpose.
        """
        Y = A.ravel()[self.gather].view(float).dot(self.dft).view(complex)
        return (Y.T if self.transposed else Y).ravel()

    def synthesize(self, v: np.ndarray) -> np.ndarray:
        """``sum_lam v(lam) F(lam)`` for real ``(n,)`` or ``(k, n)`` values, the inverse of ``analyze``.

        The values, read as the grid, make one real product with
        ``half_dft``; it is read back through ``mirror`` and the imaginary
        part of the diagonal is set to +0.0.
        """
        d = len(self.gather)
        mirror, sign = self.mirror
        if v.ndim == 1:
            V = v.reshape(d, d)
            M = ((V.T if self.transposed else V).dot(self.half_dft).reshape(-1)[mirror] * sign).view(complex)
            M[::d + 1].imag = 0.0
            return M.reshape(d, d)
        k = len(v)
        V = v.reshape(k, d, d)
        V = (V.transpose(0, 2, 1) if self.transposed else V).reshape(k * d, d)
        M = (V.dot(self.half_dft).reshape(k, d * (d + 1)).take(mirror, axis=1) * sign).view(complex)
        M[:, ::d + 1].imag = 0.0
        return M.reshape(k, d, d)


@dataclass(frozen=True, eq=False)
class Frame:
    """Labeled family of Hermitian operators on C^d.

    A representation's analysis family {F(lam)} and its dual {D(lam)} are
    both frames: the dual of a frame spans the operator space too.  The
    family takes the operator stack over read-only (a C-contiguous
    complex array passed in is frozen in place, anything else is converted
    first), so the facts it caches about the stack cannot go stale.  Two of
    them are ``dim``, the side of the stack's matrices, and ``skew``, the
    largest entry of ``F - F^dag``.

    A family made by ``parity_pair`` also carries its label map, passed in as
    ``label_map``: operator n is ``scale K(s_n, t_n)``, a displaced parity of
    ``operators.displaced_parity``, and ``analyze`` of one operator and
    ``synthesize`` pair through the kernel identity on it.  The map is built
    with the stack from the same matrix, and the constructor refuses a map
    built for any array but the stack it is given, so the two cannot
    disagree; any other family has none and pairs on its stack.

    Every copy goes through the constructor: ``dataclasses.replace`` does,
    and pickle and ``copy`` call ``Frame`` on its labels, stack, name and map
    (a deep copy shares the read-only stack and map, as a shallow one does).
    So a renamed, deep-copied or unpickled family keeps its map and a
    read-only stack, and ``replace`` with another stack refuses the map.
    """

    dim: int = field(init=False)
    labels: tuple
    operators: np.ndarray
    name: str = ""
    skew: float = field(init=False, repr=False)
    label_map: _LabelMap | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        ops = _as_stack(self.operators)
        if self.label_map is not None and self.label_map.stack is not ops:
            raise DimensionMismatchError("the label map was built for another operator stack")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dim", ops.shape[1])
        if len(self.labels) != ops.shape[0]:
            raise DimensionMismatchError(f"{len(self.labels)} labels for {ops.shape[0]} operators")
        skew = _checked_skew(ops, "operators must be finite; the family has a NaN or inf entry",
                             "family contains a non-Hermitian operator")
        object.__setattr__(self, "skew", skew)
        ops.setflags(write=False)

    def __reduce__(self):
        # the whole call rides in the callable: deepcopy copies the arguments but not the callable, and a
        # copied stack would refuse the map built for this one
        return partial(Frame, self.labels, self.operators, self.name, label_map=self.label_map), ()

    def __len__(self) -> int:
        return len(self.labels)

    def sum(self) -> np.ndarray:
        return np.add.reduce(self.operators, axis=0)

    def traces(self) -> np.ndarray:
        return self.operators.trace(axis1=1, axis2=2).real

    @cached_property
    def flat(self) -> np.ndarray:
        """Read-only ``(n, d^2)`` view of the stack, one row-major operator per row; no copy."""
        return self.operators.reshape(len(self.operators), -1)

    def analyze(self, A, kind: str = "operator") -> np.ndarray:
        """Real values ``Tr[A F(lam)]``: ``(n,)`` for one ``(d, d)`` A, ``(k, n)`` for a ``(k, d, d)`` stack.

        One operator is paired through the label map where there is one, else
        by one complex GEMV on the flat view.  Then one screen,
        ``||Im||^2 <= (EQ_TOL / 2)^2`` with ``||Re||^2`` finite, implies both
        exact rules with room for rounding: every |Im| is within EQ_TOL and
        every value is finite.  Only values that fail it meet the exact rules:
        Im against ``tol_for(A)`` first, then finite real parts.

        A stack is tested by ``_checked_skew``, as a family's own stack is,
        and paired by one real GEMM on interleaved floats, with or without a
        label map: for Hermitian A and F,
        ``Tr[A F] = sum_ij conj(A_ij) F_ij``, the dot product of two rows read
        as floats, half the work of the complex product.
        """
        A = np.asarray(A, dtype=complex)
        d = self.dim
        if A.shape == (d, d):
            raw = self.flat.dot(A.T.reshape(-1)) if self.label_map is None else self.label_map.analyze(A)
            re, im = raw.real.copy(), raw.imag
            if not (im.dot(im) <= _IMAG_SCREEN and math.isfinite(re.dot(re))):
                imag = np.maximum.reduce(np.abs(im))
                # tol_for(A) >= EQ_TOL, so A's norm is only needed above EQ_TOL
                if imag > EQ_TOL and imag > tol_for(A):
                    raise DimensionMismatchError(f"{kind} values are not real; the {kind} is not Hermitian")
                if not np.logical_and.reduce(np.isfinite(re)):
                    raise DimensionMismatchError(_NON_FINITE)
            return re
        if A.ndim != 3 or A.shape[1:] != (d, d):
            raise DimensionMismatchError(f"{kind} shape {A.shape} does not match dim {d}")
        A = np.ascontiguousarray(A)
        _checked_skew(A, _NON_FINITE, f"{kind} values are not real; a {kind} is not Hermitian")
        return A.reshape(len(A), d * d).view(float) @ self.flat.view(float).T

    def synthesize(self, values) -> np.ndarray:
        """``sum_lam v(lam) F(lam)``: ``(d, d)`` for ``(n,)`` values, ``(k, d, d)`` for ``(k, n)``."""
        v = np.asarray(values)
        n, d = len(self.labels), self.dim
        if v.shape == (n,):
            return v.dot(self.flat).reshape(d, d) if self.label_map is None else self.label_map.synthesize(v)
        if v.ndim != 2 or v.shape[1] != n:
            raise DimensionMismatchError(f"values of shape {v.shape} for {n} operators")
        return v.dot(self.flat).reshape(len(v), d, d) if self.label_map is None else self.label_map.synthesize(v)

    @cached_property
    def resolves_identity(self) -> bool:
        """Whether the operators sum to the identity, tested once per family."""
        total = self.sum()
        tol = tol_for(total)
        total.reshape(-1)[::self.dim + 1] -= 1.0
        return not _norm(total) > tol

    @cached_property
    def unit_traces(self) -> bool:
        """Whether every operator has trace one, tested once per family."""
        return not np.maximum.reduce(np.abs(self.traces() - 1.0)) > EQ_TOL

    @property
    def minimal(self) -> bool:
        return len(self) == self.dim**2


def parity_pair(labels, relabel, name: str = "") -> tuple[Frame, Frame]:
    """The frame ``{K(s, t)/d}`` and its dual ``{K(s, t)}`` over ``labels``, each with its label map.

    The labels are the d^2 points (q, p) of the lattice, row-major, and point
    (q, p) carries ``K(s, t)`` of ``operators.displaced_parity`` at
    ``(s, t) = (aq + bp, cq + ep)`` for the family's ``relabel = ((a, b), (c, e))``:
    ((2, 0), (0, 2)) for Wootters and odd Leonhardt, ((-2, 0), (0, 2)) for
    Cohendet and ((0, 2), (-2, 0)) for Ruzzi.  The map's grid is read off it:
    a diagonal matrix walks grid rows ``s = a u`` and columns ``t = e u``
    (mod d) row by row, an anti-diagonal one rows ``s = b u`` and columns
    ``t = c u`` column by column.  The centred phase point needs odd d and an
    even s-row, and a unit mod d in each nonzero entry makes the d^2 (s, t)
    cells distinct.  The stack and the map come from the one matrix, and
    each side's map goes into its ``Frame`` with the stack it was built for.
    """
    (a, b), (c, e) = relabel
    d = math.isqrt(len(labels))
    if d % 2 == 0 or a % 2 or b % 2:
        raise DimensionMismatchError(f"the centred phase points need odd d and even s, got d = {d}")
    transposed = bool(b or c)
    if transposed and (a or e):
        raise DimensionMismatchError(f"the relabeling {relabel} is neither diagonal nor anti-diagonal")
    row, col = (b, c) if transposed else (a, e)
    if math.gcd(row * col, d) != 1:
        raise DimensionMismatchError(f"the relabeling {relabel} has an entry that is not a unit mod {d}")
    q, p = np.divmod(np.arange(d * d), d)
    ops = displaced_parity(d, a * q + b * p, c * q + e * p)
    u = np.arange(d)
    rows, cols = row * u % d, col * u % d
    gather = _centred_gather(d)[rows]
    dft = tau_powers(d, -2 * u[:, None] * cols)
    frame_map, dual_map = (
        _LabelMap(stack, rows, cols, transposed, gather, _real_form(scaled))
        for stack, scaled in ((ops / d, dft / d), (ops, dft))
    )
    frame = Frame(labels, frame_map.stack, name, label_map=frame_map)
    return frame, Frame(frame.labels, dual_map.stack, name, label_map=dual_map)


def _real_form(Z: np.ndarray) -> np.ndarray:
    """The ``(2d, 2d)`` real table whose rows 2u and 2u + 1 are row u of Z and of iZ as interleaved floats."""
    d = len(Z)
    table = np.empty((d, 2, d), dtype=complex)
    table[:, 0] = Z
    table[:, 1] = 1j * Z
    return table.view(float).reshape(2 * d, 2 * d)


@dataclass(frozen=True, eq=False)
class QuasiDistribution:
    """Read-only real values on phase space: a state's ``Tr[rho F(lam)]`` or an effect's ``Tr[E D(lam)]``."""

    representation: str
    dim: int
    labels: tuple
    values: np.ndarray
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        vals = np.array(self.values, dtype=float)
        if vals.shape != (len(self.labels),):
            raise DimensionMismatchError(f"{len(self.labels)} labels for {vals.shape} values")
        if not np.logical_and.reduce(np.isfinite(vals)):
            raise DimensionMismatchError(_NON_FINITE)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __reduce__(self):
        # pickle and copy remake the values through the constructor, so they are checked and frozen again
        return QuasiDistribution, (self.representation, self.dim, self.labels, self.values, self.warnings)

    def min(self) -> float:
        return float(self.values.min())


@dataclass(frozen=True)
class NegativityReport:
    min_value: float
    abs_sum: float
    negativity: float


def frame_operator_matrix(frame: Frame) -> np.ndarray:
    """Matrix of ``S(A) = sum Tr[F A] F`` in the orthonormal basis of ``_coordinates``.

    That basis is the diagonal units E_jj, then (E_jk + E_kj)/sqrt(2) and
    i(E_kj - E_jk)/sqrt(2) over the pairs j < k.
    """
    V = _coordinates(frame.operators)
    return V.T @ V


def _bounds(vals: np.ndarray) -> tuple[float, float]:
    """Frame constants from the ascending spectrum of the frame operator; raises when it is singular."""
    a, b = float(vals[0]), float(vals[-1])
    if a <= EQ_TOL * max(1.0, b):
        raise NotAFrameError(f"lower frame bound {a:.3e} vanishes; family does not span")
    return a, b


def frame_bounds(frame: Frame) -> tuple[float, float]:
    """Tightest frame constants (a, b); raises when the family does not span."""
    return _bounds(np.linalg.eigvalsh(frame_operator_matrix(frame)))


def canonical_dual(frame: Frame) -> Frame:
    """Dual family ``S^(-1) F(lam)`` via the inverse frame superoperator.

    A minimal frame has one dual, ``gram_dual``'s.  Otherwise one ``eigh`` of
    S gives both the bounds check and ``S^(-1)``, which the check keeps well conditioned.
    """
    if frame.minimal:
        return gram_dual(frame)
    V = _coordinates(frame.operators)
    vals, vecs = np.linalg.eigh(V.T @ V)
    _bounds(vals)
    ops = _from_coordinates(V @ ((vecs / vals) @ vecs.T), frame.dim)
    return Frame(frame.labels, ops, frame.name)


def gram_dual(frame: Frame) -> Frame:
    """The one dual of a minimal frame: coordinate rows ``V^(-T)``, one LU solve on the square V.

    The Gram matrix ``V V^T``, whose inverse would square cond(V) into the
    dual's error, is never formed; its condition number cond(V)^2 is the refusal test.
    """
    return _minimal_dual(frame)


def _minimal_dual(frame: Frame, screen=None) -> Frame:
    """``gram_dual``, with ``screen(cond)`` called on cond(V)^2 before the refusal test.

    A caller with its own policy on the condition number raises from
    ``screen``, so V and its condition number are computed once per frame.
    """
    if not frame.minimal:
        raise DimensionMismatchError(
            f"Gram dual needs exactly d^2 = {frame.dim**2} operators, got {len(frame)}"
        )
    V = _coordinates(frame.operators)
    cond = np.linalg.cond(V) ** 2
    if screen is not None:
        screen(cond)
    if not np.isfinite(cond) or cond > 1 / PINV_RCOND:
        raise SingularBasisError(f"Gram matrix condition number {cond:.3e} is too large")
    # V goes before the dual's stack is allocated, and its inverse before that stack is checked
    V = np.linalg.inv(V).T
    dual_ops = _from_coordinates(V, frame.dim)
    del V
    return Frame(frame.labels, dual_ops, frame.name)


def is_dual_pair(frame: Frame, dual: Frame, tol: float | None = None) -> tuple[bool, float]:
    """Check ``A = sum Tr[F A] D`` on the whole operator space.

    Returns the verdict and the worst entry-wise residual of the
    reconstruction superoperator against the identity.
    """
    if frame.dim != dual.dim or not _same_labels(frame.labels, dual.labels):
        raise DimensionMismatchError("frame and dual must share dimension and labels")
    R = _coordinates(dual.operators).T @ _coordinates(frame.operators)
    R.reshape(-1)[::len(R) + 1] -= 1.0
    residual = float(np.maximum.reduce(np.abs(R), axis=None))
    if tol is None:
        tol = EQ_TOL
    return residual <= tol, residual


def _screened_distribution(family: Frame, A: np.ndarray, kind: str, warnings: tuple) -> QuasiDistribution:
    """``family.analyze(A)`` as a ``QuasiDistribution``, skipping ``__post_init__``.

    Its checks would only repeat ``analyze``'s: the values are finite and one
    per label, and the labels are the family's own tuple.  The values are frozen.
    """
    values = family.analyze(A, kind)
    values.setflags(write=False)
    dist = object.__new__(QuasiDistribution)
    dist.__dict__.update(
        representation=family.name,
        dim=family.dim,
        labels=family.labels,
        values=values,
        warnings=warnings,
    )
    return dist


def represent_state(rho: np.ndarray, frame: Frame) -> QuasiDistribution:
    """Quasi-probability values ``Tr[rho F(lam)]`` of a density operator."""
    warnings = () if frame.resolves_identity else ("frame-sum-not-identity",)
    return _screened_distribution(frame, rho, "state", warnings)


def represent_effect(E: np.ndarray, dual: Frame) -> QuasiDistribution:
    """Effect values ``Tr[E D(lam)]`` against the dual family."""
    warnings = () if dual.unit_traces else ("dual-traces-not-one",)
    return _screened_distribution(dual, E, "effect", warnings)


def reconstruct_state(dist: QuasiDistribution, dual: Frame) -> np.ndarray:
    """Rebuild the operator ``sum mu(lam) D(lam)`` from the dual's own family's values.

    Another family's values raise ``DimensionMismatchError``, even on the same labels.
    """
    _check_values(dist, dual.labels, dual.name, dual.dim, "distribution labels do not match the dual family")
    return dual.synthesize(dist.values)


def reconstruct_effect(fn: QuasiDistribution, frame: Frame) -> np.ndarray:
    """Rebuild the effect ``sum xi(lam) F(lam)``; only the frame's own family's values are accepted."""
    _check_values(fn, frame.labels, frame.name, frame.dim, "effect labels do not match the frame")
    return frame.synthesize(fn.values)


def born_pair(mu: QuasiDistribution, xi: QuasiDistribution) -> float:
    """Outcome probability ``sum_lam mu(lam) xi(lam)``, ``Tr(rho E)`` for one frame and its dual.

    Values of two families raise ``DimensionMismatchError``, even on the same labels.
    """
    _check_values(xi, mu.labels, mu.representation, mu.dim,
                  "state and effect functions live on different outcome sets")
    return float(mu.values.dot(xi.values))


def deformed_born(mu: QuasiDistribution, xi: QuasiDistribution, dual: Frame) -> float:
    """Probability when both state and effect use the frame side.

    With ``mu = Tr[rho F]`` and ``xi = Tr[E F]`` the pairing needs the dual
    Gram kernel: ``sum mu(lam) xi(lam') Tr[D(lam) D(lam')]``.
    """
    for dist in (mu, xi):
        _check_values(dist, dual.labels, dual.name, dual.dim, "distributions do not match the dual family")
    K = _pairings(dual.operators, dual.operators)
    return float(mu.values @ K @ xi.values)


def transform_matrix(source_dual: Frame, target_frame: Frame) -> np.ndarray:
    """Matrix ``T[lam', lam] = Tr[D'(lam') F(lam)]`` mapping representations.

    Applied as ``mu_target(lam) = sum_lam' T[lam', lam] mu_source(lam')``.
    """
    if source_dual.dim != target_frame.dim:
        raise DimensionMismatchError("representations live in different dimensions")
    return _pairings(source_dual.operators, target_frame.operators)


def apply_transform(dist: QuasiDistribution, T: np.ndarray, target_frame: Frame) -> QuasiDistribution:
    if T.shape != (len(dist.labels), len(target_frame.labels)):
        raise DimensionMismatchError(f"transform shape {T.shape} does not fit the outcome sets")
    vals = dist.values @ T
    return QuasiDistribution(
        representation=target_frame.name,
        dim=target_frame.dim,
        labels=target_frame.labels,
        values=vals,
        warnings=dist.warnings,
    )


def negativity(dist: QuasiDistribution) -> NegativityReport:
    """Minimum value, absolute sum and total negative weight."""
    vals = np.asarray(dist.values, dtype=float)
    return NegativityReport(
        min_value=float(np.minimum.reduce(vals)),
        abs_sum=float(np.add.reduce(np.abs(vals))),
        negativity=float(np.add.reduce(np.maximum(-vals, 0))),
    )

