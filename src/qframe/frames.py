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
``analyze`` (``Tr[A F(lam)]``) and ``synthesize`` (``sum v(lam) F(lam)``),
and a family has one pairing, a factorization of its analysis operator, that
answers both.  The dense pairing ``_Stack`` is one product on the zero-copy
``(n, d^2)`` view of the family's stack, O(n d^2).  A family built by
``parity_pair`` pairs through its label map, ``_LabelMap``.  These are the
minimal displaced-parity families, each the kernel K(s, t) under one integer
matrix, (s, t) = relabel (q, p): Wootters at odd prime d and odd Leonhardt
((2, 0), (0, 2)), Cohendet ((-2, 0), (0, 2)) and Ruzzi ((0, 2), (-2, 0)).  At
odd d and even s the kernel is the phase point centred on (h, h),
``h = s/2``: ``K(s, t) = sum_u omega**(tu) |h + u><h - u|``, so
``Tr[A K(s, t)] = sum_u A[h + u, h - u] omega**(-tu)`` with no phase of its
own: one gather of the centred anti-diagonals of A and one product with the
scaled d x d DFT table, a real GEMM on interleaved floats, O(d^3).  The
labels of each family lie on a d x d grid whose rows fix s mod d and whose
columns fix t mod d, read off the matrix (transposed for Ruzzi's
anti-diagonal one), and the map stores its tables in that order, so the
product holds the values in label order.  Such a family holds its map alone,
O(d^2), and no dense stack: its checks, sum and traces are measured on the
map's tables, and ``operators`` is written from them on the first read, once
the stack budget that every build also charges, ``check_stack_budget`` here,
has passed it.  The analysis of a stack of operators is one product on the
flat view of ``operators`` in every family.  No other module reads that view
or a pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .errors import DimensionMismatchError, NotAFrameError, SingularBasisError, UnsupportedDimensionError
from .operators import EQ_TOL, _norm, tau_powers, tol_for

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
    "MAX_STACK_BYTES",
    "check_stack_budget",
    "parity_operators",
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
# Largest total of complex d x d operator stacks one factory call or verify run will allocate.
MAX_STACK_BYTES = 1 << 30
# ||Im||^2 at or below this bounds every |Im| by EQ_TOL / 2, half the Hermiticity rule's floor
_IMAG_SCREEN = (EQ_TOL / 2) ** 2
_NON_FINITE = "values must be finite; the input has a NaN or inf entry"
_SQRT2 = math.sqrt(2)


def check_stack_budget(what: str, operators: int, d: int) -> None:
    """Refuse, before anything is allocated, a build that holds ``operators`` complex d x d operators.

    Each caller states its one count: a frame and its dual over n labels
    are 2 n, and a build that holds more beside them counts that too.  A
    parity factory holds no stack, and charges ``parity_operators(d)``; the
    first read of either of its family's stacks charges the pair's 2 n.
    A small build may peak up to a fixed 256 KiB above its charge: one of
    ``_skew``'s row blocks (2^13 complex entries, 128 KiB) and fixed-size objects.
    """
    need = int(operators) * int(d) ** 2 * np.dtype(complex).itemsize
    if need > MAX_STACK_BYTES:
        raise UnsupportedDimensionError(
            f"{what} needs {need} bytes of operator stacks, over the {MAX_STACK_BYTES}-byte budget"
        )


def parity_operators(d: int) -> int:
    """d x d complex operators' worth a parity factory allocates at odd d, and no stack.

    The geometry's ``(d + 1) x d x d`` integer line table is (d + 1)/2
    operators, and ``prime_lattice`` peaks at twice that while it builds it.
    The two label maps' tables, once both sides have synthesized, are 12
    more, which their build's temporaries do not exceed: the shared gather
    (1/2), the two ``dft`` tables (4), the two ``half_dft`` (1) and the two
    ``mirror`` (4); tracemalloc reads 9.6 at d = 45 and 11.5-12.6 at d = 9,
    where the families' fixed-size objects weigh most.
    """
    return d + 1 + 12


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


def _square_norm(flat: np.ndarray, non_finite: str) -> float:
    """``flat . flat`` of real entries, after refusing a NaN or inf entry with ``non_finite``.

    A finite sum of squares means every entry is finite; finite entries whose squares overflow pass on.
    """
    sq = float(flat.dot(flat))
    if not math.isfinite(sq) and not np.logical_and.reduce(np.isfinite(flat)):
        raise DimensionMismatchError(non_finite)
    return sq


def _hermitian_skew(skew: float, norm: float, sq: float, non_hermitian: str) -> float:
    """``skew``, after refusing a per-operator norm of ``F - F^dag`` past the tolerance for squared stack norm sq."""
    if norm > EQ_TOL * max(1.0, math.sqrt(sq)):
        raise DimensionMismatchError(non_hermitian)
    return skew


def _checked_skew(ops: np.ndarray, non_finite: str, non_hermitian: str) -> float:
    """``_skew(ops)[0]``, after refusing a NaN or inf entry and a non-Hermitian operator with those messages."""
    sq = _square_norm(ops.reshape(-1).view(float), non_finite)
    return _hermitian_skew(*_skew(ops), sq, non_hermitian)


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
class _Stack:
    """The dense pairing: the ``(n, d, d)`` stack, C-contiguous, complex and read-only, and its ``(n, d^2)`` view.

    The stack is kept when it is a C-contiguous complex ndarray, else
    converted: ``np.ascontiguousarray`` would return a view of an unpickled
    array, whose dtype is an equal object rather than numpy's own, and
    freezing a view leaves the array it reads writable.  Pickle and ``copy``
    remake the pairing from the stack, so a copy's stack is frozen too.
    """

    stack: np.ndarray

    def __post_init__(self):
        ops = self.stack
        if not (type(ops) is np.ndarray and ops.dtype == complex and ops.flags.c_contiguous):
            ops = np.ascontiguousarray(ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatchError(f"expected a stack of square matrices, got shape {ops.shape}")
        ops.setflags(write=False)
        object.__setattr__(self, "stack", ops)
        object.__setattr__(self, "shape", ops.shape)
        object.__setattr__(self, "flat", ops.reshape(len(ops), ops.shape[1] ** 2))

    def __reduce__(self):
        return _Stack, (self.stack,)

    def dense(self, name: str) -> np.ndarray:
        return self.stack

    def checked_skew(self, non_finite: str, non_hermitian: str) -> float:
        return _checked_skew(self.stack, non_finite, non_hermitian)

    def total(self) -> np.ndarray:
        return np.add.reduce(self.stack, axis=0)

    def traces(self) -> np.ndarray:
        return self.stack.trace(axis1=1, axis2=2).real

    def analyze(self, A: np.ndarray) -> np.ndarray:
        return self.flat.dot(A.T.reshape(-1))

    def synthesize(self, v: np.ndarray) -> np.ndarray:
        return v.dot(self.flat).reshape(v.shape[:-1] + self.shape[1:])


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
    These tables are the one description of the operators: every pairing and
    check reads them, and so does the dense ``stack``, which is made only
    when read, through ``dense``.  Every array is frozen, as a dense
    pairing's stack is, and pickle and ``copy`` remake the map through its
    constructor, so a copy's arrays are frozen too and it holds no stack.
    """

    rows: np.ndarray
    cols: np.ndarray
    transposed: bool
    gather: np.ndarray
    dft: np.ndarray

    def __post_init__(self):
        for table in (self.rows, self.cols, self.gather, self.dft):
            table.setflags(write=False)

    def __reduce__(self):
        return _LabelMap, (self.rows, self.cols, self.transposed, self.gather, self.dft)

    @property
    def shape(self) -> tuple[int, int, int]:
        d = len(self.rows)
        return d * d, d, d

    @cached_property
    def stack(self) -> np.ndarray:
        """The dense ``(d^2, d, d)`` stack, frozen, written from the tables on the first read.

        As ``analyze`` reads it, grid operator (i, j) holds ``Z[-u, j]`` at
        flat entry ``gather[i, u]`` and zeros elsewhere; it goes in through a
        ``(d, d, d^2)`` view, grid indices swapped where ``transposed``, so it
        lands in label order with no copy.  ``Z[-u]`` equals ``conj(Z)`` but
        keeps +0.0 imaginary parts +0.0, so the stack holds the bits of
        ``operators.displaced_parity``'s kernels (/ d on the frame side).
        Read it through ``dense``, which charges it to the stack budget first.
        """
        d = len(self.rows)
        Z = self.dft[0::2].view(complex)
        ops = np.zeros((d * d, d, d), dtype=complex)
        i, j = np.arange(d)[:, None, None], np.arange(d)[:, None]
        grid = (j, i) if self.transposed else (i, j)
        ops.reshape(d, d, d * d)[grid + (self.gather[:, None],)] = Z[-np.arange(d)].T
        ops.setflags(write=False)
        return ops

    def dense(self, name: str) -> np.ndarray:
        """``stack``, its first read charged to the stack budget as ``name``'s pair: dense readers read both sides."""
        if "stack" not in vars(self):
            d = len(self.rows)
            check_stack_budget(f"{name}({d})", 2 * d * d, d)
        return self.stack

    def checked_skew(self, non_finite: str, non_hermitian: str) -> float:
        """``_checked_skew`` of the stack, measured on ``dft`` alone.

        Operator n holds ``conj(Z[u, j])`` at ``(h + u, h - u)``, j its grid
        column, and zeros elsewhere, so ``F - F^dag`` holds
        ``conj(Z[u, j] - conj(Z[-u, j]))`` there: its largest entry and its
        per-operator norm are those of ``Z - conj(Z[-u])`` and its columns,
        and the stack's squared norm is ``d ||Z||^2``, as each grid column
        holds d operators.
        """
        Z = np.ascontiguousarray(self.dft[0::2]).view(complex)
        d = len(Z)
        sq = d * _square_norm(Z.view(float).reshape(-1), non_finite)
        diff = np.abs(Z - Z[-np.arange(d)].conj())
        norm = math.sqrt(np.maximum.reduce(np.einsum("uj,uj->j", diff, diff)))
        return _hermitian_skew(float(np.maximum.reduce(diff, axis=None)), norm, sq, non_hermitian)

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

    def total(self) -> np.ndarray:
        """``sum_lam F(lam)``, the synthesis of the all-ones values, in O(d^2) and with no ``half_dft`` or ``mirror``.

        As ``analyze`` reads it, operator (i, j) of the grid holds
        ``Z[-u, j]`` at entry ``gather[i, u] = (h + u, h - u)``, so the sum
        over the grid holds the sum of Z's row -u there, for every row i.
        ``synthesize`` would give the same sum, but it would build the frame
        side's tables, which no one-state command reads otherwise.
        """
        d = len(self.rows)
        M = np.zeros(d * d, dtype=complex)
        M[self.gather] = np.add.reduce(self.dft[0::2].view(complex), axis=1)[-np.arange(d)]
        return M.reshape(d, d)

    def traces(self) -> np.ndarray:
        """``Tr F(lam)``, Re Z[0, j] at grid column j: ``analyze(I).real``'s bits, as I[h + u, h - u] = 0 at u != 0."""
        d = len(self.cols)
        Y = self.dft[0, 0::2][None].repeat(d, axis=0)
        return (Y.T if self.transposed else Y).ravel()

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
    """Labeled family of Hermitian operators on C^d, paired with operators through its one ``pairing``.

    A representation's analysis family {F(lam)} and its dual {D(lam)} are
    both frames: the dual of a frame spans the operator space too.  The
    pairing is one factorization of the family's analysis operator: the
    dense ``_Stack`` that ``Frame(labels, operators, name)`` makes of its
    stack (a C-contiguous complex array is frozen in place, anything else
    is converted first), or the ``_LabelMap`` that ``parity_pair`` passes
    in.  The family forwards to it the analysis of one operator,
    ``synthesize``, ``sum``, ``traces`` and ``operators``, which a map
    writes on the first read after ``check_stack_budget`` has charged the
    pair's two stacks.  The family keeps its labels and name, its value
    screens, the analysis of a ``(k, d, d)`` stack on the flat view, and the
    facts it measures once through the pairing, which cannot go stale:
    ``dim``, ``skew`` (the largest entry of ``F - F^dag``),
    ``resolves_identity`` and ``unit_traces``.

    The pairing is a field, so ``dataclasses.replace`` passes it on, and
    pickle and ``copy`` call ``Frame`` on the labels, pairing and name (a
    deep copy shares the read-only pairing): no copy makes a stack.
    """

    dim: int = field(init=False)
    labels: tuple
    pairing: _Stack | _LabelMap = field(repr=False)
    name: str = ""
    skew: float = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.pairing, (_Stack, _LabelMap)):
            object.__setattr__(self, "pairing", _Stack(self.pairing))
        n, d, _ = self.pairing.shape
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dim", d)
        if len(self.labels) != n:
            raise DimensionMismatchError(f"{len(self.labels)} labels for {n} operators")
        object.__setattr__(self, "skew", self.pairing.checked_skew(
            "operators must be finite; the family has a NaN or inf entry", "family contains a non-Hermitian operator"))

    def __reduce__(self):
        # the whole call rides in the callable: deepcopy copies the arguments but not the callable, so a
        # deep copy shares the read-only pairing
        return partial(Frame, self.labels, self.pairing, self.name), ()

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def operators(self) -> np.ndarray:
        """The read-only ``(n, d, d)`` stack, which a label map writes, charged, on the first read."""
        return self.pairing.dense(self.name)

    def sum(self) -> np.ndarray:
        return self.pairing.total()

    def traces(self) -> np.ndarray:
        return self.pairing.traces()

    @cached_property
    def flat(self) -> np.ndarray:
        """Read-only ``(n, d^2)`` view of the stack, one row-major operator per row; no copy."""
        return self.operators.reshape(len(self.labels), self.dim**2)

    def analyze(self, A, kind: str = "operator") -> np.ndarray:
        """Real values ``Tr[A F(lam)]``: ``(n,)`` for one ``(d, d)`` A, ``(k, n)`` for a ``(k, d, d)`` stack.

        One operator is paired by the pairing.  Then one screen,
        ``||Im||^2 <= (EQ_TOL / 2)^2`` with ``||Re||^2`` finite, implies both
        exact rules with room for rounding: every |Im| is within EQ_TOL and
        every value is finite.  Only values that fail it meet the exact rules:
        Im against ``tol_for(A)`` first, then finite real parts.

        A stack is tested by ``_checked_skew``, as a dense family's own stack
        is, and paired by one real GEMM with the flat view on interleaved
        floats: for Hermitian A and F, ``Tr[A F] = sum_ij conj(A_ij) F_ij``,
        the dot product of two rows read as floats, half the work of the
        complex product.
        """
        A = np.asarray(A, dtype=complex)
        d = self.dim
        if A.shape == (d, d):
            raw = self.pairing.analyze(A)
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
        """``sum_lam v(lam) F(lam)`` of real values: ``(d, d)`` for ``(n,)`` values, ``(k, d, d)`` for ``(k, n)``."""
        v = np.asarray(values)
        n = len(self.labels)
        if v.shape != (n,) and (v.ndim != 2 or v.shape[1] != n):
            raise DimensionMismatchError(f"values of shape {v.shape} for {n} operators")
        if v.dtype.kind == "c":
            raise DimensionMismatchError(f"values must be real, got {v.dtype}")
        return self.pairing.synthesize(v)

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
    """The frame ``{K(s, t)/d}`` and its dual ``{K(s, t)}`` over ``labels``, each on its label map.

    The labels are the d^2 points (q, p) of the lattice, row-major, and point
    (q, p) carries ``K(s, t)`` of ``operators.displaced_parity`` at
    ``(s, t) = (aq + bp, cq + ep)`` for the family's ``relabel = ((a, b), (c, e))``:
    ((2, 0), (0, 2)) for Wootters and odd Leonhardt, ((-2, 0), (0, 2)) for
    Cohendet and ((0, 2), (-2, 0)) for Ruzzi.  The map's grid is read off it:
    a diagonal matrix walks grid rows ``s = a u`` and columns ``t = e u``
    (mod d) row by row, an anti-diagonal one rows ``s = b u`` and columns
    ``t = c u`` column by column.  The centred phase point needs odd d and an
    even s-row, and a unit mod d in each nonzero entry makes the d^2 (s, t)
    cells distinct.  The two maps share the one grid and gather and differ
    only in their DFT table's scale, so every table, and the stack each
    writes from them on a read, comes from the one matrix; no stack is made
    here.
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
    u = np.arange(d)
    rows, cols = row * u % d, col * u % d
    gather = _centred_gather(d)[rows]
    dft = tau_powers(d, -2 * u[:, None] * cols)
    frame_map, dual_map = (
        _LabelMap(rows, cols, transposed, gather, _real_form(scaled)) for scaled in (dft / d, dft)
    )
    frame = Frame(labels, frame_map, name)
    return frame, Frame(frame.labels, dual_map, name)


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

