"""Discrete Wigner representation over a Galois field GF(p^n).

Phase space is the lattice GF(p^n) x GF(p^n).  Position coordinates expand
in the polynomial basis, momentum coordinates in its trace-dual basis, and
the point (q, p) carries the translation unitary

    T(q,p) = X^{q_0} Z^{p_0} (x) ... (x) X^{q_{n-1}} Z^{p_{n-1}}.

The translations along a ray (a line through the origin) commute, so each
striation has a joint eigenbasis.  The d + 1 bases are found in one pass
over a ``(striations, d - 1, d, d)`` batch of the ray translations: one
batched combination, ``eigh``, eigen-check, phase sort and gauge fix, in
cache-sized blocks of striations at large d.  A quantum net assigns one
eigenvector to the ray and propagates it to the parallel lines by
translation covariance,

    Q(tau_alpha lam) = T_alpha Q(lam) T_alpha^dag.

The phase-point operator of the origin is the sum of the projectors of the
d+1 rays, minus the identity, A(0) = sum_s v_s v_s^dag - 1, and covariance
moves it to every point,

    A(alpha) = T_alpha A(0) T_alpha^dag,

which is the sum over the d+1 lines through alpha of Q(line), minus the
identity.  The frame is {A/d} with dual {A}.  The net
freedom (one choice of eigenvector per striation) is exposed as a tuple of
shifts; the default picks the first eigenvector in a deterministic
eigenvalue-phase ordering.
"""

from __future__ import annotations

import numpy as np

from ..errors import UnsupportedDimensionError
from ..finitefield import FiniteField
from ..frames import _row_blocks, transform_matrix
from ..geometry import field_lattice
from ..operators import _gauge, monomial_stack, omega
from .base import Representation, check_stack_budget, phase_point_representation, striation_pvms
from .wootters import wootters

__all__ = [
    "ghw",
    "wootters_aligned_net",
    "match_phase_points",
]

def _monomials(F: FiniteField, qs, ps) -> tuple[np.ndarray, np.ndarray]:
    """Permutations and phases of T(q, p) over arrays of codes.

    Every T(q, p) is monomial: with j_i the digits of a basis index (tensor
    factor 0 first), q_i the polynomial coordinates of q and p_i the
    dual-basis coordinates of p, it sends |j> to omega^(p.j) |j + q>.  So
    ``T[perm[k, j], j] = phase[k, j]`` for the k-th pair.
    """
    p, n = F.p, F.n
    j = F.coords[:, ::-1]
    qc = F.coords[np.asarray(qs)][..., None, :]
    pc = F.dual_coords[np.asarray(ps)][..., None, :]
    perm = ((j + qc) % p) @ (p ** np.arange(n - 1, -1, -1))
    phase = omega(p) ** ((j * pc).sum(axis=-1) % p)
    return perm, phase


def _joint_eigenbases(perm: np.ndarray, phase: np.ndarray, p: int) -> np.ndarray:
    """Common eigenvectors of every striation's ray translations, deterministically ordered.

    ``perm`` and ``phase`` are the ``(striations, d - 1, d)`` monomial form of
    the translations (see ``_monomials``).  Each striation's unitaries U_k
    commute, so one generic Hermitian combination M + M^dag, M = sum_k a_k U_k,
    has their joint eigenvectors; every striation is diagonalized, checked
    and sorted in one pass over a block of striations, and only the
    striations whose check fails are tried again with other weights.
    Columns are sorted by the tuple of eigenvalue phases against the
    operator order and gauge-fixed (first sizable component real positive).
    Returns the ``(striations, d, d)`` stack of bases.
    """
    S, m, d = perm.shape
    k = np.arange(m)
    quantum = 2 * np.pi / (4 * p * p)
    out = np.empty((S, d, d), dtype=complex)
    for rows in _row_blocks(S, m * d * d):
        todo = np.arange(S)[rows]
        ops = monomial_stack(perm[rows].reshape(-1, d), phase[rows].reshape(-1, d)).reshape(-1, m, d, d)
        for attempt in range(4):
            a = (1.0 + 0.37 * k) * np.exp(1j * (0.618034 * (k + 1) + 0.311 * attempt))
            # one vector-matrix product per striation, the arithmetic of a single striation's tensordot
            M = (a @ ops.reshape(len(ops), m, d * d)).reshape(-1, d, d)
            # the gauge is fixed here and again after the sort, which keeps the bases of the
            # one-striation-at-a-time build to the bit
            vecs = _gauge(np.linalg.eigh(M + M.conj().transpose(0, 2, 1))[1])
            Uv = ops @ vecs[:, None]
            lam = np.einsum("sji,skji->ski", vecs.conj(), Uv)
            split = np.linalg.norm(Uv - lam[..., None, :] * vecs[:, None], axis=-2).max(axis=(1, 2)) <= 1e-8
            # eigenvalue phases, quantized to the admissible root-of-unity grid
            angles = np.angle(lam[split]) % (2 * np.pi)
            steps = np.round(angles / quantum)
            if np.any(np.abs(angles - steps * quantum) > 1e-6):
                raise RuntimeError("eigenvalue phase off the root-of-unity grid")
            keys = steps.astype(np.int64) % (4 * p * p)
            order = np.lexsort(keys.transpose(1, 0, 2)[::-1], axis=-1)
            out[todo[split]] = _gauge(np.take_along_axis(vecs[split], order[:, None, :], axis=-1))
            todo, ops = todo[~split], ops[~split]
            if not todo.size:
                break
        else:
            raise RuntimeError("failed to split a degenerate commuting family")
    return out


def _build_structure(field: FiniteField):
    """Geometry and the ``(d + 1, d, d)`` stack of the striations' joint eigenbases."""
    F = field
    geom = field_lattice(F)
    t = np.arange(1, F.order)
    dq, dp = np.array(geom.meta["directions"]).T[..., None]
    return geom, _joint_eigenbases(*_monomials(F, F.mul(t, dq), F.mul(t, dp)), F.p)


def ghw(p: int, n: int = 1, net: tuple[int, ...] | None = None) -> Representation:
    """Finite-field Wigner representation in dimension d = p^n."""
    F = FiniteField(p, n)
    d = F.order
    # the frame and the dual, and room for what overlaps them: the frames' checks, B below and,
    # under d = 16, the fixed-size tables
    check_stack_budget(f"ghw({p}, {n})", d * d, d, stacks=3)
    if net is None:
        net = (0,) * (d + 1)
    net = tuple(int(t) % d for t in net)
    if len(net) != d + 1:
        raise UnsupportedDimensionError(f"a net needs {d + 1} shifts, got {len(net)}")
    geom, bases = _build_structure(F)

    # A(0): the net vectors of the d + 1 rays through the origin, minus the identity
    v = bases[np.arange(d + 1), :, net].T
    codes, zeros = np.arange(d), np.zeros(d, dtype=np.int64)
    A0 = v @ v.conj().T - np.eye(d)
    # A(q, p) = X^q B_p X^-q with B_p = Z^p A(0) Z^-p, made exactly Hermitian
    _, z = _monomials(F, zeros, codes)
    B = z[:, :, None] * A0 * z.conj()[:, None, :]
    B = (B + B.conj().transpose(0, 2, 1)) / 2
    # X^q sends |j> to |j + q>, so A(q, p)[j, k] = B_p[j - q, k - q]; point (q, p) is row q d + p
    back = _monomials(F, codes, zeros)[0].argsort(axis=1)
    ops = B[codes[:, None, None], back[:, None, :, None], back[:, None, None, :]]

    return phase_point_representation("ghw", geom, ops.reshape(d * d, d, d), {
        "field": F,
        "net": net,
        "striation_bases": bases,
    })


def wootters_aligned_net(p: int) -> tuple[int, ...]:
    """Net shifts making the GF(p) construction coincide with the prime-lattice one.

    For each striation the eigenvector matching the prime-lattice projector
    of the line through the origin is selected.
    """
    woo = wootters(p)
    pvms = striation_pvms(woo)
    F = FiniteField(p, 1)
    _, bases = _build_structure(F)
    net = []
    for s, basis in enumerate(bases):
        target = pvms[s][0]
        overlaps = [np.real(np.vdot(basis[:, t], target @ basis[:, t])) for t in range(p)]
        best = int(np.argmax(overlaps))
        if overlaps[best] < 1 - 1e-8:
            raise RuntimeError(f"no eigenvector matches the striation-{s} ray projector")
        net.append(best)
    return tuple(net)


def match_phase_points(rep_a: Representation, rep_b: Representation,
                       tol: float = 1e-10) -> dict | None:
    """Point bijection with equal dual operators, or None if there is none.

    Matches each phase-point operator of ``rep_a`` to the unique operator of
    ``rep_b`` at maximal trace overlap and verifies exact equality.
    """
    if rep_a.dim != rep_b.dim:
        return None
    d = rep_a.dim
    A, B = rep_a.dual.operators, rep_b.dual.operators
    overlap = transform_matrix(rep_a.dual, rep_b.dual) / d
    mapping = {}
    used = set()
    for i, la in enumerate(rep_a.labels):
        j = int(np.argmax(overlap[i]))
        if j in used or np.max(np.abs(A[i] - B[j])) > tol:
            return None
        used.add(j)
        mapping[la] = rep_b.labels[j]
    return mapping
