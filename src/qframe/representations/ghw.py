"""Discrete Wigner representation over a Galois field GF(p^n).

Phase space is the lattice GF(p^n) x GF(p^n).  Position coordinates expand
in the polynomial basis, momentum coordinates in its trace-dual basis, and
the point (q, p) carries the translation unitary

    T(q,p) = X^{q_0} Z^{p_0} (x) ... (x) X^{q_{n-1}} Z^{p_{n-1}}.

The translations along a ray (a line through the origin) commute, so each
striation has a joint eigenbasis, and covariance writes it down without a
search.  The vertical striation's rays are diagonal, so its basis is the
standard one.  In every other striation each ray sends |0> to a different
|j> with no phase, so a joint eigenvector is fixed by its eigenvalues,
v[U_t 0] = v[0] / lam_t.  The eigenvalue tuples come from the spectral
projectors of the ray's n generators t = x^i applied to |0>, and every
eigenvalue lies on the grid of 4p^2-th roots of unity, so each basis is
written from its grid steps, exact to round-off, in O(p d^2) per
striation.  A quantum net assigns one eigenvector to the ray and
propagates it to the parallel lines by translation covariance,

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
from ..frames import transform_matrix
from ..geometry import field_lattice
from ..operators import omega, tau_powers
from .base import Representation, check_stack_budget, phase_point_representation
from .wootters import wootters

__all__ = [
    "ghw",
    "wootters_aligned_net",
    "match_phase_points",
]

def _monomials(F: FiniteField, qs, ps, basis=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Permutations and phases of T(q, p) over arrays of codes, on the basis indices ``basis`` (all by default).

    Every T(q, p) is monomial: with j_i the digits of a basis index (tensor
    factor 0 first), q_i the polynomial coordinates of q and p_i the
    dual-basis coordinates of p, it sends |j> to omega^(p.j) |j + q>.  So
    ``T[perm[k, j], j] = phase[k, j]`` for the k-th pair.
    """
    p, n = F.p, F.n
    j = F.coords[basis, ::-1]
    qc = F.coords[np.asarray(qs)][..., None, :]
    pc = F.dual_coords[np.asarray(ps)][..., None, :]
    perm = ((j + qc) % p) @ (p ** np.arange(n - 1, -1, -1))
    phase = omega(p) ** ((j * pc).sum(axis=-1) % p)
    return perm, phase


def _projected_origin(perm: np.ndarray, phase: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """``prod_i sum_r (U_i / lam_i)^r |0>`` for every choice of one eigenvalue lam_i per generator.

    ``perm`` and ``phase`` are the ``(striations, n, d)`` monomial form of
    each striation's n commuting generators U_i (see ``_monomials``), and
    U_i^p = omega^h[s, i].  So U_i's eigenvalues are the p roots
    exp(2 pi i (h + p c)/p^2), and each factor is p times the projector on
    one of them: each of the d rows of a striation's result is
    d conj(v[0]) v for one joint eigenvector v.  Returns ``(striations, d, d)``.
    """
    S, n, d = perm.shape
    r = np.arange(p)
    # lam^-r for each generator, root c (axis -2) and power r (axis -1)
    inverse_powers = omega(p * p) ** (-r * (h[..., None, None] + p * r[:, None]))
    s = np.arange(S)[:, None, None]
    W = np.zeros((S, 1, d), dtype=complex)
    W[:, 0, 0] = 1.0
    for i in range(n):
        power, acc = W, 0
        for k in range(p):
            acc = acc + inverse_powers[:, i, :, k, None, None] * power[:, None]
            # U sends entry j of each row to entry perm[j], times phase[j]
            power, moved = np.empty_like(power), power * phase[:, None, i]
            power[s, np.arange(power.shape[1])[:, None], perm[:, None, i]] = moved
        W = acc.reshape(S, -1, d)
    return W


def _striation_bases(F: FiniteField, directions) -> np.ndarray:
    """The ``(d + 1, d, d)`` stack of the striations' joint eigenbases, written down from covariance.

    The rays of a striation are U_t = T(t dq, t dp), t in GF(d)*.  Where
    dq = 0 they are diagonal and the basis is the standard one.  Elsewhere
    each j != 0 is U_t 0 for one t, with no phase, so U_t v = lam_t v gives
    v[U_t 0] = v[0] / lam_t, and lam_t = w[0] / w[U_t 0] is read off
    ``_projected_origin``.  Columns are sorted by the tuple of eigenvalue
    steps on the 4p^2-root grid in ray order, with v[0] real positive.
    """
    p, n, d = F.p, F.n, F.order
    dq, dp = np.array(directions).T[..., None]
    Q, P = F.mul(np.arange(1, d), dq), F.mul(np.arange(1, d), dp)
    diag = dq[:, 0] == 0
    shifts = (~diag).nonzero()[0]
    # lam[s, t - 1, k]: the eigenvalue of the k-th joint eigenvector under U_t
    lam = np.empty((len(dq), d - 1, d), dtype=complex)
    lam[diag] = _monomials(F, Q[diag], P[diag])[1]
    to = _monomials(F, Q[shifts], P[shifts], basis=[0])[0][..., 0]
    # the generators t = x^i; as a power of X^a Z^b, T(q, p)^p = omega^(p(p - 1)/2 q.p)
    gq, gp = Q[shifts][:, p ** np.arange(n) - 1], P[shifts][:, p ** np.arange(n) - 1]
    h = (p * (p - 1) // 2) * (F.coords[gq] * F.dual_coords[gp]).sum(axis=-1) % p
    w = _projected_origin(*_monomials(F, gq, gp), h, p)
    at_to = w[np.arange(len(shifts))[:, None, None], np.arange(d)[:, None], to[:, None, :]]
    lam[shifts] = (w[..., :1] / at_to).transpose(0, 2, 1)
    # eigenvalue phases, quantized to the admissible root-of-unity grid
    quantum = 2 * np.pi / (4 * p * p)
    angles = np.arctan2(lam.imag, lam.real)
    steps = np.rint(angles / quantum)
    if (np.abs(angles - steps * quantum) > 1e-6).any():
        raise RuntimeError("eigenvalue phase off the root-of-unity grid")
    keys = steps.astype(np.int64) % (4 * p * p)
    order = np.lexsort(keys.transpose(1, 0, 2)[::-1], axis=-1)
    bases = np.zeros((len(dq), d, d), dtype=complex)
    bases[diag.nonzero()[0][:, None], order[diag], np.arange(d)] = 1.0
    bases[shifts, 0] = d**-0.5
    keys = keys[shifts[:, None, None], np.arange(d - 1)[:, None], order[shifts, None, :]]
    bases[shifts[:, None], to] = d**-0.5 * tau_powers(2 * p * p, -keys)
    return bases


def _build_structure(field: FiniteField):
    """Geometry and the ``(d + 1, d, d)`` stack of the striations' joint eigenbases."""
    geom = field_lattice(field)
    return geom, _striation_bases(field, geom.meta["directions"])


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
    rays = woo.frame.operators[woo.geometry.line_index[:, 0]].sum(axis=1)  # the p + 1 lines through the origin
    _, bases = _build_structure(FiniteField(p, 1))
    overlaps = np.einsum("sjt,sjk,skt->st", bases.conj(), rays, bases).real
    net = overlaps.argmax(axis=1)
    missed = np.flatnonzero(overlaps[np.arange(p + 1), net] < 1 - 1e-8)
    if missed.size:
        raise RuntimeError(f"no eigenvector matches the striation-{missed[0]} ray projector")
    return tuple(net.tolist())


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
