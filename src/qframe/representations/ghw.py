"""Discrete Wigner representation over a Galois field GF(p^n).

Phase space is the lattice GF(p^n) x GF(p^n).  Position coordinates expand
in the polynomial basis, momentum coordinates in its trace-dual basis, and
the point (q, p) carries the translation unitary

    T(q,p) = X^{q_0} Z^{p_0} (x) ... (x) X^{q_{n-1}} Z^{p_{n-1}}.

It is monomial: with j_i the digits of a basis index (tensor factor 0
first), it sends |j> to omega^(p.j) |j + q>, so the build reads each
translation off the field's digit tables, and the tests' oracle
``gf_oracle._monomials`` writes T(q, p) as that permutation and its phases.

The translations along a ray (a line through the origin) commute, so each
striation has a joint eigenbasis, and covariance writes it down without a
search.  The vertical striation's rays are diagonal, so its basis is the
standard one.  In every other striation each ray sends |0> to a different
|j> with no phase, so a joint eigenvector is fixed by its eigenvalues,
v[U_t 0] = v[0] / lam_t.  The eigenvalues are integer exponents of
roots of unity, read off the field's trace pairing: the ray's n
generators U_i = U_(x^i) satisfy U_i^p = omega^(h_i), so an eigenvector
picks one p-th root of omega^(h_i) for each, and for t = sum r_i x^i,
prod U_i^(r_i) = omega^(e(r)) U_t.  Each basis is written from those
steps on the grid of 4p^2-th roots of unity, with no projection and no
rounding, in O(d^2) integer operations and one sort per striation.  A
quantum net assigns one eigenvector to the ray and propagates it to the
parallel lines by translation covariance,

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
from ..frames import check_stack_budget, transform_matrix
from ..geometry import field_lattice
from ..operators import omega, tau_powers
from .base import Representation, phase_point_representation
from .wootters import wootters

__all__ = [
    "ghw",
    "wootters_aligned_net",
    "match_phase_points",
]

MATCH_TOL = 1e-10

def _striation_bases(F: FiniteField, directions) -> np.ndarray:
    """The ``(d + 1, d, d)`` stack of the striations' joint eigenbases, written down from integer exponents.

    The rays of a striation are U_t = T(t dq, t dp), t in GF(d)*, and
    ``keys[s, t - 1, k]`` is the step of eigenvector k's eigenvalue under
    U_t on the grid of 4p^2-th roots of unity.  Where dq = 0 the rays are
    diagonal, the basis is the standard one, and |j>'s step is
    4p <t dp, j> mod 4p^2.  Elsewhere let T[i, j] = <x^i dp, x^j dq> mod p.
    The generators U_i = U_(x^i) satisfy U_i^p = omega^(h_i) with
    h_i = p(p - 1)/2 T[i, i], and eigenvector k takes U_i's root
    exp(2 pi i (h_i + p c_i)/p^2), c = coords[k].  For t = sum r_i x^i,
    prod U_i^(r_i) = omega^(e(r)) U_t with e(r) = (r T r - r . diag T)/2,
    so U_t's step is 4 sum r_i (h_i + p c_i) - 4p e(r) mod 4p^2.  Each
    j != 0 is U_t 0 for one t, with no phase, so U_t v = lam_t v gives
    v[U_t 0] = v[0] / lam_t.  Columns are sorted by the tuple of steps in
    ray order, with v[0] real positive.
    """
    p, n, d = F.p, F.n, F.order
    dq, dp = np.array(directions).T[..., None]
    Q, P = F.mul(np.arange(1, d), dq), F.mul(np.arange(1, d), dp)
    r = F.coords[1:]
    diag = dq[:, 0] == 0
    shifts = (~diag).nonzero()[0]
    # keys[s, t - 1, k]: the step of the k-th joint eigenvector's eigenvalue under U_t
    keys = np.empty((len(dq), d - 1, d), dtype=np.int64)
    keys[diag] = 4 * p * (F.dual_coords[P[diag]] @ F.coords[:, ::-1].T % p)
    gens = p ** np.arange(n) - 1  # column t - 1 of Q and P for t = x^i
    T = F.dual_coords[P[shifts][:, gens]] @ F.coords[Q[shifts][:, gens]].transpose(0, 2, 1) % p
    diag_T = T.diagonal(axis1=1, axis2=2)
    h = (p * (p - 1) // 2) * diag_T % p
    e = (np.add.reduce((r @ T) * r, axis=-1) - diag_T @ r.T) // 2
    keys[shifts] = (4 * (h @ r.T - p * e)[..., None] + 4 * p * (r @ F.coords.T)) % (4 * p * p)
    order = np.lexsort(keys.transpose(1, 0, 2)[::-1], axis=-1)
    bases = np.zeros((len(dq), d, d), dtype=complex)
    bases[diag.nonzero()[0][:, None], order[diag], np.arange(d)] = 1.0
    bases[shifts, 0] = d**-0.5
    # U_t |0> = |t dq>, its index the digit reversal of t dq
    to = F.coords[Q[shifts]] @ p ** np.arange(n - 1, -1, -1)
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
    check_stack_budget(f"ghw({p}, {n})", 3 * d * d, d)
    if net is None:
        net = (0,) * (d + 1)
    net = tuple(int(t) % d for t in net)
    if len(net) != d + 1:
        raise UnsupportedDimensionError(f"a net needs {d + 1} shifts, got {len(net)}")
    geom, bases = _build_structure(F)

    # A(0): the net vectors of the d + 1 rays through the origin, minus the identity
    v = bases[np.arange(d + 1), :, net].T
    A0 = v @ v.conj().T
    A0.reshape(-1)[::d + 1] -= 1.0
    # j[k]: the digits of basis index k, tensor factor 0 first
    j = F.coords[:, ::-1]
    # A(q, p) = X^q B_p X^-q with B_p = Z^p A(0) Z^-p, made exactly Hermitian; Z^p is diag(z[p])
    z = omega(p) ** (F.dual_coords @ j.T % p)
    B = z[:, :, None] * A0 * z.conj()[:, None, :]
    B = (B + B.conj().transpose(0, 2, 1)) / 2
    # X^q sends |k> to |k + q>, so A(q, p)[j, k] = B_p[back[q, j], back[q, k]] with back[q, k] the index
    # of k - q; point (q, p) is row q d + p
    back = (j - F.coords[:, None, :]) % p @ p ** np.arange(n - 1, -1, -1)
    codes = np.arange(d)
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


def match_phase_points(rep_a: Representation, rep_b: Representation) -> dict | None:
    """Point bijection with equal dual operators, or None if there is none.

    Matches each phase-point operator of ``rep_a`` to the unique operator of
    ``rep_b`` at maximal trace overlap and verifies equality to within ``MATCH_TOL``.
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
        if j in used or np.max(np.abs(A[i] - B[j])) > MATCH_TOL:
            return None
        used.add(j)
        mapping[la] = rep_b.labels[j]
    return mapping
