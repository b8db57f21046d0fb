"""Core operator constructions on C^d.

Generalized Pauli (Weyl-Heisenberg) operators, the finite Fourier transform,
tensor-product plumbing and seeded random draws, whose complex Gaussians
are all laid out as ``_gaussian_pairs`` draws them: each sample's real
parts, then its imaginary parts.

Conventions
-----------
* ``omega = exp(2j*pi/d)`` and the clock operator is ``Z = diag(omega**k)``.
* The shift operator acts as ``X |k> = |k+1 mod d>``.
* ``Y`` is defined through the commutator ``[X, Z] = 2i Y``; for d = 2 this
  gives ``-SIGMA[1]``, the negative of the common sigma_y convention.  The
  exact qubit Pauli matrices ``SIGMA`` are the ones every qubit construction uses.
* The parity operator acts as ``P |k> = |-k mod d>``.
* Half-integer powers ``omega**(m/2)`` mean ``omega**(m * inv2)`` with
  ``inv2 = (d+1)//2`` when d is odd, and ``tau**m`` with the primitive 2d-th
  root ``tau = exp(1j*pi/d)`` when d is even.

Every CLI command runs in a fresh process, where the first call of each
numpy entry point is paid cold, and numpy's Python-level wrappers cost far
more on that first call than the C-level method, ufunc reduction or
``math`` function they forward to, which returns the same bits.  So on the
paths of the commands ``perfbench/cli_session.py`` times, the library
writes the C-level form, computed the same way: ``x.trace``,
``x.swapaxes``, ``x.diagonal``, ``x.argsort()`` and ``x.nonzero()``;
``np.maximum.reduce``, ``np.minimum.reduce``, ``np.add.reduce`` and
``np.logical_and.reduce`` for ``max``, ``min``, ``sum`` and ``all``;
``_norm`` for ``np.linalg.norm``; ``math.prod`` for a shape; an in-place
update of the diagonal for ``- np.eye(d)``; broadcasting for ``np.outer``
and, in ``tensor``, for ``np.kron``; and a preallocated buffer for
``np.stack``, ``np.concatenate``, ``np.split`` and ``np.hstack``.  Code
those commands do not run, such as the SIC search or the geometry's axiom
checks, may keep the plainer wrapper forms, whose cost nothing measures.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.random

from .errors import DimensionMismatchError

__all__ = [
    "EQ_TOL",
    "tol_for",
    "omega",
    "SIGMA",
    "parity_matrix",
    "tau_powers",
    "monomial_stack",
    "displaced_parity",
    "weyl_monomials",
    "finite_fourier",
    "tensor",
    "partial_trace",
    "partial_transpose",
    "trace_inner",
    "frobenius",
    "is_hermitian",
    "is_density",
    "is_effect",
    "is_povm",
    "basis_state",
    "maximally_mixed",
    "bloch_state",
    "random_unitary",
    "random_pure_state",
    "random_state",
    "random_effect",
]

# Base tolerance for operator equality checks; scaled by Frobenius norm.
EQ_TOL = 1e-9


def _norm(A, axis=None, keepdims: bool = False):
    """Frobenius norm of an array of any shape, by ``np.linalg.norm``'s own formula.

    With no axis, ``sqrt(re . re + im . im)`` on the flattened array
    (``sqrt(x . x)`` for a real one), as a float; along an axis or a pair of
    axes, ``sqrt`` of ``add.reduce`` of ``(conj(x) x).real`` over them.  So
    the bits are those of ``np.linalg.norm`` with the same ``axis`` and
    ``keepdims``.
    """
    x = np.asarray(A)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    if axis is not None:
        return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis, keepdims=keepdims))
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def tol_for(*mats: np.ndarray) -> float:
    """Equality tolerance scaled by the largest Frobenius norm involved."""
    scale = max([1.0] + [_norm(m) for m in mats])
    return EQ_TOL * scale


def omega(d: int) -> complex:
    """Primitive d-th root of unity."""
    return np.exp(2j * np.pi / d)


# sigma_x, sigma_y, sigma_z
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def parity_matrix(d: int) -> np.ndarray:
    """Parity operator with ``P |k> = |-k mod d>``, the displaced parity K(0, 0)."""
    return displaced_parity(d, 0, 0)[0]


def tau_powers(d: int, exps) -> np.ndarray:
    """``tau**exps`` elementwise, exponents taken mod 2d.

    The table of 2d roots is conjugate-symmetric bit for bit (tau**d is
    exactly -1), so monomials built from it are exactly Hermitian where
    their exponents say so.
    """
    roots = np.exp(1j * np.pi * np.arange(2 * d) / d)
    roots[d] = -1.0
    roots[d + 1:] = roots[1:d][::-1].conj()
    return roots[np.asarray(exps) % (2 * d)]


def monomial_stack(rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The ``(k, d, d)`` matrices with ``M[i, rows[i, c], c] = phases[i, c]``, zero elsewhere."""
    k, d = rows.shape
    M = np.zeros((k, d, d), dtype=complex)
    M[np.arange(k)[:, None], rows, np.arange(d)] = phases
    return M


def displaced_parity(d: int, s, t) -> np.ndarray:
    """The displaced parity monomials K(s, t) for arrays of integer labels.

    ``K(s, t)[(s - c) mod d, c] = tau**(t (s - 2c))``, i.e. the word
    ``tau**(s t) X^s Z^t P``.  The odd-lattice phase-point operators of the
    Wootters, Cohendet, Leonhardt and Ruzzi constructions are all K under a
    relabeling of (q, p), and Leonhardt's even-d operators are K(q, p)/(2d).
    Returns the ``(len(s), d, d)`` stack.
    """
    s = np.asarray(s, dtype=np.int64).reshape(-1, 1)
    t = np.asarray(t, dtype=np.int64).reshape(-1, 1)
    c = np.arange(d)
    return monomial_stack((s - c) % d, tau_powers(d, t * (s - 2 * c)))


def weyl_monomials(d: int, p, q) -> np.ndarray:
    """The Weyl operators ``U_(p,q) = omega**(pq/2) X^p Z^q`` for arrays of labels, by index arithmetic.

    U_(p,q) sends |c> to omega**(pq/2 + qc) |c + p>: a monomial whose phase
    is tau**(2qc) times omega**(pq/2), which is tau**(pq (d+1)) for odd d
    and tau**(pq) for even d.
    Returns the ``(len(p), d, d)`` stack.
    """
    p = np.asarray(p, dtype=np.int64).reshape(-1, 1)
    q = np.asarray(q, dtype=np.int64).reshape(-1, 1)
    c = np.arange(d)
    half = p * q * (d + 1 if d % 2 else 1)
    return monomial_stack((c + p) % d, tau_powers(d, half + 2 * q * c))


def finite_fourier(d: int) -> np.ndarray:
    """Finite Fourier transform ``F_{k'k} = omega**(k k')/sqrt(d)``.

    Conjugates the shift into the clock, ``F X F^dag = Z``, and squares to
    the parity operator.
    """
    k = np.arange(d)
    return omega(d) ** (k[:, None] * k) / np.sqrt(d)


def _gauge(vecs: np.ndarray) -> np.ndarray:
    """Columns of a ``(..., d, d)`` stack rephased so each one's first entry of modulus above 1e-12 is real positive."""
    first = np.argmax(np.abs(vecs) > 1e-12, axis=-2)
    pivot = np.take_along_axis(vecs, first[..., None, :], axis=-2)
    return vecs / (pivot / np.abs(pivot))


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, in the given order.

    Equal-rank ``(k_i, d_i, d_i)`` stacks give the stack of every product, the first factor's index major.
    Each factor is one broadcast product with the two factors' axes
    interleaved, the lower rank's shape led by ones, as ``np.kron`` lays them
    out, so every entry is the same one product.
    """
    if not ops:
        raise ValueError("need at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        op = np.asarray(op, dtype=complex)
        rank = max(out.ndim, op.ndim)
        sa, sb = (1,) * (rank - out.ndim) + out.shape, (1,) * (rank - op.ndim) + op.shape
        a = out.reshape([n for size in sa for n in (size, 1)])
        b = op.reshape([n for size in sb for n in (1, size)])
        out = (a * b).reshape([m * n for m, n in zip(sa, sb)])
    return out


def _check_dims(M: np.ndarray, dims: tuple[int, ...], lead: tuple[int, ...] = ()) -> None:
    total = math.prod(dims)
    if M.shape != lead + (total, total):
        raise DimensionMismatchError(
            f"matrix of shape {M.shape} does not match subsystem dims {dims}"
        )


def partial_trace(M: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep`` (indices into dims)."""
    M = np.asarray(M, dtype=complex)
    dims = tuple(int(x) for x in dims)
    _check_dims(M, dims)
    n = len(dims)
    keep = tuple(sorted(keep))
    T = M.reshape(dims + dims)
    # Trace pairs (axis i, axis n+i) for every discarded subsystem, highest first
    # so earlier axis numbers stay valid.
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        T = T.trace(axis1=i, axis2=T.ndim // 2 + i)
    dkeep = math.prod([dims[i] for i in keep])
    return T.reshape(dkeep, dkeep)


def partial_transpose(M: np.ndarray, dims: tuple[int, ...], subsystem: int) -> np.ndarray:
    """Transpose one tensor factor of a bipartite-or-more operator, or of each operator in a ``(k, D, D)`` stack."""
    M = np.asarray(M, dtype=complex)
    dims = tuple(int(x) for x in dims)
    lead = M.shape[:1] if M.ndim == 3 else ()
    _check_dims(M, dims, lead)
    n = len(dims)
    if not 0 <= subsystem < n:
        raise DimensionMismatchError(f"subsystem {subsystem} out of range for {n} factors")
    T = M.reshape(lead + dims + dims)
    T = T.swapaxes(len(lead) + subsystem, len(lead) + n + subsystem)
    return T.reshape(M.shape)


def trace_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Trace inner product ``Tr(A B)`` of two Hermitian operators, as a real."""
    return float((np.asarray(A) @ np.asarray(B)).trace().real)


def frobenius(A: np.ndarray) -> float:
    return _norm(A)


def is_hermitian(A: np.ndarray, tol: float | None = None) -> bool:
    A = np.asarray(A)
    if tol is None:
        tol = tol_for(A)
    return bool(_norm(A - A.conj().T) <= tol)


def is_density(rho: np.ndarray, tol: float | None = None) -> bool:
    """Hermitian, unit trace, positive semidefinite (within tolerance)."""
    rho = np.asarray(rho)
    if tol is None:
        tol = tol_for(rho)
    if not is_hermitian(rho, tol):
        return False
    if abs(rho.trace().real - 1.0) > tol:
        return False
    vals = np.linalg.eigvalsh(rho)
    return bool(vals[0] >= -tol)


def is_effect(E: np.ndarray, tol: float | None = None) -> bool:
    """Hermitian with spectrum inside [0, 1] (within tolerance)."""
    E = np.asarray(E)
    if tol is None:
        tol = tol_for(E)
    if not is_hermitian(E, tol):
        return False
    vals = np.linalg.eigvalsh(E)
    return bool(vals[0] >= -tol and vals[-1] <= 1.0 + tol)


def is_povm(effects: list[np.ndarray] | tuple[np.ndarray, ...], tol: float | None = None) -> bool:
    """All elements are effects and they resolve the identity."""
    if not len(effects):
        return False
    d = np.asarray(effects[0]).shape[0]
    total = np.zeros((d, d), dtype=complex)
    for E in effects:
        if not is_effect(E, tol):
            return False
        total = total + np.asarray(E)
    if tol is None:
        tol = tol_for(total)
    return bool(_norm(total - np.eye(d)) <= tol)


def basis_state(d: int, k: int) -> np.ndarray:
    """Projector onto the computational basis vector |k>."""
    v = np.zeros(d, dtype=complex)
    v[k % d] = 1.0
    return v[:, None] * v.conj()


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    """Qubit state with the given Bloch vector.

    Uses ``SIGMA`` (sigma_y = [[0,-i],[i,0]]), not the commutator-defined Y
    of this module, so published Bloch coordinates can be pasted in directly.
    """
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA[0] + y * SIGMA[1] + z * SIGMA[2])


def _haar_from_gaussian(A: np.ndarray) -> np.ndarray:
    """Q of A = QR with the standard phase fix; Haar when A is complex Gaussian.

    A may be a stack ``(..., d, d)``: the QR and the phase fix run per matrix.
    """
    Q, R = np.linalg.qr(A)
    diag = R.diagonal(axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag)).conj()[..., None, :]


def _density_from_gaussian(G: np.ndarray) -> np.ndarray:
    """``G G^dag`` at unit trace, scaled in place; G may be a stack ``(..., d, r)``."""
    rho = G @ G.swapaxes(-1, -2).conj()
    rho /= rho.trace(axis1=-2, axis2=-1).real[..., None, None]
    return rho


def _rotated_diagonal(U: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``U diag(vals) U^dag``; U ``(..., d, d)`` and vals ``(..., d)`` may be stacks."""
    return (U * vals[..., None, :]) @ U.swapaxes(-1, -2).conj()


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    G = _gaussian_pairs(rng, 1, d, d)[0]
    return _haar_from_gaussian(G[0] + 1j * G[1])


def random_pure_state(d: int, seed: int | np.random.Generator) -> np.ndarray:
    """Normalized complex-Gaussian state vector."""
    G = _gaussian_pairs(np.random.default_rng(seed), 1, d, 1)[0, :, :, 0]
    v = G[0] + 1j * G[1]
    return v / _norm(v)


def random_state(d: int, rank: int | None = None, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Random density operator of the given rank.

    A pure state on C^d tensor C^rank is drawn from normalized complex
    Gaussians and the ancilla is traced out; rank defaults to d.
    """
    r = d if rank is None else int(rank)
    if not 1 <= r:
        raise ValueError(f"rank must be >= 1, got {r}")
    return _random_states(d, 1, np.random.default_rng(seed), r)[0]


def random_effect(d: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Random effect: Haar-rotated diagonal with entries uniform in [0, 1]."""
    return _random_effects(d, 1, np.random.default_rng(seed))[0]


def _random_states(d: int, k: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """k consecutive ``random_state(d, rank, seed=rng)`` draws, as one ``(k, d, d)`` stack.

    Their Gaussians are one ``_gaussian_pairs`` call.
    """
    G = _gaussian_pairs(rng, k, d, d if rank is None else rank)
    return _density_from_gaussian(G[:, 0] + 1j * G[:, 1])


def _gaussian_pairs(rng: np.random.Generator, k: int, d: int, rank: int) -> np.ndarray:
    """k samples' ``(k, 2, d, rank)`` Gaussians in one call: each sample's real parts, then its imaginary parts."""
    return rng.standard_normal((k, 2, d, rank))


def _seeded_states(d: int, draws) -> np.ndarray:
    """``random_state(d, rank=r, seed=s)`` for each ``(s, r)`` of draws, as one ``(len(draws), d, d)`` stack.

    Each sample's Gaussians come from its own ``default_rng(s)`` by the same
    ``_gaussian_pairs`` call and go straight into the interleaved floats of
    one complex buffer; zero-padded to d columns they leave every bit of
    ``G G^dag`` as it is, so one ``_density_from_gaussian`` forms every state.
    """
    G = np.zeros((len(draws), d, d, 2))
    for k, (s, r) in enumerate(draws):
        G[k, :, :r] = _gaussian_pairs(np.random.default_rng(s), 1, d, r)[0].transpose(1, 2, 0)
    return _density_from_gaussian(G.view(complex)[..., 0])


def _random_effects(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k consecutive ``random_effect(d, seed=rng)`` draws, as one ``(k, d, d)`` stack.

    Each sample takes its Gaussians and then its uniforms (``uniform(0, 1)``
    is ``random()`` bit for bit) from the one generator; the QR and the
    rotations run over the stack.
    """
    G = np.empty((k, 2, d, d))
    vals = np.empty((k, d))
    for gauss, uniform in zip(G, vals):
        rng.standard_normal(out=gauss)  # the real parts, then the imaginary
        rng.random(out=uniform)
    return _rotated_diagonal(_haar_from_gaussian(G[:, 0] + 1j * G[:, 1]), vals)
