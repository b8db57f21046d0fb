"""Core operator constructions on C^d.

Generalized Pauli (Weyl-Heisenberg) operators, the finite Fourier transform,
tensor-product plumbing and seeded random states/effects.

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
"""

from __future__ import annotations

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


def tol_for(*mats: np.ndarray) -> float:
    """Equality tolerance scaled by the largest Frobenius norm involved."""
    scale = max([1.0] + [float(np.linalg.norm(m)) for m in mats])
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
    return omega(d) ** np.outer(k, k) / np.sqrt(d)


def _gauge(vecs: np.ndarray) -> np.ndarray:
    """Columns of a ``(..., d, d)`` stack rephased so each one's first entry of modulus above 1e-12 is real positive."""
    first = np.argmax(np.abs(vecs) > 1e-12, axis=-2)
    pivot = np.take_along_axis(vecs, first[..., None, :], axis=-2)
    return vecs / (pivot / np.abs(pivot))


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, in the given order.

    Equal-rank ``(k_i, d_i, d_i)`` stacks give the stack of every product, the first factor's index major.
    """
    if not ops:
        raise ValueError("need at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _check_dims(M: np.ndarray, dims: tuple[int, ...], lead: tuple[int, ...] = ()) -> None:
    total = int(np.prod(dims))
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
        T = np.trace(T, axis1=i, axis2=T.ndim // 2 + i)
    dkeep = int(np.prod([dims[i] for i in keep])) if keep else 1
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
    T = np.swapaxes(T, len(lead) + subsystem, len(lead) + n + subsystem)
    return T.reshape(M.shape)


def trace_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Trace inner product ``Tr(A B)`` of two Hermitian operators, as a real."""
    val = np.trace(np.asarray(A) @ np.asarray(B))
    return float(np.real(val))


def frobenius(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def is_hermitian(A: np.ndarray, tol: float | None = None) -> bool:
    A = np.asarray(A)
    if tol is None:
        tol = tol_for(A)
    return bool(np.linalg.norm(A - A.conj().T) <= tol)


def is_density(rho: np.ndarray, tol: float | None = None) -> bool:
    """Hermitian, unit trace, positive semidefinite (within tolerance)."""
    rho = np.asarray(rho)
    if tol is None:
        tol = tol_for(rho)
    if not is_hermitian(rho, tol):
        return False
    if abs(np.trace(rho).real - 1.0) > tol:
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
    return bool(np.linalg.norm(total - np.eye(d)) <= tol)


def basis_state(d: int, k: int) -> np.ndarray:
    """Projector onto the computational basis vector |k>."""
    v = np.zeros(d, dtype=complex)
    v[k % d] = 1.0
    return np.outer(v, v.conj())


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    """Qubit state with the given Bloch vector.

    Uses ``SIGMA`` (sigma_y = [[0,-i],[i,0]]), not the commutator-defined Y
    of this module, so published Bloch coordinates can be pasted in directly.
    """
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA[0] + y * SIGMA[1] + z * SIGMA[2])


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians: the real parts are drawn first, then the imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_from_gaussian(A: np.ndarray) -> np.ndarray:
    """Q of A = QR with the standard phase fix; Haar when A is complex Gaussian.

    A may be a stack ``(..., d, d)``: the QR and the phase fix run per matrix.
    """
    Q, R = np.linalg.qr(A)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag)).conj()[..., None, :]


def _density_from_gaussian(G: np.ndarray) -> np.ndarray:
    """``G G^dag`` at unit trace; G may be a stack ``(..., d, r)``."""
    rho = G @ np.conj(np.swapaxes(G, -1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _rotated_diagonal(U: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``U diag(vals) U^dag``; U ``(..., d, d)`` and vals ``(..., d)`` may be stacks."""
    return (U * vals[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    return _haar_from_gaussian(_complex_gaussian(rng, (d, d)))


def random_pure_state(d: int, seed: int | np.random.Generator) -> np.ndarray:
    """Normalized complex-Gaussian state vector."""
    v = _complex_gaussian(np.random.default_rng(seed), d)
    return v / np.linalg.norm(v)


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

    One ``standard_normal`` call fills the ``(k, 2, d, rank)`` buffer in the
    order the single draws take: each sample's real parts, then its
    imaginary parts.
    """
    G = rng.standard_normal((k, 2, d, d if rank is None else rank))
    return _density_from_gaussian(G[:, 0] + 1j * G[:, 1])


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
