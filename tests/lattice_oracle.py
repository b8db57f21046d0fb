"""Slow reference constructions of the displaced-parity lattice families and the Pauli words.

Each function is the direct construction the index-arithmetic code
replaces, one operator at a time: the shift and clock matrices as a roll and
a diagonal, the parity matrix as a loop, the
half-integer phase omega**(m/2), the Weyl operator and the Schwinger basis as
matrix powers of the shift and clock matrices, the Wootters operator as a phase-weighted
sum of the d^2 words X^j Z^m, the Fano operator as a displacement loop times
the parity matrix, the Leonhardt operators as matrix powers times parity,
the Ruzzi operator as a Fourier sum over the Schwinger basis, composite
points as Kronecker products, the Weyl orbit from ``weyl_operator`` and the
Pauli words and their real table as loops over bits and words, the
striation measurements as one sum of frame operators per line, found by
label, and ``parity_pair``, the displaced-parity pair built from one kernel
label pair per point, with the label map's grid worked out from those pairs.  The Weyl words and the Schwinger basis are cached per d so the
oracle can be sampled at a few points of a large lattice.  ``dense_ops``
stacks any family over its labels, and ``qubit_stabilizer_states`` lists the
six line states of the qubit lattice.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from qframe.errors import DimensionMismatchError, UnsupportedDimensionError
from qframe.frames import Frame, _centred_gather, _LabelMap
from qframe.operators import bloch_state, displaced_parity, omega, tau_powers, tensor

# the qubit I, X, Y, Z written out, Y = [X, Z]/2i in the shift/clock convention
QUBIT_PAULIS = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def qubit_stabilizer_states() -> list[np.ndarray]:
    """The six single-qubit stabilizer states, the eigenstates of X, Y and Z in antipodal pairs."""
    return [bloch_state(*v) for v in [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]]


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic shift X with ``X |k> = |k+1 mod d>``."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def clock_matrix(d: int) -> np.ndarray:
    """Clock operator Z with spectrum ``{omega**k}``."""
    return np.diag(omega(d) ** np.arange(d))


def parity_matrix(d: int) -> np.ndarray:
    """P |k> = |-k mod d>, one entry at a time."""
    P = np.zeros((d, d), dtype=complex)
    for k in range(d):
        P[(-k) % d, k] = 1.0
    return P


def tau(d: int) -> complex:
    """Primitive 2d-th root of unity, used for half-integer phases at even d."""
    return np.exp(1j * np.pi / d)


def half_exponent_phase(d: int, m: int) -> complex:
    """The phase ``omega**(m/2)``.

    For odd d the exponent ``m/2`` is resolved with the multiplicative
    inverse of 2 mod d, so the result is still a d-th root of unity.  For
    even d no inverse exists and the phase is taken in the doubled group as
    ``tau**m``.
    """
    if d < 1:
        raise UnsupportedDimensionError(f"dimension must be positive, got {d}")
    if d % 2 == 1:
        inv2 = (d + 1) // 2
        return omega(d) ** ((m * inv2) % d)
    return tau(d) ** (m % (2 * d))


def weyl_operator(p: int, q: int, d: int) -> np.ndarray:
    """U_(p,q) = omega**(pq/2) X^p Z^q from matrix powers."""
    X = shift_matrix(d)
    Z = clock_matrix(d)
    U = np.linalg.matrix_power(X, p % d) @ np.linalg.matrix_power(Z, q % d)
    return half_exponent_phase(d, p * q) * U


def schwinger_basis(d: int) -> dict[tuple[int, int], np.ndarray]:
    """S(eta, xi) = X^eta Z^xi omega**(eta xi/2)/sqrt(d) over eta, xi in [-l, l], odd d."""
    l = (d - 1) // 2
    X = shift_matrix(d)
    Z = clock_matrix(d)
    out: dict[tuple[int, int], np.ndarray] = {}
    for eta in range(-l, l + 1):
        Xp = np.linalg.matrix_power(X, eta % d)
        for xi in range(-l, l + 1):
            Zp = np.linalg.matrix_power(Z, xi % d)
            out[(eta, xi)] = half_exponent_phase(d, eta * xi) * (Xp @ Zp) / np.sqrt(d)
    return out


@lru_cache(maxsize=None)
def _words(d: int) -> dict[tuple[int, int], np.ndarray]:
    xs = [np.linalg.matrix_power(shift_matrix(d), j) for j in range(d)]
    zs = [np.linalg.matrix_power(clock_matrix(d), m) for m in range(d)]
    return {(j, m): xs[j] @ zs[m] for j in range(d) for m in range(d)}


def wootters_point(d: int, q: int, p: int) -> np.ndarray:
    """A(q,p) = (1/d) sum_{j,m} omega**(p j - q m + j m / 2) X^j Z^m, odd prime d."""
    inv2 = (d + 1) // 2
    w = omega(d)
    words = _words(d)
    A = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for m in range(d):
            A += w ** ((p * j - q * m + j * m * inv2) % d) * words[(j, m)]
    return A / d


def qubit_point(q: int, p: int) -> np.ndarray:
    eye, X, Y, Z = QUBIT_PAULIS
    return 0.5 * (eye + (-1) ** q * Z + (-1) ** p * X + (-1) ** (q + p) * Y)


def prime_point(d: int, q: int, p: int) -> np.ndarray:
    return qubit_point(q, p) if d == 2 else wootters_point(d, q, p)


def composite_point(dims, label) -> np.ndarray:
    return tensor(*[prime_point(x, q, p) for x, (q, p) in zip(dims, label)])


def cohendet_displacement(d: int, m: int, n: int) -> np.ndarray:
    W = np.zeros((d, d), dtype=complex)
    w = omega(d)
    for k in range(d):
        W[(k - 2 * m) % d, k] = w ** ((2 * n * (k - m)) % d)
    return W


def fano_point(d: int, q: int, p: int) -> np.ndarray:
    return cohendet_displacement(d, q, p) @ parity_matrix(d)


def leonhardt_odd_point(d: int, q: int, p: int) -> np.ndarray:
    X, Z, P = shift_matrix(d), clock_matrix(d), parity_matrix(d)
    word = np.linalg.matrix_power(X, (2 * q) % d) @ np.linalg.matrix_power(Z, (2 * p) % d)
    return word @ P * omega(d) ** ((2 * q * p) % d)


def leonhardt_even_point(d: int, q: int, p: int) -> np.ndarray:
    X, Z, P = shift_matrix(d), clock_matrix(d), parity_matrix(d)
    word = np.linalg.matrix_power(X, q % d) @ np.linalg.matrix_power(Z, p % d)
    return word @ P * tau(d) ** ((q * p) % (2 * d)) / (2 * d)


_schwinger = lru_cache(maxsize=None)(schwinger_basis)


def ruzzi_point(d: int, q: int, p: int) -> np.ndarray:
    """T(q,p) = (1/sqrt d) sum_{eta,xi} S(eta,xi) w^{-(eta q + xi p)}."""
    w = omega(d)
    acc = np.zeros((d, d), dtype=complex)
    for (eta, xi), op in _schwinger(d).items():
        acc += op * w ** (-(eta * q + xi * p) % d)
    return acc / np.sqrt(d)


def leonhardt_point(d: int, q: int, p: int) -> np.ndarray:
    return leonhardt_odd_point(d, q, p) if d % 2 else leonhardt_even_point(d, q, p)


# The dual operator of each family at a label, as the loop constructions stored it
# (for even Leonhardt: the frame operator, whose dual is the canonical one).
POINT = {
    "wootters": prime_point,
    "cohendet": fano_point,
    "leonhardt": leonhardt_point,
    "ruzzi": ruzzi_point,
}


def dense_ops(family: str, d: int, labels) -> np.ndarray:
    return np.array([POINT[family](d, q, p) for q, p in labels])


def orbit_stack(d: int) -> np.ndarray:
    """The d^2 - 1 Weyl operators U_(p,q), (p,q) != (0,0), row-major."""
    return np.array([weyl_operator(p, q, d) for p in range(d) for q in range(d)][1:])


def pauli_word(n_qubits: int, k: int, j: int) -> np.ndarray:
    eye, X, Y, Z = QUBIT_PAULIS
    grid = [[eye, X], [Y, Z]]
    out = np.array([[1.0 + 0j]])
    for a in range(n_qubits - 1, -1, -1):
        out = tensor(out, grid[(k >> a) & 1][(j >> a) & 1])
    return out


def real_density_matrix(rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    n = d.bit_length() - 1
    out = np.empty((d, d))
    for k in range(d):
        for j in range(d):
            out[k, j] = np.trace(rho @ pauli_word(n, k, j)).real
    return out


def reconstruct_from_real(sigma: np.ndarray) -> np.ndarray:
    d = sigma.shape[0]
    n = d.bit_length() - 1
    acc = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for j in range(d):
            acc += sigma[k, j] * pauli_word(n, k, j)
    return acc / d


def striation_pvms(rep) -> list[list[np.ndarray]]:
    """Per striation, per line, the sum of the frame operators at the line's points."""
    index = {pt: i for i, pt in enumerate(rep.frame.labels)}
    out = []
    for lines in rep.geometry.striations:
        pvm = []
        for li in lines:
            ops = [rep.frame.operators[index[pt]] for pt in rep.geometry.lines[li]]
            pvm.append(np.sum(ops, axis=0))
        out.append(pvm)
    return out


def parity_pair(labels, s, t, name: str = "") -> tuple[Frame, Frame]:
    """The frame ``{K(s, t)/d}`` and its dual ``{K(s, t)}`` from one kernel label pair per label.

    (s mod d, t mod d) must meet each of the d^2 cells once, the labels must
    run over a d x d grid, row by row or column by column, whose rows fix
    s mod d and whose columns fix t mod d, d must be odd and every s even.
    The grid is found by testing the label pairs.
    """
    s = np.array(s, dtype=np.int64).reshape(-1)
    t = np.array(t, dtype=np.int64).reshape(-1)
    d = math.isqrt(len(s))
    if len(t) != len(s) or d < 1 or d * d != len(s):
        raise DimensionMismatchError(f"a displaced-parity family needs d^2 label pairs, got {len(s)} and {len(t)}")
    if np.bincount((s % d) * d + t % d, minlength=d * d).max() != 1:
        raise DimensionMismatchError("the labels (s mod d, t mod d) must meet each of the d^2 cells once")
    if d % 2 == 0 or (s % 2).any():
        raise DimensionMismatchError(f"the centred phase points need odd d and even s, got d = {d}")
    S, T = (s % d).reshape(d, d), (t % d).reshape(d, d)
    if (S == S[:, :1]).all() and (T == T[:1]).all():
        rows, cols, transposed = S[:, 0], T[0], False
    elif (S == S[:1]).all() and (T == T[:, :1]).all():
        rows, cols, transposed = S[0], T[:, 0], True
    else:
        raise DimensionMismatchError("the labels must run over a d x d grid whose rows fix s mod d "
                                     "and whose columns fix t mod d, row by row or column by column")
    ops = displaced_parity(d, s, t)
    gather = _centred_gather(d)[rows]
    dft = tau_powers(d, -2 * np.arange(d)[:, None] * cols)
    maps = []
    for stack, scaled in ((ops / d, dft / d), (ops, dft)):
        real_form = np.stack([scaled, 1j * scaled], axis=1).view(float).reshape(2 * d, 2 * d)
        maps.append(_LabelMap(stack, rows, cols, transposed, gather, real_form))
    frame = Frame(labels, maps[0].stack, name, label_map=maps[0])
    return frame, Frame(frame.labels, maps[1].stack, name, label_map=maps[1])
