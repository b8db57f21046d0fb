"""Pauli operator matrix over qubit registers and the real state table.

Arranging ``I, X, Y, Z`` in a 2x2 grid and tensoring along the bits of the
row/column indices yields d^2 Hermitian words ``P_kj`` on d = 2^n dimensions.
Expectation values of the words form a real d x d table that carries the same
information as the density matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import DimensionMismatchError, UnsupportedDimensionError
from ..frames import Frame
from ..operators import SIGMA, tensor
from .base import Representation

MAX_QUBITS = 5


def _qubit_grid() -> np.ndarray:
    """The 2x2 grid of 2x2 matrices ``[[I, X], [Y, Z]]``, Y = -sigma_y, as one (2, 2, 2, 2) array."""
    return np.array([[np.eye(2, dtype=complex), SIGMA[0]], [-SIGMA[1], SIGMA[2]]])


def _log2_exact(d: int) -> int:
    n = d.bit_length() - 1
    if d < 2 or (1 << n) != d:
        raise UnsupportedDimensionError(f"dimension must be a power of two, got {d}")
    return n


def _pauli_words(n_qubits: int) -> np.ndarray:
    """All d^2 words P_kj as one (d^2, d, d) stack, row-major in (k, j).

    The Kronecker product of one copy of the grid's four matrices per qubit
    labels the words by each qubit's (k bit, j bit); a transpose puts the k
    bits first.  The leading scalar 1 keeps it the product the words are
    defined by: without it some zeros of the words change sign.
    """
    d = 2**n_qubits
    words = tensor(np.ones((1, 1, 1)), *[_qubit_grid().reshape(4, 2, 2)] * n_qubits)
    bits = words.reshape((2,) * (2 * n_qubits) + (d, d))
    order = [*range(0, 2 * n_qubits, 2), *range(1, 2 * n_qubits, 2), 2 * n_qubits, 2 * n_qubits + 1]
    return bits.transpose(order).reshape(d * d, d, d)


def havel_rep(n_qubits: int) -> Representation:
    """Frame of the d^2 Pauli words P_kj; the dual rescales by 1/d."""
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        raise UnsupportedDimensionError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise UnsupportedDimensionError(f"register capped at {MAX_QUBITS} qubits")
    d = 2**n_qubits
    labels = tuple((k, j) for k in range(d) for j in range(d))
    ops = _pauli_words(n_qubits)
    frame = Frame(labels, ops, "havel")
    dual = Frame(labels, ops / d, "havel")
    return Representation(frame, dual, meta={"n_qubits": n_qubits})


# one build per register size and process; sharing it is safe because its stacks are read-only
_register_rep = lru_cache(maxsize=MAX_QUBITS)(havel_rep)


def _square_rep(M: np.ndarray, what: str) -> Representation:
    """``havel_rep`` on as many qubits as the square matrix M's side; refused past ``MAX_QUBITS``."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"{what} must be a square matrix")
    return _register_rep(_log2_exact(M.shape[0]))


def real_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Table sigma[k, j] = Tr(rho P_kj); real whenever rho is Hermitian."""
    rho = np.asarray(rho, dtype=complex)
    return _square_rep(rho, "state").frame.analyze(rho, "state").reshape(rho.shape)


def reconstruct_from_real(sigma: np.ndarray) -> np.ndarray:
    """Invert the table: rho = (1/d) sum_kj sigma[k, j] P_kj, the dual P_kj/d synthesizing sigma."""
    sigma = np.asarray(sigma, dtype=float)
    return _square_rep(sigma, "table").dual.synthesize(sigma.reshape(-1))
