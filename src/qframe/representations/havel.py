"""Pauli operator matrix over qubit registers and the real state table.

Arranging ``I, X, Y, Z`` in a 2x2 grid and tensoring along the bits of the
row/column indices yields d^2 Hermitian words ``P_kj`` on d = 2^n dimensions.
Expectation values of the words form a real d x d table that carries the same
information as the density matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatchError, UnsupportedDimensionError
from ..frames import DualFrame, Frame
from ..operators import make_pauli_family, tensor
from .base import Representation

MAX_QUBITS = 5


def _qubit_grid() -> list[list[np.ndarray]]:
    fam = make_pauli_family(2)
    eye = np.eye(2, dtype=complex)
    return [[eye, fam.X], [fam.Y, fam.Z]]


def _log2_exact(d: int) -> int:
    n = d.bit_length() - 1
    if d < 2 or (1 << n) != d:
        raise UnsupportedDimensionError(f"dimension must be a power of two, got {d}")
    return n


def pauli_matrix_entry(n_qubits: int, k: int, j: int) -> np.ndarray:
    """P_kj as the tensor of grid entries over the bits of k and j, MSB first."""
    grid = _qubit_grid()
    out = np.array([[1.0 + 0j]])
    for a in range(n_qubits - 1, -1, -1):
        out = tensor(out, grid[(k >> a) & 1][(j >> a) & 1])
    return out


def havel_rep(n_qubits: int) -> Representation:
    """Frame of the d^2 Pauli words P_kj; the dual rescales by 1/d."""
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        raise UnsupportedDimensionError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise UnsupportedDimensionError(f"register capped at {MAX_QUBITS} qubits")
    d = 2**n_qubits
    labels = []
    ops = []
    for k in range(d):
        for j in range(d):
            labels.append((k, j))
            ops.append(pauli_matrix_entry(n_qubits, k, j))
    ops = np.array(ops)
    frame = Frame(dim=d, labels=tuple(labels), operators=ops, name="havel")
    dual = DualFrame(dim=d, labels=tuple(labels), operators=ops / d, name="havel")
    return Representation(
        name="havel",
        dim=d,
        frame=frame,
        dual=dual,
        geometry=None,
        meta={"n_qubits": n_qubits},
    )


def real_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Table sigma[k, j] = Tr(rho P_kj); real whenever rho is Hermitian."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError("state must be a square matrix")
    d = rho.shape[0]
    n = _log2_exact(d)
    out = np.empty((d, d))
    for k in range(d):
        for j in range(d):
            val = np.trace(rho @ pauli_matrix_entry(n, k, j))
            if abs(val.imag) > 1e-9:
                raise ValueError("state must be Hermitian")
            out[k, j] = val.real
    return out


def reconstruct_from_real(sigma: np.ndarray) -> np.ndarray:
    """Invert the table: rho = (1/d) sum_kj sigma[k, j] P_kj."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatchError("table must be a square matrix")
    d = sigma.shape[0]
    n = _log2_exact(d)
    acc = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for j in range(d):
            acc += sigma[k, j] * pauli_matrix_entry(n, k, j)
    return acc / d
