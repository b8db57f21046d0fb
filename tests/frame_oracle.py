"""Dense reference forms of the frame superoperator, the canonical and Gram-inverse duals and the duality test.

Each works through the explicit generalized Gell-Mann basis of the d x d
Hermitian matrices, with one einsum trace pairing against every basis
element.  The library reads its coordinates off the entries instead; these
are the formulas it must agree with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from qframe.operators import EQ_TOL


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the d x d matrices.

    Ordering: identity/sqrt(d); symmetric pair elements (j<k, row-major);
    antisymmetric pair elements (same order); then the d-1 diagonal
    (generalized Gell-Mann) elements.
    """
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            M = np.zeros((d, d), dtype=complex)
            M[j, k] = M[k, j] = 1 / np.sqrt(2)
            mats.append(M)
    for j in range(d):
        for k in range(j + 1, d):
            M = np.zeros((d, d), dtype=complex)
            M[j, k] = -1j / np.sqrt(2)
            M[k, j] = 1j / np.sqrt(2)
            mats.append(M)
    for l in range(1, d):
        M = np.zeros((d, d), dtype=complex)
        for m in range(l):
            M[m, m] = 1.0
        M[l, l] = -float(l)
        mats.append(M / np.sqrt(l * (l + 1)))
    out = np.array(mats)
    out.setflags(write=False)
    return out


def coefficients(ops: np.ndarray) -> np.ndarray:
    """``Tr[F(lam) B_a]`` against the Gell-Mann basis, one einsum."""
    return np.real(np.einsum("nij,aji->na", ops, hermitian_basis(ops.shape[1])))


def frame_operator_matrix(ops: np.ndarray) -> np.ndarray:
    V = coefficients(ops)
    return V.T @ V


def canonical_dual(ops: np.ndarray) -> np.ndarray:
    V = coefficients(ops)
    Sinv = np.linalg.pinv(V.T @ V, rcond=1e-10, hermitian=True)
    return np.einsum("na,aij->nij", V @ Sinv, hermitian_basis(ops.shape[1]))


def gram_dual(ops: np.ndarray) -> np.ndarray:
    """Dual of a minimal frame through the inverse of its Gram matrix ``Tr[F(lam) F(lam')]``."""
    G = np.real(np.einsum("nij,mji->nm", ops, ops))
    return np.einsum("nm,nij->mij", np.linalg.inv(G), ops)


def is_dual_pair(frame_ops: np.ndarray, dual_ops: np.ndarray, tol: float = EQ_TOL) -> tuple[bool, float]:
    """Worst entry of the reconstruction superoperator minus the identity, in the Gell-Mann basis."""
    R = coefficients(dual_ops).T @ coefficients(frame_ops)
    residual = float(np.max(np.abs(R - np.eye(R.shape[0]))))
    return residual <= tol, residual
