"""The library's earlier forms, written with numpy's Python-level wrappers.

The library now calls the C-level method, ufunc reduction or ``math``
function each wrapper forwards to, or a preallocated buffer, broadcast
product or stacked computation in its place; these are the forms they
replaced, kept so the tests can hold each rewrite to the same bits:
``np.kron`` Kronecker products, the coordinate rows through
``np.concatenate`` and back through ``np.split``, the label map's mirror
tables through ``np.argsort`` and ``np.ones``, the seeded states and
effects through ``np.swapaxes`` and ``np.trace``, and one teleportation
branch at a time.
"""

from __future__ import annotations

import numpy as np

from qframe.operators import weyl_monomials


def kron_tensor(*ops: np.ndarray) -> np.ndarray:
    """``operators.tensor`` as a chain of ``np.kron`` calls."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def coordinates(ops: np.ndarray) -> np.ndarray:
    """``frames._coordinates``: the diagonal, sqrt(2) Re and -sqrt(2) Im over the pairs j < k, concatenated."""
    d = ops.shape[1]
    j, k = np.triu_indices(d, 1)
    upper = ops[:, j, k]
    return np.concatenate(
        [ops.diagonal(axis1=1, axis2=2).real, np.sqrt(2) * upper.real, -np.sqrt(2) * upper.imag], axis=1
    )


def from_coordinates(V: np.ndarray, d: int) -> np.ndarray:
    """``frames._from_coordinates``: the two halves of the off-diagonal block through ``np.split``."""
    j, k = np.triu_indices(d, 1)
    ops = np.zeros((len(V), d, d), dtype=complex)
    ops[:, np.arange(d), np.arange(d)] = V[:, :d]
    re, im = np.split(V[:, d:], 2, axis=1)
    upper = (re - 1j * im) / np.sqrt(2)
    ops[:, j, k] = upper
    ops[:, k, j] = upper.conj()
    return ops


def mirror(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The label map's ``mirror`` and ``sign`` tables for grid rows ``rows``."""
    d = len(rows)
    half = (d + 1) // 2
    c = np.arange(d)
    r = c[:, None]
    u = ((r - c) * half) % d
    past = u >= half
    at = 2 * (np.argsort(rows)[(r + c) % d] * half + np.where(past, d - u, u)).reshape(-1)
    table = np.empty(2 * d * d, dtype=np.intp)
    table[0::2], table[1::2] = at, at + 1
    sign = np.ones(2 * d * d)
    sign[1::2] -= 2 * ~past.reshape(-1)
    return table, sign


def density_from_gaussian(G: np.ndarray) -> np.ndarray:
    rho = G @ np.conj(np.swapaxes(G, -1, -2))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def rotated_diagonal(U: np.ndarray, vals: np.ndarray) -> np.ndarray:
    return (U * vals[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))


def teleport_branch(rep, rho_in: np.ndarray, mu_in, outcome) -> tuple:
    """One teleportation branch on its own: (probability, output values, residual, output state)."""
    d = rep.dim
    alpha, beta = (int(outcome[0]) % d, int(outcome[1]) % d)
    pair = np.eye(d) / np.sqrt(d)
    bell = weyl_monomials(d, alpha, beta)[0].T / np.sqrt(d)
    M = (bell.conj() @ pair).T
    post = M @ rho_in @ M.conj().T
    prob = float(np.trace(post).real)
    rho_out = post / prob
    mu_out = rep.represent(rho_out)
    r = np.arange(d)
    displaced = mu_in.values.reshape(d, d)[np.ix_((r - alpha) % d, (r + beta) % d)]
    residual = float(np.max(np.abs(mu_out.values - displaced.reshape(-1))))
    return prob, mu_out.values, residual, rho_out
