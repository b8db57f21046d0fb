"""The library's earlier forms, written with numpy's Python-level wrappers or spelled out in place.

The library now calls the C-level method, ufunc reduction or ``math``
function each wrapper forwards to, or a preallocated buffer, broadcast
product or stacked computation in its place; these are the forms they
replaced, kept so the tests can hold each rewrite to the same bits:
``np.kron`` Kronecker products, the coordinate rows through
``np.concatenate`` and back through ``np.split``, the label map's mirror
tables through ``np.argsort`` and ``np.ones``, the seeded states and
effects through ``np.swapaxes`` and ``np.trace``, one teleportation
branch at a time, and the unbiased bases through ``np.diag`` and a list of
powers stacked by ``np.array``.  Three more restated a rule the library
now takes from the one place that states it: the Bell demo's spin
projectors written out per angle (now the spin-1/2 kernels), a complex
Gaussian drawn as two ``standard_normal`` calls (now ``_gaussian_pairs``),
and a distribution's CSV joined line by line (now ``table_to_csv``).
"""

from __future__ import annotations

import numpy as np

from qframe.operators import SIGMA, finite_fourier, omega, tensor, weyl_monomials
from qframe.serialize import _LATTICE_HEADERS, _LATTICE_NAMES, _csv_line, flatten_label


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


def mub_unitary(d: int) -> np.ndarray:
    """``mub.mub_unitary`` at an odd prime: the quadratic phases through ``np.diag``."""
    F = finite_fourier(d)
    inv2 = (d + 1) // 2
    D = np.diag(omega(d) ** ((inv2 * np.arange(d) ** 2) % d))
    return F @ D @ F.conj().T


def mub_bases(d: int, V: np.ndarray) -> np.ndarray:
    """``mub.mub_bases`` from the advancing unitary V: a list of powers, stacked by ``np.array``."""
    out = [np.eye(d, dtype=complex)]
    if d == 2:
        out.append(V)
        out.append(V @ V)
    else:
        M = np.eye(d, dtype=complex)
        for _ in range(1, d):
            M = V @ M
            out.append(M.copy())
        out.append(finite_fourier(d))
    return np.array(out)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians: the real parts are drawn first, then the imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def bell_wigner(a: float, b: float, c: float) -> dict:
    """``analysis.bell_wigner_demo`` with each axis' (+1, -1) projectors written out as (I +- n . sigma) / 2."""
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    singlet = v[:, None] * v
    eye = np.eye(2)
    signs = np.array([1.0, -1.0, -1.0, 1.0])

    def projectors(theta):
        op = np.cos(theta) * SIGMA[2] + np.sin(theta) * SIGMA[0]
        P = np.empty((2, 2, 2), dtype=complex)
        np.add(eye, op, out=P[0])
        np.subtract(eye, op, out=P[1])
        P /= 2
        return P

    def correlation(t1, t2):
        born = (singlet @ tensor(projectors(t1), projectors(t2))).trace(axis1=1, axis2=2).real
        return float(np.add.reduce(signs * born))

    c_ab, c_ac, c_bc = correlation(a, b), correlation(a, c), correlation(b, c)
    lhs, rhs = abs(c_ab - c_ac), 1.0 + c_bc
    return {"C_ab": c_ab, "C_ac": c_ac, "C_bc": c_bc, "lhs": lhs, "rhs": rhs, "violated": bool(lhs > rhs + 1e-10)}


def distribution_to_csv(dist) -> str:
    """``serialize.distribution_to_csv`` joining its own lines, one ``_csv_line`` per outcome."""
    rows = [flatten_label(lab) for lab in dist.labels]
    width = len(rows[0]) if rows else 1
    if dist.representation in _LATTICE_NAMES and width in _LATTICE_HEADERS:
        header = _LATTICE_HEADERS[width]
    else:
        header = [f"l{i}" for i in range(width)]
    lines = [",".join(header + ["value"])]
    for row, val in zip(rows, dist.values.tolist()):
        lines.append(_csv_line([*map(str, row), val]))
    return "\n".join(lines) + "\n"
