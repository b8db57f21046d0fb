"""One-sample-at-a-time reference versions of the batched verify and analysis code.

Each function is the loop the array code replaces: the seeded draw of one
random state and of one random effect, the three verify residuals
drawing one (state, effect) pair at a time from each stack's generator,
``default_rng([seed, stream])``, and going through
``represent``/``effect``/``reconstruct``; the teleportation branch as the
dense three-system simulation, ``proj @ total @ proj`` on d^3 x d^3
matrices, with the displaced comparison through a label dict; the
entanglement sweep as one Franco-Penna and one PPT test per state; the
spin-1/2 NMR kernel built per direction; the spin-s direction basis, its
gauge fixed column by column, and the Stratonovich kernel built from it
per direction; Hardy's grid built one projector at a time; and the
Kronecker products of stacks that ``operators.tensor`` builds in one call:
Havel's Pauli words one qubit at a time and the composite Wootters stacks
two factors at a time; the negativity witness's effect side as one
``eigh`` per dual operator, stopping at the first operator with an
eigenvalue outside [-tol, 1 + tol]; and the Bell-Wigner correlations as one
Kronecker product and one Born probability per pair of outcome signs.  ``values`` and
``hermiticity_residual`` are verify's own pairing and Hermiticity measure
from before the families analyzed their own stacks.
"""

from __future__ import annotations

import numpy as np

from qframe.analysis import (
    _canonical_eigenvector,
    _first_minimum,
    franco_penna,
    ppt_separability_two_qubit,
)
from qframe.frames import born_pair
from qframe.operators import (
    SIGMA,
    frobenius,
    partial_trace,
    tensor,
    trace_inner,
)
from qframe.representations import striation_pvms, wootters, wootters_composite
from qframe.representations.spherical import _check_unit_rows, spin_operators

from lattice_oracle import weyl_operator


def _generator(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_state(d: int, rank: int | None = None, seed=0) -> np.ndarray:
    rng = _generator(seed)
    r = d if rank is None else int(rank)
    G = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_effect(d: int, seed=0) -> np.ndarray:
    rng = _generator(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    diag = np.diagonal(R)
    U = Q * (diag / np.abs(diag)).conj()
    vals = rng.uniform(0.0, 1.0, size=d)
    return (U * vals) @ U.conj().T


def values(flat: np.ndarray, A: np.ndarray) -> np.ndarray:
    """``Tr[A_k F_n]`` of a Hermitian ``(k, d, d)`` stack against a flat Hermitian ``(n, d^2)`` family.

    For Hermitian A and F, Tr[A F] = sum_ij conj(A_ij) F_ij is real, and it is
    the dot product of the two rows read as interleaved floats.
    """
    return A.reshape(len(A), -1).view(float) @ flat.view(float).T


def hermiticity_residual(rep) -> float:
    """Largest entry of F - F^dag over the frame and the dual, in cache-sized blocks."""
    worst = 0.0
    for ops in (rep.frame.operators, rep.dual.operators):
        step = max(1, (1 << 15) // ops[0].size)
        for blk in (ops[i:i + step] for i in range(0, len(ops), step)):
            worst = max(worst, float(np.abs(blk - np.conj(blk).transpose(0, 2, 1)).max()))
    return worst


def born_residual(rep, seed: int, samples: int) -> float:
    worst = 0.0
    states, effects = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])
    for _ in range(samples):
        rho = random_state(rep.dim, seed=states)
        E = random_effect(rep.dim, seed=effects)
        mu = rep.represent(rho)
        xi = rep.effect(E)
        worst = max(worst, abs(born_pair(mu, xi) - trace_inner(rho, E)))
    return worst


def round_trip_residual(rep, seed: int, samples: int) -> float:
    worst = 0.0
    rng = np.random.default_rng([seed, 2])
    for _ in range(samples):
        rho = random_state(rep.dim, seed=rng)
        back = rep.reconstruct(rep.represent(rho))
        worst = max(worst, frobenius(back - rho))
    return worst


def line_residuals(rep, seed: int, states: int) -> tuple[float, float]:
    pvms = striation_pvms(rep)
    pvm_worst = max(float(np.max(np.abs(pvms.sum(axis=1) - np.eye(rep.dim)))),
                    float(np.max(np.abs(pvms @ pvms - pvms))))
    idx = rep.geometry.line_index
    flat = pvms.reshape(*pvms.shape[:2], -1)
    sum_worst = 0.0
    rng = np.random.default_rng([seed, 3])
    for _ in range(states):
        rho = random_state(rep.dim, seed=rng)
        line_sums = rep.represent(rho).values[idx].sum(axis=2)
        born = (flat @ rho.T.reshape(-1)).real
        sum_worst = max(sum_worst, float(np.max(np.abs(line_sums - born))))
    return pvm_worst, sum_worst


def teleport_branch(d: int, rho_in: np.ndarray, outcome: tuple[int, int]):
    """(probability, output state, output values, displacement residual) of one branch."""
    alpha, beta = (int(outcome[0]) % d, int(outcome[1]) % d)
    pair = np.zeros(d * d, dtype=complex)
    pair[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    bell = np.kron(np.eye(d), weyl_operator(alpha, beta, d)) @ pair
    total = tensor(rho_in, np.outer(pair, pair.conj()))
    proj = tensor(np.outer(bell, bell.conj()), np.eye(d))
    post = proj @ total @ proj
    prob = float(np.trace(post).real)
    rho_out = partial_trace(post, (d, d, d), keep=(2,)) / prob
    rep = wootters(d)
    mu_in = rep.represent(rho_in)
    mu_out = rep.represent(rho_out)
    index = {lab: i for i, lab in enumerate(rep.labels)}
    displaced = np.array(
        [mu_in.values[index[((q - alpha) % d, (p + beta) % d)]] for q, p in rep.labels]
    )
    return prob, rho_out, mu_out.values, float(np.max(np.abs(mu_out.values - displaced)))


def entanglement_sweep(seed: int, samples: int):
    """(conclusive, agreements, rows) of the two-qubit sweep, one state at a time."""
    rep = wootters_composite([2, 2])
    rows = []
    conclusive = agreements = 0
    for k in range(samples):
        rho = random_state(4, rank=1 + (seed + k) % 4, seed=seed + k)
        fp = franco_penna(rep.represent(rho))
        ppt = ppt_separability_two_qubit(rho)
        if fp.verdict == "entangled":
            conclusive += 1
            if ppt.verdict == "entangled":
                agreements += 1
        rows.append([seed + k, 1 + (seed + k) % 4, fp.min_value, fp.verdict, ppt.min_value, ppt.verdict])
    return conclusive, agreements, rows


def qubit_kernel_upper(n) -> np.ndarray:
    """(1/4pi)(I + 3 n . sigma) for one direction."""
    n = np.asarray(n, dtype=float)
    _check_unit_rows(n)
    core = np.eye(2) + 3 * (n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2])
    return core / (4 * np.pi)


def qubit_kernel_lower(n) -> np.ndarray:
    """(1/2)(I + n . sigma) for one direction."""
    n = np.asarray(n, dtype=float)
    _check_unit_rows(n)
    return 0.5 * (np.eye(2) + n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2])


def nmr_distribution(rho: np.ndarray, n_qubits: int, grid: np.ndarray) -> np.ndarray:
    """One hand-written contraction per register size."""
    uppers = np.array([qubit_kernel_upper(n) for n in grid])
    R = rho.reshape((2,) * (2 * n_qubits))
    if n_qubits == 1:
        out = np.einsum("ab,kba->k", rho, uppers)
    elif n_qubits == 2:
        out = np.einsum("abcd,ica,jdb->ij", R, uppers, uppers)
    else:
        out = np.einsum("abcdef,ida,jeb,kfc->ijk", R, uppers, uppers, uppers)
    return np.real(out).reshape(-1)


def direction_basis(s: float, n) -> np.ndarray:
    """Eigenvectors of n . J for one direction, column j holding the eigenvalue (j - s) vector."""
    n = np.asarray(n, dtype=float)
    Jx, Jy, Jz = spin_operators(s)
    H = n[0] * Jx + n[1] * Jy + n[2] * Jz
    vals, vecs = np.linalg.eigh(H)
    d = vecs.shape[0]
    expect = np.arange(d) - s
    if np.max(np.abs(vals - expect)) > 1e-8:
        raise ValueError("direction must be a unit vector")
    for j in range(d):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        vecs[:, j] = col / (col[nz[0]] / abs(col[nz[0]]))
    return vecs


def spherical_point(kernel, n) -> np.ndarray:
    """``kernel.point(n)`` for one direction, the strict lower triangle mirrored onto the upper."""
    V = direction_basis(kernel.s, n)
    K = (V * kernel.weights) @ V.conj().T
    lower = np.tril(K, -1)
    return lower + lower.conj().T + np.diag(K.diagonal().real)


def hardy_projector(d: int, k: int, j: int) -> np.ndarray:
    """The (k, j) entry of Hardy's grid: the projector on phi_k, phi_k + phi_j (k < j) or phi_k + i phi_j (k > j)."""
    v = np.zeros(d, dtype=complex)
    if k == j:
        v[k] = 1.0
    elif k < j:
        v[k] = 1.0
        v[j] = 1.0
    else:
        v[k] = 1.0
        v[j] = 1.0j
    return np.outer(v, v.conj())


def kron_stacks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``kron(a[i], b[j])`` for every pair, i major: one batched product."""
    (n, da, _), (m, db, _) = a.shape, b.shape
    out = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return out.reshape(n * m, da * db, da * db)


def pauli_words(n_qubits: int) -> np.ndarray:
    """Havel's d^2 words P_kj, row-major in (k, j), each qubit appending the next lower bit of k and j."""
    grid = np.array([[np.eye(2, dtype=complex), SIGMA[0]], [-SIGMA[1], SIGMA[2]]])
    words = np.ones((1, 1, 1, 1), dtype=complex)  # [k, j, row, col]
    d = 1
    for _ in range(n_qubits):
        d *= 2
        words = (
            words[:, None, :, None, :, None, :, None] * grid[None, :, None, :, None, :, None, :]
        ).reshape(d, d, d, d)
    return words.reshape(d * d, d, d)


def negativity_witness(rep, tol: float = 1e-6) -> dict:
    """``analysis.negativity_witness`` with its effect side diagonalizing one dual operator at a time."""
    lowest = np.linalg.eigvalsh(rep.frame.operators)[:, 0]
    i = _first_minimum(lowest)
    if lowest[i] < -tol:
        vec = _canonical_eigenvector(*np.linalg.eigh(rep.frame.operators[i]), 0)
        state = np.outer(vec, vec.conj())
        mu = rep.represent(state)
        idx = _first_minimum(mu.values)
        return {"found": True, "kind": "state", "representation": rep.name,
                "value": float(mu.values[idx]), "label": rep.labels[idx], "witness": state}
    for i, D in enumerate(rep.dual.operators):
        vals, vecs = np.linalg.eigh(D)
        for j in (0, len(vals) - 1):
            lam = float(vals[j])
            if lam < -tol or lam > 1.0 + tol:
                vec = _canonical_eigenvector(vals, vecs, j)
                effect = np.outer(vec, vec.conj())
                xi = rep.effect(effect)
                return {"found": True, "kind": "effect", "representation": rep.name,
                        "value": float(xi.values[i]), "label": rep.labels[i], "witness": effect}
    return {"found": False, "representation": rep.name}


def bell_wigner_demo(a: float, b: float, c: float) -> dict:
    """``analysis.bell_wigner_demo`` with each correlation summed over the four sign pairs one product at a time."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    singlet = np.outer(v, v.conj())

    def projectors(theta):
        op = np.cos(theta) * SIGMA[2] + np.sin(theta) * SIGMA[0]
        eye = np.eye(2)
        return {+1: (eye + op) / 2, -1: (eye - op) / 2}

    def correlation(t1, t2):
        out = 0.0
        for s, Ps in projectors(t1).items():
            for t, Pt in projectors(t2).items():
                out += s * t * float(np.trace(singlet @ np.kron(Ps, Pt)).real)
        return out

    c_ab, c_ac, c_bc = correlation(a, b), correlation(a, c), correlation(b, c)
    lhs, rhs = abs(c_ab - c_ac), 1.0 + c_bc
    return {"C_ab": c_ab, "C_ac": c_ac, "C_bc": c_bc, "lhs": lhs, "rhs": rhs,
            "violated": bool(lhs > rhs + 1e-10)}
