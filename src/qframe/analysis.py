"""Diagnostics built on the representations.

Negativity-based entanglement tests for two qubits, classicality of noisy
NMR-style states, phase-space teleportation, and the
three-angle Bell-Wigner inequality evaluated on the singlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, UnsupportedDimensionError
from .finitefield import _is_prime
from .frames import QuasiDistribution, _check_values, check_stack_budget
from .operators import (
    bloch_state,
    is_density,
    partial_transpose,
    tensor,
    weyl_monomials,
)
from .representations import (
    Representation,
    nmr_sample_directions,
    qubit_kernel_lower,
    qubit_kernel_upper,
    wootters,
    wootters_composite,
)

FRANCO_PENNA_THRESHOLD = (1.0 - np.sqrt(3.0)) / 8.0
EQ_GUARD = 1e-12
# A partial-transpose eigenvalue or lattice value above -PPT_TOL counts as nonnegative.
PPT_TOL = 1e-10
# Frame eigenvalues and quasi-probabilities this close count as tied.
WITNESS_TIE_TOL = 1e-12
# Eigenvalues of one operator this close span one eigenspace for a witness vector.
EIGENSPACE_TOL = 1e-9


@dataclass(frozen=True)
class EntanglementVerdict:
    """Outcome of an entanglement test with its decision threshold."""

    min_value: float
    threshold: float
    verdict: str
    method: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NmrReport:
    """Sampled positivity of a depolarized register state."""

    n_qubits: int
    epsilon: float
    epsilon_bound: float
    sampled_min: float
    classical: bool
    analytic_min: float
    bound_respected: bool
    tuple_count: int


@dataclass(frozen=True)
class TeleportOutcome:
    """Conditioned output of one Bell-measurement branch."""

    outcome: tuple
    probability: float
    mu_out: QuasiDistribution
    displacement_residual: float
    state_out: np.ndarray


@lru_cache(maxsize=2)
def _lattice(dims: tuple[int, ...]) -> Representation:
    """The Wootters lattice over ``dims``, kept for the next call.

    The cache holds the two lattices used last, such as the two-qubit one
    and the last teleport size.  An odd prime lattice holds its line table
    and label maps, O(d^3) bytes, and a stack only once one is read: no
    caller here reads one.  Sharing a build is safe because its tables and
    stacks are read-only.
    """
    return wootters(dims[0]) if len(dims) == 1 else wootters_composite(list(dims))


def _lattice_verdict(min_value: float) -> str:
    return "entangled" if min_value < FRANCO_PENNA_THRESHOLD - EQ_GUARD else "inconclusive"


def _ppt_verdict(min_eig: float) -> str:
    return "separable" if min_eig >= -PPT_TOL else "entangled"


def franco_penna(mu: QuasiDistribution) -> EntanglementVerdict:
    """Entanglement witness from two-qubit lattice negativity.

    Separable states never dip below (1 - sqrt 3)/8, so a strictly smaller
    minimum certifies entanglement; anything else is inconclusive.
    """
    lattice = _lattice((2, 2))
    _check_values(mu, lattice.labels, lattice.name, lattice.dim,
                  "expected a distribution from the two-qubit product lattice")
    mn = float(mu.values.min())
    return EntanglementVerdict(
        min_value=mn,
        threshold=FRANCO_PENNA_THRESHOLD,
        verdict=_lattice_verdict(mn),
        method="lattice-negativity",
    )


def ppt_separability_two_qubit(rho: np.ndarray) -> EntanglementVerdict:
    """Two-qubit separability from the partial-transpose spectrum.

    The verdict comes from the sign of the smallest eigenvalue of rho^(T2),
    which is decisive at this dimension.  The minima of the lattice
    distributions of rho and rho^(T2) ride along as diagnostics.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatchError("state must be 4 x 4")
    rho_pt = partial_transpose(rho, (2, 2), 1)
    eig_min = float(np.linalg.eigvalsh(rho_pt).min())
    rep = _lattice((2, 2))
    dwf_min = float(rep.represent(rho).values.min())
    dwf_min_pt = float(rep.represent(rho_pt).values.min())
    return EntanglementVerdict(
        min_value=eig_min,
        threshold=0.0,
        verdict=_ppt_verdict(eig_min),
        method="ppt",
        diagnostics={
            "dwf_min": dwf_min,
            "dwf_min_partial_transpose": dwf_min_pt,
            "dwf_criterion_separable": bool(
                dwf_min >= -PPT_TOL and dwf_min_pt >= -PPT_TOL
            ),
        },
    )


def _entanglement_sweep(rhos: np.ndarray) -> list[tuple[float, str, float, str]]:
    """Franco-Penna and PPT verdicts for a ``(k, 4, 4)`` stack of two-qubit states.

    Row k is (lattice minimum, its verdict, smallest partial-transpose
    eigenvalue, its verdict), what ``franco_penna`` and
    ``ppt_separability_two_qubit`` decide for state k.  The lattice values
    of the whole stack are one GEMM on the two-qubit frame and the spectra
    one ``eigvalsh``.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise DimensionMismatchError(f"expected a stack of 4 x 4 states, got shape {rhos.shape}")
    rep = _lattice((2, 2))
    lattice_min = np.minimum.reduce(rep.frame.analyze(rhos, "state"), axis=1)
    eig_min = np.linalg.eigvalsh(partial_transpose(rhos, (2, 2), 1))[:, 0]
    return [(float(m), _lattice_verdict(m), float(e), _ppt_verdict(e)) for m, e in zip(lattice_min, eig_min)]


def _first_minimum(values: np.ndarray) -> int:
    """Index of the first value within WITNESS_TIE_TOL of the minimum."""
    return int((values <= np.minimum.reduce(values) + WITNESS_TIE_TOL).nonzero()[0][0])


def _canonical_eigenvector(vals: np.ndarray, vecs: np.ndarray, j: int) -> np.ndarray:
    """A unit vector of the eigenspace of ``vals[j]`` that depends on the eigenspace alone.

    The first standard basis vector e_k of weight P[k, k] > 1e-6 is projected
    onto the eigenspace and normalised, so its k-th entry is real positive and
    round-off inside a degenerate eigenspace cannot move it.
    """
    V = vecs[:, np.abs(vals - vals[j]) <= EIGENSPACE_TOL]
    P = V @ V.conj().T
    k = int((P.diagonal().real > 1e-6).nonzero()[0][0])
    return P[:, k] / np.sqrt(P[k, k].real)


def negativity_witness(rep: Representation, tol: float = 1e-6) -> dict:
    """Exhibit nonclassicality of a frame/dual pair.

    Searches for a pure state with a quasi-probability below -tol; failing
    that (positive frames), for a rank-1 projector whose effect function
    leaves [0, 1].  Extremal eigenvectors of the frame and dual operators
    realize both bounds, so batched spectra decide the scan: the whole frame
    stack's, and the dual stack's in chunks of 1, 2, 4, ... operators up to
    the first chunk holding one outside [-tol, 1 + tol].  Only the chosen
    operator is diagonalized again for its vector.  Values
    tied with the minimum up to WITNESS_TIE_TOL go to the first label, and the
    vector is the canonical one of its eigenspace, so round-off cannot pick the
    witness.
    """
    lowest = np.linalg.eigvalsh(rep.frame.operators)[:, 0]
    i = _first_minimum(lowest)
    if lowest[i] < -tol:
        vec = _canonical_eigenvector(*np.linalg.eigh(rep.frame.operators[i]), 0)
        state = vec[:, None] * vec.conj()
        values = rep.represent(state).values
        return _witness(rep, "state", values, _first_minimum(values), state)
    for k in range(len(rep.dual).bit_length()):
        start = 2**k - 1  # chunk k holds the duals start, ..., 2 start
        spectra = np.linalg.eigvalsh(rep.dual.operators[start:2 * start + 1])
        outside = ((spectra[:, 0] < -tol) | (spectra[:, -1] > 1.0 + tol)).nonzero()[0]
        if len(outside):
            i = start + int(outside[0])
            vals, vecs = np.linalg.eigh(rep.dual.operators[i])
            j = 0 if vals[0] < -tol or vals[0] > 1.0 + tol else len(vals) - 1
            vec = _canonical_eigenvector(vals, vecs, j)
            effect = vec[:, None] * vec.conj()
            return _witness(rep, "effect", rep.effect(effect).values, i, effect)
    return {"found": False, "representation": rep.name}


def _witness(rep: Representation, kind: str, values: np.ndarray, k: int, witness: np.ndarray) -> dict:
    """The report of ``witness``, whose value at label k leaves the range of its side."""
    return {"found": True, "kind": kind, "representation": rep.name,
            "value": float(values[k]), "label": rep.labels[k], "witness": witness}


_NMR_DEFAULT_GRID = {1: 10014, 2: 114, 3: 26}


def _nmr_distribution(rho: np.ndarray, n_qubits: int, grid: np.ndarray) -> np.ndarray:
    """``Tr[rho K(n_1) x ... x K(n_n)]`` for every tuple of grid directions, the first qubit's major."""
    rows, cols, outs = "abc"[:n_qubits], "def"[:n_qubits], "ijk"[:n_qubits]
    kernels = ",".join(o + c + r for o, c, r in zip(outs, cols, rows))
    uppers = qubit_kernel_upper(grid)
    R = rho.reshape((2,) * (2 * n_qubits))
    out = np.einsum(f"{rows}{cols},{kernels}->{outs}", R, *[uppers] * n_qubits)
    return out.real.reshape(-1)


def nmr_classicality(
    n_qubits: int,
    epsilon: float,
    rho1: np.ndarray | None = None,
) -> NmrReport:
    """Positivity of mu for rho = (1-eps) I/2^n + eps rho1 on sampled tuples.

    The distribution is evaluated against tensor products of the spin-1/2
    dual kernels over a direction grid that includes the axes and diagonals
    where the extrema sit.  Default rho1 is the tensor power of the
    Bloch-(1,1,1)/sqrt(3) pure state, which saturates the analytic bound.
    """
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, (int, np.integer)):
        raise UnsupportedDimensionError(f"the register size must be an integer, got {n_qubits!r}")
    if n_qubits not in _NMR_DEFAULT_GRID:
        raise UnsupportedDimensionError("register capped at 3 qubits")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    dim = 2**n_qubits
    if rho1 is None:
        c = 1.0 / np.sqrt(3.0)
        rho1 = tensor(*[bloch_state(c, c, c)] * n_qubits)
    else:
        rho1 = np.asarray(rho1, dtype=complex)
        if rho1.shape != (dim, dim):
            raise DimensionMismatchError(f"rho1 must be {dim} x {dim}")
        if not is_density(rho1, tol=1e-8):
            raise ValueError("rho1 must be a density operator")
    grid = nmr_sample_directions(_NMR_DEFAULT_GRID[n_qubits])
    rho = epsilon * rho1
    diagonal = np.arange(dim)
    rho[diagonal, diagonal] += (1.0 - epsilon) / dim
    values = _nmr_distribution(rho, n_qubits, grid)
    sampled_min = float(np.minimum.reduce(values))
    scale = (4.0 * np.pi) ** n_qubits
    analytic_min = ((1.0 - epsilon) - epsilon * 2 ** (2 * n_qubits - 1)) / scale
    bound = 1.0 / (1.0 + 2 ** (2 * n_qubits - 1))
    return NmrReport(
        n_qubits=n_qubits,
        epsilon=epsilon,
        epsilon_bound=bound,
        sampled_min=sampled_min,
        classical=epsilon <= bound + EQ_GUARD,
        analytic_min=analytic_min,
        bound_respected=sampled_min >= analytic_min - 1e-10,
        tuple_count=len(grid) ** n_qubits,
    )


def teleport_phase_space(
    d: int, rho_in: np.ndarray, outcome: tuple[int, int]
) -> TeleportOutcome:
    """One branch of qudit teleportation, viewed on the lattice.

    Systems 2,3 share the maximally entangled pair; the Bell measurement on
    1,2 projects onto (I x U_(a,b))|pair>.  Conditioned on outcome (a,b) the
    output distribution is the input one displaced by (q,p) -> (q-a, p+b);
    the residual reports the worst deviation from that identity.

    The Bell projector has rank one on systems 1,2, so the branch of the
    three-system simulation is exactly M rho M^dag on system 3, with
    M[k, i] = sum_j conj(bell[i, j]) pair[j, k]: O(d^3), not O(d^9).
    """
    return _teleport_branches(d, rho_in, [outcome])[0]


def _teleport_lattice(d: int) -> Representation:
    """The lattice teleportation over C^d runs on; d must be an odd prime within the stack budget.

    The budget is charged for the branches' stacks, three of d^2 d x d
    matrices (the Weyl operators, M and the branches), before the lattice,
    which holds no stack, charges its own tables.
    """
    if not _is_prime(d) or d % 2 == 0:
        raise UnsupportedDimensionError(f"need an odd prime dimension, got {d}")
    check_stack_budget(f"teleportation over d = {d}", 3 * d * d, d)
    return _lattice((d,))


def _teleport_branches(d: int, rho_in: np.ndarray, outcomes) -> list[TeleportOutcome]:
    """``teleport_phase_space`` for each outcome, as one stacked computation.

    The input is represented once, the outcomes' Weyl operators come from one
    ``weyl_monomials`` call, the amplitude matrices M, the branches
    ``M rho M^dag`` and their traces are one stacked product each, and the
    displaced input grids are gathered by index arithmetic; each branch's
    output state is represented on its own.
    """
    rep = _teleport_lattice(d)
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (d, d):
        raise DimensionMismatchError(f"state must be {d} x {d}")
    mu_in = rep.represent(rho_in)
    alphas = np.array([int(o[0]) % d for o in outcomes], dtype=np.int64)
    betas = np.array([int(o[1]) % d for o in outcomes], dtype=np.int64)
    # amplitude matrices: pair[j, k] of |pair> on systems 2,3, and
    # bell[i, j] = U[j, i] / sqrt(d) of (I x U)|pair> on systems 1,2; the conjugates, the normalization and
    # the residuals are taken in place, so at most three stacks of d^2 d x d matrices (or their real
    # halves) are held at once, as _teleport_lattice charges
    pair = np.eye(d) / np.sqrt(d)
    bell = weyl_monomials(d, alphas, betas).swapaxes(1, 2) / np.sqrt(d)
    M = (np.conjugate(bell, out=bell) @ pair).swapaxes(1, 2)
    del bell
    post = M @ rho_in
    post = post @ np.conjugate(M, out=M).swapaxes(1, 2)
    del M
    probs = post.trace(axis1=1, axis2=2).real
    rho_out = post
    rho_out /= probs[:, None, None]
    mu_out = [rep.represent(rho) for rho in rho_out]
    # labels run (q, p) in row-major order, so values.reshape(d, d)[q, p] is mu(q, p); branch n's
    # displaced grid is mu_in at ((q - alpha_n) mod d, (p + beta_n) mod d)
    r = np.arange(d)
    rows = (r - alphas[:, None]) % d
    cols = (r + betas[:, None]) % d
    displaced = mu_in.values.reshape(d, d)[rows[:, :, None], cols[:, None, :]].reshape(len(alphas), d * d)
    diff = np.array([mu.values for mu in mu_out])
    diff -= displaced
    residuals = np.maximum.reduce(np.abs(diff, out=diff), axis=1)
    return [
        TeleportOutcome(
            outcome=(int(alphas[n]), int(betas[n])),
            probability=float(probs[n]),
            mu_out=mu_out[n],
            displacement_residual=float(residuals[n]),
            state_out=rho_out[n],
        )
        for n in range(len(mu_out))
    ]


def bell_wigner_demo(a: float, b: float, c: float) -> dict:
    """Singlet correlations for three coplanar spin axes and the Bell-Wigner bound.

    Correlation C(s, t) is computed by the Born rule from the +-1 outcome
    probabilities; the inequality compares |C(a,b) - C(a,c)| to 1 + C(b,c).
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError("angles must be finite")
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    singlet = v[:, None] * v
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    # the (+1, -1) projectors of the spin along axis t are the spin-1/2 kernels at +-(sin t, 0, cos t)
    n = np.zeros((6, 3))
    n[0::2, 0] = np.sin([a, b, c])
    n[0::2, 2] = np.cos([a, b, c])
    n[1::2] = -n[0::2]
    projectors = qubit_kernel_lower(n).reshape(3, 2, 2, 2)

    def correlation(i, j):
        # the stacked products run over the outcomes (+, +), (+, -), (-, +), (-, -)
        born = (singlet @ tensor(projectors[i], projectors[j])).trace(axis1=1, axis2=2).real
        return float(np.add.reduce(signs * born))

    c_ab = correlation(0, 1)
    c_ac = correlation(0, 2)
    c_bc = correlation(1, 2)
    lhs = abs(c_ab - c_ac)
    rhs = 1.0 + c_bc
    return {
        "C_ab": c_ab,
        "C_ac": c_ac,
        "C_bc": c_bc,
        "lhs": lhs,
        "rhs": rhs,
        "violated": bool(lhs > rhs + 1e-10),
    }
