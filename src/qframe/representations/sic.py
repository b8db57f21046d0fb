"""Symmetric informationally complete measurements as a probability representation.

The Weyl orbit of a fiducial vector whose pairwise overlaps all equal
1/(d+1) yields d^2 subnormalized projectors P_k = |phi_k><phi_k| / d that
form a POVM.  Outcome probabilities mu(k) = Tr(rho P_k) determine the state,
and effect probabilities follow from a quasi-classical update rule.
"""

from __future__ import annotations

import numpy as np
import numpy.random

from ..errors import (
    DimensionMismatchError,
    FiducialSearchError,
    UnsupportedDimensionError,
)
from ..frames import Frame, QuasiDistribution, _check_values
from ..operators import _gaussian_pairs, weyl_monomials
from .base import Representation, check_stack_budget

SEARCH_TOL = 1e-8
SEARCH_STARTS = 50
PROVIDED_TOL = 1e-6
MAX_SEARCH_DIM = 8

# Levenberg-Marquardt schedule of the fiducial search.  Dampings are in
# units of the largest diagonal entry of J^T J at the start point.
MAX_TRIALS = 200  # trial steps per start, accepted or not
DAMPING = 1e-3
DAMPING_DOWN = 1.0 / 3.0  # after a step that lowers the summed squares
DAMPING_UP = 4.0  # after one that does not
# J^T J is singular along the norm and the global phase of phi, so the
# damping stays above MIN_DAMPING to keep the step solvable.
MIN_DAMPING = 1e-12
MAX_DAMPING = 1e8  # a start that needs more sits at a nonzero minimum
CONVERGED = 1e-14  # every overlap within this of 1/(d+1)


def _phase_gauge(phi: np.ndarray) -> np.ndarray:
    for x in phi:
        if abs(x) > 1e-9:
            return phi * (abs(x) / x)
    raise ValueError("fiducial must be nonzero")


def _qubit_fiducial() -> np.ndarray:
    # Bloch vector (1,1,1)/sqrt(3): polar angle arccos(1/sqrt(3)), azimuth pi/4
    c = 1.0 / np.sqrt(3.0)
    return np.array(
        [np.sqrt((1 + c) / 2), np.exp(1j * np.pi / 4) * np.sqrt((1 - c) / 2)]
    )


def _orbit_stack(d: int) -> np.ndarray:
    """The d^2 - 1 Weyl operators U_(p,q) = omega**(pq/2) X^p Z^q, (p,q) != (0,0), row-major."""
    p, q = np.divmod(np.arange(1, d * d), d)
    return weyl_monomials(d, p, q)


def _deviation(stack: np.ndarray, phi: np.ndarray) -> float:
    d = stack.shape[1]
    overlaps = np.abs((stack.reshape(-1, d) @ phi).reshape(-1, d) @ phi.conj()) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / (d + 1))))


def overlap_deviation(d: int, phi: np.ndarray) -> float:
    """Largest deviation of |<phi|U_pq phi>|^2 from 1/(d+1), (p,q) != (0,0)."""
    phi = np.asarray(phi, dtype=complex).reshape(d)
    return _deviation(_orbit_stack(d), phi / np.linalg.norm(phi))


def _residuals(stack: np.ndarray, phi: np.ndarray, target: float):
    """Overlap residuals r_k = |v_k|^2 - target, v_k = phi+ U_k phi / n, and their Jacobian.

    The Wirtinger gradient dr_k/d(conj phi) gives the derivatives in the
    real coordinates (Re phi, Im phi) as twice its real and imaginary parts.
    """
    n = float(np.real(np.vdot(phi, phi)))
    uphi = stack @ phi
    udphi = (phi.conj() @ stack).conj()
    v = uphi @ phi.conj() / n
    w = np.abs(v) ** 2
    grad_phi = (
        v.conj()[:, None] * uphi
        + v[:, None] * udphi
        - 2.0 * w[:, None] * phi[None, :]
    ) / n
    return w - target, 2.0 * np.hstack([grad_phi.real, grad_phi.imag])


def _descend(stack: np.ndarray, phi: np.ndarray, target: float) -> np.ndarray:
    """Levenberg-Marquardt descent of sum_k r_k^2 from phi, renormalised every step.

    A fiducial is a zero-residual solution, so near one the Gauss-Newton
    steps converge quadratically.
    """
    d = phi.size
    phi = phi / np.linalg.norm(phi)
    r, J = _residuals(stack, phi, target)
    cost = r @ r
    A, g = J.T @ J, J.T @ r
    unit = np.max(np.diag(A)) * np.eye(2 * d)
    lam = DAMPING
    for _ in range(MAX_TRIALS):
        if np.max(np.abs(r)) <= CONVERGED or lam > MAX_DAMPING:
            break
        step = np.linalg.solve(A + lam * unit, -g)
        trial = phi + step[:d] + 1j * step[d:]
        trial = trial / np.linalg.norm(trial)
        r_trial, J_trial = _residuals(stack, trial, target)
        if r_trial @ r_trial < cost:
            phi, r, J = trial, r_trial, J_trial
            cost = r @ r
            A, g = J.T @ J, J.T @ r
            lam = max(lam * DAMPING_DOWN, MIN_DAMPING)
        else:
            lam *= DAMPING_UP
    return phi


def _check_search_dim(d: int) -> None:
    if d < 2:
        raise UnsupportedDimensionError(f"need dimension >= 2, got {d}")
    if d > MAX_SEARCH_DIM:
        raise UnsupportedDimensionError(
            f"fiducial search supports d <= {MAX_SEARCH_DIM}, got {d}"
        )


def _search(stack: np.ndarray, seed: int, starts: int) -> tuple[np.ndarray, int]:
    """Fiducial for the orbit ``stack`` and the number of starts the search used."""
    d = stack.shape[1]
    if d == 2:
        return _qubit_fiducial(), 0
    rng = np.random.default_rng(seed)
    best = np.inf
    for k in range(starts):
        G = _gaussian_pairs(rng, 1, d, 1)[0, :, :, 0]
        phi = _descend(stack, G[0] + 1j * G[1], 1.0 / (d + 1))
        dev = _deviation(stack, phi)
        if dev < SEARCH_TOL:
            return _phase_gauge(phi), k + 1
        best = min(best, dev)
    raise FiducialSearchError(
        f"no fiducial found in dimension {d}: best overlap deviation {best:.3e}"
    )


def sic_fiducial(d: int, seed: int = 0, starts: int = SEARCH_STARTS) -> np.ndarray:
    """Unit vector whose Weyl orbit has all pairwise overlaps 1/(d+1).

    d=2 has a closed form; larger dimensions run a seeded multi-start
    Levenberg-Marquardt search over the d^2 - 1 overlap residuals and accept
    the first start whose overlap deviation is below ``SEARCH_TOL``.
    """
    _check_search_dim(d)
    return _search(_orbit_stack(d), seed, starts)[0]


def sic_rep(
    d: int,
    fiducial: np.ndarray | None = None,
    seed: int = 0,
    starts: int = SEARCH_STARTS,
) -> Representation:
    """POVM frame P_k over the Weyl orbit with dual D_k = d(d+1)P_k - I.

    ``meta`` records the fiducial, its overlap deviation and the search
    starts used (0 for d = 2 and for a provided fiducial).
    """
    if d < 2:
        raise UnsupportedDimensionError(f"need dimension >= 2, got {d}")
    if fiducial is None:
        _check_search_dim(d)
    else:
        phi = np.asarray(fiducial, dtype=complex).reshape(-1)
        if phi.shape != (d,):
            raise DimensionMismatchError(f"fiducial must have {d} components")
        norm = np.linalg.norm(phi)
        if norm < 1e-12:
            raise ValueError("fiducial must be nonzero")
        phi, used = phi / norm, 0
    # the orbit, the frame and the dual
    check_stack_budget(f"sic_rep({d})", 3 * d * d, d)
    stack = _orbit_stack(d)
    if fiducial is None:
        phi, used = _search(stack, seed, starts)
    dev = _deviation(stack, phi / np.linalg.norm(phi))  # as overlap_deviation reports it
    if dev > PROVIDED_TOL:
        raise FiducialSearchError(
            f"fiducial overlap deviation {dev:.3e} exceeds {PROVIDED_TOL:.0e}"
        )
    labels = tuple(np.ndindex(d, d))  # (p, q), row-major
    vecs = np.vstack([phi, stack @ phi])  # U_00 = I, then the orbit in label order
    ops = vecs[:, :, None] * vecs[:, None, :].conj() / d
    frame = Frame(labels, ops, "sic")
    dual = Frame(labels, d * (d + 1) * ops - np.eye(d), "sic")
    return Representation(
        frame,
        dual,
        meta={"fiducial": phi, "overlap_deviation": dev, "search_starts": used},
        checks=(("overlap_deviation", SEARCH_TOL, _reported_deviation),),
    )


def _reported_deviation(rep: Representation, rng: np.random.Generator) -> float:
    """The fiducial's overlap deviation as the build measured it: a module-level check, so a pair pickles."""
    return float(rep.meta["overlap_deviation"])


def fiducial_search_stats(rep: Representation) -> dict:
    """The overlap deviation and search starts ``sic_rep`` records in ``meta``; empty for another pair."""
    if "search_starts" not in rep.meta:
        return {}
    return {
        "overlap_deviation": float(rep.meta["overlap_deviation"]),
        "search_starts": int(rep.meta["search_starts"]),
    }


def sic_conditional(rep: Representation, effect: np.ndarray) -> np.ndarray:
    """Conditional outcome weights xi(k) = Tr(E |phi_k><phi_k|) for an effect."""
    if rep.name != "sic":
        raise ValueError(f"expected a sic representation, got {rep.name!r}")
    return rep.dim * rep.frame.analyze(effect, "effect")


def sic_born(mu: QuasiDistribution, xi) -> float:
    """Effect probability from SIC outcome data.

    Computes ``sum_k [(d+1) mu(k) - 1/d] xi(k)``; for mu(k) = Tr(rho P_k) and
    xi(k) = Tr(E |phi_k><phi_k|) this equals Tr(rho E) exactly.  Only a
    ``sic`` representation's values are accepted as mu.
    """
    d = mu.dim
    _check_values(mu, tuple(np.ndindex(d, d)), "sic", d, "expected a sic representation's outcome probabilities")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.shape != (d * d,):
        raise DimensionMismatchError("xi must have d^2 entries")
    return float(np.dot((d + 1) * mu.values - 1.0 / d, xi))
