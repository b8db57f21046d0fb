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
from ..frames import DualFrame, Frame, QuasiDistribution
from ..operators import weyl_operator
from .base import Representation

SEARCH_TOL = 1e-8
PROVIDED_TOL = 1e-6
MAX_SEARCH_DIM = 8


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
    return np.array(
        [weyl_operator(p, q, d) for p in range(d) for q in range(d)][1:]
    )


def overlap_deviation(d: int, phi: np.ndarray) -> float:
    """Largest deviation of |<phi|U_pq phi>|^2 from 1/(d+1), (p,q) != (0,0)."""
    phi = np.asarray(phi, dtype=complex).reshape(d)
    phi = phi / np.linalg.norm(phi)
    overlaps = np.abs((_orbit_stack(d).reshape(-1, d) @ phi).reshape(-1, d) @ phi.conj()) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / (d + 1))))


def _search_objective(stack: np.ndarray, target: float):
    # Wirtinger gradient of sum_k (|v_k|^2 - t)^2 with v_k = phi+ U_k phi / n
    d = stack.shape[1]

    def fun(x):
        phi = x[:d] + 1j * x[d:]
        n = float(np.real(np.vdot(phi, phi)))
        uphi = stack @ phi
        udphi = (phi.conj() @ stack).conj()
        v = uphi @ phi.conj() / n
        w = np.abs(v) ** 2
        dev = w - target
        f = float(np.sum(dev**2))
        grad_phi = (
            v.conj()[:, None] * uphi
            + v[:, None] * udphi
            - 2.0 * w[:, None] * phi[None, :]
        ) / n
        g = 2.0 * np.sum(dev[:, None] * grad_phi, axis=0)
        return f, np.concatenate([2.0 * g.real, 2.0 * g.imag])

    return fun


def sic_fiducial(
    d: int, seed: int = 11, starts: int = 50, tol: float = SEARCH_TOL
) -> np.ndarray:
    """Unit vector whose Weyl orbit has all pairwise overlaps 1/(d+1).

    d=2 has a closed form; larger dimensions run a seeded multi-start
    quasi-Newton minimization of the summed squared overlap deviations and
    accept the first minimizer below ``tol``.
    """
    if d < 2:
        raise UnsupportedDimensionError(f"need dimension >= 2, got {d}")
    if d > MAX_SEARCH_DIM:
        raise UnsupportedDimensionError(
            f"fiducial search supports d <= {MAX_SEARCH_DIM}, got {d}"
        )
    if d == 2:
        return _qubit_fiducial()
    from scipy.optimize import minimize  # slow to import, so only a search pays for it

    stack = _orbit_stack(d)
    fun = _search_objective(stack, 1.0 / (d + 1))
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(starts):
        x0 = rng.standard_normal(2 * d)
        # ftol=0 disables the relative-reduction stop; the quartic objective
        # bottoms out near machine precision only under the gradient test
        res = minimize(
            fun,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 3000, "ftol": 0.0, "gtol": 1e-20},
        )
        phi = res.x[:d] + 1j * res.x[d:]
        phi = phi / np.linalg.norm(phi)
        dev = overlap_deviation(d, phi)
        if dev < tol:
            return _phase_gauge(phi)
        best = min(best, dev)
    raise FiducialSearchError(
        f"no fiducial found in dimension {d}: best overlap deviation {best:.3e}"
    )


def sic_rep(
    d: int,
    fiducial: np.ndarray | None = None,
    seed: int = 11,
    starts: int = 50,
) -> Representation:
    """POVM frame P_k over the Weyl orbit with dual D_k = d(d+1)P_k - I."""
    if d < 2:
        raise UnsupportedDimensionError(f"need dimension >= 2, got {d}")
    if fiducial is None:
        phi = sic_fiducial(d, seed=seed, starts=starts)
    else:
        phi = np.asarray(fiducial, dtype=complex).reshape(-1)
        if phi.shape != (d,):
            raise DimensionMismatchError(f"fiducial must have {d} components")
        norm = np.linalg.norm(phi)
        if norm < 1e-12:
            raise ValueError("fiducial must be nonzero")
        phi = phi / norm
    dev = overlap_deviation(d, phi)
    if dev > PROVIDED_TOL:
        raise FiducialSearchError(
            f"fiducial overlap deviation {dev:.3e} exceeds {PROVIDED_TOL:.0e}"
        )
    labels = []
    ops = []
    for p in range(d):
        for q in range(d):
            v = weyl_operator(p, q, d) @ phi
            labels.append((p, q))
            ops.append(np.outer(v, v.conj()) / d)
    ops = np.array(ops)
    frame = Frame(dim=d, labels=tuple(labels), operators=ops, name="sic")
    dual = DualFrame(
        dim=d,
        labels=tuple(labels),
        operators=d * (d + 1) * ops - np.eye(d),
        name="sic",
    )
    return Representation(
        name="sic",
        dim=d,
        frame=frame,
        dual=dual,
        geometry=None,
        meta={"fiducial": phi, "overlap_deviation": dev},
    )


def sic_conditional(rep: Representation, effect: np.ndarray) -> np.ndarray:
    """Conditional outcome weights xi(k) = Tr(E |phi_k><phi_k|) for an effect."""
    if rep.name != "sic":
        raise ValueError(f"expected a sic representation, got {rep.name!r}")
    E = np.asarray(effect, dtype=complex)
    if E.shape != (rep.dim, rep.dim):
        raise DimensionMismatchError(f"effect must be {rep.dim} x {rep.dim}")
    return rep.dim * np.real(rep.frame.flat @ E.T.reshape(-1))


def sic_born(mu, xi) -> float:
    """Effect probability from SIC outcome data.

    Computes ``sum_k [(d+1) mu(k) - 1/d] xi(k)``; for mu(k) = Tr(rho P_k) and
    xi(k) = Tr(E |phi_k><phi_k|) this equals Tr(rho E) exactly.
    """
    if isinstance(mu, QuasiDistribution):
        d = mu.dim
        vals = mu.values
    else:
        vals = np.asarray(mu, dtype=float).reshape(-1)
        d = int(round(np.sqrt(vals.size)))
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if vals.shape != (d * d,) or xi.shape != (d * d,):
        raise DimensionMismatchError("mu and xi must both have d^2 entries")
    return float(np.dot((d + 1) * vals - 1.0 / d, xi))
