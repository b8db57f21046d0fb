"""Property-verification suites for built representations.

Each suite returns a report of named checks with worst residuals; the CLI
`verify` verb serializes it and maps failures to its exit code.
"""

from __future__ import annotations

import numpy as np

from .frames import born_pair, is_dual_pair
from .operators import frobenius, random_effect, random_state, trace_inner
from .representations import Representation, extended_distribution, striation_pvms

DUALITY_TOL = 1e-9
BORN_TOL = 1e-8
ROUND_TRIP_TOL = 1e-8
LINE_TOL = 1e-9


def _check(name: str, residual: float, tol: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tol),
        "passed": bool(residual < tol),
    }


def _hermiticity_residual(rep: Representation) -> float:
    worst = 0.0
    for fam in (rep.frame, rep.dual):
        for op in fam.operators:
            worst = max(worst, float(np.max(np.abs(op - op.conj().T))))
    return worst


def _born_residual(rep: Representation, seed: int, samples: int) -> float:
    worst = 0.0
    for k in range(samples):
        rho = random_state(rep.dim, seed=seed + 2 * k)
        E = random_effect(rep.dim, seed=seed + 2 * k + 1)
        mu = rep.represent(rho)
        xi = rep.effect(E)
        worst = max(worst, abs(born_pair(mu, xi) - trace_inner(rho, E)))
    return worst


def _round_trip_residual(rep: Representation, seed: int, samples: int) -> float:
    worst = 0.0
    for k in range(samples):
        rho = random_state(rep.dim, seed=seed + k)
        back = rep.reconstruct(rep.represent(rho))
        worst = max(worst, frobenius(back - rho))
    return worst


def _line_residuals(rep: Representation, seed: int, states: int) -> tuple[float, float]:
    pvms = striation_pvms(rep)
    eye = np.eye(rep.dim)
    pvm_worst = 0.0
    for pvm in pvms:
        total = np.sum(pvm, axis=0)
        pvm_worst = max(pvm_worst, float(np.max(np.abs(total - eye))))
        for P in pvm:
            pvm_worst = max(pvm_worst, float(np.max(np.abs(P @ P - P))))
    index = {pt: i for i, pt in enumerate(rep.frame.labels)}
    sum_worst = 0.0
    for k in range(states):
        rho = random_state(rep.dim, seed=seed + k)
        mu = rep.represent(rho)
        for s, lines in enumerate(rep.geometry.striations):
            for c, li in enumerate(lines):
                line_sum = sum(mu.values[index[pt]] for pt in rep.geometry.lines[li])
                born = trace_inner(rho, pvms[s][c])
                sum_worst = max(sum_worst, abs(line_sum - born))
    return pvm_worst, sum_worst


def _unbiasedness_residual(rep: Representation) -> float:
    family = rep.meta["family"]
    d = rep.dim
    worst = 0.0
    bases = family.bases
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            ov = np.abs(bases[i].conj().T @ bases[j]) ** 2
            worst = max(worst, float(np.max(np.abs(ov - 1.0 / d))))
    return worst


def _extended_nonnegativity(rep: Representation, seed: int, states: int) -> float:
    worst = 0.0
    for k in range(states):
        rho = random_state(rep.dim, seed=seed + k)
        ext = extended_distribution(rep.represent(rho))
        worst = max(worst, max(0.0, -float(ext.values.min())))
    return worst


def fiducial_search_stats(rep: Representation) -> dict:
    """The SIC fiducial's overlap deviation and the search starts it took, if any."""
    if "search_starts" not in rep.meta:
        return {}
    return {
        "overlap_deviation": float(rep.meta["overlap_deviation"]),
        "search_starts": int(rep.meta["search_starts"]),
    }


def verify_representation(
    rep: Representation, seed: int = 0, samples: int = 200
) -> dict:
    """Run the property suite for one representation.

    Universal checks: Hermitian families, frame/dual duality, Born-rule
    consistency on seeded (state, effect) pairs, and reconstruction round
    trips.  Lattice geometries add striation-projector and line-sum laws;
    some factories add their defining identity.
    """
    checks = [
        _check("hermitian_families", _hermiticity_residual(rep), 1e-10),
        _check("duality", is_dual_pair(rep.frame, rep.dual)[1], DUALITY_TOL),
        _check("born_consistency", _born_residual(rep, seed, samples), BORN_TOL),
        _check(
            "round_trip",
            _round_trip_residual(rep, seed + 10_000, min(samples, 25)),
            ROUND_TRIP_TOL,
        ),
    ]
    if rep.geometry is not None and rep.geometry.striations:
        pvm_worst, sum_worst = _line_residuals(rep, seed + 20_000, 10)
        checks.append(_check("striation_projectors", pvm_worst, LINE_TOL))
        checks.append(_check("line_sums_match_born", sum_worst, LINE_TOL))
    if rep.name == "mub":
        checks.append(_check("pairwise_unbiasedness", _unbiasedness_residual(rep), 1e-9))
    if rep.name == "sic":
        checks.append(
            _check("overlap_deviation", float(rep.meta["overlap_deviation"]), 1e-8)
        )
    if rep.name == "cohendet":
        checks.append(
            _check(
                "extended_nonnegativity",
                _extended_nonnegativity(rep, seed + 30_000, 20),
                1e-10,
            )
        )
    if rep.name == "stratonovich":
        dual_sum = rep.dual.operators.sum(axis=0)
        res = float(np.max(np.abs(dual_sum - np.eye(rep.dim))))
        checks.append(_check("dual_resolves_identity", res, 1e-8))
    return {
        "representation": rep.name,
        "dim": int(rep.dim),
        "samples": int(samples),
        "seed": int(seed),
        "checks": checks,
        "all_passed": bool(all(c["passed"] for c in checks)),
        **fiducial_search_stats(rep),
    }
