"""Property-verification suites for built representations.

Each suite returns a report of named checks with worst residuals; the CLI
`verify` verb serializes it and maps failures to its exit code.

Sampling: each stack of seeded samples (the Born states, the Born effects,
the round-trip states and the line-sum states) has its own stream.  Its k
samples are k consecutive draws of one generator,
``np.random.default_rng([seed, stream])``, equal to k calls of
``random_state(d, seed=rng)`` or ``random_effect(d, seed=rng)`` on it, so a
smaller ``samples`` draws a prefix of a larger one.  Check i of ``rep.checks``
is called as ``residual(rep, rng)`` on stream ``FAMILY_CHECKS + i``.
"""

from __future__ import annotations

import numpy as np

from .frames import Frame, check_stack_budget, is_dual_pair
from .operators import _norm, _random_effects, _random_states
from .representations import Representation, striation_pvms
from .representations.sic import fiducial_search_stats

DUALITY_TOL = 1e-9
BORN_TOL = 1e-8
ROUND_TRIP_TOL = 1e-8
LINE_TOL = 1e-9

# the stream of each sample stack, then the first of the family checks' streams
BORN_STATES, BORN_EFFECTS, ROUND_TRIP, LINE_STATES, FAMILY_CHECKS = range(5)


def _check(name: str, residual: float, tol: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tol),
        "passed": bool(residual < tol),
    }


def _born_residual(rep: Representation, seed: int, samples: int) -> float:
    rho = _random_states(rep.dim, samples, np.random.default_rng([seed, BORN_STATES]))
    E = _random_effects(rep.dim, samples, np.random.default_rng([seed, BORN_EFFECTS]))
    born = np.einsum("kn,kn->k", rep.frame.analyze(rho), rep.dual.analyze(E))
    exact = np.einsum("kij,kji->k", rho, E).real
    return float(np.maximum.reduce(np.abs(born - exact)))


def _round_trip_residual(rep: Representation, seed: int, samples: int) -> float:
    rho = _random_states(rep.dim, samples, np.random.default_rng([seed, ROUND_TRIP]))
    back = rep.dual.synthesize(rep.frame.analyze(rho))
    return float(np.maximum.reduce(_norm(back - rho, axis=(1, 2))))


def _line_residuals(rep: Representation, seed: int, states: int) -> tuple[float, float]:
    pvms = striation_pvms(rep)
    resolved = np.add.reduce(pvms, axis=1)
    resolved.reshape(len(resolved), -1)[:, ::rep.dim + 1] -= 1.0
    pvm_worst = max(float(np.maximum.reduce(np.abs(resolved), axis=None)),
                    float(np.maximum.reduce(np.abs(pvms @ pvms - pvms), axis=None)))
    rho = _random_states(rep.dim, states, np.random.default_rng([seed, LINE_STATES]))
    line_sums = np.add.reduce(rep.frame.analyze(rho)[:, rep.geometry.line_index], axis=3)
    # the Born side pairs the states with the d(d + 1) line operators as one family
    lines = pvms.reshape(-1, rep.dim, rep.dim)
    born = Frame(range(len(lines)), lines).analyze(rho).reshape(line_sums.shape)
    return pvm_worst, float(np.maximum.reduce(np.abs(line_sums - born), axis=None))


def verify_representation(
    rep: Representation, seed: int = 0, samples: int = 200
) -> dict:
    """Run the property suite for one representation.

    Universal checks: Hermitian families, frame/dual duality, Born-rule
    consistency on seeded (state, effect) pairs, and reconstruction round
    trips.  Lattice geometries add striation-projector and line-sum laws,
    and the factory's own identities in ``rep.checks`` come last.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    # in d x d operators: the Born samples peak at 6.1-7.3 per sample, and at d = 13-43 the unsampled steps
    # at 1.98 per frame operator (is_dual_pair) and 2.50 per line (striation_pvms and its square); the
    # frame and the dual the run holds, 2 per frame operator, stay alive through all of them
    lines = rep.geometry.line_index.shape[:2] if rep.geometry is not None else (0, 0)
    check_stack_budget(f"verify_representation({rep.name}, samples={samples})",
                       8 * samples + 3 * max(len(rep.frame), lines[0] * lines[1]) + 2 * len(rep.frame),
                       rep.dim)
    checks = [
        _check("hermitian_families", max(rep.frame.skew, rep.dual.skew), 1e-10),
        _check("duality", is_dual_pair(rep.frame, rep.dual)[1], DUALITY_TOL),
        _check("born_consistency", _born_residual(rep, seed, samples), BORN_TOL),
        _check(
            "round_trip",
            _round_trip_residual(rep, seed, min(samples, 25)),
            ROUND_TRIP_TOL,
        ),
    ]
    if rep.geometry is not None and rep.geometry.line_index.size:
        pvm_worst, sum_worst = _line_residuals(rep, seed, 10)
        checks.append(_check("striation_projectors", pvm_worst, LINE_TOL))
        checks.append(_check("line_sums_match_born", sum_worst, LINE_TOL))
    for i, (name, tol, residual) in enumerate(rep.checks):
        checks.append(_check(name, residual(rep, np.random.default_rng([seed, FAMILY_CHECKS + i])), tol))
    return {
        "representation": rep.name,
        "dim": int(rep.dim),
        "samples": int(samples),
        "seed": int(seed),
        "checks": checks,
        "all_passed": bool(all(c["passed"] for c in checks)),
        **fiducial_search_stats(rep),
    }
