"""Workloads: what one pass builds, runs and checks.

A pass runs in a fresh worker process (``worker.py``) so that every pass
pays a cold ``import qframe`` and, on cold_build, every build is the first
of its kind in the process; cli_session's pass forks a child of its own per
invocation.  Inputs come from numpy generators seeded with
the run seed alone, so every pass of a run repeats the same operations and
the parent can take each operation's fastest repeat; the program only ever
sees those inputs.  Each operation is timed alone, and its output is
checked afterwards, outside the timed phase, against the tolerances in
``qframe.verify``.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

import qframe.frames as F
import qframe.representations as R
import qframe.verify as V

import cli_session
import tracer as tracing

_clock = time.perf_counter


class Pass:
    """Latencies, wall times and verdicts of the rounds of one pass.

    A round times a fixed list of operations once each.  Latencies are kept
    in the list's order whatever order the round ran them in, so that the
    same operation has the same index in every round of every pass.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.labels: list[str] = []
        self.rounds: list[list[float]] = []
        self.round_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra: dict = {}  # workload-specific fields of the result

    def round(self, ops, check, order=None) -> None:
        """Time each ``(label, fn)`` of ``ops`` once, then check every output with ``check(j, result)``."""
        if not self.labels:
            self.labels = [label for label, _ in ops]
        latency = [0.0] * len(ops)
        results = [None] * len(ops)
        start = _clock()
        for j in range(len(ops)) if order is None else order:
            results[j], latency[j] = self.timed(*ops[j])
        self.round_walls.append(_clock() - start)
        self.rounds.append(latency)
        for j, result in enumerate(results):
            self.verdict(ops[j][0], result, lambda out: check(j, out))

    def timed(self, label: str, fn):
        """Run one operation; an exception is returned, to be counted by ``verdict``."""
        tr = self.tracer
        if tr is not None:
            tr.begin_op(label)
        start = _clock()
        try:
            result = fn()
        except Exception as exc:  # a failing operation is counted and the pass goes on
            result = exc
        elapsed = _clock() - start
        if tr is not None:
            tr.end_op()
        return result, elapsed

    def verdict(self, label: str, result, check) -> None:
        """Count one attempted operation; ``check`` returns None or why the output is wrong."""
        self.attempted += 1
        if isinstance(result, Exception):
            reason = f"{type(result).__name__}: {result}"
        else:
            try:
                reason = check(result)
            except Exception as exc:  # a malformed output is a failed check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{label}: {reason}")

    def to_doc(self) -> dict:
        return {
            "labels": self.labels,
            "rounds": self.rounds,
            "round_walls": self.round_walls,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            **self.extra,
        }


# inputs, numpy only


def random_densities(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """``n`` density matrices whose ranks are drawn uniformly from 1..d."""
    G = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    G *= np.arange(d) < rng.integers(1, d + 1, size=(n, 1, 1))
    rho = G @ G.conj().swapaxes(1, 2)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def random_effects(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Haar-rotated effects, rank uniform in 1..d, nonzero eigenvalues uniform in (0, 1]."""
    Q, Rm = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    diag = np.diagonal(Rm, axis1=1, axis2=2)
    U = Q * (diag / np.abs(diag))[:, None, :]
    vals = (1.0 - rng.uniform(0.0, 1.0, size=(n, d))) * (np.arange(d) < rng.integers(1, d + 1, size=(n, 1)))
    return (U * vals[:, None, :]) @ U.conj().swapaxes(1, 2)


# Cold builds, made in state_stream's traced run for the per-layer build
# times: every (family, size) built once per process, then checked the way
# `qframe build` does it.  The searches (sic_rep's fiducial, the random
# constellation) keep fixed seeds: the number of starts or draws they make
# depends on the seed, and the work of a run must not.

CONSTELLATION_SEED = 0

COLD_BUILDS = [
    ("wootters-7", lambda: R.wootters(7)),
    ("wootters-13", lambda: R.wootters(13)),
    ("wootters-23", lambda: R.wootters(23)),
    ("wootters_composite-3x5", lambda: R.wootters_composite([3, 5])),
    ("cohendet-15", lambda: R.cohendet(15)),
    ("leonhardt-9", lambda: R.leonhardt(9)),
    ("leonhardt-16", lambda: R.leonhardt(16)),
    ("ruzzi_s0-9", lambda: R.ruzzi_s0(9)),
    ("ruzzi_s0-15", lambda: R.ruzzi_s0(15)),
    ("ghw-2-3", lambda: R.ghw(2, 3)),
    ("ghw-3-2", lambda: R.ghw(3, 2)),
    ("ghw-2-4", lambda: R.ghw(2, 4)),
    ("mub_family-13", lambda: R.mub_family(13).representation()),
    ("hardy_rep-16", lambda: R.hardy_rep(16)),
    ("havel_rep-4", lambda: R.havel_rep(4)),
    ("stratonovich_discrete-2",
     lambda: R.stratonovich_discrete(2, R.random_constellation(2, seed=CONSTELLATION_SEED)[0])),
    ("sic_rep-5", lambda: R.sic_rep(5)),
]


def _build_and_check(build):
    rep = build()
    ok, residual = F.is_dual_pair(rep.frame, rep.dual)
    lo, hi = F.frame_bounds(rep.frame)
    return ok, residual, lo, hi


def check_duality(result) -> str | None:
    ok, residual, lo, hi = result
    if not residual <= V.DUALITY_TOL:
        return f"duality residual {residual:.3e} > {V.DUALITY_TOL:.0e}"
    if not ok:
        return "is_dual_pair rejected the pair"
    if not 0 < lo <= hi:
        return f"frame bounds ({lo:.3e}, {hi:.3e}) are not a frame"
    return None


def cold_build_setup():
    return None


def cold_build_pass(state, seed: int, index: int, rounds: int, tracer, spans=None) -> Pass:
    """One round only: a second build of the same family in the process would not be cold."""
    p = Pass(tracer)
    p.round([(label, lambda build=build: _build_and_check(build)) for label, build in COLD_BUILDS],
            lambda j, out: check_duality(out))
    return p


# state_stream: built once, then states and effects pushed one at a time.

STREAM_BUILDS = [
    ("wootters-13", lambda: R.wootters(13)),
    ("wootters_composite-2x2", lambda: R.wootters_composite([2, 2])),
    ("ghw-2-3", lambda: R.ghw(2, 3)),
    ("hardy_rep-8", lambda: R.hardy_rep(8)),
    ("sic_rep-4", lambda: R.sic_rep(4)),
    ("havel_rep-3", lambda: R.havel_rep(3)),
    ("mub_family-7", lambda: R.mub_family(7).representation()),
]
# Operations per representation in each round.
STREAM_PER_REP = 150


def _quadruple(rep, rho, E):
    mu = rep.represent(rho)
    xi = rep.effect(E)
    prob = F.born_pair(mu, xi)
    back = rep.reconstruct(mu)
    return prob, back


def check_stream(result, rho, expected: float) -> str | None:
    prob, back = result
    born = abs(prob - expected)
    if not born <= V.BORN_TOL:
        return f"Born residual {born:.3e} > {V.BORN_TOL:.0e}"
    trip = float(np.linalg.norm(back - rho))
    if not trip <= V.ROUND_TRIP_TOL:
        return f"round-trip error {trip:.3e} > {V.ROUND_TRIP_TOL:.0e}"
    return None


def state_stream_setup():
    return [(label, build()) for label, build in STREAM_BUILDS]


def state_stream_pass(reps, seed: int, index: int, rounds: int, tracer, spans=None) -> Pass:
    """``rounds`` rounds of one seeded sequence of representations, with fresh states and effects in each.

    The costs of represent, effect, born_pair and reconstruct depend on the
    representation, not on the values of the state, so operation j of every
    round is the same work.  Fresh inputs keep a cache keyed on a state from
    ever hitting: no state or effect repeats within a run.
    """
    p = Pass(tracer)
    order = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(reps)), STREAM_PER_REP))
    rng = np.random.default_rng([seed, index])
    for _ in range(rounds):
        inputs = [None] * len(order)
        for k, (label, rep) in enumerate(reps):
            rhos = random_densities(rng, STREAM_PER_REP, rep.dim)
            effects = random_effects(rng, STREAM_PER_REP, rep.dim)
            born = np.einsum("nij,nji->n", rhos, effects).real
            for j, n in zip(np.flatnonzero(order == k), range(STREAM_PER_REP)):
                inputs[j] = (label, rep, rhos[n], effects[n], born[n])
        p.round([(label, lambda rep=rep, rho=rho, E=E: _quadruple(rep, rho, E))
                 for label, rep, rho, E, _ in inputs],
                lambda j, out: check_stream(out, inputs[j][2], inputs[j][4]))
    return p


# cli_session: the script of `qframe` invocations, each in a child forked
# right after `import qframe.cli` (see cli_session.py).


def cli_session_setup():
    from qframe.cli import main

    return main


def cli_session_pass(main, seed: int, index: int, rounds: int, tracer, spans=None) -> Pass:
    """``rounds`` rounds of the script; an invocation's latency is its child's ``main(argv)`` time.

    When traced, each child returns its summary, which the pass's summary
    merges, and the children of the first round write their raw spans next
    to ``spans``.
    """
    tol = {k: getattr(V, k) for k in ("DUALITY_TOL", "BORN_TOL", "ROUND_TRIP_TOL")}
    commands = cli_session.script(os.getcwd(), seed, tol)
    p = Pass(tracer)
    p.labels = [cmd.name for cmd in commands]
    first: dict[str, bytes] = {}
    summaries = []
    peak_rss = 0.0

    def child(cmd, k):
        result = cli_session.invoke(main, cmd.argv, tracer, cmd.name)
        if tracer is None:
            return result, None
        if k < len(commands):
            tracer.dump(f"{os.path.splitext(spans)[0]}-{k}.json")
        return result, tracer.summary(getattr(F, "hermitian_basis", None))

    for _ in range(rounds):
        latency = []
        for cmd in commands:
            ((code, stdout, stderr, elapsed), summary), rss = cli_session.forked(
                lambda: child(cmd, len(summaries)))
            latency.append(elapsed)
            peak_rss = max(peak_rss, rss)
            if summary is not None:
                summaries.append(summary)

            def check(_, cmd=cmd, code=code, stdout=stdout, stderr=stderr):
                why = cli_session.check_invocation(cmd, code, stdout, first.get(cmd.name))
                return None if why is None else f"{why}: {stderr.strip()[-300:]}"

            p.verdict(cmd.name, None, check)
            first.setdefault(cmd.name, stdout)
        p.rounds.append(latency)
        p.round_walls.append(sum(latency))
    p.extra["digests"] = {name: hashlib.sha256(out).hexdigest() for name, out in first.items()}
    p.extra["child_rss_mb"] = peak_rss
    if tracer is not None:
        p.extra["trace"] = tracing.merge(summaries)
    return p


WORKLOADS = {
    "cold_build": (cold_build_setup, cold_build_pass),
    "state_stream": (state_stream_setup, state_stream_pass),
    "cli_session": (cli_session_setup, cli_session_pass),
}
