"""cli_session: a fixed script of ``qframe`` invocations, one child at a time.

A worker process imports ``qframe.cli`` once, as every ``qframe`` command
does first, and forks one child per invocation; the child runs
``main(argv)`` with stdout and stderr captured and exits.  So every
invocation starts from the state a fresh ``qframe`` process has right after
its import: nothing one invocation computes or caches reaches the next.
Interpreter start and the import itself are the workload's set-up, timed in
fresh interpreters.  The script covers all seven verbs at small sizes; its
input files come from numpy seeded with the run seed.  Each invocation is
checked for its exit code, for stdout that parses as JSON, for the verb's
own field, and for stdout that is byte-identical to the first run of the
same command in this run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pickle
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

IMPORT_PROBE = (
    "import time, json; t = time.perf_counter(); import qframe.cli; "
    "print(json.dumps({'import_s': time.perf_counter() - t}))"
)
VERBS = ("build", "represent", "reconstruct", "transform", "negativity", "verify", "demo")


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[dict], str | None]


def verb(name: str) -> str:
    """The verb a command of the script runs: its name up to the first '-'."""
    return name.split("-")[0]


def write_inputs(scratch: str, seed: int) -> tuple[str, str, float]:
    """A mixed qutrit state and a wootters d=3 quasi-distribution as JSON files, and the sum of the latter."""
    rng = np.random.default_rng([seed, 7])
    G = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    state = os.path.join(scratch, "state.json")
    with open(state, "w", encoding="utf-8") as fh:
        json.dump({"dim": 3, "re": rho.real.tolist(), "im": rho.imag.tolist()}, fh)
    values = 1.0 / 9 + 0.05 * rng.standard_normal(9)
    values -= (values.sum() - 1.0) / 9
    dist = os.path.join(scratch, "dist.json")
    with open(dist, "w", encoding="utf-8") as fh:
        json.dump({
            "representation": "wootters", "dim": 3,
            "labels": [[q, p] for q in range(3) for p in range(3)],
            "values": values.tolist(),
        }, fh)
    return state, dist, float(values.sum())


def _field(ok: bool, why: str) -> str | None:
    return None if ok else why


def script(scratch: str, seed: int, tol: dict) -> list[Command]:
    state, dist, dist_total = write_inputs(scratch, seed)
    eps = f"{np.random.default_rng([seed, 11]).uniform(0.02, 0.6):.4f}"
    out_dir = os.path.join(scratch, "build")
    s = str(seed)

    def round_trip(doc):
        return _field(doc["round_trip_error"] <= tol["ROUND_TRIP_TOL"],
                      f"round_trip_error {doc['round_trip_error']:.3e}")

    def reconstructed(doc):
        re, im = np.array(doc["re"]), np.array(doc["im"])
        herm = max(np.max(np.abs(re - re.T)), np.max(np.abs(im + im.T)))
        return _field(doc["dim"] == 3 and herm <= tol["BORN_TOL"]
                      and abs(np.trace(re) - dist_total) <= tol["BORN_TOL"],
                      "reconstructed operator is not Hermitian with the distribution's trace")

    def transformed(doc):
        return _field(doc["representation"] == "hardy" and len(doc["values"]) == 9
                      and all(math.isfinite(v) for v in doc["values"]), "bad hardy distribution")

    def negativity(doc):
        return _field(doc["negativity"] >= 0 and doc["abs_sum"] >= 1 - tol["BORN_TOL"],
                      "negativity report out of range")

    def built(doc):
        return _field(doc["duality_ok"] and doc["duality_residual"] <= tol["DUALITY_TOL"]
                      and all(os.path.isfile(f) for f in doc["files"].values()),
                      f"duality_ok {doc['duality_ok']}, residual {doc['duality_residual']:.3e}")

    return [
        Command("represent-pure", ["represent", "wootters", "--d", "3", "--pure", s], round_trip),
        Command("represent-state", ["represent", "hardy", "--d", "3", "--state", state], round_trip),
        Command("reconstruct", ["reconstruct", "wootters", "--d", "3", "--dist", dist], reconstructed),
        Command("transform", ["transform", "wootters", "hardy", "--d", "3", "--dist", dist], transformed),
        Command("negativity", ["negativity", "wootters", "--d", "3", "--state", state], negativity),
        Command("negativity-witness", ["negativity", "mub", "--d", "3", "--witness"],
                lambda doc: _field(doc["witness"]["found"], "no witness found")),
        Command("verify", ["verify", "wootters", "--d", "5", "--samples", "50", "--seed", s],
                lambda doc: _field(doc["all_passed"], "property suite failed")),
        Command("build", ["build", "ghw", "--p", "2", "--n", "2", "--out", out_dir], built),
        Command("demo-teleport", ["demo", "teleport", "--d", "3", "--seed", s],
                lambda doc: _field(doc["max_residual"] <= tol["BORN_TOL"],
                                   f"max_residual {doc['max_residual']:.3e}")),
        Command("demo-entanglement", ["demo", "entanglement", "--samples", "20", "--seed", s],
                lambda doc: _field(doc["disagreements"] == 0, f"{doc['disagreements']} disagreements")),
        Command("demo-nmr", ["demo", "nmr", "--n", "2", "--epsilon", eps],
                lambda doc: _field(doc["bound_respected"], "bound not respected")),
        Command("demo-bell", ["demo", "bell"], lambda doc: _field(doc["violated"], "inequality not violated")),
    ]


def check_invocation(cmd: Command, returncode: int, stdout: bytes, first: bytes | None) -> str | None:
    """Why one invocation's output is wrong, or None."""
    if returncode != 0:
        return f"exit code {returncode}"
    if first is not None and stdout != first:
        return "stdout differs from the first run of the same command"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    try:
        return cmd.check(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"missing or malformed field: {exc!r}"


def invoke(main, argv: list[str], tracer=None, label: str = "cli") -> tuple[int, bytes, str, float]:
    """``main(argv)`` as ``qframe ARGV`` runs it: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(label)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # exit as an uncaught exception would
            traceback.print_exc()
            code = 1
        if tracer is not None:
            tracer.end_op()
        elapsed = time.perf_counter() - start
    return code, out.getvalue().encode("utf-8"), err.getvalue(), elapsed


def forked(fn):
    """``fn()`` in a forked child of this process: (its result, the child's peak RSS in MB)."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps(fn()))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"forked child exited with status {os.waitstatus_to_exitcode(status)}")
    return pickle.loads(payload), usage.ru_maxrss / 1024.0
