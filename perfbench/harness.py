"""Statistics and child-process plumbing shared by the benchmark's processes.

Standard library only: worker processes load this module before they time
``import qframe``, so it must not pull numpy in.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170.0
RESULT_PREFIX = "PERFBENCH-RESULT "


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(samples) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def child_env(root: str) -> dict:
    """Environment for every child: the checkout's sources, BLAS pinned to one thread."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = PINNED_THREADS
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("QFRAME_SEED", None)
    return env


def pin_threads() -> None:
    """Pin BLAS threads in this process; call before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = PINNED_THREADS


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    maxrss_mb: float


def run_child(argv: list[str], env: dict, cwd: str, scratch: str) -> Child:
    """Run one child to completion; its own peak RSS comes from ``wait4``.

    The child leads a process group of its own, so that a kill reaches the
    processes it forks as well; those are then waited for too (see
    ``adopt_orphans``).
    """
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            start_new_session=True,
        )

        killed = []

        def kill():
            killed.append(True)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            kill()
            proc.wait()
            reap_orphans()
            raise
        finally:
            watchdog.cancel()
        if killed:
            reap_orphans()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        errtext = err.read().decode("utf-8", errors="replace")
    return Child(proc.returncode, out, errtext, wall, usage.ru_maxrss / 1024.0)


def adopt_orphans() -> None:
    """Become the parent of descendants whose parent dies (Linux), so that they can be waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_orphans() -> None:
    """Wait for every remaining child: the adopted processes of a killed child's group."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def emit_result(doc: dict) -> None:
    """Worker side: one tagged JSON line, the last thing on stdout."""
    sys.stdout.write(RESULT_PREFIX + json.dumps(doc) + "\n")
    sys.stdout.flush()


def parse_result(child: Child) -> dict | None:
    """Parent side: the worker's tagged line, or None if it died without one."""
    for line in reversed(child.stdout.decode("utf-8", errors="replace").splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX):])
    return None
