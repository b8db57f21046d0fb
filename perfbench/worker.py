"""Child process of the benchmark.

    worker.py pass WORKLOAD SEED INDEX ROUNDS TRACE SPANS

Time ``import qframe`` and the workload's set-up (its fixed builds, or
``import qframe.cli``), then run pass INDEX, of ROUNDS rounds, and print one
tagged JSON result line.  With TRACE 1 the tracer wraps qframe before
set-up and the raw spans are written to SPANS.
"""

from __future__ import annotations

import sys
import time

import harness

harness.pin_threads()


def run_pass(workload: str, seed: int, index: int, rounds: int, trace: bool, spans: str) -> None:
    start = time.perf_counter()
    import qframe  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - start
    import qframe.frames
    import workloads

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup, run = workloads.WORKLOADS[workload]
    start = time.perf_counter()
    state = setup()
    doc = {"import_s": import_s, "setup_s": import_s + time.perf_counter() - start}
    doc.update(run(state, seed, index, rounds, tracer, spans).to_doc())
    if tracer is not None and "trace" not in doc:  # cli_session's children summarise themselves
        doc["trace"] = tracer.summary(getattr(qframe.frames, "hermitian_basis", None))
        tracer.dump(spans)
    harness.emit_result(doc)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode != "pass":
        raise SystemExit(f"unknown mode {mode!r}")
    workload, seed, index, rounds, trace, spans = sys.argv[2:8]
    run_pass(workload, int(seed), int(index), int(rounds), trace == "1", spans)
