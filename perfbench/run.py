"""The qframe benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/qframe``.  Workloads:

  state_stream  seven representations built in set-up; seeded states and effects
                go through represent, effect, born_pair and reconstruct one at a time
  cli_session   a fixed script of `qframe` invocations covering all seven verbs,
                one child process at a time, each forked right after the import
  all           both in turn; the last line then maps each name to its result

The traced run of state_stream also makes the cold builds: every (family,
size) built once in a fresh process and checked with is_dual_pair and
frame_bounds, as `qframe build` does.  They give the per-layer build times
and the ghw-2-4 split.  Their few, long timings drift with the host by more
than a bound allows, so no end-to-end metric is taken from them.

All work is one closed loop with one caller; BLAS is pinned to one thread.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` two passes run, each untraced and then traced, and the
last line carries the per-layer metrics.  Earlier lines are a readable report.
A full record of each run goes to ``.perfbench-out/`` in the checkout.

The amount of work in a run is fixed for a given ``--seconds``: the pass
and round counts below were sized from seed-commit timings on a 2-core
x86-64 host so that an untraced run lasts about ``--seconds`` there.  A
faster program finishes the same work sooner, so a statistic always covers
the same operations on the two commits being compared.

Each workload has a fixed list of operations, its unit of work.  A run
times the list again and again, in rounds spread over its passes, and an
operation's latency is its fastest round (timeit's rule).  The host this
was sized on switches between speeds up to 1.6x apart, often within a
second and sometimes for minutes; a median or mean of single timings
follows the share of slow time, while the fastest of many repeats does not,
unless the whole run falls in a slow phase.  ``wall_s`` is the sum of those
latencies, the time to solution of one unit of work; ``op_p50_ms`` and
``op_tail_ms`` are taken over them.

On cli_session an operation is one invocation's ``main(argv)``, timed in a
child forked from a worker right after its ``import qframe.cli``; see
``cli_session.py``.  Whole fresh-process invocations last about 0.6 s,
mostly interpreter start and import, and too few of them fit in a run for
their fastest to escape the host's slow phases; so interpreter start and
import are timed as the workload's set-up instead, in fresh interpreters.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib.metadata import PackageNotFoundError, version

import harness

harness.pin_threads()

import numpy as np  # noqa: E402  (after the thread pin)

import cli_session  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("state_stream", "cli_session")
SETUP_SAMPLES = 5  # bare interpreter starts behind cli.interpreter_s

STREAM_PASSES = 8
STREAM_PASS_S = 1.5  # a worker's start, cold import and the seven builds
STREAM_ROUND_S = 0.19  # one round of 1050 operations, with its inputs and checks
CLI_PASSES = 8
CLI_PASS_S = 1.8  # a set-up probe, and a worker's start and import
CLI_ROUND_S = 0.3  # one round of the script's 12 forked invocations
TRACE_PASSES = 2  # a traced run needs spans, not best-of timings: two untraced/traced pairs per phase
OP_SHARE = (0.9, 1.0)  # traced per-op total over traced wall time; outside it the tracer lost time

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

FACTORY_SPANS = (
    "phase_point_operators", "wootters", "wootters_composite", "ghw", "translation_operator", "cohendet",
    "leonhardt", "ruzzi_s0", "mub_family", "hardy_rep", "havel_rep", "sic_rep", "stratonovich_discrete",
)
COLD_BUILD_LABELS = (
    "wootters-7", "wootters-13", "wootters-23", "wootters_composite-3x5", "cohendet-15", "leonhardt-9",
    "leonhardt-16", "ruzzi_s0-9", "ruzzi_s0-15", "ghw-2-3", "ghw-3-2", "ghw-2-4", "mub_family-13",
    "hardy_rep-16", "havel_rep-4", "stratonovich_discrete-2", "sic_rep-5",
)
STREAM_FRAMES = ("represent_state", "represent_effect", "reconstruct_state", "born_pair")
DUAL_FRAMES = ("is_dual_pair", "frame_bounds", "gram_dual", "canonical_dual", "transform_matrix", "family_init")
ANALYSIS = ("teleport_phase_space", "ppt_separability_two_qubit", "franco_penna", "nmr_classicality",
            "negativity_witness")
SPLIT = "ghw-2-4"


def _calls(name):
    return name + ".calls", "count", lambda S: _span(S, name)[0]


def _self(name):
    return name + ".self_s", "s", lambda S: _span(S, name)[2]


def _span(S, name):
    return S["spans"].get(name, (0, 0.0, 0.0))


def _split(S, name, field):
    op = S["ops"].get(SPLIT)
    if op is None:
        return 0
    if name == "finitefield.mul":
        return op["counts"].get(name, 0)
    return op["spans"].get(name, (0, 0.0, 0.0))[field]


def _ratio(a, b):
    return a / b if b else 0.0


# Per-layer metrics computed from one traced pass's summary S.
TRACED = [
    ("finitefield.mul.calls", "count", lambda S: S["counts"].get("finitefield.mul", 0)),
    _calls("finitefield.dual_basis"), _self("finitefield.dual_basis"), _calls("finitefield.expand"),
    _self("geometry.lattice"),
    _calls("operators.schwinger_basis"), _self("operators.schwinger_basis"),
    _calls("operators.tensor"), _self("operators.tensor"),
    _self("operators.eigh_fixed"), _self("operators.partial_trace"), _self("operators.partial_transpose"),
    *[m for f in FACTORY_SPANS for m in (_calls(f"representations.{f}"), _self(f"representations.{f}"))],
    ("representations.repeat_share", "ratio", lambda S: _ratio(S["repeat_calls"], S["factory_calls"])),
    ("representations.operator_bytes", "bytes", lambda S: S["operator_bytes"]),
    *[m for f in STREAM_FRAMES for m in (_calls(f"frames.{f}"), _self(f"frames.{f}"))],
    *[_self(f"frames.{f}") for f in DUAL_FRAMES],
    ("frames.hermitian_basis.hit_ratio", "ratio",
     lambda S: _ratio(S["hermitian_hits"], S["hermitian_hits"] + S["hermitian_misses"])),
    *[_self(f"analysis.{f}") for f in ANALYSIS],
    ("analysis.builds_per_call", "ratio", lambda S: _ratio(S["builds_in_analysis"], S["analysis_calls"])),
    _calls("verify.verify_representation"), _self("verify.verify_representation"),
    _self("serialize.render_json"), _self("serialize.write_json"),
    ("serialize.bytes_out", "bytes", lambda S: S["bytes_out"]),
]
# The ghw-2-4 split, from the traced cold builds.
SPLIT_ROWS = [
    (f"split.{SPLIT}.op_s", "s", lambda S: _split(S, "harness.op", 1)),
    (f"split.{SPLIT}.finitefield.mul.calls", "count", lambda S: _split(S, "finitefield.mul", 0)),
    (f"split.{SPLIT}.finitefield.dual_basis.calls", "count", lambda S: _split(S, "finitefield.dual_basis", 0)),
    (f"split.{SPLIT}.finitefield.dual_basis.self_s", "s", lambda S: _split(S, "finitefield.dual_basis", 2)),
    (f"split.{SPLIT}.representations.translation_operator.calls", "count",
     lambda S: _split(S, "representations.translation_operator", 0)),
    (f"split.{SPLIT}.representations.translation_operator.self_s", "s",
     lambda S: _split(S, "representations.translation_operator", 2)),
]
# Per-layer metrics measured untraced or by the harness itself.
UNTRACED = [
    *[(f"representations.{label}.build_s", "s") for label in COLD_BUILD_LABELS],
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    *[(f"cli.{verb}.p50_ms", "ms") for verb in cli_session.VERBS],
    ("trace.overhead", "ratio"),
    ("trace.op_share", "ratio"),
    ("host.calib_s", "s"),
]
PER_LAYER = [(name, unit) for name, unit, _ in TRACED + SPLIT_ROWS] + UNTRACED


class Phase:
    """What the passes of one (untraced or traced) run of a workload measured."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.labels: list[str] = []  # the workload's fixed list of operations
        self.rounds: list[list[float]] = []  # latency of each operation of the list, per round
        self.round_walls: list[float] = []
        self.rss_mb: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.summaries: list[dict] = []
        self.op_shares: list[float] = []
        self.overheads: list[float] = []  # traced phase: each traced pass's wall_s over its untraced twin's, - 1
        self.digests: dict[str, str] = {}  # cli_session: hash of each command's stdout in the first pass

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(why)

    def add_round(self, labels: list[str], latency: list[float], wall: float) -> None:
        if self.labels and labels != self.labels:
            raise RuntimeError("two passes of one run timed different operations")
        self.labels = labels
        self.rounds.append(latency)
        self.round_walls.append(wall)

    def add_trace(self, summary: dict, wall: float) -> None:
        """Keep a traced pass's summary; spans that miss part of its wall time count as a failure."""
        share = _ratio(summary["op_s_total"], wall)
        self.summaries.append(summary)
        self.op_shares.append(share)
        lo, hi = OP_SHARE
        if not lo <= share <= hi + 1e-9:
            self.fail(f"traced operations cover {share:.3f} of the traced wall time, not {lo}-{hi}")

    def best(self) -> list[float]:
        """Each operation's fastest round."""
        return [min(column) for column in zip(*self.rounds)]


class Run:
    def __init__(self, seed: int, seconds: float, scratch: str):
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.env = harness.child_env(ROOT)

    def child(self, argv: list[str]) -> harness.Child:
        return harness.run_child([sys.executable, *argv], self.env, self.scratch, self.scratch)

    def plan(self, workload: str, trace: bool) -> tuple[int, int]:
        """(passes, rounds per pass) for this --seconds."""
        s = self.seconds
        if workload == "cold_build":  # traced runs only
            passes, rounds = TRACE_PASSES, 1
        elif workload == "state_stream":
            passes = STREAM_PASSES
            rounds = max(1, round((s / passes - STREAM_PASS_S) / STREAM_ROUND_S))
        else:
            passes = CLI_PASSES
            rounds = max(1, round((s / passes - CLI_PASS_S) / CLI_ROUND_S))
        return (min(passes, TRACE_PASSES) if trace else passes), rounds

    def phases(self, workload: str, trace: bool) -> tuple[Phase, Phase]:
        """Untraced passes, each followed by its traced twin when tracing, so both see one host."""
        passes, rounds = self.plan(workload, trace)
        plain, traced = Phase(), Phase()
        for index in range(passes):
            if workload == "cli_session":
                self.cli_setup(plain)  # set-up samples spread over the run, like the passes
            wall = self.run_pass(workload, index, rounds, plain, False)
            if trace:
                traced_wall = self.run_pass(workload, index, rounds, traced, True)
                if wall and traced_wall:
                    traced.overheads.append(traced_wall / wall - 1.0)
        return plain, traced

    def run_pass(self, workload: str, index: int, rounds: int, phase: Phase, traced: bool) -> float | None:
        """Run one pass into ``phase``; returns its own wall_s (sum of each operation's fastest round)."""
        spans = os.path.join(OUT, "spans", f"{workload}-seed{self.seed}-pass{index}.json")
        c = self.child([WORKER, "pass", workload, str(self.seed), str(index), str(rounds),
                        "1" if traced else "0", spans])
        doc = harness.parse_result(c)
        if c.returncode != 0 or doc is None:
            phase.fail(f"pass {index}: worker exited {c.returncode}: {c.stderr.strip()[-400:]}")
            return None
        for latency, wall in zip(doc["rounds"], doc["round_walls"]):
            phase.add_round(doc["labels"], latency, wall)
        if workload == "cli_session":  # set-up is timed in fresh interpreters by cli_setup
            phase.rss_mb.append(doc["child_rss_mb"])
            for name, digest in doc["digests"].items():
                if phase.digests.setdefault(name, digest) != digest:
                    phase.fail(f"pass {index}: {name}: stdout differs from the first pass's")
        else:
            phase.setup_s.append(doc["setup_s"])
            phase.import_s.append(doc["import_s"])
            phase.rss_mb.append(c.maxrss_mb)
        phase.attempted += doc["attempted"]
        phase.failed += doc["failed"]
        phase.failures += doc["failures"]
        if traced:
            phase.add_trace(doc["trace"], sum(doc["round_walls"]))
        return sum(min(column) for column in zip(*doc["rounds"]))

    def cli_setup(self, phase: Phase) -> None:
        """One fresh interpreter running ``import qframe.cli``: a set-up sample."""
        c = self.child(["-c", cli_session.IMPORT_PROBE])
        if c.returncode != 0:
            raise RuntimeError(f"import qframe.cli failed: {c.stderr.strip()[-400:]}")
        phase.setup_s.append(c.wall_s)
        phase.import_s.append(json.loads(c.stdout)["import_s"])


def end_to_end(workload: str, phase: Phase) -> tuple[dict, dict]:
    """Statistics of each operation's fastest round; set-up is a median over fresh processes."""
    best = phase.best()
    rounds = len(phase.rounds)
    fastest = f"the fastest of {rounds} rounds of {len(best)} operations"
    if len(best) >= 10 * harness.TAIL_BEYOND:
        tail, pct = harness.tail(best)
        tail_note = f"p{pct:.2f} of {fastest} ({harness.TAIL_BEYOND} beyond it)"
    else:
        # cli_session's 12 commands are too few for a tail with 10 beyond it
        # that lies above the median: count every timing of the run, each at
        # its command's fastest.
        tail, pct = harness.tail([t for t in best for _ in range(rounds)])
        tail_note = (f"p{pct:.2f} of {len(best)} x {rounds} timings, each at {fastest} "
                     f"({harness.TAIL_BEYOND} beyond it)")
    rss = max(phase.rss_mb) if workload == "cli_session" else harness.median(phase.rss_mb)
    values = {
        "setup_s": harness.median(phase.setup_s),
        "wall_s": sum(best),
        "op_p50_ms": 1e3 * harness.median(best),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {len(phase.setup_s)} fresh processes",
        "wall_s": f"sum of {fastest}",
        "op_p50_ms": f"median of {fastest}",
        "op_tail_ms": tail_note,
        "peak_rss_mb": "largest CLI child" if workload == "cli_session" else "median over pass processes",
    }
    return values, notes


def per_layer(workload: str, plain: Phase, traced: Phase, cold: tuple[Phase, Phase], extras: dict) -> dict:
    """Per-layer metrics; ``cold`` holds the untraced and traced cold builds, empty outside state_stream."""
    values = {}
    for name, _, get in TRACED:
        values[name] = harness.median(get(S) for S in traced.summaries)
    for name, _, get in SPLIT_ROWS:
        values[name] = harness.median(get(S) for S in cold[1].summaries)
    builds = dict(zip(cold[0].labels, cold[0].best()))
    for label in COLD_BUILD_LABELS:
        values[f"representations.{label}.build_s"] = builds.get(label, 0.0)
    best = dict(zip(plain.labels, plain.best()))
    values["cli.interpreter_s"] = extras.get("interpreter_s", 0.0)
    values["cli.import_s"] = harness.median(plain.import_s) if workload == "cli_session" else 0.0
    for verb in cli_session.VERBS:
        samples = [t for label, t in best.items() if cli_session.verb(label) == verb]
        values[f"cli.{verb}.p50_ms"] = 1e3 * harness.median(samples) if workload == "cli_session" else 0.0
    values["trace.overhead"] = harness.median(traced.overheads)
    values["trace.op_share"] = harness.median(traced.op_shares)
    values["host.calib_s"] = extras["calib_s"]
    return values


def calibrate() -> float:
    """A fixed numpy + Python loop that shows host drift; no metric is divided by it."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    m = np.random.default_rng(0).standard_normal((120, 120))
    for _ in range(20):
        np.linalg.eigvalsh(m + m.T)
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "seed": seed,
        "git_commit": commit,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in harness.BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    run = Run(seed, seconds, scratch)
    env = environment(seed)
    calib = [calibrate()]
    plain, traced = Phase(), Phase()
    extras = {}
    if trace:
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        for name in os.listdir(spans_dir):
            if name.startswith((workload + "-", "cold_build-")):
                os.remove(os.path.join(spans_dir, name))
    if workload == "cli_session" and trace:
        extras["interpreter_s"] = harness.median(run.child(["-c", "pass"]).wall_s for _ in range(SETUP_SAMPLES))
    plain, traced = run.phases(workload, trace)
    cold = run.phases("cold_build", True) if trace and workload == "state_stream" else (Phase(), Phase())
    calib.append(calibrate())
    env["host_calib_s"] = calib
    env["loadavg_end"] = os.getloadavg()
    extras["calib_s"] = harness.median(calib)

    phases = (plain, traced, *cold)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if not plain.rounds:
        raise RuntimeError("no operation completed: " + "; ".join(plain.failures[:3]))
    e2e, notes = end_to_end(workload, plain)
    record = {"workload": workload, "seconds": seconds, "trace": trace, "env": env,
              "end_to_end": e2e, "notes": notes, "attempted": attempted, "failed": failed,
              "error_rate": _ratio(failed, attempted), "failures": [why for p in phases for why in p.failures],
              "round_walls": plain.round_walls, "setup_samples": plain.setup_s,
              "rounds": plain.rounds if workload == "cli_session" else None}
    if trace:
        if not traced.summaries:
            raise RuntimeError("no traced pass completed: " + "; ".join(traced.failures[:3]))
        record["per_layer"] = per_layer(workload, plain, traced, cold, extras)
        record["split"] = [S["ops"].get(SPLIT) for S in cold[1].summaries if SPLIT in S["ops"]]
        record["wrapped_sites"] = traced.summaries[0].get("sites")
    return record


def report(record: dict) -> dict:
    """Print the readable report and return the contract's result object."""
    w = record["workload"]
    print(f"== {w}  seed {record['env']['seed']}  seconds {record['seconds']}  trace {int(record['trace'])}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    units = dict(END_TO_END)
    for name, value in record["end_to_end"].items():
        print(f"  {name:<12} {value:14.6g} {units[name]:<6} {record['notes'][name]}")
    print(f"  {'error_rate':<12} {record['error_rate']:14.6g} ratio  "
          f"{record['failed']} failed of {record['attempted']} attempted")
    for why in record["failures"][:10]:
        print(f"  FAILED {why}")
    if record["trace"]:
        layers = dict(PER_LAYER)
        for name, value in record["per_layer"].items():
            print(f"  {name:<58} {value:14.6g} {layers[name]}")
        for split in record["split"][:1]:
            spans = split["spans"]
            top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:6]
            print(f"  {SPLIT} split: op {spans['harness.op'][1]:.3f} s; finitefield.mul "
                  f"{split['counts'].get('finitefield.mul', 0)} calls (counted, no span); self time: "
                  + ", ".join(f"{k} {v[0]} calls {v[2]:.3f} s" for k, v in top))
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    units = dict(PER_LAYER) if record["trace"] else dict(END_TO_END)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one: children killed, scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    harness.adopt_orphans()
    if not os.path.isfile(os.path.join(ROOT, "src", "qframe", "__init__.py")):
        print(f"perfbench: no qframe sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src", "qframe"), quiet=1)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        warm = harness.run_child([sys.executable, "-c", "import qframe.cli"], harness.child_env(ROOT),
                                 scratch, scratch)
        if warm.returncode != 0:
            print(f"perfbench: import qframe.cli failed:\n{warm.stderr}", file=sys.stderr)
            return 2
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), scratch)
            with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
            results[name] = report(record)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
