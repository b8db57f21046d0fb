"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

Checks that corrupted outputs are counted as failures, that the tracer sees
calls made through names bound by ``from ... import``, that a run leaves
the git tree as it found it, and that BENCHMARK.json names what run.py
prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cli_session  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402


@pytest.fixture
def scratch():
    path = os.path.join(run.OUT, "test-scratch")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_tail_keeps_ten_samples_beyond():
    assert harness.tail(list(range(100))) == (89, 90.0)
    with pytest.raises(ValueError):
        harness.tail(list(range(10)))


def test_exceptions_and_bad_duality_are_counted():
    import qframe.verify as V
    import workloads

    p = workloads.Pass()
    p.verdict("raised", p.timed("raised", lambda: 1 / 0), workloads.check_duality)
    p.verdict("residual", (True, 10 * V.DUALITY_TOL, 1.0, 2.0), workloads.check_duality)
    p.verdict("fine", (True, 0.0, 1.0, 2.0), workloads.check_duality)
    assert (p.attempted, p.failed) == (3, 2)


def test_spans_missing_wall_time_count_as_failure():
    phase = run.Phase()
    phase.add_trace({"op_s_total": 0.95}, 1.0)
    phase.add_trace({"op_s_total": 0.5}, 1.0)
    assert (phase.attempted, phase.failed) == (1, 1)
    assert "0.500 of the traced wall time" in phase.failures[0]


def test_perturbed_round_trip_counts_as_failure(monkeypatch):
    import workloads

    reps = workloads.state_stream_setup()
    cls = type(reps[0][1])
    reconstruct = cls.reconstruct
    calls = []

    def perturbed(self, dist):
        calls.append(1)
        out = reconstruct(self, dist)
        return out + 1e-6 if len(calls) == 5 else out

    monkeypatch.setattr(cls, "reconstruct", perturbed)
    p = workloads.state_stream_pass(reps, seed=0, index=0, rounds=1, tracer=None)
    assert (p.attempted, p.failed) == (len(reps) * workloads.STREAM_PER_REP, 1)
    assert "round-trip" in p.failures[0]


def test_flipped_stdout_byte_counts_as_failure(monkeypatch, scratch):
    import workloads
    from qframe.cli import main

    bell = [c for c in cli_session.script(scratch, 0, {}) if c.name == "demo-bell"]
    monkeypatch.setattr(cli_session, "script", lambda *args: bell)
    real = cli_session.forked
    results = []

    def flip_second(fn):
        ((code, out, err, elapsed), summary), rss = real(fn)
        results.append(out)
        if len(results) == 2:
            out = bytearray(out)
            i = next(k for k, b in enumerate(out) if chr(b).isdigit())
            out[i] = ord("0") + (out[i] - ord("0") + 1) % 10
            out = bytes(out)
        return ((code, out, err, elapsed), summary), rss

    monkeypatch.setattr(cli_session, "forked", flip_second)
    monkeypatch.chdir(scratch)
    p = workloads.cli_session_pass(main, seed=0, index=0, rounds=3, tracer=None)
    assert (p.attempted, p.failed) == (3, 1)
    assert "differs from the first run" in p.failures[0]
    assert cli_session.check_invocation(bell[0], 1, results[0], None) == "exit code 1"


def test_stdout_differing_between_passes_counts_as_failure():
    phase = run.Phase()
    r = run.Run(seed=0, seconds=1, scratch="")
    for index, digest in enumerate(["a", "a", "b"]):
        doc = {"labels": ["x"], "rounds": [[0.1]], "round_walls": [0.1], "attempted": 1, "failed": 0,
               "failures": [], "digests": {"x": digest}, "child_rss_mb": 50.0}
        result = (harness.RESULT_PREFIX + json.dumps(doc) + "\n").encode()
        r.child = lambda argv, result=result: harness.Child(0, result, "", 1.0, 60.0)
        r.run_pass("cli_session", index, 1, phase, False)
    assert (phase.attempted, phase.failed) == (4, 1)
    assert "differs from the first pass" in phase.failures[0]


def test_tracer_sees_calls_through_from_imports(scratch):
    spans = os.path.join(scratch, "spans.json")
    child = harness.run_child(
        [sys.executable, run.WORKER, "pass", "state_stream", "0", "0", "1", "1", spans],
        harness.child_env(ROOT), scratch, scratch)
    doc = harness.parse_result(child)
    assert child.returncode == 0 and doc["failed"] == 0, child.stderr
    summary = doc["trace"]
    # hardy.py and representations/base.py bind these names with `from ..frames import`
    assert summary["sites"]["qframe.frames.gram_dual"] >= 2
    assert summary["spans"]["frames.gram_dual"][0] == 1
    assert summary["spans"]["frames.represent_state"][0] == doc["attempted"]
    assert summary["repeat_calls"] == 0
    assert 0.9 <= summary["op_s_total"] / sum(doc["round_walls"]) <= 1.0
    with open(spans, encoding="utf-8") as fh:
        raw = json.load(fh)
    assert len(raw["start"]) == len(raw["end"]) == len(raw["parent"]) == len(raw["op"])


def _git_status():
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def test_run_leaves_the_tree_clean():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        pytest.skip("not a git checkout")
    before = _git_status()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli_session", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _git_status() == before
    assert not [n for n in os.listdir(run.OUT) if n.startswith("tmp-")]


def test_exits_nonzero_without_sources():
    bare = os.path.join(run.OUT, "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "state_stream", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def test_run_names_the_cold_builds_the_workers_make():
    import workloads

    assert run.COLD_BUILD_LABELS == tuple(label for label, _ in workloads.COLD_BUILDS)


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
