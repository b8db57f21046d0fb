"""Spans around qframe's public functions, installed from outside the package.

qframe binds many names at import time (``from ..frames import gram_dual``
in ``hardy.py``, ``represent_state`` in ``representations/base.py``), so a
wrapper placed only in the defining module would miss the calls that
matter.  ``Tracer.install`` therefore replaces every binding of a target
that any loaded ``qframe`` module or class holds.

A span records its name, start, end, parent span and operation id; spans
stay in memory and are written out by ``dump`` when the process ends.  A
function called about 10^5 times per operation (``FieldElement.__mul__``)
is only counted, since a span per call would dominate what it measures.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import Counter

SPAN, COUNT, FACTORY, ANALYSIS, RENDER, FAMILY = "span", "count", "factory", "analysis", "render", "family"

_R = "qframe.representations"
# (module, attribute or Class.method, span name, kind)
TARGETS = [
    ("qframe.finitefield", "FieldElement.__mul__", "finitefield.mul", COUNT),
    ("qframe.finitefield", "FiniteField.dual_basis", "finitefield.dual_basis", SPAN),
    ("qframe.finitefield", "FiniteField.expand", "finitefield.expand", SPAN),
    *[("qframe.geometry", f, "geometry.lattice", SPAN)
      for f in ("prime_lattice", "field_lattice", "composite_lattice", "plain_lattice", "extended_lattice")],
    *[("qframe.operators", f, f"operators.{f}", SPAN)
      for f in ("schwinger_basis", "tensor", "eigh_fixed", "partial_trace", "partial_transpose")],
    (_R + ".wootters", "phase_point_operators", "representations.phase_point_operators", SPAN),
    (_R + ".ghw", "translation_operator", "representations.translation_operator", SPAN),
    (_R + ".wootters", "wootters", "representations.wootters", FACTORY),
    (_R + ".wootters", "wootters_composite", "representations.wootters_composite", FACTORY),
    (_R + ".ghw", "ghw", "representations.ghw", FACTORY),
    (_R + ".cohendet", "cohendet", "representations.cohendet", FACTORY),
    (_R + ".leonhardt", "leonhardt", "representations.leonhardt", FACTORY),
    (_R + ".ruzzi", "ruzzi_s0", "representations.ruzzi_s0", FACTORY),
    (_R + ".mub", "mub_family", "representations.mub_family", FACTORY),
    (_R + ".hardy", "hardy_rep", "representations.hardy_rep", FACTORY),
    (_R + ".havel", "havel_rep", "representations.havel_rep", FACTORY),
    (_R + ".sic", "sic_rep", "representations.sic_rep", FACTORY),
    (_R + ".spherical", "stratonovich_discrete", "representations.stratonovich_discrete", FACTORY),
    *[("qframe.frames", f, f"frames.{f}", SPAN)
      for f in ("represent_state", "represent_effect", "reconstruct_state", "born_pair", "is_dual_pair",
                "frame_bounds", "gram_dual", "canonical_dual", "transform_matrix")],
    ("qframe.frames", "_OperatorFamily.__post_init__", "frames.family_init", FAMILY),
    *[("qframe.analysis", f, f"analysis.{f}", ANALYSIS)
      for f in ("teleport_phase_space", "ppt_separability_two_qubit", "franco_penna", "nmr_classicality",
                "negativity_witness")],
    ("qframe.verify", "verify_representation", "verify.verify_representation", SPAN),
    ("qframe.serialize", "render_json", "serialize.render_json", RENDER),
    ("qframe.serialize", "write_json", "serialize.write_json", SPAN),
]

OP_SPAN = "harness.op"
SPLIT_OPS = ("ghw-2-4",)  # operations whose own per-span split the summary carries


def _arg_key(x):
    """Hashable stand-in for a factory argument, arrays by content."""
    if isinstance(x, (list, tuple)):
        return tuple(_arg_key(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _arg_key(v)) for k, v in x.items()))
    if hasattr(x, "tobytes") and hasattr(x, "shape"):
        return ("array", tuple(x.shape), hashlib.sha1(x.tobytes()).hexdigest())
    if isinstance(x, (int, float, str, bool, type(None))):
        return x
    return repr(x)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sites: dict[str, int] = {}
        self.op_labels: list[str] = []
        self.op_counts: list[dict] = []
        self._op_id = -1
        self._op_count_start: dict = {}
        self._factory_depth = 0
        self._analysis_depth = 0
        self._seen_keys: set = set()
        self.factory_calls = 0
        self.repeat_calls = 0
        self.analysis_calls = 0
        self.builds_in_analysis = 0
        self.operator_bytes = 0
        self.bytes_out = 0

    # spans

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    def begin_op(self, label: str) -> None:
        """Open the harness span of one operation; nested spans carry its id."""
        self._op_id = len(self.op_labels)
        self.op_labels.append(label)
        self._op_count_start = dict(self.counts)
        self._open(self._id(OP_SPAN))

    def end_op(self) -> None:
        self._close(self.stack[-1])
        self.op_counts.append(
            {k: v - self._op_count_start.get(k, 0) for k, v in self.counts.items()
             if v != self._op_count_start.get(k, 0)}
        )
        self._op_id = -1

    # wrappers

    def _wrap(self, fn, name: str, kind: str):
        if kind == COUNT:
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted
        nid = self._id(name)

        def spanned(*args, **kwargs):
            if kind == FACTORY:
                self._factory_enter(name, args, kwargs)
            elif kind == ANALYSIS:
                if self._analysis_depth == 0:
                    self.analysis_calls += 1
                self._analysis_depth += 1
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
                if kind == FACTORY:
                    self._factory_depth -= 1
                elif kind == ANALYSIS:
                    self._analysis_depth -= 1
            if kind == RENDER:
                self.bytes_out += len(result.encode("utf-8"))
            elif kind == FAMILY:
                self.operator_bytes += getattr(getattr(args[0], "operators", None), "nbytes", 0)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _factory_enter(self, name, args, kwargs) -> None:
        # Only outermost builds count: a factory calling another is one build.
        if self._factory_depth == 0:
            self.factory_calls += 1
            key = (name, _arg_key(args), _arg_key(kwargs))
            if key in self._seen_keys:
                self.repeat_calls += 1
            self._seen_keys.add(key)
            if self._analysis_depth:
                self.builds_in_analysis += 1
        self._factory_depth += 1

    def install(self) -> None:
        """Wrap every target at its definition and at every qframe binding of it."""
        importlib.import_module("qframe.cli")  # loads verify and serialize as well
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qframe" or n.startswith("qframe.")]
        owners = list(modules)
        for m in modules:
            owners.extend(v for v in vars(m).values()
                          if isinstance(v, type) and v.__module__.startswith("qframe"))
        owners = list({id(o): o for o in owners}.values())
        for modname, attr, name, kind in TARGETS:
            # A target a later version of qframe renamed or removed reads 0 sites.
            owner = importlib.import_module(modname)
            for part in attr.split("."):
                owner = vars(owner).get(part) if owner is not None else None
            sites = 0
            if owner is not None:
                wrapped = self._wrap(owner, name, kind)
                for o in owners:
                    for key, value in list(vars(o).items()):
                        if value is owner:
                            setattr(o, key, wrapped)
                            sites += 1
            self.sites[f"{modname}.{attr}"] = sites

    # results

    def self_times(self, op: int | None = None) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds], optionally for one op."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            if op is not None and self.op[i] != op:
                continue
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def op_durations(self) -> list[float]:
        nid = self._name_ids.get(OP_SPAN)
        return [self.end[i] - self.start[i] for i in range(len(self.start))
                if self.span_name[i] == nid and self.parent[i] == -1]

    def summary(self, hermitian_basis) -> dict:
        """Aggregates of this process's spans; ``hermitian_basis`` is qframe's cached basis."""
        info = getattr(hermitian_basis, "cache_info", lambda: None)()
        return {
            "spans": self.self_times(),
            "counts": dict(self.counts),
            "sites": self.sites,
            "op_s_total": sum(self.op_durations()),
            "factory_calls": self.factory_calls,
            "repeat_calls": self.repeat_calls,
            "analysis_calls": self.analysis_calls,
            "builds_in_analysis": self.builds_in_analysis,
            "operator_bytes": self.operator_bytes,
            "bytes_out": self.bytes_out,
            "hermitian_hits": info.hits if info else 0,
            "hermitian_misses": info.misses if info else 0,
            "ops": {label: {"spans": self.self_times(op=i), "counts": self.op_counts[i]}
                    for i, label in enumerate(self.op_labels) if label in SPLIT_OPS},
        }

    def dump(self, path: str) -> None:
        """Write the raw spans, columnar, when the process is done."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names, "name": self.span_name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "op_labels": self.op_labels,
            }, fh)



SUMMED = ("op_s_total", "factory_calls", "repeat_calls", "analysis_calls", "builds_in_analysis",
          "operator_bytes", "bytes_out", "hermitian_hits", "hermitian_misses")


def merge(summaries: list[dict]) -> dict:
    """One summary from the summaries of several processes, such as a pass's forked CLI invocations."""
    out = {"spans": {}, "counts": Counter(), "sites": summaries[0]["sites"] if summaries else {}, "ops": {},
           **{key: 0 for key in SUMMED}}
    for S in summaries:
        for name, row in S["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        out["counts"].update(S["counts"])
        for key in SUMMED:
            out[key] += S[key]
    out["counts"] = dict(out["counts"])
    return out
