"""Canonical JSON and CSV serialization.

All floats render as %.12e and object keys are sorted, so identical inputs
produce byte-identical documents.  Complex matrices travel as
{"dim", "re", "im"} with row-major coefficient grids.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .errors import ParseError
from .frames import DualFrame, Frame, QuasiDistribution
from .geometry import PhaseSpaceGeometry

FLOAT_FMT = "%.12e"


def render_json(obj) -> str:
    """Serialize to a canonical JSON string (sorted keys, fixed floats)."""
    buf = io.StringIO()
    _render(obj, buf)
    return buf.getvalue()


def _render(obj, buf) -> None:
    if isinstance(obj, dict):
        buf.write("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                buf.write(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            buf.write(json.dumps(key))
            buf.write(": ")
            _render(obj[key], buf)
        buf.write("}")
    elif isinstance(obj, (list, tuple)):
        buf.write("[")
        for i, item in enumerate(obj):
            if i:
                buf.write(", ")
            _render(item, buf)
        buf.write("]")
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), buf)
    elif isinstance(obj, (bool, np.bool_)):
        buf.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        buf.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        buf.write(FLOAT_FMT % float(obj))
    elif isinstance(obj, str):
        buf.write(json.dumps(obj))
    elif obj is None:
        buf.write("null")
    elif isinstance(obj, complex):
        raise TypeError("complex values must go through matrix_to_doc")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(obj))
        fh.write("\n")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


# matrices


def matrix_to_doc(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParseError("matrices must be square")
    return {
        "dim": int(M.shape[0]),
        "re": [[float(x) for x in row] for row in M.real],
        "im": [[float(x) for x in row] for row in M.imag],
    }


def matrix_from_doc(doc) -> np.ndarray:
    try:
        d = int(doc["dim"])
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix document: {exc}") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise ParseError(f"matrix blocks must be {d} x {d}")
    return re + 1j * im


# labels


def label_to_doc(label):
    if isinstance(label, tuple):
        return [label_to_doc(x) for x in label]
    if isinstance(label, (int, np.integer)):
        return int(label)
    if isinstance(label, str):
        return label
    raise ParseError(f"unsupported label type {type(label).__name__}")


def label_from_doc(doc):
    if isinstance(doc, list):
        return tuple(label_from_doc(x) for x in doc)
    if isinstance(doc, (int, str)):
        return doc
    raise ParseError(f"unsupported label document {doc!r}")


def flatten_label(label) -> list:
    if isinstance(label, tuple):
        out = []
        for x in label:
            out.extend(flatten_label(x))
        return out
    return [label]


# operator families


def frame_to_doc(family) -> dict:
    return {
        "dim": int(family.dim),
        "name": family.name,
        "labels": [label_to_doc(lab) for lab in family.labels],
        "operators": [matrix_to_doc(op) for op in family.operators],
    }


def frame_from_doc(doc, dual: bool = False):
    try:
        dim = int(doc["dim"])
        labels = [label_from_doc(x) for x in doc["labels"]]
        ops = np.array([matrix_from_doc(m) for m in doc["operators"]])
        name = str(doc.get("name", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad frame document: {exc}") from exc
    cls = DualFrame if dual else Frame
    return cls(dim=dim, labels=tuple(labels), operators=ops, name=name)


# distributions


def distribution_to_doc(dist: QuasiDistribution) -> dict:
    doc = {
        "representation": dist.representation,
        "dim": int(dist.dim),
        "labels": [label_to_doc(lab) for lab in dist.labels],
        "values": [float(v) for v in dist.values],
    }
    if dist.warnings:
        doc["warnings"] = list(dist.warnings)
    return doc


def distribution_from_doc(doc) -> QuasiDistribution:
    """Parse a distribution document; well-formed but invalid values raise
    ``DimensionMismatchError`` from ``QuasiDistribution`` itself."""
    try:
        fields = dict(
            representation=str(doc["representation"]),
            dim=int(doc["dim"]),
            labels=tuple(label_from_doc(x) for x in doc["labels"]),
            values=np.asarray(doc["values"], dtype=float),
            warnings=tuple(doc.get("warnings", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad distribution document: {exc}") from exc
    return QuasiDistribution(**fields)


# geometry


def geometry_to_doc(geom: PhaseSpaceGeometry) -> dict:
    meta = {}
    for key, val in geom.meta.items():
        if isinstance(val, (int, float, str, bool, list, tuple)):
            meta[key] = val
    return {
        "kind": geom.kind,
        "points": [label_to_doc(pt) for pt in geom.points],
        "lines": [[label_to_doc(pt) for pt in line] for line in geom.lines],
        "striations": [list(map(int, s)) for s in geom.striations],
        "meta": meta,
    }


# CSV

_LATTICE_HEADERS = {2: ["q", "p"], 3: ["q", "p", "sigma"]}
_LATTICE_NAMES = {"wootters", "ghw", "cohendet", "cohendet-extended", "leonhardt", "ruzzi"}


def distribution_to_csv(dist: QuasiDistribution) -> str:
    """Label columns then value, one outcome per row."""
    rows = [flatten_label(lab) for lab in dist.labels]
    width = len(rows[0]) if rows else 1
    if any(len(r) != width for r in rows):
        raise ParseError("labels flatten to unequal widths")
    if dist.representation in _LATTICE_NAMES and width in _LATTICE_HEADERS:
        header = _LATTICE_HEADERS[width]
    else:
        header = [f"l{i}" for i in range(width)]
    lines = [",".join(header + ["value"])]
    for row, val in zip(rows, dist.values):
        cells = [str(x) for x in row] + [FLOAT_FMT % float(val)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def table_to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, (float, np.floating)):
                cells.append(FLOAT_FMT % float(x))
            elif isinstance(x, (bool, np.bool_)):
                cells.append("true" if x else "false")
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
