"""The canonical JSON and CSV writers as they were before row templates and streaming.

One recursive call per value, dispatched on an ``isinstance`` chain, and
one ``isinstance`` chain per CSV cell.  The library renders rows of plain
floats and plain ints, and CSV lines, through cached templates and streams
files; this is the text it must reproduce byte for byte.  ``frame_to_doc`` is
the whole frame document ``write_frame`` streams, built in memory.  ``geometry_to_doc``
converts every point of every line from its label, where the library
converts each point once and indexes it through the line table.
"""

from __future__ import annotations

import io
import json

import numpy as np

from qframe.serialize import label_to_doc, matrix_to_doc

FLOAT_FMT = "%.12e"


def frame_to_doc(family) -> dict:
    return {
        "dim": int(family.dim),
        "name": family.name,
        "labels": [label_to_doc(lab) for lab in family.labels],
        "operators": [matrix_to_doc(op) for op in family.operators],
    }


def geometry_to_doc(geom) -> dict:
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


def render_json(obj) -> str:
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


def file_text(obj) -> str:
    """What ``write_json(obj, path)`` must leave at ``path``."""
    return render_json(obj) + "\n"


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
