"""Canonical JSON and CSV serialization.

All floats render as %.12e and object keys are sorted, so identical inputs
produce byte-identical documents.  Complex matrices travel as
{"dim", "re", "im"} with row-major coefficient grids.

A list or tuple whose items are all plain floats, or all plain ints, goes
out with one ``%`` over a template cached per row length, and a CSV line
with one ``%`` over a template cached per row of cell types; any other
list is rendered item by item.  The document builders fill their rows with
``tolist()``, so operator grids and distribution values take the row path.
``write_frame`` renders each operator, {"dim", "im", "re"}, with one ``%``
over a whole-document template cached per d, through a callable in its
document: a callable writes its own text.
Files are streamed: ``write_json`` renders straight into the file, and
``write_frame`` holds one operator's text at a time.  Every file, the CLI's
``--out`` too, goes through ``replacing``: a failed write leaves the old one.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .errors import DimensionMismatchError, ParseError
from .frames import Frame, QuasiDistribution
from .geometry import PhaseSpaceGeometry

FLOAT_FMT = "%.12e"

# the item formats a JSON row template takes; bool (an int subclass) and numpy scalars go item by item
_ROW_FORMATS = {float: FLOAT_FMT, int: "%d"}
# "[f, f, ...]" per (item type, length), and CSV lines per tuple of cell types, built on first use
_ROW_TEMPLATES: dict = {}
_CSV_TEMPLATES: dict = {}
# the text of one operator document {"dim": d, "im": [[...]], "re": [[...]]} per d, built on first use
_OPERATOR_TEMPLATES: dict = {}
# a longer row is data rather than a shape that recurs, so its template is not kept
_CACHED_ROW = 1024


def _row_template(kind: type, n: int) -> str:
    template = _ROW_TEMPLATES.get((kind, n))
    if template is None:
        template = "[" + ", ".join([_ROW_FORMATS[kind]] * n) + "]"
        if n <= _CACHED_ROW:
            _ROW_TEMPLATES[kind, n] = template
    return template


def render_json(obj) -> str:
    """Serialize to a canonical JSON string (sorted keys, fixed floats)."""
    parts: list[str] = []
    _render(obj, parts.append)
    return "".join(parts)


def _render(obj, write) -> None:
    """Write the canonical JSON text of ``obj`` through ``write``, in pieces."""
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if len(kinds) == 1 and (kind := kinds.pop()) in _ROW_FORMATS:
            write(_row_template(kind, len(obj)) % tuple(obj))
        else:
            write("[")
            for i, item in enumerate(obj):
                if i:
                    write(", ")
                _render(item, write)
            write("]")
    elif isinstance(obj, dict):
        write("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                write(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            write(json.dumps(key))
            write(": ")
            _render(obj[key], write)
        write("}")
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), write)
    elif isinstance(obj, (bool, np.bool_)):
        write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(FLOAT_FMT % float(obj))
    elif isinstance(obj, str):
        write(json.dumps(obj))
    elif obj is None:
        write("null")
    elif isinstance(obj, complex):
        raise TypeError("complex values must go through matrix_to_doc")
    elif callable(obj):  # a callable writes its own JSON text
        obj(write)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


@contextlib.contextmanager
def replacing(path):
    """A text file to write in place of ``path``.

    The text goes to a temporary file beside ``path``, which replaces
    ``path`` only once the block completes: a write that fails part way
    leaves whatever was at ``path`` as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the file asked for, not the temporary one
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def write_json(obj, path) -> None:
    """Render ``obj`` and a final newline straight into the file at ``path``, through ``replacing``."""
    with replacing(path) as fh:
        _render(obj, fh.write)
        fh.write("\n")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


# matrices


def matrix_to_doc(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParseError("matrices must be square")
    return {
        "dim": int(M.shape[0]),
        "re": M.real.tolist(),
        "im": M.imag.tolist(),
    }


def matrix_from_doc(doc) -> np.ndarray:
    try:
        d = int(doc["dim"])
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def _write_operators(ops: np.ndarray, write) -> None:
    """``[matrix_to_doc(M) for M in ops]`` as JSON text, one ``%`` per operator over a template cached per d."""
    d = ops.shape[-1]
    template = _OPERATOR_TEMPLATES.get(d)
    if template is None:
        grid = "[" + ", ".join([_row_template(float, d)] * d) + "]"
        template = _OPERATOR_TEMPLATES[d] = '{"dim": %d, "im": %s, "re": %s}' % (d, grid, grid)
    # one operator's imaginary then real parts, filled in place for each
    parts = np.empty((2, d, d))
    flat = parts.reshape(-1)
    write("[")
    for i, M in enumerate(ops):
        if i:
            write(", ")
        parts[0] = M.imag
        parts[1] = M.real
        write(template % tuple(flat.tolist()))
    write("]")


def write_frame(family, path) -> None:
    """Write the frame document {dim, name, labels, operators}, holding one operator's text at a time."""
    write_json({
        "dim": int(family.dim),
        "name": family.name,
        "labels": [label_to_doc(lab) for lab in family.labels],
        "operators": lambda write: _write_operators(family.operators, write),
    }, path)


def frame_from_doc(doc) -> Frame:
    try:
        dim = int(doc["dim"])
        labels = [label_from_doc(x) for x in doc["labels"]]
        ops = np.array([matrix_from_doc(m) for m in doc["operators"]])
        name = str(doc.get("name", ""))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad frame document: {exc}") from exc
    if ops.ndim == 3 and ops.shape[1] != dim:
        raise DimensionMismatchError(f"operators are {ops.shape[1]}x{ops.shape[1]}, dim says {dim}")
    return Frame(tuple(labels), ops, name)


# distributions


def distribution_to_doc(dist: QuasiDistribution) -> dict:
    doc = {
        "representation": dist.representation,
        "dim": int(dist.dim),
        "labels": [label_to_doc(lab) for lab in dist.labels],
        "values": dist.values.tolist(),
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad distribution document: {exc}") from exc
    return QuasiDistribution(**fields)


# geometry


def geometry_to_doc(geom: PhaseSpaceGeometry) -> dict:
    meta = {}
    for key, val in geom.meta.items():
        if isinstance(val, (int, float, str, bool, list, tuple)):
            meta[key] = val
    points = [label_to_doc(pt) for pt in geom.points]
    n_s, n_c, n_k = geom.line_index.shape
    return {
        "kind": geom.kind,
        "points": points,
        "lines": [[points[i] for i in row] for row in geom.line_index.reshape(n_s * n_c, n_k).tolist()],
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
    return table_to_csv(header + ["value"], [[*map(str, row), val] for row, val in zip(rows, dist.values.tolist())])


def table_to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(_csv_line([
            ("true" if x else "false") if isinstance(x, (bool, np.bool_)) else x for x in row
        ]))
    return "\n".join(lines) + "\n"


def _csv_line(cells: list) -> str:
    """Float cells as FLOAT_FMT and the rest as ``str``, one ``%`` over the template of their types."""
    kinds = tuple(map(type, cells))
    template = _CSV_TEMPLATES.get(kinds)
    if template is None:
        template = _CSV_TEMPLATES[kinds] = ",".join(
            FLOAT_FMT if issubclass(kind, (float, np.floating)) else "%s" for kind in kinds
        )
    return template % tuple(cells)
