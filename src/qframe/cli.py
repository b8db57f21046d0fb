"""Command-line interface.

Verbs: build, represent, reconstruct, transform, negativity, verify, demo.
Output on stdout is canonical JSON (or CSV with --format csv, for represent,
transform and demo): keys sorted, floats as %.12e, so identical invocations
are byte-identical.  A verb returns its document and ``main`` alone writes
it: stdout, the same text to --out (build's --out is the directory of its
files), and a one-line summary on stderr.  Exit codes:
0 success, 1 property failure, 2 invalid arguments, 3 parse error,
4 dimension mismatch, 5 unsupported transform.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .analysis import (
    _entanglement_sweep,
    _teleport_branches,
    _teleport_lattice,
    bell_wigner_demo,
    negativity_witness,
    nmr_classicality,
)
from .errors import (
    DimensionMismatchError,
    FiducialSearchError,
    NotAFrameError,
    ParseError,
    QframeError,
    SingularBasisError,
    UnsupportedDimensionError,
    UnsupportedTransformError,
)
from .frames import _NON_FINITE, _check_values, apply_transform, frame_bounds, is_dual_pair, negativity, transform_matrix
from .operators import _seeded_states, frobenius, maximally_mixed, random_state
from .representations import (
    Representation,
    cohendet,
    ghw,
    hardy_rep,
    havel_rep,
    leonhardt,
    mub_family,
    ruzzi_s0,
    sic_rep,
    stratonovich_discrete,
    tetrahedral_constellation,
    wootters,
    wootters_composite,
)
from .representations.base import check_stack_budget
from .representations.sic import SEARCH_STARTS, fiducial_search_stats
from .representations.spherical import _random_stratonovich
from .serialize import (
    distribution_from_doc,
    distribution_to_csv,
    distribution_to_doc,
    geometry_to_doc,
    label_to_doc,
    load_json,
    matrix_from_doc,
    matrix_to_doc,
    render_json,
    replacing,
    table_to_csv,
    write_frame,
    write_json,
)
from .verify import verify_representation

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_ARGS = 2
EXIT_PARSE = 3
EXIT_DIMENSION = 4
EXIT_TRANSFORM = 5

# (error class, exit code); an error takes the code of the first class on its MRO listed here
ERROR_EXITS = (
    (ParseError, EXIT_PARSE),
    (DimensionMismatchError, EXIT_DIMENSION),
    (UnsupportedTransformError, EXIT_TRANSFORM),
    (UnsupportedDimensionError, EXIT_ARGS),
    (FiducialSearchError, EXIT_PROPERTY),
    (NotAFrameError, EXIT_PROPERTY),
    (SingularBasisError, EXIT_PROPERTY),
    (QframeError, EXIT_ARGS),
    (ValueError, EXIT_ARGS),
    (OSError, EXIT_PARSE),
)
_EXIT_CODES = dict(ERROR_EXITS)


def _flag(args, dest: str, missing: str = "this representation needs --d"):
    """The value of ``--dest``; exit 2 with ``missing`` when it is not given."""
    value = getattr(args, dest)
    if value is None:
        raise UnsupportedDimensionError(missing)
    return value


def _or(value, default):
    return default if value is None else value


def _stratonovich(args) -> Representation:
    s = _or(args.s, 0.5)
    if s == 0.5:
        return stratonovich_discrete(s, tetrahedral_constellation())
    return _random_stratonovich(s, seed=args.seed)[0]


# name -> (the dimension flags its factory reads, the call that builds it from the parsed
# flags), in the order help and errors list the names.  Each call names its factory at
# call time, through this module's global, and the factory checks its own domain.
FAMILIES = {
    "wootters": (("d", "dims"), lambda a: (
        wootters_composite(a.dims) if a.dims else wootters(_flag(a, "d")))),
    "ghw": (("p", "n"), lambda a: ghw(
        _flag(a, "p", "ghw needs --p (and optionally --n)"), _or(a.n, 1))),
    "cohendet": (("d",), lambda a: cohendet(_flag(a, "d"))),
    "leonhardt": (("d",), lambda a: leonhardt(_flag(a, "d"))),
    "stratonovich": (("s", "seed"), _stratonovich),
    "ruzzi": (("d",), lambda a: ruzzi_s0(_flag(a, "d"))),
    "mub": (("d",), lambda a: mub_family(_flag(a, "d")).representation()),
    "hardy": (("d",), lambda a: hardy_rep(_flag(a, "d"))),
    "havel": (("n",), lambda a: havel_rep(_flag(a, "n", "havel needs --n qubits"))),
    "sic": (("d", "seed"), lambda a: sic_rep(
        _flag(a, "d"), seed=a.seed, starts=_or(getattr(a, "starts", None), SEARCH_STARTS))),
}


def build_representation(name: str, args) -> Representation:
    """Instantiate the factory ``FAMILIES[name]`` from parsed dimension flags."""
    if name not in FAMILIES:
        raise UnsupportedDimensionError(f"unknown representation {name!r}")
    return FAMILIES[name][1](args)


def _samples(args, default: int) -> int:
    if args.samples is None:
        return default
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    return args.samples


def _load_state(args, dim: int) -> np.ndarray:
    sources = [args.state is not None, args.mixed, args.pure is not None]
    if sum(sources) != 1:
        raise ValueError("choose exactly one of --state FILE, --mixed, --pure SEED")
    if args.mixed:
        return maximally_mixed(dim)
    if args.pure is not None:
        return random_state(dim, rank=1, seed=args.pure)
    rho = matrix_from_doc(load_json(args.state))
    if not np.logical_and.reduce(np.isfinite(rho), axis=None):
        # refused here, before a product with the entry can warn
        raise DimensionMismatchError(_NON_FINITE)
    if rho.shape != (dim, dim):
        raise DimensionMismatchError(
            f"state is {rho.shape[0]} x {rho.shape[0]}, representation wants {dim}"
        )
    return rho


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


# verbs: each returns (doc, csv, summary, ok), where csv renders the doc as CSV (None for a
# verb without a CSV form), summary is the stderr line and ok whether the property held;
# main alone writes them


def cmd_build(args):
    rep = build_representation(args.representation, args)
    ok, residual = is_dual_pair(rep.frame, rep.dual, tol=args.tol)
    lo, hi = frame_bounds(rep.frame)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    base = os.path.join(outdir, f"{rep.name}-d{rep.dim}")
    files = {"frame": base + "-frame.json", "dual": base + "-dual.json"}
    write_frame(rep.frame, files["frame"])
    write_frame(rep.dual, files["dual"])
    if rep.geometry is not None:
        files["geometry"] = base + "-geometry.json"
        write_json(geometry_to_doc(rep.geometry), files["geometry"])
    doc = {
        "representation": rep.name,
        "dim": int(rep.dim),
        "outcomes": len(rep.labels),
        "frame_bounds": [lo, hi],
        "duality_residual": float(residual),
        "duality_ok": bool(ok),
        "files": files,
    }
    doc.update(fiducial_search_stats(rep))
    summary = f"build {rep.name} d={rep.dim}: bounds [{lo:.6g}, {hi:.6g}], duality residual {residual:.3e}"
    return doc, None, summary, ok


def cmd_represent(args):
    rep = build_representation(args.representation, args)
    rho = _load_state(args, rep.dim)
    mu = rep.represent(rho)
    err = frobenius(rep.reconstruct(mu) - rho)
    doc = distribution_to_doc(mu)
    doc["round_trip_error"] = float(err)
    return doc, lambda: distribution_to_csv(mu), f"represent {rep.name} d={rep.dim}: round-trip error {err:.3e}", True


def cmd_reconstruct(args):
    rep = build_representation(args.representation, args)
    rho = rep.reconstruct(distribution_from_doc(load_json(args.dist)))
    return matrix_to_doc(rho), None, f"reconstruct {rep.name} d={rep.dim}: trace {rho.trace().real:.6f}", True


def cmd_transform(args):
    source = build_representation(args.source, args)
    target = build_representation(args.target, args)
    if source.dim != target.dim:
        raise DimensionMismatchError(
            f"source d={source.dim} and target d={target.dim} differ"
        )
    if not (source.frame.minimal and target.frame.minimal):
        raise UnsupportedTransformError(
            "transformation needs minimal frames (d^2 outcomes) on both sides"
        )
    dist = distribution_from_doc(load_json(args.dist))
    dual = source.dual
    _check_values(dist, dual.labels, dual.name, dual.dim, "distribution labels do not match the source")
    T = transform_matrix(dual, target.frame)
    out = apply_transform(dist, T, target.frame)
    return (distribution_to_doc(out), lambda: distribution_to_csv(out),
            f"transform {source.name} -> {target.name} at d={source.dim}", True)


def cmd_negativity(args):
    rep = build_representation(args.representation, args)
    doc = {"representation": rep.name, "dim": int(rep.dim)}
    if args.witness:
        w = negativity_witness(rep, tol=args.tol if args.tol is not None else 1e-6)
        doc["witness"] = {
            "found": w["found"],
            "kind": w.get("kind"),
            "value": w.get("value"),
            "label": None if "label" not in w else label_to_doc(w["label"]),
        }
        if "witness" in w:
            doc["witness"]["operator"] = matrix_to_doc(w["witness"])
        return doc, None, f"negativity witness for {rep.name}: {w.get('kind', 'none')}", w["found"]
    rho = _load_state(args, rep.dim)
    report = negativity(rep.represent(rho))
    # the report is flat, so its own field dict is the document's
    doc.update(vars(report))
    return doc, None, f"negativity {rep.name}: min {report.min_value:.6e}", True


def cmd_verify(args):
    samples = _samples(args, 200)
    try:
        rep = build_representation(args.representation, args)
    except FiducialSearchError as exc:
        check = {"name": "fiducial_search", "passed": False, "error": f"no fiducial found: {exc}"}
        doc = {"representation": args.representation, "checks": [check], "all_passed": False}
        return doc, None, f"verify {args.representation}: no fiducial found", False
    report = verify_representation(rep, seed=args.seed, samples=samples)
    status = "all passed" if report["all_passed"] else "FAILED"
    return report, None, f"verify {rep.name} d={rep.dim}: {len(report['checks'])} checks, {status}", report["all_passed"]


def _demo_teleport(args):
    d = args.d if args.d is not None else 3
    _teleport_lattice(d)  # refuses d before the draw allocates
    rho = random_state(d, rank=1, seed=args.seed)
    outcomes = [
        {
            "outcome": list(out.outcome),
            "probability": out.probability,
            "residual": out.displacement_residual,
        }
        for out in _teleport_branches(d, rho, [(a, b) for a in range(d) for b in range(d)])
    ]
    worst = max([0.0] + [o["residual"] for o in outcomes])
    doc = {
        "demo": "teleport",
        "d": d,
        "seed": args.seed,
        "max_residual": worst,
        "outcomes": outcomes,
    }
    rows = [[*o["outcome"], o["probability"], o["residual"]] for o in outcomes]
    return doc, lambda: table_to_csv(["a", "b", "probability", "residual"], rows), (
        f"demo teleport d={d}: max residual {worst:.3e} over {d*d} outcomes"
    ), True


def _demo_nmr(args):
    n = args.n if args.n is not None else 2
    eps = args.epsilon if args.epsilon is not None else 0.1
    report = nmr_classicality(n, eps)
    doc = {"demo": "nmr", **vars(report)}
    verdict = "classical" if report.classical else "nonclassical"
    return doc, lambda: table_to_csv(["key", "value"], sorted(vars(report).items())), (
        f"demo nmr n={n} epsilon={eps:.6g}: sampled min {report.sampled_min:.3e} ({verdict})"
    ), True


def _demo_bell(args):
    degs = [float(x) for x in (args.angles or "0,60,120").split(",")]
    if len(degs) != 3:
        raise ValueError("--angles needs three comma-separated degrees")
    a, b, c = (np.deg2rad(x) for x in degs)
    result = bell_wigner_demo(a, b, c)
    doc = {"demo": "bell", "angles_degrees": degs, **result}
    return doc, lambda: table_to_csv(["key", "value"], sorted(result.items())), (
        f"demo bell angles {degs}: lhs {result['lhs']:.4f}, rhs {result['rhs']:.4f}, "
        f"violated {result['violated']}"
    ), True


def _entanglement_draws(seed: int, samples: int):
    """Each sample's (seed, rank): sample k is drawn from seed + k at rank 1 + (seed + k) mod 4."""
    return ((seed + k, 1 + (seed + k) % 4) for k in range(samples))


def _demo_entanglement(args):
    samples = _samples(args, 100)
    # forming the states peaks at three 4 x 4 operators per sample (the Gaussians, their conjugate transpose and
    # the states); the states with the sweep's arrays and verdict rows, and with the CSV rows and text, at 2.3
    check_stack_budget(f"demo entanglement with {samples} samples", 3 * samples, 4)
    seed = args.seed
    rhos = _seeded_states(4, list(_entanglement_draws(seed, samples)))
    # each verdict row is (lattice min, lattice verdict, partial-transpose min eigenvalue, ppt verdict)
    verdicts = _entanglement_sweep(rhos)
    conclusive = sum(v[1] == "entangled" for v in verdicts)
    agreements = sum(v[1] == v[3] == "entangled" for v in verdicts)
    doc = {
        "demo": "entanglement",
        "samples": samples,
        "seed": seed,
        "conclusive": conclusive,
        "agreements": agreements,
        "disagreements": conclusive - agreements,
    }
    return doc, lambda: table_to_csv(
        ["seed", "rank", "lattice_min", "lattice_verdict", "pt_min_eig", "ppt_verdict"],
        [[s, r, *v] for (s, r), v in zip(_entanglement_draws(seed, samples), verdicts)],
    ), (
        f"demo entanglement sweep: {conclusive}/{samples} conclusive, "
        f"{conclusive - agreements} disagreements"
    ), True


# name -> runner; the parser offers these names and no others
_DEMOS = {"teleport": _demo_teleport, "nmr": _demo_nmr, "bell": _demo_bell, "entanglement": _demo_entanglement}


def cmd_demo(args):
    return _DEMOS[args.name](args)


def _dims_arg(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        import argparse

        raise argparse.ArgumentTypeError(f"bad dims {text!r}") from exc


# each flag is its option string and the keyword arguments of its add_argument call;
# a verb lists only the flags it reads
D = ("--d", {"type": int, "help": "Hilbert-space dimension"})
N = ("--n", {"type": int, "help": "field power or qubit count"})
SEED = ("--seed", {"type": int, "default": 0, "help": "seed (default: 0)"})
# the flags FAMILIES reads
DIM_FLAGS = (
    D,
    ("--dims", {"type": _dims_arg, "help": "composite dimensions, e.g. 2,2"}),
    ("--p", {"type": int, "help": "field characteristic"}),
    N,
    ("--s", {"type": float, "help": "spin (0.5, 1, 1.5, ...)"}),
    SEED,
)
TOL = ("--tol", {"type": float, "default": None, "help": "tolerance override"})
OUT = ("--out", {"help": "output file or directory"})
# a verb has a CSV form when its --format flag lists it; the others refuse csv while parsing
JSON_ONLY = ("--format", {"choices": ["json"], "default": "json"})
JSON_OR_CSV = ("--format", {"choices": ["json", "csv"], "default": "json"})
STATE_FLAGS = (
    ("--state", {"help": "matrix JSON file"}),
    ("--mixed", {"action": "store_true", "help": "use the maximally mixed state"}),
    ("--pure", {"type": int, "default": None, "help": "seed for a random pure state"}),
)
STARTS = ("--starts", {"type": int, "default": None, "help": "fiducial search starts"})
DIST = ("--dist", {"required": True, "help": "distribution JSON file"})
SAMPLES = ("--samples", {"type": int, "default": None})
REPRESENTATION = ("representation", tuple(FAMILIES))

# (verb, help, positionals as (dest, choices), flags, handler), in the order of the usage line
VERBS = (
    ("build", "construct a frame/dual pair and write artifacts",
     (REPRESENTATION,), (*DIM_FLAGS, TOL, OUT, JSON_ONLY, STARTS), cmd_build),
    ("represent", "state -> quasi-probability distribution",
     (REPRESENTATION,), (*DIM_FLAGS, OUT, JSON_OR_CSV, *STATE_FLAGS), cmd_represent),
    ("reconstruct", "distribution -> operator",
     (REPRESENTATION,), (*DIM_FLAGS, OUT, JSON_ONLY, DIST), cmd_reconstruct),
    ("transform", "map a distribution between representations",
     (("source", tuple(FAMILIES)), ("target", tuple(FAMILIES))),
     (*DIM_FLAGS, OUT, JSON_OR_CSV, DIST), cmd_transform),
    ("negativity", "negativity of a represented state",
     (REPRESENTATION,),
     (*DIM_FLAGS, TOL, OUT, JSON_ONLY, *STATE_FLAGS,
      ("--witness", {"action": "store_true", "help": "search for a nonclassicality witness"})),
     cmd_negativity),
    ("verify", "run the property suite",
     (REPRESENTATION,), (*DIM_FLAGS, OUT, JSON_ONLY, SAMPLES, STARTS), cmd_verify),
    ("demo", "run a bundled demonstration",
     (("name", tuple(_DEMOS)),),
     (D, N, SEED, OUT, JSON_OR_CSV,
      ("--epsilon", {"type": float, "default": None}),
      ("--angles", {"help": "three comma-separated degrees"}),
      SAMPLES),
     cmd_demo),
)
_VERB_ROWS = {row[0]: row for row in VERBS}

# argparse's test for a token that is a value although it starts with "-"
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def make_parser() -> argparse.ArgumentParser:
    """The ``qframe`` parser with all seven sub-parsers, built from ``VERBS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qframe",
        description="Quasi-probability representations of finite-dimensional quantum theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positionals, flags, handler in VERBS:
        p = sub.add_parser(name, help=help_text)
        for dest, choices in positionals:
            p.add_argument(dest, choices=choices)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed command line, read straight from ``VERBS``.

    Well-formed: a verb, then only that verb's positionals (each in its
    choices, as many as it has) and its flags spelled in full, each value
    taking the next token and passing its flag's type and choices, with the
    required flags present.  The result holds what ``make_parser()`` would
    return: ``command``, ``func`` and every dest, unset ones at their
    default.  Anything else (help, ``--flag=value``, abbreviations, ``--``,
    bad values) gives None, and argparse parses it and reports the error.
    """
    row = _VERB_ROWS.get(argv[0]) if argv else None
    if row is None:
        return None
    verb, _, positionals, flags, handler = row
    values = {"command": verb, "func": handler}
    for flag, kwargs in flags:
        values[flag[2:]] = kwargs.get("default", False if "action" in kwargs else None)
    options = dict(flags)
    given, seen = 0, set()
    tokens = iter(argv[1:])
    for token in tokens:
        kwargs = options.get(token)
        if kwargs is None:
            if given == len(positionals) or token.startswith("-"):
                return None
            dest, choices = positionals[given]
            if token not in choices:
                return None
            values[dest] = token
            given += 1
            continue
        seen.add(token)
        if "action" in kwargs:  # store_true
            values[token[2:]] = True
            continue
        text = next(tokens, None)
        if text is None or (text.startswith("-") and not re.match(_NEGATIVE_NUMBER, text)):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except Exception:  # argparse turns this into its own error, or raises it
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[token[2:]] = value
    if given < len(positionals) or any(
        kwargs.get("required") and flag not in seen for flag, kwargs in flags
    ):
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse runs only for what the direct parser refuses: it prints help and errors
    args = parse_direct(argv)
    if args is None:
        args = make_parser().parse_args(argv)
    try:
        doc, csv, summary, ok = args.func(args)
        text = csv() if args.format == "csv" else render_json(doc) + "\n"
        sys.stdout.write(text)
        # build's --out is the directory it wrote its files into; every other verb's is a copy of stdout
        if args.out and args.command != "build":
            with replacing(args.out) as fh:
                fh.write(text)
        _say(summary)
        return EXIT_OK if ok else EXIT_PROPERTY
    except tuple(_EXIT_CODES) as exc:
        _say(f"error: {exc}")
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
