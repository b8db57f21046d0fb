"""Every public function and class in ``src/`` has a reason to be public.

A public name is used by another part of ``src/`` (which is how a CLI verb
reaches it), by an identity in ``tests/test_acceptance.py``, or is one of
the paper's objects named in ``PAPER_OBJECTS``.  A per-point or dict copy of
a stack builder is none of these: it goes, or moves into ``tests/`` as an
oracle.  Methods are not counted.  One object has one type: a class that
derives from another and adds nothing is a second name for its base, so
only exception classes, which exist to be caught apart, may be empty.
"""

import ast
import builtins
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qframe"

# the paper's objects and the library's helpers on them that are public without a caller in src/
PAPER_OBJECTS = {
    # frames and duals
    "canonical_dual",
    "reconstruct_effect",
    # operator and state helpers
    "basis_state",
    "is_povm",
    "parity_matrix",
    "partial_trace",
    "random_unitary",
    # phase-space geometry
    "check_geometry_axioms",
    "lines_through",
    # lattice constructions and their equivalences
    "extended_distribution",
    "from_extended",
    "match_phase_points",
    # unbiased bases, SIC and Pauli-word tables
    "mub_reconstruct",
    "overlap_deviation",
    "real_density_matrix",
    "reconstruct_from_real",
    "sic_born",
    "sic_conditional",
    "sic_fiducial",
    # spin and NMR kernels
    "sphere_quadrature",
    # documents
    "frame_from_doc",
}


def _public_definitions(src: pathlib.Path = SRC) -> dict[str, str]:
    """Top-level public function and class names under ``src``, each with its module's path."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = str(path.relative_to(src))
    return out


def _used_names(node: ast.AST) -> set[str]:
    """Names and attribute names a node reads; an import or ``__all__`` entry alone is not a use."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _used_in_src(src: pathlib.Path = SRC) -> set[str]:
    """Names some top-level statement under ``src`` reads, a definition's reads of its own name excluded."""
    out = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            out |= _used_names(node) - {own}
    return out


def _used_in_acceptance() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    imported = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names}
    return _used_names(tree) | imported


def test_every_public_name_has_a_use():
    used = _used_in_src() | _used_in_acceptance() | PAPER_OBJECTS
    orphans = {name: path for name, path in _public_definitions().items() if name not in used}
    assert not orphans, f"no caller in src/, no acceptance identity, not in PAPER_OBJECTS: {orphans}"


def test_named_objects_are_defined():
    assert PAPER_OBJECTS <= set(_public_definitions())


def _empty_subclasses(src: pathlib.Path = SRC) -> dict[str, str]:
    """Non-exception classes under ``src`` that have a base and a body of only a docstring or ``pass``."""
    classes = [(node, str(path.relative_to(src))) for path in sorted(src.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
    while True:
        derived = {node.name for node, _ in classes if set().union(*map(_used_names, node.bases)) & exceptions}
        if derived <= exceptions:
            break
        exceptions |= derived
    return {
        node.name: path for node, path in classes
        if node.bases and node.name not in exceptions and all(
            isinstance(stmt, ast.Pass)
            or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
            for stmt in node.body
        )
    }


def test_no_class_is_a_second_name_for_its_base():
    assert not _empty_subclasses(), "an empty subclass names its base a second time; use the base"


def test_the_empty_subclass_guard_sees_one(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Base:\n    x = 1\n\n\nclass Alias(Base):\n    \"\"\"Doc.\"\"\"\n\n\n"
        "class Other(Base):\n    pass\n\n\nclass Grown(Base):\n    \"\"\"Doc.\"\"\"\n\n    y = 2\n\n\n"
        "class Bare:\n    \"\"\"Doc.\"\"\"\n\n\nclass Failed(ValueError):\n    \"\"\"Doc.\"\"\"\n\n\n"
        "class Worse(Failed):\n    pass\n"
    )
    assert _empty_subclasses(tmp_path) == {"Alias": "mod.py", "Other": "mod.py"}


def test_the_guard_sees_an_orphan(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from .other import imported\n__all__ = ['orphan']\n\n\n"
        "def used():\n    return 1\n\n\ndef orphan():\n    return orphan() + used()\n"
    )
    assert _public_definitions(tmp_path) == {"used": "mod.py", "orphan": "mod.py"}
    used = _used_in_src(tmp_path)
    assert "used" in used and "orphan" not in used and "imported" not in used
