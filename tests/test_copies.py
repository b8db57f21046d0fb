"""Copies of frames, values, geometries and fields are made by their constructors.

``dataclasses.replace``, ``copy.deepcopy`` and a pickle round trip each give
an object whose checks ran again: a family keeps its label map (or its lack
of one) and a read-only stack, and values, line tables and field tables stay
read-only, with the same bits as the original.  Every array a representation
holds, its ``meta`` arrays included, is read-only on a fresh build too.
"""

import copy
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from qframe.cli import FAMILIES, build_representation, parse_direct
from qframe.errors import DimensionMismatchError
from qframe.finitefield import FiniteField
from qframe.frames import born_pair
from qframe.geometry import field_lattice
from qframe.operators import random_effect, random_state
from qframe.representations import (
    SphericalKernel,
    mub,
    mub_family,
    stratonovich_discrete,
    tetrahedral_constellation,
    wootters,
)

# one small admitted size per CLI representation; odd Leonhardt pairs through a label map
CASES = {
    "wootters": ["--d", "5"],
    "ghw": ["--p", "2", "--n", "2"],
    "cohendet": ["--d", "3"],
    "leonhardt": ["--d", "3"],
    "stratonovich": ["--s", "0.5"],
    "ruzzi": ["--d", "5"],
    "mub": ["--d", "3"],
    "hardy": ["--d", "3"],
    "havel": ["--n", "2"],
    "sic": ["--d", "2"],
}
MAPPED = {"wootters", "cohendet", "leonhardt", "ruzzi"}


def _renamed(rep):
    return replace(rep, frame=replace(rep.frame, name="renamed"), dual=replace(rep.dual, name="renamed"))


COPIES = {
    "replace": _renamed,
    "deepcopy": copy.deepcopy,
    "pickle": lambda rep: pickle.loads(pickle.dumps(rep)),
}


def _field_tables(field: FiniteField) -> dict:
    exp, log = field._exp_log
    return {"coords": field.coords, "traces": field.traces, "dual_coords": field.dual_coords,
            "times_x": field._times_x, "exp": exp, "log": log}


def _arrays(rep) -> dict:
    """Every array the pair promises read-only: both stacks, their label maps' tables, the line and field tables."""
    out = {}
    for side in ("frame", "dual"):
        family = getattr(rep, side)
        out[f"{side}.operators"] = family.operators
        if family.label_map is not None:
            lm = family.label_map
            out.update({f"{side}.label_map.{f.name}": getattr(lm, f.name) for f in fields(lm)
                        if isinstance(getattr(lm, f.name), np.ndarray)})
    if rep.geometry is not None:
        out["geometry.line_index"] = rep.geometry.line_index
        if "field" in rep.geometry.meta:
            out.update({f"field.{k}": v for k, v in _field_tables(rep.geometry.meta["field"]).items()})
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _pairings(rep, d: int) -> list:
    rho, E = random_state(d, seed=11), random_effect(d, seed=12)
    mu = rep.represent(rho)
    return [mu.values, rep.effect(E).values, rep.reconstruct(mu)]


def test_cases_cover_every_cli_representation():
    assert set(CASES) == set(FAMILIES)


@pytest.mark.parametrize("how", list(COPIES))
@pytest.mark.parametrize("name", list(CASES))
def test_a_copy_keeps_the_label_map_the_read_only_arrays_and_the_values(name, how):
    rep = build_representation(name, parse_direct(["build", name, *CASES[name], "--seed", "0"]))
    assert (rep.frame.label_map is not None) == (rep.dual.label_map is not None) == (name in MAPPED)
    got = COPIES[how](rep)
    for side in ("frame", "dual"):
        lm = getattr(got, side).label_map
        assert (lm is not None) == (name in MAPPED)
        if lm is not None:
            assert lm.stack is getattr(got, side).operators
    arrays = _arrays(got)
    assert set(arrays) == set(_arrays(rep))
    assert not [key for key, table in arrays.items() if table.flags.writeable]
    for key, table in _arrays(rep).items():
        _same_bits(arrays[key], table)
    for a, b in zip(_pairings(got, rep.dim), _pairings(rep, rep.dim)):
        _same_bits(a, b)


@pytest.mark.parametrize("make", [wootters, lambda d: build_representation(
    "ruzzi", parse_direct(["build", "ruzzi", "--d", str(d)]))])
def test_a_parity_family_refuses_its_map_with_another_stack(make):
    rep = make(5)
    for family in (rep.frame, rep.dual):
        with pytest.raises(DimensionMismatchError, match="another operator stack"):
            replace(family, operators=family.operators.copy())


def test_a_pair_renamed_on_both_sides_pairs_through_its_maps():
    rep = wootters(13)
    got = _renamed(rep)
    assert got.name == "renamed"
    assert got.frame.label_map is rep.frame.label_map and got.dual.label_map is rep.dual.label_map
    for a, b in zip(_pairings(got, 13), _pairings(rep, 13)):
        _same_bits(a, b)


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_copied_distribution_geometry_and_field_stay_read_only(how):
    remake = COPIES[how]
    rep = wootters(5)
    mu, xi = rep.represent(random_state(5, seed=3)), rep.effect(random_effect(5, seed=4))
    got = remake(mu)
    assert not got.values.flags.writeable
    _same_bits(got.values, mu.values)
    assert (got.representation, got.dim, got.labels, got.warnings) == (
        mu.representation, mu.dim, mu.labels, mu.warnings)
    assert born_pair(got, xi) == born_pair(mu, xi)

    field = FiniteField(2, 3)
    tables = _field_tables(field)
    geom = remake(field_lattice(field))
    assert not geom.line_index.flags.writeable
    _same_bits(geom.line_index, field_lattice(field).line_index)
    assert geom.lines == field_lattice(field).lines
    for copied in (remake(field), geom.meta["field"]):
        assert copied == field
        for key, table in _field_tables(copied).items():
            assert not table.flags.writeable, key
            _same_bits(table, tables[key])


def _reachable_arrays(obj, path: str, found: dict, seen: set) -> dict:
    """Every ndarray reachable from ``obj`` through dicts, lists, tuples and the attributes of qframe objects."""
    if id(obj) in seen:
        return found
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        found[path] = obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _reachable_arrays(value, f"{path}[{key!r}]", found, seen)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _reachable_arrays(value, f"{path}[{i}]", found, seen)
    elif type(obj).__module__.startswith("qframe") and hasattr(obj, "__dict__"):
        for key, value in vars(obj).items():
            _reachable_arrays(value, f"{path}.{key}", found, seen)
    return found


@pytest.mark.parametrize("how", ["fresh", *COPIES])
@pytest.mark.parametrize("name", list(CASES))
def test_every_array_a_pair_holds_is_read_only(name, how):
    rep = build_representation(name, parse_direct(["build", name, *CASES[name], "--seed", "0"]))
    got = rep if how == "fresh" else COPIES[how](rep)
    arrays = _reachable_arrays(got, "rep", {}, set())
    assert "rep.frame.operators" in arrays
    assert [path for path, table in arrays.items() if table.flags.writeable] == []
    fresh = _reachable_arrays(rep, "rep", {}, set())
    for path in arrays.keys() & fresh.keys():
        _same_bits(arrays[path], fresh[path])


def test_a_constellation_is_kept_as_a_copy():
    points = tetrahedral_constellation()
    rep = stratonovich_discrete(0.5, points)
    assert rep.meta["constellation"] is not points and points.flags.writeable
    _same_bits(rep.meta["constellation"], points)


@pytest.mark.parametrize("how", ["fresh", "deepcopy", "pickle"])
def test_a_spherical_kernels_weights_are_read_only(how):
    kernel = SphericalKernel(1, (1.0, 1.0, 1.0))
    got = kernel if how == "fresh" else COPIES[how](kernel)
    with pytest.raises(ValueError):
        got.weights[0] = 5.0
    _same_bits(got.weights, kernel.weights)
    _same_bits(got.point((0.0, 0.0, 1.0)), kernel.point((0.0, 0.0, 1.0)))


def test_a_mub_pair_is_copied_without_rebuilding_its_bases(monkeypatch):
    calls = []
    build = mub.mub_bases

    def counting(d):
        calls.append(d)
        return build(d)

    monkeypatch.setattr(mub, "mub_bases", counting)
    rep = mub_family(13).representation()
    assert calls == [13]
    assert all(isinstance(v, (np.ndarray, int, float, str)) for v in rep.meta.values())
    for how in ("pickle", "deepcopy"):
        got = COPIES[how](rep)
        _same_bits(got.meta["bases"], rep.meta["bases"])
    assert calls == [13]
