"""Each C-level, preallocated or stacked rewrite gives the bits of the numpy wrapper form it replaced.

So does each rule the library now takes from the one place that states it.
``tests/wrapper_oracle.py`` keeps the replaced forms.  Equal here means
``np.array_equal`` with the sign of every zero too, in the real and the
imaginary parts.
"""

import importlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import wrapper_oracle as oracle
from qframe.analysis import _lattice, _teleport_branches, bell_wigner_demo, teleport_phase_space
from qframe.cli import FAMILIES, _entanglement_draws, build_representation
from qframe.errors import FiducialSearchError
from qframe.frames import _coordinates, _from_coordinates
from qframe.operators import (
    _density_from_gaussian,
    _haar_from_gaussian,
    _norm,
    _rotated_diagonal,
    _seeded_states,
    random_pure_state,
    random_state,
    random_unitary,
    tensor,
)
from qframe.representations import (
    cohendet,
    extended_distribution,
    leonhardt,
    mub_bases,
    mub_unitary,
    ruzzi_s0,
    wootters,
)
from qframe.serialize import distribution_to_csv

sic = importlib.import_module("qframe.representations.sic")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and all(
        np.array_equal(np.signbit(part(a)), np.signbit(part(b))) for part in (np.real, np.imag))


def _draw(rng, shape, complex_entries: bool) -> np.ndarray:
    x = rng.standard_normal(shape)
    if complex_entries:
        x = x + 1j * rng.standard_normal(shape)
    # exact zeros of both signs, so the signed-zero rule is exercised
    x.reshape(-1)[::5] = 0.0
    x.reshape(-1)[1::7] *= -0.0
    return x


def _hermitian_stack(rng, n: int, d: int) -> np.ndarray:
    A = _draw(rng, (n, d, d), True)
    return A + A.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shapes", [
    [(2, 2), (3, 3)],
    [(2, 2), (3, 3), (2, 2)],
    [(3, 2), (1, 4), (2, 3)],
    [(4, 2, 2), (3, 3, 3)],
    [(2, 2, 2), (4, 2, 2), (3, 3, 3)],
    [(1, 1, 1), (4, 2, 2), (4, 2, 2)],
    [(3,), (2, 2), (2, 2, 2)],
], ids=["2x2-3x3", "three-matrices", "rectangular", "two-stacks", "three-stacks", "pauli-words", "mixed-ranks"])
def test_tensor_is_the_kron_chain(shapes, complex_entries):
    rng = np.random.default_rng(len(shapes) + 10 * complex_entries)
    ops = [_draw(rng, shape, complex_entries) for shape in shapes]
    assert same_bits(tensor(*ops), oracle.kron_tensor(*ops))


@pytest.mark.parametrize("shape", [(7,), (4, 4), (3, 5), (2, 3, 3), (0, 3)])
@pytest.mark.parametrize("kind", ["float", "complex", "int", "transposed"])
def test_norm_is_numpys(shape, kind):
    rng = np.random.default_rng(sum(shape))
    A = _draw(rng, shape, kind in ("complex", "transposed"))
    if kind == "int":
        A = np.round(10 * A).astype(np.int64)
    if kind == "transposed":
        A = A.T
    assert _norm(A) == float(np.linalg.norm(A))


@pytest.mark.parametrize("axis", [0, -1, (1, 2), (0, 2)])
@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_norm_along_axes_is_numpys(axis, keepdims, complex_entries):
    A = _draw(np.random.default_rng(7), (5, 4, 3), complex_entries)
    assert same_bits(_norm(A, axis=axis, keepdims=keepdims), np.linalg.norm(A, axis=axis, keepdims=keepdims))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_coordinates_are_the_concatenated_blocks(d):
    ops = _hermitian_stack(np.random.default_rng(d), 7, d)
    assert same_bits(_coordinates(ops), oracle.coordinates(ops))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 40])
def test_from_coordinates_is_the_split_blocks(d):
    # d = 40 spans several of the row blocks the library writes by
    V = np.random.default_rng(d).standard_normal((9, d * d))
    assert same_bits(_from_coordinates(V, d), oracle.from_coordinates(V, d))


@pytest.mark.parametrize("make", [wootters, cohendet, leonhardt, ruzzi_s0], ids=["wootters", "cohendet",
                                                                                  "leonhardt", "ruzzi"])
@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_mirror_tables_are_the_argsort_form(make, d):
    rep = make(d)
    for family in (rep.frame, rep.dual):
        table, sign = family.pairing.mirror
        want_table, want_sign = oracle.mirror(family.pairing.rows)
        assert np.array_equal(table, want_table) and table.dtype == want_table.dtype
        assert same_bits(sign, want_sign)


@pytest.mark.parametrize("shape", [(4, 1), (4, 3), (5, 5), (6, 3, 2), (6, 4, 4)])
def test_density_from_gaussian_is_the_wrapper_form(shape):
    G = _draw(np.random.default_rng(sum(shape)), shape, True)
    assert same_bits(_density_from_gaussian(G), oracle.density_from_gaussian(G))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 5), (5, 4)])
def test_rotated_diagonal_is_the_wrapper_form(d, k):
    rng = np.random.default_rng(d)
    U = np.array([random_unitary(d, rng) for _ in range(k)])
    vals = rng.random((k, d))
    assert same_bits(_rotated_diagonal(U, vals), oracle.rotated_diagonal(U, vals))
    assert same_bits(_rotated_diagonal(U[0], vals[0]), oracle.rotated_diagonal(U[0], vals[0]))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_teleport_branches_are_the_branch_at_a_time_build(d):
    rho = random_state(d, rank=1, seed=d)
    outcomes = [(a, b) for a in range(d) for b in range(d)]
    rep = _lattice((d,))
    mu_in = rep.represent(rho)
    for out, outcome in zip(_teleport_branches(d, rho, outcomes), outcomes):
        prob, values, residual, state = oracle.teleport_branch(rep, rho, mu_in, outcome)
        assert out.outcome == outcome
        assert out.probability == prob and out.displacement_residual == residual
        assert same_bits(out.mu_out.values, values) and same_bits(out.state_out, state)
        single = teleport_phase_space(d, rho, outcome)
        assert single.probability == prob and single.displacement_residual == residual
        assert same_bits(single.mu_out.values, values) and same_bits(single.state_out, state)


@pytest.mark.parametrize("seed", [0, 3, 1000])
def test_entanglement_states_are_the_per_sample_draws(seed):
    samples = 100
    want = np.array([random_state(4, rank=r, seed=s) for s, r in _entanglement_draws(seed, samples)])
    assert same_bits(_seeded_states(4, list(_entanglement_draws(seed, samples))), want)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_mub_bases_are_the_diag_and_list_forms(d):
    V = mub_unitary(d)
    if d > 2:
        assert same_bits(V, oracle.mub_unitary(d))
    assert same_bits(mub_bases(d), oracle.mub_bases(d, V))


# rules the library now takes from the one place that states them


def test_bell_demo_projectors_are_the_spin_kernels():
    # seeded triples in [-20, 20] rad and every triple of the 15-degree grid over one turn
    rng = np.random.default_rng(0)
    grid = np.deg2rad(np.arange(0.0, 360.0, 15.0))
    for a, b, c in [*rng.uniform(-20.0, 20.0, size=(500, 3)), *itertools.product(grid, repeat=3)]:
        got, want = bell_wigner_demo(a, b, c), oracle.bell_wigner(a, b, c)
        # repr is a float's exact decimal form, the sign of a zero included
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}, (a, b, c)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_unitaries_and_vectors_draw_the_complex_gaussians(d):
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert same_bits(random_unitary(d, rng), _haar_from_gaussian(oracle.complex_gaussian(ref, (d, d))))
        # the generator is left where the two-call draw left it
        assert rng.random() == ref.random()
        v = oracle.complex_gaussian(np.random.default_rng(seed), d)
        assert same_bits(random_pure_state(d, seed), v / _norm(v))


@pytest.mark.parametrize("d,seed", [(3, 0), (4, 1), (5, 3), (8, 7)])
def test_sic_search_starts_are_the_complex_gaussians(monkeypatch, d, seed):
    starts = []
    # each start is kept as drawn, so none is a fiducial and the search runs through all of them
    monkeypatch.setattr(sic, "_descend", lambda stack, phi, target: starts.append(phi) or phi)
    with pytest.raises(FiducialSearchError):
        sic._search(sic._orbit_stack(d), seed, 4)
    rng = np.random.default_rng(seed)
    assert len(starts) == 4
    assert all(same_bits(phi, oracle.complex_gaussian(rng, d)) for phi in starts)


def _small_distribution(name: str):
    """A seeded state's distribution on a small build of ``name``: a ``cli.FAMILIES`` row, or one of two more."""
    if name == "cohendet-extended":
        return extended_distribution(cohendet(3).represent(random_state(3, seed=5)))
    args = SimpleNamespace(d=3, dims=[2, 3] if name == "wootters-2x3" else None, p=2, n=2, s=None, seed=0)
    rep = build_representation(name.split("-")[0], args)
    return rep.represent(random_state(rep.dim, seed=5))


@pytest.mark.parametrize("name", [*FAMILIES, "wootters-2x3", "cohendet-extended"])
def test_distribution_csv_is_the_per_line_loop(name):
    mu = _small_distribution(name)
    assert distribution_to_csv(mu) == oracle.distribution_to_csv(mu)
