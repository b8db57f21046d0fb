"""Projector-grid, Pauli-word, and equal-overlap POVM representations."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import batch_oracle as oracle
from qframe.cli import main

from qframe.errors import (
    DimensionMismatchError,
    FiducialSearchError,
    UnsupportedDimensionError,
)
from qframe.frames import Frame, gram_dual, is_dual_pair
from qframe.operators import (
    SIGMA,
    maximally_mixed,
    random_effect,
    random_state,
    weyl_monomials,
)
from qframe.representations import (
    hardy_rep,
    havel_rep,
    overlap_deviation,
    real_density_matrix,
    reconstruct_from_real,
    sic_born,
    sic_conditional,
    sic_fiducial,
    sic_rep,
)
from qframe.representations.sic import SEARCH_TOL


# projector grid


def test_grid_vector_cases():
    # k == j: basis projector; k < j: plain sum; k > j: i-weighted sum
    grid = hardy_rep(3).frame.operators
    P = grid[3 * 1 + 1]
    want = np.zeros((3, 3))
    want[1, 1] = 1.0
    assert np.allclose(P, want)

    P = grid[3 * 0 + 2]
    v = np.array([1.0, 0.0, 1.0])
    assert np.allclose(P, np.outer(v, v))

    P = grid[3 * 2 + 0]
    v = np.array([1.0j, 0.0, 1.0])
    assert np.allclose(P, np.outer(v, v.conj()))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_grid_traces(d):
    # diagonal members have trace 1, off-diagonal members trace 2
    grid = hardy_rep(d).frame.operators
    for k in range(d):
        for j in range(d):
            t = np.trace(grid[d * k + j]).real
            assert abs(t - (1.0 if k == j else 2.0)) < 1e-12


@pytest.mark.parametrize("d", range(2, 25))
def test_grid_stack_is_the_per_projector_build(d):
    # the one-stack grid and its dual equal the projector-at-a-time build and its dual, bit for bit
    want = np.array([oracle.hardy_projector(d, k, j) for k in range(d) for j in range(d)])
    rep = hardy_rep(d)
    assert np.array_equal(rep.frame.operators, want)
    dual = gram_dual(Frame(tuple(range(d * d)), want, "hardy"))
    assert np.array_equal(rep.dual.operators, dual.operators)


def test_grid_maximally_mixed_values():
    rep = hardy_rep(2)
    mu = rep.represent(maximally_mixed(2))
    assert np.allclose(mu.values, [0.5, 1.0, 1.0, 0.5], atol=1e-12)


def test_grid_labels_row_stacked():
    rep = hardy_rep(3)
    assert rep.labels == tuple(range(9))
    # alpha = d*k + j ordering: alpha=5 is (k,j)=(1,2)
    assert np.allclose(rep.frame.operators[5], oracle.hardy_projector(3, 1, 2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_grid_linearly_independent(d):
    ops = hardy_rep(d).frame.operators
    G = np.array([[np.trace(A @ B).real for B in ops] for A in ops])
    assert np.linalg.matrix_rank(G, tol=1e-8) == d * d


@pytest.mark.parametrize("d", [2, 3])
def test_grid_duality(d):
    rep = hardy_rep(d)
    ok, residual = is_dual_pair(rep.frame, rep.dual)
    assert ok and residual < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_grid_dot_product_born_rule(seed):
    rep = hardy_rep(3)
    rho = random_state(3, seed=seed)
    E = random_effect(3, seed=100 + seed)
    mu = rep.represent(rho)
    xi = rep.effect(E)
    assert abs(np.dot(mu.values, xi.values) - np.trace(rho @ E).real) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_grid_round_trip(d):
    rep = hardy_rep(d)
    rho = random_state(d, seed=7 + d)
    assert np.allclose(rep.reconstruct(rep.represent(rho)), rho, atol=1e-9)


# Pauli-word table


def word(n_qubits: int, k: int, j: int) -> np.ndarray:
    """P_kj, row k * d + j of the Havel frame."""
    return havel_rep(n_qubits).frame.operators[k * 2**n_qubits + j]


def test_word_single_qubit_grid():
    X, Y, Z = SIGMA[0], -SIGMA[1], SIGMA[2]  # Y in the commutator convention
    assert np.allclose(word(1, 0, 0), np.eye(2))
    assert np.allclose(word(1, 0, 1), X)
    assert np.allclose(word(1, 1, 0), Y)
    assert np.allclose(word(1, 1, 1), Z)


def test_word_tensor_bit_order():
    # leading bit of the index picks the leading tensor factor
    left = np.kron(SIGMA[0], np.eye(2))
    assert np.allclose(word(2, 0, 2), left)
    right = np.kron(np.eye(2), SIGMA[2])
    assert np.allclose(word(2, 1, 1), right)


def test_table_of_plus_z_state():
    Z = np.diag([1.0, -1.0]).astype(complex)
    sigma = real_density_matrix((np.eye(2) + Z) / 2)
    assert np.allclose(sigma, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_table_of_maximally_mixed():
    sigma = real_density_matrix(maximally_mixed(2))
    assert np.allclose(sigma, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_word_orthogonality_two_qubits():
    rep = havel_rep(2)
    ops = rep.frame.operators
    G = np.array([[np.trace(A @ B).real for B in ops] for A in ops])
    assert np.allclose(G, 4.0 * np.eye(16), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_word_duality(n):
    rep = havel_rep(n)
    ok, residual = is_dual_pair(rep.frame, rep.dual)
    assert ok and residual < 1e-9


@pytest.mark.parametrize("n,seed", [(1, 0), (1, 1), (2, 2), (2, 3)])
def test_table_round_trip(n, seed):
    rho = random_state(2**n, seed=seed)
    sigma = real_density_matrix(rho)
    assert sigma.shape == (2**n, 2**n)
    assert np.allclose(reconstruct_from_real(sigma), rho, atol=1e-10)


def test_table_rejects_non_power_of_two():
    with pytest.raises(UnsupportedDimensionError):
        real_density_matrix(maximally_mixed(3))
    with pytest.raises(UnsupportedDimensionError):
        reconstruct_from_real(np.eye(6))


def test_table_refuses_large_registers_before_building_words(monkeypatch):
    havel = sys.modules["qframe.representations.havel"]
    monkeypatch.setattr(havel, "_pauli_words", lambda n: pytest.fail("built the words of a 6-qubit register"))
    with pytest.raises(UnsupportedDimensionError):
        real_density_matrix(maximally_mixed(64))
    with pytest.raises(UnsupportedDimensionError):
        reconstruct_from_real(np.eye(64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_words_are_exactly_hermitian(n):
    rep = havel_rep(n)
    assert rep.frame.skew == 0.0 and rep.dual.skew == 0.0


def test_word_factory_validates_register():
    with pytest.raises(UnsupportedDimensionError):
        havel_rep(0)
    with pytest.raises(UnsupportedDimensionError):
        havel_rep(True)


# equal-overlap POVM


def test_qubit_fiducial_bloch_components():
    phi = sic_fiducial(2)
    rho = np.outer(phi, phi.conj())
    for axis in SIGMA:
        assert abs(abs(np.trace(rho @ axis).real) - 1 / np.sqrt(3)) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_orbit_overlaps(d):
    rep = sic_rep(d)
    vecs = []
    phi = rep.meta["fiducial"]
    for p in range(d):
        for q in range(d):
            vecs.append(weyl_monomials(d, p, q)[0] @ phi)
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            ov = abs(np.vdot(va, vb)) ** 2
            want = 1.0 if a == b else 1.0 / (d + 1)
            assert abs(ov - want) < 1e-8


def test_fiducial_search_three_level():
    phi = sic_fiducial(3)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
    assert overlap_deviation(3, phi) < 1e-8


def test_fiducial_probabilities_qubit():
    rep = sic_rep(2)
    phi = rep.meta["fiducial"]
    mu = rep.represent(np.outer(phi, phi.conj()))
    assert np.allclose(mu.values, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-10)


def test_povm_resolves_identity():
    rep = sic_rep(3)
    total = rep.frame.operators.sum(axis=0)
    assert np.allclose(total, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_povm_duality(d):
    rep = sic_rep(d)
    ok, residual = is_dual_pair(rep.frame, rep.dual)
    assert ok and residual < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_povm_reconstruction_round_trip(d):
    rep = sic_rep(d)
    for seed in range(5):
        rho = random_state(d, seed=seed)
        assert np.allclose(rep.reconstruct(rep.represent(rho)), rho, atol=1e-8)


@pytest.mark.parametrize("d", [2, 3])
def test_update_rule_matches_trace(d):
    rep = sic_rep(d)
    for seed in range(25):
        rho = random_state(d, seed=seed)
        E = random_effect(d, seed=200 + seed)
        mu = rep.represent(rho)
        xi = sic_conditional(rep, E)
        assert abs(sic_born(mu, xi) - np.trace(rho @ E).real) < 1e-8


def test_conditional_weights_are_probabilities():
    rep = sic_rep(3)
    E = random_effect(3, seed=9)
    xi = sic_conditional(rep, E)
    assert np.all(xi > -1e-10)
    assert np.all(xi < 1.0 + 1e-10)
    # the identity effect is certain regardless of the outcome
    assert np.allclose(sic_conditional(rep, np.eye(3)), 1.0, atol=1e-10)


def test_update_rule_on_identity_effect():
    rep = sic_rep(3)
    rho = random_state(3, seed=4)
    mu = rep.represent(rho)
    assert abs(sic_born(mu, np.ones(9)) - 1.0) < 1e-10


def test_bad_fiducial_rejected():
    with pytest.raises(FiducialSearchError):
        sic_rep(3, fiducial=np.array([1.0, 0.0, 0.0]))


def test_fiducial_shape_checked():
    with pytest.raises(DimensionMismatchError):
        sic_rep(3, fiducial=np.ones(4))


def test_search_dimension_capped():
    with pytest.raises(UnsupportedDimensionError):
        sic_fiducial(9)


# Levenberg-Marquardt fiducial search


@settings(max_examples=40, deadline=None)
@given(d=st.integers(3, 8), seed=st.integers(0, 10**6))
@example(d=8, seed=133)  # undamped, J^T J turns singular along the phase of phi
def test_search_meets_tolerance_and_is_seeded(d, seed):
    rep = sic_rep(d, seed=seed)
    phi = rep.meta["fiducial"]
    assert overlap_deviation(d, phi) <= SEARCH_TOL
    assert rep.meta["overlap_deviation"] <= SEARCH_TOL
    ok, residual = is_dual_pair(rep.frame, rep.dual)
    assert ok, residual
    assert np.array_equal(sic_fiducial(d, seed=seed), phi)
    used = rep.meta["search_starts"]
    assert used >= 1
    if used > 1:  # the starts before the last one all failed
        with pytest.raises(FiducialSearchError):
            sic_fiducial(d, seed=seed, starts=used - 1)


@pytest.mark.parametrize("d", range(3, 9))
def test_default_search_reaches_round_off(d):
    assert overlap_deviation(d, sic_fiducial(d)) < 1e-13


def test_search_runs_without_scipy():
    probe = (
        "import sys; sys.modules['scipy'] = None\n"
        "from qframe.representations import sic_rep, overlap_deviation\n"
        "for d in range(3, 9):\n"
        "    assert overlap_deviation(d, sic_rep(d).meta['fiducial']) < 1e-8\n"
        "loaded = [m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None]\n"
        "print(loaded)"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_no_starts_still_raises():
    with pytest.raises(FiducialSearchError):
        sic_fiducial(3, starts=0)


def test_search_statistics_in_meta():
    assert sic_rep(2).meta["search_starts"] == 0
    phi = sic_fiducial(4)
    provided = sic_rep(4, fiducial=phi)
    assert provided.meta["search_starts"] == 0
    searched = sic_rep(4)
    assert searched.meta["search_starts"] >= 1
    assert searched.meta["overlap_deviation"] == overlap_deviation(4, searched.meta["fiducial"])


def test_search_statistics_in_build_and_verify(tmp_path, capsys):
    assert main(["build", "sic", "--d", "3", "--out", str(tmp_path)]) == 0
    built = json.loads(capsys.readouterr().out)
    assert main(["verify", "sic", "--d", "3", "--samples", "5"]) == 0
    verified = json.loads(capsys.readouterr().out)
    rep = sic_rep(3, seed=0)
    for doc in (built, verified):
        assert doc["search_starts"] == rep.meta["search_starts"] >= 1
        assert doc["overlap_deviation"] == pytest.approx(rep.meta["overlap_deviation"], rel=1e-11)
    assert main(["verify", "wootters", "--d", "3", "--samples", "5"]) == 0
    assert "search_starts" not in json.loads(capsys.readouterr().out)
