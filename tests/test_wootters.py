"""Phase-point operator factories for prime and prime-product dimensions."""

from dataclasses import replace

import numpy as np
import pytest

from qframe.operators import (
    basis_state,
    bloch_state,
    displaced_parity,
    maximally_mixed,
    omega,
    parity_matrix,
    random_state,
    tensor,
)
from qframe.geometry import prime_lattice
from qframe.representations import ghw, hardy_rep, striation_pvms, wootters, wootters_composite
from qframe.errors import DimensionMismatchError, UnsupportedDimensionError

import lattice_oracle

SQ3 = np.sqrt(3.0)


def _points(rep):
    return {lab: rep.dual.operators[i] for i, lab in enumerate(rep.labels)}


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_point_operator_orthogonality(d):
    A = _points(wootters(d))
    labs = list(A)
    for a in labs:
        for b in labs:
            want = d if a == b else 0.0
            got = np.trace(A[a] @ A[b])
            assert abs(got - want) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 5])
def test_point_operator_normalization(d):
    rep = wootters(d)
    A = _points(rep)
    total = sum(A.values())
    assert np.allclose(total, d * np.eye(d), atol=1e-12)
    for a in A.values():
        assert abs(np.trace(a) - 1.0) < 1e-12
        assert np.allclose(a, a.conj().T, atol=1e-12)


def test_origin_point_is_parity_for_d3():
    A = _points(wootters(3))
    assert np.allclose(A[(0, 0)], parity_matrix(3), atol=1e-12)


def test_qubit_point_operator_frozen_matrix():
    A = _points(wootters(2))
    # (I + Z + X + Y)/2 with Y = (XZ - ZX)/2i
    want = 0.5 * np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
    assert np.allclose(A[(0, 0)], want, atol=1e-12)


@pytest.mark.parametrize("dims", [[2], [2, 2], [2, 3]])
def test_qubit_factors_are_exactly_hermitian(dims):
    # the qubit points are sums of the exact Pauli matrices, so no round-off breaks F = F^dag
    rep = wootters_composite(dims)
    assert rep.frame.skew == 0.0 and rep.dual.skew == 0.0


def test_qubit_point_operator_eigenvalues():
    A = _points(wootters(2))
    vals = np.linalg.eigvalsh(A[(0, 0)])
    assert np.allclose(sorted(vals), [(1 - SQ3) / 2, (1 + SQ3) / 2], atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_prime_displaced_parity_word(d):
    # A_(q,p) = X^2q Z^2p P w^2qp
    A = _points(wootters(d))
    X, Z, P = lattice_oracle.shift_matrix(d), lattice_oracle.clock_matrix(d), parity_matrix(d)
    w = omega(d)
    for q, p in [(0, 0), (1, 0), (0, 1), (1, 2), (d - 1, d - 1)]:
        word = (
            np.linalg.matrix_power(X, (2 * q) % d)
            @ np.linalg.matrix_power(Z, (2 * p) % d)
            @ P
            * w ** ((2 * q * p) % d)
        )
        assert np.allclose(A[(q, p)], word, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_translation_covariance(d):
    A = _points(wootters(d))
    X, Z = lattice_oracle.shift_matrix(d), lattice_oracle.clock_matrix(d)
    for q, p in [(0, 0), (1, d - 1)]:
        assert np.allclose(X @ A[(q, p)] @ X.conj().T, A[((q + 1) % d, p)], atol=1e-12)
        assert np.allclose(Z @ A[(q, p)] @ Z.conj().T, A[(q, (p + 1) % d)], atol=1e-12)


def test_bloch_diagonal_state_minimum_value():
    # most negative qubit value sits at (1 - sqrt 3)/4
    rep = wootters(2)
    rho = bloch_state(1 / SQ3, 1 / SQ3, 1 / SQ3)
    mu = rep.represent(rho)
    assert abs(mu.values.min() - (1 - SQ3) / 4) < 1e-12
    assert abs(mu.values.sum() - 1.0) < 1e-12


def test_qubit_stabilizer_states_nonnegative():
    # the six stabilizer states and their seeded mixtures stay nonnegative; the Bloch (1, 1, 1)/sqrt 3 state does not
    rep = wootters(2)
    stab = np.array(lattice_oracle.qubit_stabilizer_states())
    weights = np.random.default_rng(3).dirichlet(np.ones(len(stab)), size=100)
    assert min(rep.represent(s).min() for s in stab) >= -1e-12
    assert min(rep.represent(rho).min() for rho in np.einsum("ks,sij->kij", weights, stab)) >= -1e-12
    assert rep.represent(bloch_state(1 / SQ3, 1 / SQ3, 1 / SQ3)).min() < -0.18


@pytest.mark.parametrize("d", [2, 3, 5])
def test_vertical_striation_is_computational_basis(d):
    rep = wootters(d)
    pvms = striation_pvms(rep)
    # striation 0 collects the vertical lines q = const
    for line, proj in enumerate(pvms[0]):
        want = basis_state(d, line) @ basis_state(d, line).conj().T
        assert np.allclose(proj, want, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_striations_are_pvms(d):
    rep = wootters(d)
    for pvm in striation_pvms(rep):
        total = sum(pvm)
        assert np.allclose(total, np.eye(d), atol=1e-10)
        for proj in pvm:
            assert np.allclose(proj @ proj, proj, atol=1e-9)


@pytest.mark.parametrize("build", [
    lambda: wootters(5), lambda: wootters_composite([2, 3]), lambda: ghw(2, 2), lambda: ghw(3, 2),
], ids=["wootters-5", "wootters-2x3", "ghw-4", "ghw-9"])
def test_striation_pvms_match_the_per_line_oracle(build):
    rep = build()
    want = np.array(lattice_oracle.striation_pvms(rep))
    got = striation_pvms(rep)
    assert got.shape == want.shape == (len(rep.geometry.striations), rep.dim, rep.dim, rep.dim)
    assert np.array_equal(got, want)


def test_geometry_points_must_be_the_frame_labels():
    # line indices into the geometry's points are used as frame indices
    with pytest.raises(DimensionMismatchError):
        replace(wootters(3), geometry=prime_lattice(5))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_line_sums_match_pvm_probabilities(d):
    rep = wootters(d)
    geom = rep.geometry
    rng = np.random.default_rng(61)
    pvms = striation_pvms(rep)
    for _ in range(8):
        rho = random_state(d, seed=rng)
        mu = rep.represent(rho)
        idx = {lab: i for i, lab in enumerate(rep.labels)}
        for s, lines in enumerate(geom.striations):
            for j, line in enumerate(lines):
                total = sum(mu.values[idx[pt]] for pt in geom.lines[line])
                born = np.trace(rho @ pvms[s][j]).real
                assert abs(total - born) < 1e-9


def test_composite_two_qubit_orthogonality():
    rep = wootters_composite([2, 2])
    ops = rep.dual.operators
    for i in range(16):
        for j in range(16):
            want = 4.0 if i == j else 0.0
            assert abs(np.trace(ops[i] @ ops[j]) - want) < 1e-10


def test_composite_points_factorize():
    rep = wootters_composite([2, 3])
    a2 = _points(wootters(2))
    a3 = _points(wootters(3))
    pts = _points(rep)
    assert np.allclose(pts[((1, 0), (2, 1))], tensor(a2[(1, 0)], a3[(2, 1)]), atol=1e-12)


def _prime_points(x):
    """A(q, p) of one prime factor, row-major: the qubit points at 2, K(2q, 2p) at odd x."""
    if x == 2:
        return np.array([lattice_oracle.qubit_point(q, p) for q in range(2) for p in range(2)])
    q, p = np.divmod(np.arange(x * x), x)
    return displaced_parity(x, 2 * q, 2 * p)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 5), (2, 2, 3)])
def test_composite_is_the_kron_of_its_factors_to_the_bit(dims):
    want = _prime_points(dims[0])
    for x in dims[1:]:
        want = np.array([np.kron(a, b) for a in want for b in _prime_points(x)])
    rep = wootters_composite(dims)
    assert np.array_equal(rep.dual.operators, want)
    assert np.array_equal(rep.frame.operators, want / rep.dim)


def test_composite_product_state_factorizes():
    rep = wootters_composite([2, 2])
    rho1 = bloch_state(0, 0, 1)
    rho2 = bloch_state(1 / SQ3, 1 / SQ3, 1 / SQ3)
    mu = rep.represent(tensor(rho1, rho2))
    mu1 = wootters(2).represent(rho1)
    mu2 = wootters(2).represent(rho2)
    for i, (la, lb) in enumerate(rep.labels):
        v = mu1.values[list(wootters(2).labels).index(la)] * mu2.values[
            list(wootters(2).labels).index(lb)
        ]
        assert abs(mu.values[i] - v) < 1e-12


def test_composite_maximally_mixed_uniform():
    rep = wootters_composite([3, 3])
    mu = rep.represent(maximally_mixed(9))
    assert np.allclose(mu.values, 1 / 81, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_round_trip(d):
    rep = wootters(d)
    rho = random_state(d, seed=19 + d)
    back = rep.reconstruct(rep.represent(rho))
    assert np.max(np.abs(back - rho)) < 1e-10


def test_duality_residual():
    from qframe.frames import is_dual_pair

    for rep in [wootters(2), wootters(3), wootters(5), wootters_composite([2, 2])]:
        ok, residual = is_dual_pair(rep.frame, rep.dual)
        assert ok and residual < 1e-9


def test_nonprime_dimension_rejected():
    with pytest.raises(UnsupportedDimensionError):
        wootters(4)
    with pytest.raises(UnsupportedDimensionError):
        wootters_composite([2, 4])


def test_a_pair_without_striations_has_no_line_operators():
    with pytest.raises(ValueError, match="representation 'hardy' has no striations"):
        striation_pvms(hardy_rep(3))
