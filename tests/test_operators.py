"""Generalized Pauli algebra, Fourier/Schwinger bases, tensor plumbing."""

import numpy as np
import pytest

import lattice_oracle
from gf_oracle import eigh_fixed

from qframe.errors import DimensionMismatchError
from qframe.operators import (
    SIGMA,
    basis_state,
    bloch_state,
    finite_fourier,
    is_density,
    is_effect,
    is_hermitian,
    is_povm,
    maximally_mixed,
    omega,
    parity_matrix,
    partial_trace,
    partial_transpose,
    random_effect,
    random_pure_state,
    random_state,
    random_unitary,
    tensor,
    trace_inner,
    weyl_monomials,
)

DIMS = [2, 3, 4, 5, 6, 7, 8]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_weyl_builders_match_the_matrix_powers(d):
    for p in range(-d, 2 * d):
        for q in range(-d, 2 * d):
            np.testing.assert_allclose(weyl_monomials(d, p, q)[0], lattice_oracle.weyl_operator(p, q, d),
                                       rtol=0, atol=1e-12)
    np.testing.assert_array_equal(parity_matrix(d), lattice_oracle.parity_matrix(d))
    if d % 2:
        want = lattice_oracle.schwinger_basis(d)
        eta, xi = np.array(list(want)).T
        np.testing.assert_allclose(weyl_monomials(d, eta, xi) / np.sqrt(d), np.array(list(want.values())),
                                   rtol=0, atol=1e-12)


def _shift_and_clock(d):
    """X and Z as the library builds them: the Weyl monomials U_(1,0) and U_(0,1)."""
    return weyl_monomials(d, 1, 0)[0], weyl_monomials(d, 0, 1)[0]


@pytest.mark.parametrize("d", DIMS)
def test_weyl_commutation(d):
    X, Z = _shift_and_clock(d)
    np.testing.assert_allclose(X, lattice_oracle.shift_matrix(d), rtol=0, atol=1e-14)
    np.testing.assert_allclose(Z, lattice_oracle.clock_matrix(d), rtol=0, atol=1e-14)
    assert np.allclose(Z @ X, omega(d) * X @ Z, atol=1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_pauli_orders(d):
    X, Z = _shift_and_clock(d)
    P = parity_matrix(d)
    eye = np.eye(d)
    assert np.allclose(np.linalg.matrix_power(X, d), eye, atol=1e-10)
    assert np.allclose(np.linalg.matrix_power(Z, d), eye, atol=1e-10)
    assert np.allclose(P @ P, eye, atol=1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_commutator_defines_y(d):
    X, Z = _shift_and_clock(d)
    Y = (X @ Z - Z @ X) / 2j
    # Z X = omega X Z, so [X, Z] = (1 - omega) X Z
    assert np.allclose(2j * Y, (1 - omega(d)) * X @ Z, atol=1e-12)
    if d == 2:
        np.testing.assert_array_equal(Y, -SIGMA[1])


def test_qubit_y_is_negative_sigma_y():
    X, Y, Z = SIGMA
    np.testing.assert_array_equal(-Y, np.array([[0, 1j], [-1j, 0]]))
    np.testing.assert_array_equal((X @ Z - Z @ X) / 2j, -Y)
    np.testing.assert_array_equal(1j * X @ Z, Y)
    for P in SIGMA:
        np.testing.assert_array_equal(P, P.conj().T)
        np.testing.assert_array_equal(P @ P, np.eye(2))


def test_parity_matrix_d3():
    expected = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.array_equal(parity_matrix(3), expected)


def test_shift_direction():
    X = weyl_monomials(3, 1, 0)[0]
    v = np.zeros(3)
    v[0] = 1
    assert np.array_equal(X @ v, np.array([0, 1, 0], dtype=complex))


def test_half_exponent_phase_squares_to_omega():
    for d in DIMS:
        ph = lattice_oracle.half_exponent_phase(d, 1)
        assert abs(ph**2 - omega(d)) < 1e-12


def test_weyl_x_at_unit_displacement():
    assert np.allclose(weyl_monomials(3, 1, 0)[0], lattice_oracle.shift_matrix(3), atol=1e-14)


def test_weyl_qubit_diagonal_is_hermitian_unitary():
    # tau * X Z at d=2 equals the conventional sigma_y.
    U = weyl_monomials(2, 1, 1)[0]
    assert np.allclose(U, np.array([[0, -1j], [1j, 0]]), atol=1e-14)
    assert np.allclose(U @ U, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_schwinger_orthonormal(d):
    l = (d - 1) // 2
    eta, xi = np.divmod(np.arange(d * d), d) - np.array(l)  # the symmetric range [-l, l], row-major
    basis = weyl_monomials(d, eta, xi) / np.sqrt(d)
    G = np.einsum("aji,bji->ab", basis.conj(), basis)
    assert np.max(np.abs(G - np.eye(d * d))) < 1e-10
    assert np.allclose(basis[(d * d) // 2], np.eye(d) / np.sqrt(d), atol=1e-12)  # S(0, 0)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_fourier_conjugates_shift_to_clock(d):
    F = finite_fourier(d)
    assert np.allclose(F @ F.conj().T, np.eye(d), atol=1e-12)
    X, Z = _shift_and_clock(d)
    assert np.allclose(F @ X @ F.conj().T, Z, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4])
def test_fourier_squared_is_parity(d):
    F = finite_fourier(d)
    assert np.max(np.abs(F @ F - parity_matrix(d))) < 1e-12


def test_partial_trace_of_product():
    rng = np.random.default_rng(11)
    a, b = random_state(2, seed=rng), random_state(3, seed=rng)
    rho = tensor(a, b)
    assert np.allclose(partial_trace(rho, (2, 3), (0,)), a, atol=1e-12)
    assert np.allclose(partial_trace(rho, (2, 3), (1,)), b, atol=1e-12)


def test_partial_trace_of_bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    assert np.allclose(partial_trace(rho, (2, 2), (0,)), np.eye(2) / 2, atol=1e-12)


def test_partial_transpose_bell_spectrum():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    vals = np.linalg.eigvalsh(partial_transpose(rho, (2, 2), 1))
    assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_hermiticity():
    rho = random_state(6, seed=5)
    pt = partial_transpose(rho, (2, 3), 0)
    assert is_hermitian(pt)
    assert np.allclose(partial_transpose(pt, (2, 3), 0), rho, atol=1e-12)


@pytest.mark.parametrize("dims,subsystem", [((2, 2), 1), ((2, 2), 0), ((2, 3), 0), ((3, 2), 1)])
def test_partial_transpose_of_a_stack_is_the_per_matrix_transpose(dims, subsystem):
    D = int(np.prod(dims))
    rhos = np.array([random_state(D, seed=k) for k in range(5)])
    stacked = partial_transpose(rhos, dims, subsystem)
    assert np.array_equal(stacked, np.array([partial_transpose(rho, dims, subsystem) for rho in rhos]))
    with pytest.raises(DimensionMismatchError):
        partial_transpose(rhos[:, 1:, 1:], dims, subsystem)


def test_eigh_fixed_gauge():
    rho = random_state(4, seed=3)
    vals, vecs = eigh_fixed(rho)
    assert np.all(np.diff(vals) >= -1e-12)
    for i in range(4):
        col = vecs[:, i]
        first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(first.imag) < 1e-12 and first.real > 0
    vals2, vecs2 = eigh_fixed(rho)
    assert np.array_equal(vecs, vecs2)


def test_random_state_is_density_and_seeded():
    rho = random_state(5, seed=42)
    assert is_density(rho)
    assert np.array_equal(rho, random_state(5, seed=42))
    assert not np.allclose(rho, random_state(5, seed=43))


def test_random_state_rank():
    pure = random_state(4, rank=1, seed=9)
    assert abs(trace_inner(pure, pure) - 1.0) < 1e-10
    full = random_state(4, rank=4, seed=9)
    assert np.linalg.matrix_rank(full, tol=1e-10) == 4


def test_random_pure_state_normalized():
    v = random_pure_state(7, seed=1)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_random_effect_and_unitary():
    E = random_effect(4, seed=8)
    assert is_effect(E)
    U = random_unitary(3, np.random.default_rng(2))
    assert np.allclose(U @ U.conj().T, np.eye(3), atol=1e-12)


def test_povm_from_eigenprojectors():
    _, vecs = eigh_fixed(random_state(3, seed=17))
    effects = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(3)]
    assert is_povm(effects)
    assert not is_povm(effects[:2])


def test_bloch_state_conventions():
    assert np.allclose(bloch_state(0, 0, 1), basis_state(2, 0), atol=1e-14)
    r = bloch_state(*(np.ones(3) / np.sqrt(3)))
    assert is_density(r)
    assert abs(trace_inner(r, r) - 1.0) < 1e-12  # pure


def test_stabilizer_states_overlaps():
    states = lattice_oracle.qubit_stabilizer_states()
    assert len(states) == 6
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            ov = trace_inner(a, b)
            if i == j:
                assert abs(ov - 1.0) < 1e-12
            elif i // 2 == j // 2:
                assert abs(ov) < 1e-12  # antipodal pair
            else:
                assert abs(ov - 0.5) < 1e-12


def test_maximally_mixed_trace():
    assert abs(np.trace(maximally_mixed(6)).real - 1.0) < 1e-14
