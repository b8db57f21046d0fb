"""Symmetric-basis lattice kernels and unbiased-basis probability tables."""

import importlib

import numpy as np
import pytest

from qframe.errors import UnsupportedDimensionError
from qframe.frames import is_dual_pair
from qframe.operators import (
    SIGMA,
    basis_state,
    finite_fourier,
    maximally_mixed,
    random_state,
)
from qframe.representations import (
    mub_bases,
    mub_family,
    mub_reconstruct,
    mub_table,
    mub_transition,
    mub_unitary,
    ruzzi_s0,
    wootters,
)


@pytest.mark.parametrize("d", [3, 5])
def test_lattice_kernel_hermitian_orthogonal(d):
    rep = ruzzi_s0(d)
    pts = dict(zip(rep.labels, rep.dual.operators))
    for a, Ta in pts.items():
        assert np.allclose(Ta, Ta.conj().T, atol=1e-10)
        assert abs(np.trace(Ta) - 1.0) < 1e-10
        for b, Tb in pts.items():
            want = d if a == b else 0.0
            assert abs(np.trace(Ta @ Tb) - want) < 1e-9


def test_lattice_kernel_matches_reflected_prime_points():
    # T(q,p) coincides with the prime-lattice point operator at (p, -q)
    d = 5
    ref = wootters(d)
    A = dict(zip(ref.labels, ref.dual.operators))
    for (q, p), T in zip(ruzzi_s0(d).labels, ruzzi_s0(d).dual.operators):
        assert np.max(np.abs(T - A[(p, (-q) % d)])) < 1e-9


def test_lattice_representation():
    rep = ruzzi_s0(3)
    ok, res = is_dual_pair(rep.frame, rep.dual)
    assert ok and res < 1e-9
    mu = rep.represent(maximally_mixed(3))
    assert np.allclose(mu.values, 1 / 9, atol=1e-12)
    rho = random_state(3, seed=2)
    back = rep.reconstruct(rep.represent(rho))
    assert np.max(np.abs(back - rho)) < 1e-9


def test_lattice_even_dimension_rejected():
    with pytest.raises(UnsupportedDimensionError):
        ruzzi_s0(4)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_family_pairwise_unbiased(d):
    bases = mub_bases(d)
    assert len(bases) == d + 1
    for a in range(d + 1):
        for b in range(a, d + 1):
            O = np.abs(bases[a].conj().T @ bases[b]) ** 2
            target = np.eye(d) if a == b else np.full((d, d), 1 / d)
            assert np.max(np.abs(O - target)) < 1e-9


def test_qubit_family_hits_the_three_axes():
    X, Y, Z = SIGMA
    V = mub_unitary(2)
    assert np.allclose(V @ V.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(V @ Z @ V.conj().T, X, atol=1e-12)
    bases = mub_bases(2)
    # basis 1 diagonalizes X, basis 2 diagonalizes Y (up to eigenvalue order)
    for B, op in [(bases[1], X), (bases[2], Y)]:
        D = B.conj().T @ op @ B
        off = D - np.diag(np.diag(D))
        assert np.max(np.abs(off)) < 1e-10
        assert sorted(np.round(np.diag(D).real, 9)) == [-1.0, 1.0]


def test_odd_prime_generator_advances_bases():
    d = 5
    V = mub_unitary(d)
    bases = mub_bases(d)
    for n in range(1, d - 1):
        got = V @ bases[n]
        overlap = np.abs(got.conj().T @ bases[n + 1]) ** 2
        assert np.max(np.abs(overlap - np.eye(d))) < 1e-9
    # the closing member is invariant under the generator
    F = bases[d]
    overlap = np.abs((V @ F).conj().T @ F) ** 2
    assert np.max(np.abs(overlap - np.eye(d))) < 1e-9
    assert np.allclose(F, finite_fourier(d), atol=1e-12)


def test_family_completeness_identity():
    d = 3
    fam = mub_family(d)
    rho = random_state(d, seed=13)
    acc = sum(
        np.trace(rho @ P) * P for P in fam.projectors
    )
    assert np.max(np.abs(acc - rho - np.eye(d))) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 5])
def test_table_columns_sum_to_one(d):
    fam = mub_family(d)
    rho = random_state(d, seed=7)
    table = mub_table(rho, fam)
    vals = table.values.reshape(d + 1, d)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-10)
    assert vals.min() > -1e-12 and vals.max() < 1 + 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_table_inversion_round_trip(d):
    fam = mub_family(d)
    rng = np.random.default_rng(71)
    for _ in range(10):
        rho = random_state(d, seed=rng)
        back = mub_reconstruct(mub_table(rho, fam), fam)
        assert np.max(np.abs(back - rho)) < 1e-9


def test_transition_rule_matches_state_overlap():
    d = 3
    fam = mub_family(d)
    rng = np.random.default_rng(77)
    for _ in range(10):
        r1 = random_state(d, seed=rng)
        r2 = random_state(d, seed=rng)
        got = mub_transition(mub_table(r1, fam), mub_table(r2, fam))
        assert abs(got - np.trace(r1 @ r2).real) < 1e-10


def test_pure_state_self_transition_is_one():
    d = 5
    fam = mub_family(d)
    v = basis_state(d, 2)
    rho = v @ v.conj().T
    t = mub_table(rho, fam)
    assert abs(mub_transition(t, t) - 1.0) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 5])
def test_normalized_frame_duality(d):
    rep = mub_family(d).representation()
    ok, res = is_dual_pair(rep.frame, rep.dual)
    assert ok and res < 1e-9
    rho = random_state(d, seed=d)
    mu = rep.represent(rho)
    assert not mu.warnings
    back = rep.reconstruct(mu)
    assert np.max(np.abs(back - rho)) < 1e-9


def test_frame_and_table_paths_agree():
    d = 3
    fam = mub_family(d)
    rep = fam.representation()
    rho = random_state(d, seed=123)
    mu = rep.represent(rho)
    table = mub_table(rho, fam)
    assert np.allclose(mu.values * (d + 1), table.values, atol=1e-12)


def test_nonprime_rejected(monkeypatch):
    with pytest.raises(UnsupportedDimensionError):
        mub_family(4)
    with pytest.raises(UnsupportedDimensionError):
        mub_bases(6)
    # the one refusal comes before the Fourier table, the first array either call allocates
    mub_module = importlib.import_module("qframe.representations.mub")
    monkeypatch.setattr(mub_module, "finite_fourier", lambda *a, **k: pytest.fail("allocated before the refusal"))
    for d in (4, 1, 0, -3):
        for build in (mub_bases, mub_family):
            with pytest.raises(UnsupportedDimensionError) as refused:
                build(d)
            assert str(refused.value) == "d must be prime"


def test_mub_projectors_are_the_family_stack():
    fam = mub_family(3)
    assert fam.projectors is fam.outcomes.operators
    assert fam.labels == fam.outcomes.labels
    assert not fam.projectors.flags.writeable
    np.testing.assert_array_equal(
        fam.projectors, [np.outer(B[:, k], B[:, k].conj()) for B in fam.bases for k in range(3)])
