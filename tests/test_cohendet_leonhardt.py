"""Odd-lattice parity displacement operators and the even-lattice extension."""

from dataclasses import replace

import numpy as np
import pytest

from qframe.errors import UnsupportedDimensionError
from qframe.frames import canonical_dual, frame_bounds, is_dual_pair, represent_effect
from qframe.operators import (
    maximally_mixed,
    parity_matrix,
    random_effect,
    random_state,
)
from qframe.representations import (
    cohendet,
    extended_distribution,
    from_extended,
    hardy_rep,
    leonhardt,
    wootters,
)


def fano_operators(d: int) -> dict:
    """The point operators W_qp P by label (q, p): the dual stack of ``cohendet(d)``."""
    rep = cohendet(d)
    return dict(zip(rep.labels, rep.dual.operators))


def displacement(d: int, m: int, n: int) -> np.ndarray:
    """W_mn = (W_mn P) P, as P^2 = I."""
    return fano_operators(d)[(m, n)] @ parity_matrix(d)


@pytest.mark.parametrize("d", [3, 5, 9])
def test_displacement_unitarity_and_identity(d):
    assert np.allclose(displacement(d, 0, 0), np.eye(d), atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(4):
        m, n = rng.integers(d, size=2)
        W = displacement(d, int(m), int(n))
        assert np.allclose(W @ W.conj().T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [3, 5])
def test_fano_operator_properties(d):
    ops = fano_operators(d)
    assert np.allclose(ops[(0, 0)], parity_matrix(d), atol=1e-12)
    for a, Da in ops.items():
        assert np.allclose(Da, Da.conj().T, atol=1e-12)
        for b, Db in ops.items():
            want = d if a == b else 0.0
            assert abs(np.trace(Da @ Db) - want) < 1e-10


def test_fano_covariance():
    d = 5
    ops = fano_operators(d)
    rng = np.random.default_rng(13)
    for _ in range(6):
        q, p, x, k = (int(v) for v in rng.integers(d, size=4))
        W = displacement(d, x, k)
        lhs = W.conj().T @ ops[(q, p)] @ W
        rhs = ops[((q - 2 * x) % d, (p - 2 * k) % d)]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_fano_equals_reflected_prime_points(d):
    # Delta_qp matches the prime-lattice point operator at (-q, p)
    rep = wootters(d)
    pts = {lab: rep.dual.operators[i] for i, lab in enumerate(rep.labels)}
    ops = fano_operators(d)
    for q in range(d):
        for p in range(d):
            assert np.max(np.abs(ops[(q, p)] - pts[((-q) % d, p)])) < 1e-10


@pytest.mark.parametrize("d", [3, 5, 9])
def test_round_trip_and_duality(d):
    rep = cohendet(d)
    ok, res = is_dual_pair(rep.frame, rep.dual)
    assert ok and res < 1e-9
    rho = random_state(d, seed=3)
    back = rep.reconstruct(rep.represent(rho))
    assert np.max(np.abs(back - rho)) < 1e-9


def test_even_dimension_rejected():
    with pytest.raises(UnsupportedDimensionError):
        cohendet(4)


def test_extended_distribution_sums_to_one():
    rep = cohendet(3)
    mu = rep.represent(random_state(3, seed=23))
    ext = extended_distribution(mu)
    assert abs(ext.values.sum() - 1.0) < 1e-12
    assert len(ext.values) == 2 * 9


def test_extended_distribution_nonnegative_on_many_states():
    rep = cohendet(5)
    rng = np.random.default_rng(101)
    worst = np.inf
    for _ in range(200):
        mu = rep.represent(random_state(5, seed=rng))
        ext = extended_distribution(mu)
        worst = min(worst, ext.values.min())
        assert "extended-negative" not in ext.warnings
    assert worst >= -1e-10


def test_extended_block_ordering_and_recovery():
    rep = cohendet(3)
    mu = rep.represent(random_state(3, seed=31))
    ext = extended_distribution(mu)
    assert ext.labels[0] == (0, 0, 1)
    assert ext.labels[9] == (0, 0, -1)
    back = from_extended(ext)
    assert np.allclose(back.values, mu.values, atol=1e-12)
    assert tuple(back.labels) == tuple(mu.labels)


def test_extended_of_maximally_mixed_is_uniform():
    rep = cohendet(3)
    ext = extended_distribution(rep.represent(maximally_mixed(3)))
    # 2/d and sigma*1/d^2 pieces: (1/4d)(2/d + 1/d^2) and (1/4d)(2/d - 1/d^2)
    plus = (2 / 3 + 1 / 9) / 12
    minus = (2 / 3 - 1 / 9) / 12
    assert np.allclose(ext.values[:9], plus, atol=1e-12)
    assert np.allclose(ext.values[9:], minus, atol=1e-12)


@pytest.mark.parametrize("d", [3, 5, 9])
def test_leonhardt_odd_is_reflected_fano(d):
    rep = leonhardt(d)
    assert rep.meta["case"] == "odd"
    idx = {lab: i for i, lab in enumerate(rep.labels)}
    ops = fano_operators(d)
    for q in range(d):
        for p in range(d):
            got = rep.dual.operators[idx[(q, p)]]
            assert np.max(np.abs(got - ops[((-q) % d, p)])) < 1e-10


def test_leonhardt_odd_matches_prime_points():
    rep = leonhardt(3)
    ref = wootters(3)
    assert np.max(np.abs(rep.dual.operators - ref.dual.operators)) < 1e-10


@pytest.mark.parametrize("d", [2, 4])
def test_leonhardt_even_structure(d):
    rep = leonhardt(d)
    assert rep.meta["case"] == "even"
    assert len(rep.frame) == 4 * d * d
    V = rep.frame.operators.reshape(4 * d * d, -1)
    assert np.linalg.matrix_rank(np.array([v for v in V]), tol=1e-9) == d * d
    assert np.allclose(rep.frame.sum(), np.eye(d), atol=1e-9)


@pytest.mark.parametrize("d", range(2, 17, 2))
def test_leonhardt_even_dual_is_the_canonical_dual(d):
    rep = leonhardt(d)
    a, b = frame_bounds(rep.frame)
    assert abs(a - 1 / d) < 1e-12 and abs(b - 1 / d) < 1e-12
    assert np.max(np.abs(rep.dual.operators - canonical_dual(rep.frame).operators)) < 1e-12


def test_leonhardt_even_frame_operator_rank():
    from qframe.frames import frame_operator_matrix

    rep = leonhardt(2)
    S = frame_operator_matrix(rep.frame)
    assert np.linalg.matrix_rank(S, tol=1e-9) == 4


@pytest.mark.parametrize("d", [2, 3, 4])
def test_leonhardt_round_trip_and_duality(d):
    rep = leonhardt(d)
    ok, res = is_dual_pair(rep.frame, rep.dual)
    assert ok and res < 1e-9
    rho = random_state(d, seed=7 + d)
    mu = rep.represent(rho)
    assert "frame-sum-not-identity" not in mu.warnings
    back = rep.reconstruct(mu)
    assert np.max(np.abs(back - rho)) < 1e-9


def test_leonhardt_even_born_pairing():
    rep = leonhardt(2)
    rng = np.random.default_rng(83)
    for _ in range(10):
        rho = random_state(2, seed=rng)
        E = random_effect(2, seed=rng)
        mu = rep.represent(rho)
        xi = represent_effect(E, rep.dual)
        assert abs(float(mu.values @ xi.values) - np.trace(rho @ E).real) < 1e-9


def test_the_lift_reads_the_name_and_the_labels():
    rho = random_state(3, seed=37)
    mu = cohendet(3).represent(rho)
    back = from_extended(extended_distribution(mu))
    assert np.allclose(back.values, mu.values, atol=1e-12)
    # Wootters' prime lattice has Cohendet's points, placed by another relabeling
    assert wootters(3).labels == mu.labels
    for other, message in ((wootters(3).represent(rho), "came from 'wootters', not 'cohendet'"),
                           (replace(mu, representation="x"), "came from 'x', not 'cohendet'"),
                           (replace(mu, labels=mu.labels[::-1]), "odd-lattice")):
        with pytest.raises(ValueError, match=message):
            extended_distribution(other)


@pytest.mark.parametrize("make", [lambda: hardy_rep(3), lambda: wootters(2), lambda: leonhardt(4)])
def test_the_lift_refuses_other_labels(make):
    rep = make()
    mu = rep.represent(random_state(rep.dim, seed=41))
    with pytest.raises(ValueError, match="odd-lattice"):
        extended_distribution(mu)
    ext = extended_distribution(cohendet(3).represent(random_state(3, seed=43)))
    with pytest.raises(ValueError, match="doubled lattice"):
        from_extended(replace(ext, labels=ext.labels[::-1]))
    with pytest.raises(ValueError, match="doubled lattice"):
        from_extended(mu)


def test_a_negative_doubled_value_is_flagged():
    ext = extended_distribution(cohendet(3).effect(np.eye(3)))
    assert ext.warnings == ("extended-negative",)
