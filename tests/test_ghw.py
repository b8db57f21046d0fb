"""Finite-field phase space: translation operators, quantum nets, point operators."""

import importlib
from functools import cached_property

import numpy as np
import pytest

from gf_oracle import PolyField, _monomials, dense_ghw, striation_eigenbasis
from gf_oracle import translation_operator as dense_translation
from qframe.cli import main
from qframe.errors import UnsupportedDimensionError
from qframe.finitefield import FiniteField
from qframe.frames import is_dual_pair
from qframe.geometry import check_geometry_axioms
from qframe.operators import maximally_mixed, monomial_stack, random_state
from qframe.representations import (
    ghw,
    match_phase_points,
    striation_pvms,
    wootters,
    wootters_aligned_net,
)


def _points(rep):
    return {lab: rep.dual.operators[i] for i, lab in enumerate(rep.labels)}


def translation(F, q: int, p: int) -> np.ndarray:
    """T(q, p) for the codes q and p: one row of ghw's monomial stack."""
    return monomial_stack(*_monomials(F, [q], [p]))[0]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_translation_group_law(p, n):
    field = FiniteField(p, n)
    rng = np.random.default_rng(11)
    d = field.order
    for _ in range(6):
        qa, pa, qb, pb = (int(rng.integers(d)) for _ in range(4))
        Ta = translation(field, qa, pa)
        Tb = translation(field, qb, pb)
        Tc = translation(field, int(field.add(qa, qb)), int(field.add(pa, pb)))
        # T_a T_b = w^tr(p_a q_b) T_{a+b} with w the prime-th root
        phase = np.exp(2j * np.pi * field.traces[field.mul(pa, qb)] / p)
        assert np.allclose(Ta @ Tb, phase * Tc, atol=1e-10)


def test_translation_unitarity_gf4():
    field = FiniteField(2, 2)
    for q in range(field.order):
        for r in range(field.order):
            T = translation(field, q, r)
            assert np.allclose(T @ T.conj().T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_point_operator_postulates(p, n):
    rep = ghw(p, n)
    d = p**n
    A = rep.dual.operators
    assert np.allclose(sum(A), d * np.eye(d), atol=1e-9)
    for a in A:
        assert abs(np.trace(a) - 1.0) < 1e-9
        assert np.allclose(a, a.conj().T, atol=1e-9)
    gram = np.einsum("aij,bji->ab", A, A)
    assert np.max(np.abs(gram - d * np.eye(d * d))) < 1e-8


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
def test_line_sums_are_net_projectors(p, n):
    rep = ghw(p, n)
    d = p**n
    geom = rep.geometry
    A = _points(rep)
    pvms = striation_pvms(rep)
    projectors = pvms.reshape(-1, d, d)
    for line_idx, pts in enumerate(geom.lines):
        Q = projectors[line_idx]
        total = sum(A[pt] for pt in pts)
        # summing the point operators over a line reproduces d times its projector
        assert np.allclose(total, d * Q, atol=1e-8)
        assert np.allclose(Q @ Q, Q, atol=1e-8) and abs(np.trace(Q) - 1) < 1e-8
    # the line through the origin projects onto the net's vector of its striation
    for s, (basis, t) in enumerate(zip(rep.meta["striation_bases"], rep.meta["net"])):
        assert np.allclose(pvms[s, 0], np.outer(basis[:, t], basis[:, t].conj()), atol=1e-8)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (3, 2)])
def test_striation_pvms_and_covariance(p, n):
    field = FiniteField(p, n)
    rep = ghw(p, n)
    d = field.order
    geom = rep.geometry
    pvms = striation_pvms(rep)
    for pvm in pvms:
        assert np.allclose(sum(pvm), np.eye(d), atol=1e-8)
        for proj in pvm:
            assert np.allclose(proj @ proj, proj, atol=1e-8)
    # translation covariance: Q(tau_a lambda) = T_a Q(lambda) T_a^dag
    projectors = pvms.reshape(-1, d, d)
    rng = np.random.default_rng(29)
    line_lookup = {}
    for idx, pts in enumerate(geom.lines):
        line_lookup[frozenset(pts)] = idx
    for _ in range(10):
        a = (int(rng.integers(d)), int(rng.integers(d)))
        idx = int(rng.integers(len(geom.lines)))
        T = translation(field, a[0], a[1])
        shifted = frozenset((int(field.add(q, a[0])), int(field.add(r, a[1]))) for q, r in geom.lines[idx])
        target = projectors[line_lookup[shifted]]
        assert np.max(np.abs(T @ projectors[idx] @ T.conj().T - target)) < 1e-9


def test_gf4_striation_bases_mutually_unbiased():
    rep = ghw(2, 2)
    bases = rep.meta["striation_bases"]
    assert len(bases) == 5
    for a in range(5):
        for b in range(a + 1, 5):
            overlap = np.abs(bases[a].conj().T @ bases[b]) ** 2
            assert np.max(np.abs(overlap - 0.25)) < 1e-9


def test_gf4_geometry():
    rep = ghw(2, 2)
    geom = rep.geometry
    assert len(geom.points) == 16
    assert len(geom.striations) == 5
    assert all(len(s) == 4 for s in geom.striations)
    assert all(check_geometry_axioms(geom).values())


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
def test_line_sum_born_probabilities(p, n):
    rep = ghw(p, n)
    d = p**n
    geom = rep.geometry
    pvms = striation_pvms(rep)
    idx = {lab: i for i, lab in enumerate(rep.labels)}
    rng = np.random.default_rng(47)
    for _ in range(8):
        rho = random_state(d, seed=rng)
        mu = rep.represent(rho)
        for s, lines in enumerate(geom.striations):
            for j, line in enumerate(lines):
                total = sum(mu.values[idx[pt]] for pt in geom.lines[line])
                born = np.trace(rho @ pvms[s][j]).real
                assert abs(total - born) < 1e-9


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_duality(p, n):
    rep = ghw(p, n)
    ok, residual = is_dual_pair(rep.frame, rep.dual)
    assert ok and residual < 1e-9


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
def test_maximally_mixed_uniform(p, n):
    rep = ghw(p, n)
    d = p**n
    mu = rep.represent(maximally_mixed(d))
    assert np.allclose(mu.values, 1 / d**2, atol=1e-12)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])  # GF(11) takes its modulus from the fallback
def test_aligned_net_reproduces_prime_lattice_points(p):
    net = wootters_aligned_net(p)
    rep = ghw(p, 1, net=net)
    ref = wootters(p)
    A = _points(rep)
    B = {lab: ref.dual.operators[i] for i, lab in enumerate(ref.labels)}
    for (q, r), op in A.items():
        assert np.max(np.abs(op - B[(q, r)])) < 1e-9


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])  # GF(11) takes its modulus from the fallback
def test_phase_point_matching_finds_bijection(p):
    rep = ghw(p, 1, net=wootters_aligned_net(p))
    ref = wootters(p)
    mapping = match_phase_points(rep, ref)
    assert mapping is not None
    assert sorted(mapping.values()) == sorted(ref.labels)


def test_phase_point_matching_rejects_inequivalent_nets():
    # the all-zeros net at p=3 is not a translate of the prime-lattice one
    rep = ghw(3, 1, net=[0, 0, 0, 0])
    aligned = ghw(3, 1, net=wootters_aligned_net(3))
    if np.allclose(rep.dual.operators, aligned.dual.operators, atol=1e-9):
        pytest.skip("zero net happens to coincide")
    assert match_phase_points(rep, wootters(3)) is None


def test_net_changes_point_operators_but_not_postulates():
    p, n = 3, 1
    base = ghw(p, n)
    shifted = ghw(p, n, net=[1, 0, 0, 0])
    d = p**n
    assert not np.allclose(base.dual.operators, shifted.dual.operators, atol=1e-9)
    A = shifted.dual.operators
    gram = np.einsum("aij,bji->ab", A, A)
    assert np.max(np.abs(gram - d * np.eye(d * d))) < 1e-8


def test_net_length_validated():
    with pytest.raises(ValueError):
        ghw(3, 1, net=[0, 0])


# index-arithmetic build against the dense construction it replaced

ghw_module = importlib.import_module("qframe.representations.ghw")
base_module = importlib.import_module("qframe.representations.base")
ORACLE_TOL = 1e-12


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_ghw_matches_dense_oracle(p, n):
    labels, ops, projectors = dense_ghw(p, n)
    rep = ghw(p, n)
    assert rep.labels == tuple(labels)
    assert np.max(np.abs(rep.dual.operators - ops)) <= ORACLE_TOL
    assert np.max(np.abs(rep.frame.operators - ops / p**n)) <= ORACLE_TOL
    assert rep.frame.skew == rep.dual.skew == 0.0
    pvms = striation_pvms(rep).reshape(-1, p**n, p**n)
    assert len(pvms) == len(projectors)
    assert np.max(np.abs(pvms - np.array(projectors))) <= ORACLE_TOL


@pytest.mark.parametrize("p,n,net", [
    (3, 1, (1, 0, 2, 1)),
    (2, 2, (3, 1, 0, 2, 1)),
    (3, 2, (3, 7, 8, 2, 1, 5, 6, 6, 5, 6)),
    (2, 3, (5, 2, 1, 7, 1, 2, 5, 6, 5)),
])
def test_ghw_nets_match_dense_oracle(p, n, net):
    _, ops, _ = dense_ghw(p, n, net)
    assert np.max(np.abs(ghw(p, n, net=net).dual.operators - ops)) <= ORACLE_TOL


# every field of order at most 27, and GF(32): five generators, so e(r) sums over ten generator pairs
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1),
          (19, 1), (23, 1), (5, 2), (3, 3), (2, 5)]


def _rays(F: FiniteField, directions) -> list[np.ndarray]:
    """Each striation's ``(d - 1, d, d)`` stack of ray translations T(t dq, t dp), t = 1, ..., d - 1."""
    t = np.arange(1, F.order)
    return [monomial_stack(*_monomials(F, F.mul(t, dq), F.mul(t, dp))) for dq, dp in directions]


def _eigen_residual(ops: np.ndarray, basis: np.ndarray) -> float:
    """Largest norm ``||U v - (v^dag U v) v||`` over the unitaries U of ``ops`` and the columns v of ``basis``.

    The measure ``striation_eigenbasis`` checks its own bases by.
    """
    Uv = ops @ basis
    lam = np.einsum("ji,kji->ki", basis.conj(), Uv)
    return float(np.linalg.norm(Uv - lam[:, None, :] * basis, axis=1).max())


def _oracle_bases(F: FiniteField, directions) -> list[np.ndarray]:
    """Each striation's joint eigenbasis, found by ``eigh`` one striation at a time."""
    return [striation_eigenbasis(ops, F.p) for ops in _rays(F, directions)]


@pytest.mark.parametrize("p,n", FIELDS)
def test_striation_bases_are_exact_eigenbases(p, n):
    F = FiniteField(p, n)
    geom, bases = ghw_module._build_structure(F)
    assert bases.shape == (F.order + 1, F.order, F.order)
    for ops, basis in zip(_rays(F, geom.meta["directions"]), bases, strict=True):
        assert _eigen_residual(ops, basis) <= 1e-14
        assert np.abs(basis.conj().T @ basis - np.eye(F.order)).max() <= 1e-14


def _steps(ops: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """Each column's eigenvalue under each unitary of ``ops``, as its step on the grid of 4p^2-th roots of unity."""
    lam = np.einsum("ji,kji->ki", basis.conj(), ops @ basis)
    return np.round(np.angle(lam) / (2 * np.pi / (4 * p * p))).astype(np.int64) % (4 * p * p)


@pytest.mark.parametrize("p,n", FIELDS)
def test_batched_striation_bases_equal_the_oracle_to_the_bit(p, n):
    # every column has the oracle column's eigenvalue steps to the bit, so the order is the same, and the
    # entries, in the same gauge, are apart by no more than the oracle misses its own eigen-equations
    F = FiniteField(p, n)
    geom, bases = ghw_module._build_structure(F)
    for ops, got, want in zip(_rays(F, geom.meta["directions"]), bases, _oracle_bases(F, geom.meta["directions"]),
                              strict=True):
        assert np.array_equal(_steps(ops, got, p), _steps(ops, want, p))
        assert np.abs(got - want).max() <= _eigen_residual(ops, want)


@pytest.mark.parametrize("p,n,net", [
    (3, 2, (3, 7, 8, 2, 1, 5, 6, 6, 5, 6)),
    (2, 3, (5, 2, 1, 7, 1, 2, 5, 6, 5)),
])
def test_seeded_net_origin_operator_from_the_oracle_bases(p, n, net):
    # A(0) = sum_s v_s v_s^dag - 1, made Hermitian, with each v_s the net's column of a striation's basis
    rep = ghw(p, n, net=net)
    d = p**n
    F = FiniteField(p, n)
    directions = rep.geometry.meta["directions"]

    def origin(bases):
        v = np.stack([basis[:, t] for basis, t in zip(bases, net)], axis=1)
        A0 = v @ v.conj().T - np.eye(d)
        return (A0 + A0.conj().T) / 2

    assert rep.labels[0] == (0, 0)
    assert np.array_equal(rep.dual.operators[0], origin(rep.meta["striation_bases"]))
    oracle = _oracle_bases(F, directions)
    bound = max(_eigen_residual(ops, basis) for ops, basis in zip(_rays(F, directions), oracle))
    assert np.abs(rep.dual.operators[0] - origin(oracle)).max() <= bound


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_translation_operators_match_dense_oracle(p, n):
    F, P = FiniteField(p, n), PolyField(p, n)
    for q in range(F.order):
        for r in range(F.order):
            T = translation(F, q, r)
            assert np.max(np.abs(T - dense_translation(P, q, r))) <= ORACLE_TOL


@pytest.mark.parametrize("p,n", [(3, 3), (2, 5)])
def test_larger_fields_build_dual_pairs(p, n):
    rep = ghw(p, n)
    assert rep.dim == p**n and len(rep.labels) == p ** (2 * n)
    ok, residual = is_dual_pair(rep.frame, rep.dual)
    assert ok, residual


def test_dual_coords_built_once_per_field(monkeypatch):
    calls = []
    real = FiniteField.dual_coords.func
    counted = cached_property(lambda self: calls.append(self) or real(self))
    counted.__set_name__(FiniteField, "dual_coords")
    monkeypatch.setattr(FiniteField, "dual_coords", counted)
    ghw(2, 4)
    assert len(calls) == 1


def test_oversized_request_refused_before_building(monkeypatch):
    monkeypatch.setattr(ghw_module, "_build_structure", lambda F: pytest.fail("built past the budget"))
    with pytest.raises(UnsupportedDimensionError, match="budget"):
        ghw(3, 4)  # d = 81: 3 d^4 complex entries are 2.1 GB
    monkeypatch.setattr(base_module, "MAX_STACK_BYTES", 3 * 4**4 * 16 - 1)
    with pytest.raises(UnsupportedDimensionError, match="budget"):
        ghw(2, 2)
    assert main(["build", "ghw", "--p", "2", "--n", "2"]) == 2


def test_budget_admits_a_request_that_fits(monkeypatch):
    monkeypatch.setattr(base_module, "MAX_STACK_BYTES", 3 * 4**4 * 16)
    assert ghw(2, 2).dim == 4
