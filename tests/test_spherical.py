"""Sphere kernels: coupling coefficients, postulate quadrature, constellations, NMR pairs."""

import math
import tracemalloc

import numpy as np
import pytest

import batch_oracle as oracle
from qframe.analysis import _nmr_distribution
from qframe.cli import build_representation, parse_direct
from qframe.errors import SingularBasisError, UnsupportedDimensionError
from qframe.frames import Frame, frame_bounds, gram_dual, is_dual_pair
from qframe.operators import random_state
from qframe.representations import (
    SphericalKernel,
    clebsch_gordan,
    direction_basis,
    fibonacci_sphere,
    kernel_weights,
    nmr_sample_directions,
    qubit_kernel_lower,
    qubit_kernel_upper,
    random_constellation,
    sphere_quadrature,
    spin_operators,
    stratonovich_discrete,
    tetrahedral_constellation,
)
from qframe.representations import spherical
from qframe.representations.spherical import MAX_SPIN, _random_stratonovich
from qframe.verify import DUALITY_TOL, verify_representation

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


# values cross-checked against the ladder-operator recursion by hand
CG_TABLE = [
    ((0.5, 0.5, 1, 0, 0.5, 0.5), 1 / SQ3),
    ((0.5, -0.5, 1, 0, 0.5, -0.5), -1 / SQ3),
    ((0.5, 0.5, 0.5, -0.5, 1, 0), 1 / SQ2),
    ((0.5, 0.5, 0.5, -0.5, 0, 0), 1 / SQ2),
    ((0.5, -0.5, 0.5, 0.5, 0, 0), -1 / SQ2),
    ((1, 1, 1, -1, 0, 0), 1 / SQ3),
    ((1, 0, 1, 0, 0, 0), -1 / SQ3),
    ((1, 0, 1, 0, 2, 0), math.sqrt(2 / 3)),
    ((1, 1, 1, 0, 1, 1), 1 / SQ2),
    ((2, 0, 2, 0, 0, 0), 1 / math.sqrt(5)),
    ((1, 1, 1, 1, 2, 2), 1.0),
    ((1, 1, 2, 0, 1, 1), 1 / math.sqrt(10)),
]


@pytest.mark.parametrize("args,want", CG_TABLE)
def test_coupling_table(args, want):
    assert abs(clebsch_gordan(*args) - want) < 1e-12


@pytest.mark.parametrize("s", [0.5, 1, 1.5, 2])
def test_coupling_trivial_l_zero(s):
    m = -s
    while m <= s:
        assert abs(clebsch_gordan(s, m, 0, 0, s, m) - 1.0) < 1e-12
        m += 1


def test_coupling_selection_rules():
    assert clebsch_gordan(1, 1, 1, 1, 2, 1) == 0.0  # M mismatch
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle violated
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 0, 1) == 0.0


def test_coupling_orthogonality():
    # sum over m1, m2 of C(J) C(J') = delta_JJ' for j1 = j2 = 1
    for J in (0, 1, 2):
        for Jp in (0, 1, 2):
            total = 0.0
            for m1 in (-1, 0, 1):
                for m2 in (-1, 0, 1):
                    M = m1 + m2
                    if abs(M) > min(J, Jp):
                        continue
                    total += clebsch_gordan(1, m1, 1, m2, J, M) * clebsch_gordan(
                        1, m1, 1, m2, Jp, M
                    )
            want = min(J, Jp) * 2 + 1 if J == Jp else 0.0
            assert abs(total - want) < 1e-10


def test_spin_operator_algebra():
    for s in (0.5, 1, 1.5):
        Jx, Jy, Jz = spin_operators(s)
        assert np.allclose(Jx @ Jy - Jy @ Jx, 1j * Jz, atol=1e-12)
        casimir = Jx @ Jx + Jy @ Jy + Jz @ Jz
        assert np.allclose(casimir, s * (s + 1) * np.eye(int(2 * s + 1)), atol=1e-12)


def test_spin_half_is_pauli_over_two():
    from qframe.operators import SIGMA

    Jx, Jy, Jz = spin_operators(0.5)
    assert np.allclose(2 * Jx, SIGMA[0], atol=1e-12)
    assert np.allclose(2 * Jy, SIGMA[1], atol=1e-12)
    assert np.allclose(2 * Jz, SIGMA[2], atol=1e-12)


def test_spin_half_sign_kernel_is_bloch_form():
    from qframe.operators import SIGMA

    rng = np.random.default_rng(3)
    for _ in range(5):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        got = SphericalKernel(0.5, (1, 1)).point(n)
        want = 0.5 * (np.eye(2) + SQ3 * (n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2]))
        assert np.max(np.abs(got - want)) < 1e-10


def test_kernel_weights_spin_half():
    w = kernel_weights(0.5, (1, 1))
    assert np.allclose(w, [(1 - SQ3) / 2, (1 + SQ3) / 2], atol=1e-12)


def test_kernel_weight_validation():
    with pytest.raises(ValueError):
        kernel_weights(0.5, (2, 1))  # l=0 weight must be 1
    with pytest.raises(ValueError):
        kernel_weights(0.5, (1, 0))  # zero weight
    with pytest.raises(ValueError):
        kernel_weights(1, (1, 1))  # wrong length


def test_direction_basis_diagonalizes():
    s = 1.5
    n = np.array([0.3, -0.5, 0.6])
    n /= np.linalg.norm(n)
    Jx, Jy, Jz = spin_operators(s)
    H = n[0] * Jx + n[1] * Jy + n[2] * Jz
    V = direction_basis(s, n)
    for j in range(4):
        m = j - s
        assert np.max(np.abs(H @ V[:, j] - m * V[:, j])) < 1e-10


@pytest.mark.parametrize("s", [0.5, 1, 2.5, 4])
def test_a_stack_of_directions_is_k_single_calls(s):
    # one batched eigh and one gauge give, bit for bit, the bases and kernels of the per-direction calls
    pts, _ = random_constellation(s, seed=3)
    kernel = SphericalKernel(s, (1.0,) + (0.8,) * int(2 * s))
    bases = direction_basis(s, pts)
    assert bases.shape == (len(pts), kernel.dim, kernel.dim)
    assert np.array_equal(bases, np.array([direction_basis(s, n) for n in pts]))
    assert np.array_equal(bases, np.array([oracle.direction_basis(s, n) for n in pts]))
    kernels = kernel.point(pts)
    assert np.array_equal(kernels, np.array([kernel.point(n) for n in pts]))
    assert np.array_equal(kernels, np.array([oracle.spherical_point(kernel, n) for n in pts]))
    with pytest.raises(ValueError, match="unit vector"):
        direction_basis(s, np.vstack([pts[:2], 2 * pts[2:3]]))


@pytest.mark.parametrize("s", [0.5, 1, 1.5])
def test_normalization_postulate_by_quadrature(s):
    d = int(2 * s + 1)
    kernel = SphericalKernel(s, (1.0,) * d)
    pts, wts = sphere_quadrature(s)
    acc = np.zeros((d, d), dtype=complex)
    for n, w in zip(pts, wts):
        acc += w * kernel.point(n)
    assert np.max(np.abs(acc * d / (4 * np.pi) - np.eye(d))) < 1e-9


def test_self_dual_postulate_by_quadrature():
    s = 1
    kernel = SphericalKernel(s, (1.0, -1.0, 1.0))
    d = 3
    pts, wts = sphere_quadrature(s)
    m = np.array([0.48, -0.6, 0.64])
    m /= np.linalg.norm(m)
    target = kernel.point(m)
    acc = np.zeros((d, d), dtype=complex)
    for n, w in zip(pts, wts):
        dn = kernel.point(n)
        acc += w * np.trace(dn @ target) * dn
    assert np.max(np.abs(acc * d / (4 * np.pi) - target)) < 1e-9


def test_gamma_pair_duality_by_quadrature():
    s = 1
    lower = SphericalKernel(s, (1.0, 0.7, 1.6))
    upper = lower.dual()
    assert np.allclose(upper.gammas, (1.0, 1 / 0.7, 1 / 1.6), atol=1e-12)
    d = 3
    pts, wts = sphere_quadrature(s)
    rho = random_state(d, seed=11)
    acc = np.zeros((d, d), dtype=complex)
    for n, w in zip(pts, wts):
        acc += w * np.trace(rho @ upper.point(n)) * lower.point(n)
    assert np.max(np.abs(acc * d / (4 * np.pi) - rho)) < 1e-9


def test_overlap_postulate_by_quadrature():
    s = 0.5
    kernel = SphericalKernel(s, (1.0, 1.0))
    pts, wts = sphere_quadrature(s)
    rho1 = random_state(2, seed=4)
    rho2 = random_state(2, seed=5)
    acc = 0.0
    for n, w in zip(pts, wts):
        dn = kernel.point(n)
        acc += w * np.trace(rho1 @ dn).real * np.trace(rho2 @ dn).real
    assert abs(acc * 2 / (4 * np.pi) - np.trace(rho1 @ rho2).real) < 1e-9


def test_spin_cap():
    with pytest.raises(UnsupportedDimensionError):
        SphericalKernel(4.5, (1.0,) * 10)


@pytest.mark.parametrize("build", [
    lambda: _random_stratonovich(500),
    lambda: stratonovich_discrete(1e6, tetrahedral_constellation()),
], ids=["random-500", "discrete-1e6"])
def test_spin_cap_refuses_before_allocating(build):
    # the draw at s = 500 would be a (1001^2, 3) array and the weights at s = 1e6 a 2e6-tuple
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedDimensionError, match="spin capped"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("s", [math.inf, math.nan, 1e308])
def test_a_spin_whose_double_is_not_finite_is_refused(s):
    with pytest.raises(ValueError, match="out of range"):
        stratonovich_discrete(s, tetrahedral_constellation())
    with pytest.raises(ValueError, match="out of range"):
        clebsch_gordan(s, s, 0.5, 0.5, s, s)


@pytest.mark.parametrize("s,seed", [(4, 0), (4, 1), (2.5, 2)])
def test_high_spin_constellations_keep_both_families_hermitian(s, seed):
    # the point kernels are exactly Hermitian: the dual is solved on coordinates read off the upper
    # triangle, so a skewed kernel's dual would belong to that triangle's Hermitian completion instead
    pts, _ = random_constellation(s, seed=seed)
    rep = stratonovich_discrete(s, pts)
    assert rep.frame.skew == 0.0
    assert rep.dual.skew < 1e-10


@pytest.mark.parametrize("s", np.arange(0.5, MAX_SPIN + 0.25, 0.5).tolist())
def test_every_seeded_constellation_verifies(s):
    # through the Gram inverse, draws 2/24, 3/19, 3.5/9 and 4/28 missed duality by up to 2.3e-9
    assert DUALITY_TOL == 1e-9
    failed = []
    for seed in range(30):
        report = verify_representation(_random_stratonovich(s, seed)[0], seed, samples=5)
        failed += [(seed, c["name"], c["residual"]) for c in report["checks"] if not c["passed"]]
    assert not failed


@pytest.mark.parametrize("s", [0.5, 1])
def test_discrete_duality(s):
    pts, _ = random_constellation(s, seed=17)
    rep = stratonovich_discrete(s, pts)
    ok, res = is_dual_pair(rep.frame, rep.dual)
    assert ok and res < 1e-9
    # the dual family resolves the identity, so effect values are probabilities
    assert np.allclose(rep.dual.sum(), np.eye(rep.dim), atol=1e-9)


def test_discrete_round_trip():
    pts, _ = random_constellation(1, seed=23)
    rep = stratonovich_discrete(1, pts)
    rho = random_state(3, seed=29)
    mu = rep.represent(rho)
    back = rep.reconstruct(mu)
    assert np.max(np.abs(back - rho)) < 1e-9


@pytest.mark.parametrize("s,seed", [(0.5, "tetrahedral")] + [
    (s, seed) for s in np.arange(0.5, MAX_SPIN + 0.25, 0.5).tolist() for seed in range(5)])
def test_kernel_stack_is_the_per_point_build(s, seed):
    # the frame built in one call and its dual equal the kernel-at-a-time build and its dual, bit for bit
    pts = tetrahedral_constellation() if seed == "tetrahedral" else random_constellation(s, seed=seed)[0]
    rep = stratonovich_discrete(s, pts)
    kernel = SphericalKernel(s, (1.0,) * rep.dim)
    want = np.array([oracle.spherical_point(kernel, n) for n in pts])
    assert np.array_equal(rep.frame.operators, want)
    dual = gram_dual(Frame(rep.labels, want, "stratonovich"))
    assert np.array_equal(rep.dual.operators, dual.operators)


def test_a_spin_4_build_takes_one_spin_basis_and_one_eigh(monkeypatch):
    pts, _ = random_constellation(4, seed=0)
    calls = []
    spin, eigh = spherical.spin_operators, np.linalg.eigh
    monkeypatch.setattr(spherical, "spin_operators", lambda s: calls.append("spin_operators") or spin(s))
    monkeypatch.setattr(np.linalg, "eigh", lambda H: calls.append("eigh") or eigh(H))
    stratonovich_discrete(4, pts)
    assert calls == ["spin_operators", "eigh"]


def test_tetrahedral_constellation_is_tight():
    rep = stratonovich_discrete(0.5, tetrahedral_constellation())
    a, b = frame_bounds(rep.frame)
    assert abs(a - b) < 1e-9


def test_most_random_constellations_succeed_first_draw():
    wins = 0
    for seed in range(100):
        _, draws = random_constellation(0.5, seed=seed)
        wins += draws == 1
    assert wins >= 95


@pytest.mark.parametrize("s,seed,draws", [(2, 1, 1), (3, 0, 2)])
def test_kernels_built_once_per_draw(monkeypatch, s, seed, draws):
    # one call per draw builds the whole constellation's kernels
    calls = []
    point = SphericalKernel.point
    monkeypatch.setattr(SphericalKernel, "point", lambda self, n: calls.append(n) or point(self, n))
    d = int(2 * s + 1)
    assert random_constellation(s, seed=seed)[1] == draws
    assert [np.shape(n) for n in calls] == [(d * d, 3)] * draws
    calls.clear()
    # the CLI keeps the representation of the accepted draw instead of building it again
    args = parse_direct(["build", "stratonovich", "--s", str(s), "--seed", str(seed)])
    rep = build_representation("stratonovich", args)
    assert len(calls) == draws
    np.testing.assert_array_equal(rep.meta["constellation"], calls[-1])


def test_constellation_shape_and_units_checked():
    with pytest.raises(ValueError):
        stratonovich_discrete(0.5, np.ones((3, 3)))
    bad = tetrahedral_constellation() * 1.5
    with pytest.raises(ValueError):
        stratonovich_discrete(0.5, bad)


def test_ill_conditioned_constellation_rejected():
    pts = np.tile(np.array([0.0, 0.0, 1.0]), (4, 1))
    with pytest.raises(SingularBasisError):
        stratonovich_discrete(0.5, pts)


def test_qubit_kernel_values_at_pole():
    assert np.allclose(qubit_kernel_lower([0, 0, 1]), np.diag([1.0, 0.0]), atol=1e-12)
    up = qubit_kernel_upper([0, 0, 1])
    assert np.allclose(up, np.diag([4.0, -2.0]) / (4 * np.pi), atol=1e-12)


def test_qubit_pair_duality_by_quadrature():
    pts, wts = sphere_quadrature(0.5)
    rho = random_state(2, seed=41)
    acc = np.zeros((2, 2), dtype=complex)
    for n, w in zip(pts, wts):
        acc += w * np.trace(rho @ qubit_kernel_upper(n)) * qubit_kernel_lower(n)
    assert np.max(np.abs(acc - rho)) < 1e-8


def test_nmr_tensor_pair():
    # the register scan pairs rho with the tensor product of one upper kernel per qubit
    grid = nmr_sample_directions(8)
    rho = random_state(4, seed=43)
    want = [np.trace(rho @ np.kron(qubit_kernel_upper(a), qubit_kernel_upper(b))).real for a in grid for b in grid]
    assert np.max(np.abs(_nmr_distribution(rho, 2, grid) - want)) < 1e-15
    up = np.kron(qubit_kernel_upper([0, 0, 1]), qubit_kernel_upper([0, 0, 1]))
    assert abs(np.trace(up).real - (2 / (4 * np.pi)) ** 2) < 1e-12


def test_nmr_kernels_with_sample_points():
    assert np.allclose(qubit_kernel_lower([(0, 0, 1)]), np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(qubit_kernel_lower([(1, 0, 0)]), 0.5 * np.ones((2, 2)), atol=1e-12)


def test_nmr_input_validation():
    with pytest.raises(ValueError):
        qubit_kernel_lower([0, 0, 2])


def test_sphere_grids():
    pts = fibonacci_sphere(64)
    assert pts.shape == (64, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-12
    grid = nmr_sample_directions(100)
    assert grid.shape == (100, 3)
    assert np.max(np.abs(np.linalg.norm(grid, axis=1) - 1)) < 1e-12
    # the fixed block carries the axes and the cube diagonals
    assert any(np.allclose(g, [0, 0, 1]) for g in grid[:6])
    diag = np.ones(3) / SQ3
    assert any(np.allclose(g, diag) for g in grid[6:14])
    assert any(np.allclose(g, -diag) for g in grid[6:14])


def test_a_build_takes_the_coordinates_and_their_condition_once(monkeypatch):
    # the draw policy and the dual's refusal read one cond(V) of one coordinate matrix V
    from qframe import frames
    from qframe.representations import spherical

    pts, _ = random_constellation(4, seed=0)
    calls = []
    coordinates, cond = frames._coordinates, np.linalg.cond
    monkeypatch.setattr(frames, "_coordinates", lambda ops: calls.append("coordinates") or coordinates(ops))
    monkeypatch.setattr(np.linalg, "cond", lambda V: calls.append("cond") or cond(V))
    stratonovich_discrete(4, pts)
    assert calls == ["coordinates", "cond"]
    # both refusals stay: the policy's redraw first, then the dual's own limit
    flat = np.tile([0.0, 0.0, 1.0], (4, 1))
    with pytest.raises(SingularBasisError, match="ill conditioned; redraw the points"):
        stratonovich_discrete(0.5, flat)
    monkeypatch.setattr(spherical, "GRAM_CONDITION_LIMIT", np.inf)
    with pytest.raises(SingularBasisError, match="Gram matrix condition number .* is too large"):
        stratonovich_discrete(0.5, flat)
