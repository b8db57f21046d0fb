"""The displaced-parity kernel: every lattice family against the dense constructions, and its invariants.

The Wootters (odd prime), Cohendet, Leonhardt and Ruzzi operators are stacks
of one kernel under a relabeling; ``tests/lattice_oracle.py`` keeps the
direct per-point constructions they replaced.  Property tests draw odd d in
3..31 (primes and the composites 9, 15, 21, 25, 27) and even Leonhardt d.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from qframe.errors import DimensionMismatchError
from qframe.frames import (
    Frame,
    _LabelMap,
    _Stack,
    canonical_dual,
    is_dual_pair,
    parity_pair,
    reconstruct_state,
    represent_effect,
    represent_state,
)
from qframe.geometry import prime_lattice
from qframe.operators import (
    EQ_TOL,
    displaced_parity,
    finite_fourier,
    parity_matrix,
    random_effect,
    random_state,
    tau_powers,
)
from qframe.representations import (
    cohendet,
    havel_rep,
    leonhardt,
    real_density_matrix,
    reconstruct_from_real,
    ruzzi_s0,
    wootters,
    wootters_composite,
)
from qframe.representations.sic import _orbit_stack

ORACLE_TOL = 1e-12

ODD = list(range(3, 32, 2))
ODD_PRIMES = [d for d in ODD if all(d % k for k in range(3, d, 2))]
EVEN = list(range(2, 17, 2))

FACTORY = {"wootters": wootters, "cohendet": cohendet, "leonhardt": leonhardt, "ruzzi": ruzzi_s0}

# Where X^a Z^b (conjugating) sends the label (q, p) of each family: the kernel
# label (s, t) moves by (2a, 2b), read back through the family's label map.
COVARIANCE = {
    "wootters": lambda d, q, p, a, b: ((q + a) % d, (p + b) % d),
    "cohendet": lambda d, q, p, a, b: ((q - a) % d, (p + b) % d),
    "ruzzi": lambda d, q, p, a, b: ((q - b) % d, (p + a) % d),
    "leonhardt": lambda d, q, p, a, b: (
        ((q + a) % d, (p + b) % d) if d % 2 else ((q + 2 * a) % (2 * d), (p + 2 * b) % (2 * d))
    ),
}

# The kernel labels (s, t) of each minimal family's point (q, p): A(q, p) = K(s, t).
KERNEL_LABELS = {
    "wootters": lambda q, p: (2 * q, 2 * p),
    "cohendet": lambda q, p: (-2 * q, 2 * p),
    "leonhardt": lambda q, p: (2 * q, 2 * p),
    "ruzzi": lambda q, p: (2 * p, -2 * q),
}

family_and_dim = st.one_of(
    st.tuples(st.just("wootters"), st.sampled_from(ODD_PRIMES)),
    st.tuples(st.sampled_from(["cohendet", "leonhardt", "ruzzi"]), st.sampled_from(ODD)),
    st.tuples(st.just("leonhardt"), st.sampled_from(EVEN)),
)


@lru_cache(maxsize=4)
def build(family: str, d: int):
    return FACTORY[family](d)


def _grid(side: int) -> tuple:
    return tuple((q, p) for q in range(side) for p in range(side))


def check_against_oracle(rep, family: str, d: int, idx) -> None:
    """Operators at the label indices ``idx`` equal the dense oracle's."""
    side = d if d % 2 else 2 * d
    assert rep.labels == _grid(side)
    want = oracle.dense_ops(family, d, [rep.labels[i] for i in idx])
    if d % 2:
        np.testing.assert_allclose(rep.dual.operators[idx], want, rtol=0, atol=ORACLE_TOL)
        np.testing.assert_allclose(rep.frame.operators[idx], want / d, rtol=0, atol=ORACLE_TOL / d)
    else:
        np.testing.assert_allclose(rep.frame.operators[idx], want, rtol=0, atol=ORACLE_TOL)


# whole stacks at fixed dimensions


FULL = [("wootters", d) for d in (3, 5, 7, 11)] + [
    (family, d) for family in ("cohendet", "leonhardt", "ruzzi") for d in (3, 5, 7, 9, 15)
] + [("leonhardt", d) for d in (2, 4, 6)]


@pytest.mark.parametrize("family,d", FULL, ids=[f"{f}-{d}" for f, d in FULL])
def test_whole_stack_matches_dense_oracle(family, d):
    rep = build(family, d)
    check_against_oracle(rep, family, d, np.arange(len(rep.labels)))
    if d % 2 == 0:
        # the even case keeps the canonical dual of the oracle's frame
        ops = oracle.dense_ops(family, d, rep.labels)
        ref = canonical_dual(Frame(rep.labels, ops))
        np.testing.assert_allclose(rep.dual.operators, ref.operators, rtol=0, atol=ORACLE_TOL)


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 5], [2, 2, 3]], ids=str)
def test_composite_is_the_kron_of_dense_points(dims):
    rep = wootters_composite(dims)
    want = np.array([oracle.composite_point(dims, label) for label in rep.labels])
    np.testing.assert_allclose(rep.dual.operators, want, rtol=0, atol=ORACLE_TOL)
    np.testing.assert_allclose(rep.frame.operators, want / rep.dim, rtol=0, atol=ORACLE_TOL)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_point_helpers_match_dense_oracle(d):
    for (q, p), A in zip(prime_lattice(d).points, wootters(d).dual.operators):
        np.testing.assert_allclose(A, oracle.prime_point(d, q, p), rtol=0, atol=ORACLE_TOL)
    if d == 2:
        return
    rep = cohendet(d)
    fano = dict(zip(rep.labels, rep.dual.operators))
    for q in range(d):
        for p in range(d):
            np.testing.assert_allclose(fano[(q, p)], oracle.fano_point(d, q, p), rtol=0, atol=ORACLE_TOL)
            # the displacement W_qp is the Fano operator times the parity, as P^2 = I
            np.testing.assert_allclose(fano[(q, p)] @ parity_matrix(d),
                                       oracle.cohendet_displacement(d, q, p), rtol=0, atol=ORACLE_TOL)
            np.testing.assert_allclose(displaced_parity(d, 2 * p, -2 * q)[0], oracle.ruzzi_point(d, q, p),
                                       rtol=0, atol=ORACLE_TOL)


@pytest.mark.parametrize("d", [3, 4, 9])
def test_kernel_stacks_are_exactly_hermitian(d):
    s, t = np.divmod(np.arange(4 * d * d), 2 * d)
    if d % 2:
        s, t = 2 * s, 2 * t
    K = displaced_parity(d, s, t)
    assert np.array_equal(K, K.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("d", range(2, 9))
def test_orbit_stack_matches_weyl_operators(d):
    np.testing.assert_allclose(_orbit_stack(d), oracle.orbit_stack(d), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_words_and_real_table_match_dense_oracle(n):
    d = 2**n
    rep = havel_rep(n)
    want = np.array([oracle.pauli_word(n, k, j) for k in range(d) for j in range(d)])
    np.testing.assert_array_equal(rep.frame.operators, want)
    rho = random_state(d, seed=n)
    sigma = real_density_matrix(rho)
    np.testing.assert_allclose(sigma, oracle.real_density_matrix(rho), rtol=0, atol=ORACLE_TOL)
    np.testing.assert_allclose(reconstruct_from_real(sigma), oracle.reconstruct_from_real(sigma),
                               rtol=0, atol=ORACLE_TOL)
    np.testing.assert_allclose(reconstruct_from_real(sigma), rho, rtol=0, atol=ORACLE_TOL)


def test_real_table_still_refuses_non_hermitian_states():
    with pytest.raises(ValueError, match="Hermitian"):
        real_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))


# properties over drawn dimensions


@settings(max_examples=30, deadline=None)
@given(fd=family_and_dim, data=st.data())
def test_drawn_points_match_dense_oracle(fd, data):
    family, d = fd
    rep = build(family, d)
    idx = data.draw(st.lists(st.integers(0, len(rep.labels) - 1), min_size=1, max_size=4, unique=True))
    check_against_oracle(rep, family, d, np.array(idx))


@settings(max_examples=30, deadline=None)
@given(fd=family_and_dim, a=st.integers(0, 40), b=st.integers(0, 40))
def test_weyl_covariance_permutes_labels(fd, a, b):
    family, d = fd
    rep = build(family, d)
    U = np.linalg.matrix_power(oracle.shift_matrix(d), a % d) @ np.linalg.matrix_power(oracle.clock_matrix(d), b % d)
    index = {label: i for i, label in enumerate(rep.labels)}
    perm = [index[COVARIANCE[family](d, q, p, a, b)] for q, p in rep.labels]
    for family_ops in (rep.frame.operators, rep.dual.operators):
        moved = U @ family_ops @ U.conj().T
        np.testing.assert_allclose(moved, family_ops[perm], rtol=0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(fd=family_and_dim, seed=st.integers(0, 10**6))
def test_dual_pair_and_round_trip(fd, seed):
    family, d = fd
    rep = build(family, d)
    ok, residual = is_dual_pair(rep.frame, rep.dual)
    assert ok and residual < 1e-9
    assert isinstance(rep.frame, Frame) and isinstance(rep.dual, Frame)
    rho = random_state(d, rank=1 + seed % d, seed=seed)
    back = rep.reconstruct(rep.represent(rho))
    assert np.max(np.abs(back - rho)) < 1e-9


# analysis and synthesis through the label map, against the dense stack

minimal_family_and_dim = st.one_of(
    st.tuples(st.just("wootters"), st.sampled_from(ODD_PRIMES)),
    st.tuples(st.sampled_from(["cohendet", "leonhardt", "ruzzi"]), st.sampled_from(ODD)),
)


def _hermitian(rng, k: int, d: int) -> np.ndarray:
    G = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    return (G + G.conj().transpose(0, 2, 1)) / 2


def check_pairings_against_dense(family, A: np.ndarray, v: np.ndarray) -> None:
    """Single and batched ``analyze`` and ``synthesize`` of a family equal the dense einsum forms on its stack."""
    ops = family.operators
    np.testing.assert_allclose(family.analyze(A), np.real(np.einsum("nij,kji->kn", ops, A)),
                               rtol=0, atol=ORACLE_TOL)
    for one in (A[0], A[0].T):  # the transpose is a non-contiguous view
        np.testing.assert_allclose(family.analyze(one), np.real(np.einsum("nij,ji->n", ops, one)),
                                   rtol=0, atol=ORACLE_TOL)
    np.testing.assert_allclose(family.synthesize(v), np.einsum("kn,nij->kij", v, ops), rtol=0, atol=ORACLE_TOL)
    np.testing.assert_allclose(family.synthesize(v[0]), np.einsum("n,nij->ij", v[0], ops),
                               rtol=0, atol=ORACLE_TOL)


@settings(max_examples=40, deadline=None)
@given(fd=minimal_family_and_dim, k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_label_map_pairs_like_the_dense_stack(fd, k, seed):
    family, d = fd
    rep = build(family, d)
    rng = np.random.default_rng(seed)
    A = _hermitian(rng, k, d)
    for fam in (rep.frame, rep.dual):
        assert isinstance(fam.pairing, _LabelMap)
        check_pairings_against_dense(fam, A, rng.standard_normal((k, len(fam))))
    rho = random_state(d, seed=seed % 1000)
    np.testing.assert_allclose(rep.reconstruct(rep.represent(rho)), rho, rtol=0, atol=ORACLE_TOL)


@settings(max_examples=40, deadline=None)
@given(fd=minimal_family_and_dim, k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_label_map_synthesizes_exactly_hermitian_operators(fd, k, seed):
    family, d = fd
    rep = build(family, d)
    rng = np.random.default_rng(seed)
    for fam in (rep.frame, rep.dual):
        v = rng.standard_normal((k, len(fam)))
        one, many = fam.synthesize(v[0]), fam.synthesize(v)
        np.testing.assert_array_equal(one, one.conj().T)
        np.testing.assert_array_equal(many, many.conj().transpose(0, 2, 1))
        np.testing.assert_allclose(one, np.einsum("n,nij->ij", v[0], fam.operators), rtol=0, atol=ORACLE_TOL)
        np.testing.assert_allclose(many, np.einsum("kn,nij->kij", v, fam.operators), rtol=0, atol=ORACLE_TOL)
    back = rep.reconstruct(rep.represent(random_state(d, seed=seed % 1000)))
    np.testing.assert_array_equal(back, back.conj().T)


def _same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(fd=minimal_family_and_dim, seed=st.integers(0, 10**6))
def test_the_matrix_builds_the_label_pairs_family_bit_for_bit(fd, seed):
    # the family's 2 x 2 relabeling gives the pair the oracle builds from its d^2 kernel label pairs
    family, d = fd
    rep = build(family, d)
    s, t = KERNEL_LABELS[family](*np.array(rep.labels).T)
    want = oracle.parity_pair(rep.labels, s, t, family)
    # each side's stack, made on the read, is displaced_parity's, divided by d on the frame side
    kernels = displaced_parity(d, s, t)
    for got, ref, dense in zip((rep.frame, rep.dual), want, (kernels / d, kernels)):
        assert got.labels == ref.labels and got.name == ref.name
        _same_bits(got.operators, dense)
        _same_bits(got.operators, ref.operators)
        lm, ref_lm = got.pairing, ref.pairing
        assert lm.transposed == ref_lm.transposed
        for table in ("rows", "cols", "gather", "dft", "half_dft"):
            _same_bits(getattr(lm, table), getattr(ref_lm, table))
        for table, ref_table in zip(lm.mirror, ref_lm.mirror):
            _same_bits(table, ref_table)
    rho, E = random_state(d, seed=seed), random_effect(d, seed=seed + 1)
    mu, ref_mu = rep.represent(rho), represent_state(rho, want[0])
    _same_bits(mu.values, ref_mu.values)
    _same_bits(rep.effect(E).values, represent_effect(E, want[1]).values)
    _same_bits(rep.reconstruct(mu), reconstruct_state(ref_mu, want[1]))


def test_a_wrong_label_map_fails_the_kernel_oracle():
    rep = wootters(5)
    kernels = displaced_parity(5, *KERNEL_LABELS["wootters"](*np.array(rep.labels).T))
    _same_bits(rep.dual.operators, kernels)
    A = _hermitian(np.random.default_rng(0), 2, 5)
    v = np.random.default_rng(1).standard_normal((2, 25))
    # t negated, s and t swapped, s doubled
    for wrong in (((2, 0), (0, -2)), ((0, 2), (2, 0)), ((4, 0), (0, 2))):
        # the stack a wrong map writes from its tables is not Wootters' kernels, and the map pairs like it
        family = parity_pair(rep.labels, wrong, "wootters")[1]
        assert np.abs(family.operators - kernels).max() > ORACLE_TOL
        check_pairings_against_dense(family, A, v)


@pytest.mark.parametrize("family,d", [("wootters", 3), ("cohendet", 5), ("leonhardt", 7), ("ruzzi", 9)])
def test_the_label_map_holds_the_factorys_kernel_labels(family, d):
    rep = FACTORY[family](d)
    s, t = KERNEL_LABELS[family](*np.array(rep.labels).T)
    np.testing.assert_array_equal(rep.dual.operators, displaced_parity(d, s, t))
    np.testing.assert_array_equal(rep.frame.operators, rep.dual.operators / d)
    u = np.arange(d)
    h = s[:, None] // 2
    # label n sits on grid row i and column j: row by row, or column by column for Ruzzi
    n = np.arange(d * d)
    i, j = (n % d, n // d) if family == "ruzzi" else (n // d, n % d)
    for fam, scale in ((rep.frame, d), (rep.dual, 1)):
        lm = fam.pairing
        assert lm.transposed == (family == "ruzzi")
        np.testing.assert_array_equal(lm.rows[i], s % d)
        np.testing.assert_array_equal(lm.cols[j], t % d)
        # grid row i of the gather reads the anti-diagonal centred on (s/2, s/2) ...
        np.testing.assert_array_equal(lm.gather[i], ((h + u) % d) * d + (h - u) % d)
        # ... and the DFT table's 2 x 2 blocks [[a, b], [-b, a]] hold its scaled entries a + ib, column j at cols[j] ...
        dft = lm.dft[0::2, 0::2] + 1j * lm.dft[0::2, 1::2]
        np.testing.assert_array_equal(dft, tau_powers(d, -2 * np.outer(u, lm.cols)) / scale)
        np.testing.assert_array_equal(lm.dft[1::2, 0::2], -lm.dft[0::2, 1::2])
        np.testing.assert_array_equal(lm.dft[1::2, 1::2], lm.dft[0::2, 0::2])
        # ... where K(s, t) holds omega**(tu), the conjugate of the DFT's column j, and nothing else
        rows = fam.flat[n[:, None], lm.gather[i]]
        np.testing.assert_array_equal(rows, dft[:, j].T.conj())
        assert (np.count_nonzero(fam.flat, axis=1) == d).all()
        # the synthesis table is Z's transpose, its rows in grid column order, over the columns u <= (d - 1)/2
        np.testing.assert_array_equal(lm.half_dft.view(complex), dft.T[:, :(d + 1) // 2])


MINIMAL_PAIRS = [("wootters", d) for d in ODD_PRIMES] + [
    (family, d) for family in ("cohendet", "leonhardt", "ruzzi") for d in ODD]


@pytest.mark.parametrize("family,d", MINIMAL_PAIRS, ids=[f"{f}-{d}" for f, d in MINIMAL_PAIRS])
def test_the_checks_measured_on_the_map_equal_the_dense_ones(family, d):
    rep = FACTORY[family](d)  # a fresh build: the cached ones may have made their stacks
    for fam in (rep.frame, rep.dual):
        measured = (fam.skew, fam.resolves_identity, fam.unit_traces)
        assert "stack" not in vars(fam.pairing)
        dense = Frame(fam.labels, fam.operators.copy(), fam.name)
        assert measured == (dense.skew, dense.resolves_identity, dense.unit_traces)
        np.testing.assert_allclose(fam.sum(), dense.sum(), rtol=0, atol=ORACLE_TOL)
        np.testing.assert_allclose(fam.sum(), fam.synthesize(np.ones(len(fam))), rtol=0, atol=ORACLE_TOL)
        np.testing.assert_allclose(fam.traces(), dense.traces(), rtol=0, atol=ORACLE_TOL)


@pytest.mark.parametrize("family,d", [("wootters", 5), ("ruzzi", 9)])
def test_the_map_refuses_what_the_dense_checks_refuse(family, d):
    lm = build(family, d).frame.pairing
    labels = build(family, d).labels
    rows = {"non-finite": (0, np.nan), "non-Hermitian": (2, 1e-6)}
    for why, (u, entry) in rows.items():
        dft = lm.dft.copy()
        dft[2 * u, 0] += entry  # Z[u, 0]: Z[-u, 0] is not its conjugate any more, or it is NaN
        with pytest.raises(DimensionMismatchError, match="finite" if why == "non-finite" else "non-Hermitian"):
            Frame(labels, replace(lm, dft=dft), family)


@pytest.mark.parametrize("build_rep", [
    lambda: wootters(2), lambda: wootters_composite([3, 5]), lambda: leonhardt(4), lambda: havel_rep(2),
], ids=["wootters-2", "composite-3x5", "leonhardt-4", "havel-2"])
def test_other_families_carry_no_label_map(build_rep):
    rep = build_rep()
    assert isinstance(rep.frame.pairing, _Stack) and isinstance(rep.dual.pairing, _Stack)


@pytest.mark.parametrize("n,relabel,message", [
    (9, ((2, 0), (0, 3)), "the relabeling ((2, 0), (0, 3)) has an entry that is not a unit mod 3"),
    (3, ((2, 0), (0, 2)), "3 labels for 1 operators"),
], ids=["repeated-cell", "not-a-square"])
def test_parity_pair_refuses_a_map_that_is_not_a_bijection(n, relabel, message):
    with pytest.raises(DimensionMismatchError) as refused:
        parity_pair(tuple(range(n)), relabel)
    assert str(refused.value) == message


def test_parity_pair_refuses_labels_off_the_grid():
    # a shear meets every cell once, but s moves along a row of the (q, p) lattice
    with pytest.raises(DimensionMismatchError) as refused:
        parity_pair(wootters(5).labels, ((2, 2), (0, 2)))
    assert str(refused.value) == "the relabeling ((2, 2), (0, 2)) is neither diagonal nor anti-diagonal"


# each meets every cell once, so only the centred form refuses it
@pytest.mark.parametrize("d,relabel", [
    (3, ((1, 0), (0, 2))),
    (2, ((1, 0), (0, 1))),
    (4, ((1, 0), (0, 1))),
], ids=["odd-s", "even-d-2", "even-d-4"])
def test_parity_pair_refuses_odd_s_and_even_d(d, relabel):
    with pytest.raises(DimensionMismatchError, match=f"odd d and even s, got d = {d}"):
        parity_pair(tuple(range(d * d)), relabel)


# Hermitian bit for bit past the hypothesis draws: one row and k rows, frame and dual
HERMITIAN_SIZES = [("wootters", d) for d in (17, 29, 37, 41, 53, 61)] + [
    (family, d) for family in ("cohendet", "leonhardt", "ruzzi") for d in (21, 25, 33, 45)
]


@pytest.mark.parametrize("family,d", HERMITIAN_SIZES, ids=[f"{f}-{d}" for f, d in HERMITIAN_SIZES])
def test_label_map_synthesis_is_exactly_hermitian_at_fixed_sizes(family, d):
    rep = FACTORY[family](d)
    v = np.random.default_rng(d).standard_normal((3, d * d))
    for fam in (rep.frame, rep.dual):
        one, many = fam.synthesize(v[0]), fam.synthesize(v)
        for M in (one[None], many):
            np.testing.assert_array_equal(M, M.conj().transpose(0, 2, 1))
            diagonal = M.diagonal(axis1=1, axis2=2).imag
            assert not np.signbit(diagonal).any() and not diagonal.any()
        np.testing.assert_allclose(many, np.einsum("kn,nij->kij", v, fam.operators), rtol=0, atol=ORACLE_TOL)
    back = rep.reconstruct(rep.represent(random_state(d, seed=d)))
    np.testing.assert_array_equal(back, back.conj().T)


# Clifford covariance of the Wootters function, through represent only: conjugating
# the state by a symplectic generator moves the value at (q, p) to its image.
CLIFFORD = {
    "fourier": (finite_fourier, lambda d, q, p: ((-p) % d, q)),
    "phase": (lambda d: np.diag(tau_powers(d, np.arange(d) ** 2 * (d + 1))), lambda d, q, p: (q, (q + p) % d)),
}


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from(ODD_PRIMES), gate=st.sampled_from(sorted(CLIFFORD)), rank=st.integers(1, 31),
       seed=st.integers(0, 10**6))
def test_wootters_is_clifford_covariant(d, gate, rank, seed):
    unitary, image = CLIFFORD[gate]
    rep = build("wootters", d)
    U = unitary(d)
    rho = random_state(d, rank=min(rank, d), seed=seed)
    index = {label: n for n, label in enumerate(rep.labels)}
    moved = [index[image(d, q, p)] for q, p in rep.labels]
    np.testing.assert_allclose(rep.represent(U @ rho @ U.conj().T).values[moved], rep.represent(rho).values,
                               rtol=0, atol=ORACLE_TOL)


def _skewed(family, rho: np.ndarray, peak: float) -> np.ndarray:
    """rho + iH, H Hermitian, scaled so the largest |Im Tr[A F(lam)]| over the family is ``peak``."""
    H = random_state(family.dim, seed=90)
    return rho + 1j * H * (peak / np.abs(np.real(np.einsum("nij,ji->n", family.operators, H))).max())


@settings(max_examples=20, deadline=None)
@given(fd=minimal_family_and_dim, seed=st.integers(0, 10**6))
def test_label_map_refuses_what_the_dense_path_refuses(fd, seed):
    family, d = fd
    rep = build(family, d)
    rho = random_state(d, seed=seed)
    for fam, analyze in ((rep.frame, rep.represent), (rep.dual, rep.effect)):
        with pytest.raises(DimensionMismatchError, match="not Hermitian"):
            analyze(_skewed(fam, rho, 2 * EQ_TOL))
        A = _skewed(fam, rho, 0.9 * EQ_TOL)
        np.testing.assert_allclose(analyze(A).values, np.real(np.einsum("nij,ji->n", fam.operators, A)),
                                   rtol=0, atol=ORACLE_TOL)
        for bad in (np.nan, np.inf, -np.inf, 1j * np.inf):
            B = rho.copy()
            B[d // 2, d // 2] = bad
            with np.errstate(invalid="ignore"), pytest.raises(DimensionMismatchError, match="finite"):
                analyze(B)
