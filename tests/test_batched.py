"""The batched verify and analysis code against its one-sample-at-a-time oracle.

``tests/batch_oracle.py`` keeps the loops the array code replaced: the three
verify residuals, the dense three-system teleportation branch, the
per-state entanglement sweep, the per-direction NMR kernel and its
per-size contractions, and the Kronecker products of stacks that
``operators.tensor`` builds in one call.  Where the array code is the loop's
arithmetic, it is matched to the bit, signed zeros included.  Property
tests draw odd primes up to 31 for the teleport identity and the line-sum
law.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import batch_oracle as oracle
import lattice_oracle
from qframe import verify
from qframe.analysis import (
    _entanglement_sweep,
    _nmr_distribution,
    bell_wigner_demo,
    negativity_witness,
    teleport_phase_space,
)
from qframe.cli import main
from qframe.errors import DimensionMismatchError
from qframe.frames import Frame, _coordinates, _from_coordinates, canonical_dual
from qframe.operators import (
    _random_effects,
    _random_states,
    random_effect,
    random_state,
    tensor,
    weyl_monomials,
)
from qframe.representations import (
    Representation,
    cohendet,
    ghw,
    hardy_rep,
    havel_rep,
    leonhardt,
    mub_family,
    nmr_sample_directions,
    qubit_kernel_lower,
    qubit_kernel_upper,
    sic_rep,
    stratonovich_discrete,
    tetrahedral_constellation,
    wootters,
    wootters_composite,
)
from qframe.representations.havel import _pauli_words
from qframe.representations.spherical import _random_stratonovich

ORACLE_TOL = 1e-12
ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

FAMILIES = {
    "wootters-3": lambda: wootters(3),
    "wootters-5": lambda: wootters(5),
    "wootters-7": lambda: wootters(7),
    "mub-5": lambda: mub_family(5).representation(),
    "sic-4": lambda: sic_rep(4),
    "hardy-3": lambda: hardy_rep(3),
    "stratonovich": lambda: stratonovich_discrete(0.5, tetrahedral_constellation()),
    "havel-2": lambda: havel_rep(2),
}


def _skewed(rep):
    """``rep`` with its dual scaled by 1.001, so the residuals are of order 1e-3, not round-off."""
    dual = Frame(rep.labels, rep.dual.operators * 1.001, rep.name)
    return replace(rep, dual=dual)


# sample stacks


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_sample_stacks_are_the_seeded_draws(d):
    rho = _random_states(d, 6, np.random.default_rng([11, 0]))
    E = _random_effects(d, 6, np.random.default_rng([11, 1]))
    states, effects = np.random.default_rng([11, 0]), np.random.default_rng([11, 1])
    for k in range(6):
        np.testing.assert_allclose(rho[k], oracle.random_state(d, seed=states), atol=ORACLE_TOL, rtol=0)
        np.testing.assert_allclose(E[k], oracle.random_effect(d, seed=effects), atol=ORACLE_TOL, rtol=0)
    for s in 11 + 2 * np.arange(6):
        # the one-at-a-time draws are the same arithmetic as before, so equal to the bit
        assert np.array_equal(random_state(d, seed=int(s)), oracle.random_state(d, seed=int(s)))
        assert np.array_equal(random_effect(d, seed=int(s) + 1), oracle.random_effect(d, seed=int(s) + 1))


@pytest.mark.parametrize("d", [2, 5])
def test_sample_stacks_draw_each_seed_bit_for_bit(d):
    from qframe.operators import _haar_from_gaussian, _rotated_diagonal
    from wrapper_oracle import complex_gaussian as _complex_gaussian

    for s in [3, 4, 90]:
        # one (k, 2, d, d) draw is k consecutive complex Gaussians of the one generator
        rng = np.random.default_rng([s, 0])
        states = np.stack([_complex_gaussian(rng, (d, d)) for _ in range(3)])
        states = states @ np.conj(np.swapaxes(states, -1, -2))
        states /= np.trace(states, axis1=-2, axis2=-1).real[:, None, None]
        assert np.array_equal(_random_states(d, 3, np.random.default_rng([s, 0])), states)
        # each effect takes its Gaussians and then its uniforms, as random_effect does
        rng = np.random.default_rng([s, 1])
        draws = [(_complex_gaussian(rng, (d, d)), rng.uniform(0.0, 1.0, size=d)) for _ in range(3)]
        U = _haar_from_gaussian(np.stack([g for g, _ in draws]))
        effects = _rotated_diagonal(U, np.stack([u for _, u in draws]))
        assert np.array_equal(_random_effects(d, 3, np.random.default_rng([s, 1])), effects)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal arrays whose real and imaginary parts also agree in the sign of every zero."""
    return a.shape == b.shape and np.array_equal(a, b) and all(
        np.array_equal(np.signbit(part(a)), np.signbit(part(b))) for part in (np.real, np.imag))


@pytest.mark.parametrize("d", [2, 3, 4, 7, 13])
def test_single_draws_are_the_loops_to_the_bit(d):
    for seed in range(20):
        for rank in (1, 2, d, None):
            assert same_bits(random_state(d, rank=rank, seed=seed), oracle.random_state(d, rank=rank, seed=seed))
        assert same_bits(random_effect(d, seed=seed), oracle.random_effect(d, seed=seed))
    # a Generator is drawn from as it stands, so consecutive single draws are consecutive oracle draws
    got, want = np.random.default_rng([d, 5]), np.random.default_rng([d, 5])
    for rank in (1, 2, d, 1):
        assert same_bits(random_state(d, rank=rank, seed=got), oracle.random_state(d, rank=rank, seed=want))
        assert same_bits(random_effect(d, seed=got), oracle.random_effect(d, seed=want))


def _recorded_stacks(monkeypatch, argv) -> list[np.ndarray]:
    """Every sample stack one ``qframe`` command draws, in order."""
    stacks = []
    with monkeypatch.context() as m:
        for name in ("_random_states", "_random_effects"):
            real = getattr(verify, name)
            m.setattr(verify, name, lambda *a, real=real: stacks.append(real(*a)) or stacks[-1])
        assert main(argv) == 0
    return stacks


def test_fewer_samples_draw_a_prefix_of_more(monkeypatch, capsys):
    argv = ["verify", "wootters", "--d", "5", "--seed", "3", "--samples"]
    few, many = _recorded_stacks(monkeypatch, argv + ["20"]), _recorded_stacks(monkeypatch, argv + ["50"])
    capsys.readouterr()
    # the Born states and effects, the round-trip states (at most 25) and the line-sum states
    assert [len(x) for x in few] == [20, 20, 20, 10] and [len(x) for x in many] == [50, 50, 25, 10]
    for a, b in zip(few, many, strict=True):
        assert np.array_equal(a, b[:len(a)])


@pytest.mark.parametrize("make,stacks", [(lambda: wootters(5), 4), (lambda: cohendet(5), 5)],
                         ids=["wootters-5", "cohendet-5"])
def test_one_generator_per_sample_stack(monkeypatch, make, stacks):
    rep = make()
    built = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: built.append(a) or real(*a, **k))
    assert verify.verify_representation(rep, seed=3, samples=50)["all_passed"]
    assert len(built) <= stacks, len(built)


# verify residuals


@pytest.mark.parametrize("skew", [False, True], ids=["exact", "skewed"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_verify_residuals_match_the_loops(name, skew):
    rep = FAMILIES[name]()
    rep = _skewed(rep) if skew else rep
    assert abs(verify._born_residual(rep, 7, 30) - oracle.born_residual(rep, 7, 30)) <= ORACLE_TOL
    assert abs(verify._round_trip_residual(rep, 7, 25) - oracle.round_trip_residual(rep, 7, 25)) <= ORACLE_TOL
    if rep.geometry is not None and rep.geometry.striations:
        got, want = verify._line_residuals(rep, 7, 10), oracle.line_residuals(rep, 7, 10)
        assert np.allclose(got, want, atol=ORACLE_TOL, rtol=0)


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_refuses_no_samples(samples):
    # the CLI refuses --samples < 1 with exit 2; the library says why instead of failing to stack nothing
    with pytest.raises(ValueError, match="samples must be at least 1"):
        verify.verify_representation(wootters(3), samples=samples)


def test_skewed_residuals_are_not_round_off():
    # the comparison above would be empty if the skewed residuals were ~1e-16 too
    rep = _skewed(wootters(5))
    assert verify._born_residual(rep, 7, 30) > 1e-5
    assert verify._round_trip_residual(rep, 10_007, 25) > 1e-5


# teleportation


@pytest.mark.parametrize("d", [3, 5, 7])
def test_teleport_branches_match_the_dense_simulation(d):
    rho = random_state(d, seed=d)
    for outcome in [(0, 0), (1, d - 1), (d - 1, 2), (2, 1)]:
        out = teleport_phase_space(d, rho, outcome)
        prob, rho_out, values, residual = oracle.teleport_branch(d, rho, outcome)
        assert abs(out.probability - prob) <= ORACLE_TOL
        np.testing.assert_allclose(out.state_out, rho_out, atol=ORACLE_TOL, rtol=0)
        np.testing.assert_allclose(out.mu_out.values, values, atol=ORACLE_TOL, rtol=0)
        assert abs(out.displacement_residual - residual) <= ORACLE_TOL


def test_teleport_labels_are_row_major():
    # the displaced comparison reads values.reshape(d, d)[q, p] as mu(q, p)
    for d in (3, 5, 7, 11):
        assert wootters(d).labels == tuple((q, p) for q in range(d) for p in range(d))


@settings(max_examples=20, deadline=None)
@given(data=st.data(), d=st.sampled_from(ODD_PRIMES))
def test_teleport_identity_over_odd_primes(data, d):
    rho = random_state(d, rank=data.draw(st.integers(1, d)), seed=data.draw(st.integers(0, 2**31)))
    for _ in range(3):
        outcome = (data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1)))
        out = teleport_phase_space(d, rho, outcome)
        assert abs(out.probability - 1.0 / d**2) <= 1e-12
        assert out.displacement_residual <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_weyl_monomials_match_the_matrix_powers(d):
    p, q = (a.ravel() for a in np.meshgrid(np.arange(-d, 2 * d), np.arange(-d, 2 * d)))
    want = np.array([lattice_oracle.weyl_operator(int(a), int(b), d) for a, b in zip(p, q)])
    np.testing.assert_allclose(weyl_monomials(d, p, q), want, atol=ORACLE_TOL, rtol=0)


# line-sum law


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from(ODD_PRIMES), seed=st.integers(0, 2**31))
def test_line_sum_law_over_odd_primes(d, seed):
    pvm_worst, sum_worst = verify._line_residuals(wootters(d), seed, 3)
    assert pvm_worst <= verify.LINE_TOL
    assert sum_worst <= verify.LINE_TOL


# entanglement sweep


@pytest.mark.parametrize("seed,samples", [(0, 20), (2, 20), (5, 40)])
def test_entanglement_sweep_matches_the_loop(seed, samples):
    seeds = [seed + k for k in range(samples)]
    rhos = np.stack([random_state(4, rank=1 + s % 4, seed=s) for s in seeds])
    rows = _entanglement_sweep(rhos)
    conclusive, agreements, want = oracle.entanglement_sweep(seed, samples)
    for (fp_min, fp_verdict, pt_min, ppt_verdict), row in zip(rows, want):
        assert (fp_verdict, ppt_verdict) == (row[3], row[5])
        assert abs(fp_min - row[2]) <= ORACLE_TOL
        assert abs(pt_min - row[4]) <= ORACLE_TOL
    assert sum(r[1] == "entangled" for r in rows) == conclusive
    assert sum(r[1] == r[3] == "entangled" for r in rows) == agreements


def test_entanglement_demo_counts_match_the_loop(capsys):
    assert main(["demo", "entanglement", "--samples", "30", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    conclusive, agreements, _ = oracle.entanglement_sweep(3, 30)
    assert (doc["conclusive"], doc["agreements"]) == (conclusive, agreements)


def test_entanglement_sweep_refuses_other_shapes():
    with pytest.raises(DimensionMismatchError):
        _entanglement_sweep(np.eye(4)[None, :3, :3])


# NMR kernel


def test_qubit_kernels_take_a_stack_of_directions():
    grid = nmr_sample_directions(200)
    assert qubit_kernel_upper(grid).shape == (200, 2, 2)
    assert np.array_equal(qubit_kernel_upper(grid), np.array([oracle.qubit_kernel_upper(n) for n in grid]))
    assert np.array_equal(qubit_kernel_lower(grid), np.array([oracle.qubit_kernel_lower(n) for n in grid]))
    assert np.array_equal(qubit_kernel_upper(grid[7]), oracle.qubit_kernel_upper(grid[7]))
    with pytest.raises(ValueError, match="unit vectors"):
        qubit_kernel_upper(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]))


@pytest.mark.parametrize("n,count", [(1, 500), (2, 40), (3, 12), (3, 26)])
def test_nmr_distribution_matches_the_loop(n, count):
    grid = nmr_sample_directions(count)
    rho = random_state(2**n, seed=n)
    assert same_bits(_nmr_distribution(rho, n, grid), oracle.nmr_distribution(rho, n, grid))


# Kronecker products of stacks


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_words_are_the_qubit_loop_to_the_bit(n):
    assert same_bits(_pauli_words(n), oracle.pauli_words(n))


@pytest.mark.parametrize("dims", [[2, 2], [3, 5], [2, 3], [3, 3], [2, 3, 2]])
def test_composite_stack_is_the_pairwise_kron_to_the_bit(dims):
    want = wootters(dims[0]).dual.operators
    for x in dims[1:]:
        want = oracle.kron_stacks(want, wootters(x).dual.operators)
    assert same_bits(wootters_composite(dims).dual.operators, want)


def test_tensor_of_stacks_is_every_pair_first_factor_major():
    a, b = np.random.default_rng(1).standard_normal((2, 3, 2, 2)) + 0j
    assert same_bits(tensor(a, b), np.array([np.kron(x, y) for x in a for y in b]))


# canonical dual


@pytest.mark.parametrize("make", [lambda: leonhardt(4), lambda: leonhardt(6), lambda: wootters(5), lambda: hardy_rep(3)])
def test_canonical_dual_matches_the_pseudo_inverse(make):
    frame = make().frame
    V = _coordinates(frame.operators)
    want = _from_coordinates(V @ np.linalg.pinv(V.T @ V, rcond=1e-10, hermitian=True), frame.dim)
    np.testing.assert_allclose(canonical_dual(frame).operators, want, atol=ORACLE_TOL, rtol=0)



# negativity witness


WITNESS_FAMILIES = {
    **{f"mub-{d}": (lambda d=d: mub_family(d).representation()) for d in (3, 5, 7)},
    **{f"sic-{d}": (lambda d=d: sic_rep(d)) for d in (3, 4)},
    **{f"hardy-{d}": (lambda d=d: hardy_rep(d)) for d in (3, 5)},
    **{f"havel-{n}": (lambda n=n: havel_rep(n)) for n in (1, 2)},
    "stratonovich-0.5": lambda: stratonovich_discrete(0.5, tetrahedral_constellation()),
    "stratonovich-1": lambda: _random_stratonovich(1.0, 0)[0],
    "wootters-3": lambda: wootters(3),
    "ghw-2-2": lambda: ghw(2, 2),
    "leonhardt-4": lambda: leonhardt(4),
    "wootters-2x3": lambda: wootters_composite([2, 3]),
}


def same_witness(got: dict, want: dict) -> bool:
    """Equal witness reports, the value to the bit and the witness operator to the bit, signed zeros included."""
    keys = ("found", "kind", "representation", "value", "label")
    return (got.keys() == want.keys() and all(got.get(k) == want.get(k) for k in keys)
            and ("witness" not in want or same_bits(got["witness"], want["witness"])))


# 1.5 puts the lowest eigenvalue -1 of the MUB and SIC duals inside [-tol, 1 + tol] and their top one
# outside, so the witness is a top eigenvector there; at 1e-6 every family's dual leaves the interval below
@pytest.mark.parametrize("tol", [1e-6, 1.5])
@pytest.mark.parametrize("name", list(WITNESS_FAMILIES))
def test_witness_is_the_per_operator_scan_to_the_bit(name, tol):
    rep = WITNESS_FAMILIES[name]()
    assert same_witness(negativity_witness(rep, tol), oracle.negativity_witness(rep, tol))


def _permuted(rep, order):
    """``rep`` with its frame, dual and labels all taken in ``order``."""
    labels = tuple(rep.labels[i] for i in order)
    frame, dual = (Frame(labels, fam.operators[list(order)], rep.name) for fam in (rep.frame, rep.dual))
    return Representation(frame, dual)


@pytest.mark.parametrize("tol", [1e-6, 0.55, 0.61, 0.63])
def test_witness_skips_a_dual_operator_inside_the_interval(tol):
    # hardy(3)'s dual 0 has spectrum [-0.618, 1.618] and dual 1 [-0.5, 0.5]; with the two swapped, 0.55 and 0.61
    # pass over the new dual 0 to the old one, and 0.63 finds no witness
    rep = _permuted(hardy_rep(3), [1, 0, *range(2, 9)])
    spectra = np.linalg.eigvalsh(rep.dual.operators)
    assert np.allclose(spectra[:2, [0, -1]], [[-0.5, 0.5], [-(5**0.5 - 1) / 2, (5**0.5 + 1) / 2]])
    want = oracle.negativity_witness(rep, tol)
    assert same_witness(negativity_witness(rep, tol), want)
    assert want["found"] == (tol < 0.618)
    if 0.5 < tol < 0.618:
        assert want["kind"] == "effect" and want["label"] == rep.labels[1]


# singlet correlations


def test_bell_wigner_is_the_per_sign_sum():
    angles = np.random.default_rng(2024).uniform(-2 * np.pi, 2 * np.pi, size=(500, 3))
    for a, b, c in angles:
        got, want = bell_wigner_demo(a, b, c), oracle.bell_wigner_demo(a, b, c)
        assert got["violated"] == want["violated"]
        assert all(abs(got[k] - want[k]) <= 1e-15 for k in ("C_ab", "C_ac", "C_bc", "lhs", "rhs"))
