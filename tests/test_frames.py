"""Frame bounds, duals, representation maps and their algebra."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frame_oracle
from frame_oracle import hermitian_basis
from qframe.errors import DimensionMismatchError, NotAFrameError
from qframe.frames import (
    Frame,
    QuasiDistribution,
    apply_transform,
    born_pair,
    canonical_dual,
    deformed_born,
    frame_bounds,
    frame_operator_matrix,
    gram_dual,
    is_dual_pair,
    negativity,
    reconstruct_effect,
    reconstruct_state,
    represent_effect,
    represent_state,
    transform_matrix,
)
from qframe.frames import _upper
from qframe.operators import random_effect, random_state, random_unitary, trace_inner
from qframe.representations import (
    cohendet,
    extended_distribution,
    from_extended,
    ghw,
    hardy_rep,
    havel_rep,
    leonhardt,
    mub_family,
    mub_reconstruct,
    mub_table,
    mub_transition,
    ruzzi_s0,
    sic_born,
    sic_rep,
    stratonovich_discrete,
    tetrahedral_constellation,
    wootters,
    wootters_composite,
)
from qframe.representations.spherical import _random_stratonovich


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_orthonormal(d):
    B = hermitian_basis(d)
    assert B.shape == (d * d, d, d)
    assert np.allclose(B[0], np.eye(d) / np.sqrt(d), atol=1e-14)
    for a in range(d * d):
        assert np.allclose(B[a], B[a].conj().T, atol=1e-14)
        for b in range(d * d):
            ip = np.trace(B[a] @ B[b]).real
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-12


def _random_minimal_frame(d, seed):
    """Well-conditioned Hermitian family spanning the operator space."""
    rng = np.random.default_rng(seed)
    B = hermitian_basis(d)
    # Random orthogonal mixing keeps the family a basis; add identity weight
    # so the family is not orthonormal (generic duals differ from the frame).
    Q, _ = np.linalg.qr(rng.standard_normal((d * d, d * d)))
    M = Q + 0.3 * np.eye(d * d)
    ops = np.einsum("na,aij->nij", M, B)
    labels = tuple(range(d * d))
    return Frame(labels, ops, "random-test")


def test_orthonormal_basis_is_tight_frame():
    d = 3
    B = hermitian_basis(d)
    fr = Frame(tuple(range(d * d)), B, "gellmann")
    a, b = frame_bounds(fr)
    assert abs(a - 1.0) < 1e-10 and abs(b - 1.0) < 1e-10
    dual = canonical_dual(fr)
    assert np.allclose(dual.operators, fr.operators, atol=1e-10)


def test_duplicated_element_changes_upper_bound():
    d = 2
    B = hermitian_basis(d)
    ops = np.concatenate([B, B[:1]], axis=0)
    fr = Frame(tuple(range(5)), ops)
    a, b = frame_bounds(fr)
    assert abs(a - 1.0) < 1e-10 and abs(b - 2.0) < 1e-10
    ok, res = is_dual_pair(fr, canonical_dual(fr))
    assert ok, res


def test_not_a_frame_error():
    d = 2
    B = hermitian_basis(d)
    fr = Frame((0, 1), B[:2])
    with pytest.raises(NotAFrameError):
        frame_bounds(fr)
    with pytest.raises(NotAFrameError):
        canonical_dual(fr)


@pytest.mark.parametrize("d,seed", [(1, 5), (2, 0), (3, 1), (4, 2)])
def test_canonical_dual_reconstructs(d, seed):
    fr = _random_minimal_frame(d, seed)
    dual = canonical_dual(fr)
    ok, res = is_dual_pair(fr, dual)
    assert ok, f"residual {res}"
    rho = random_state(d, seed=seed + 100)
    mu = represent_state(rho, fr)
    assert np.linalg.norm(reconstruct_state(mu, dual) - rho) < 1e-9


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _random_minimal_frame(2, 3), id="2-3"),
    pytest.param(lambda: _random_minimal_frame(3, 4), id="3-4"),
    *(pytest.param(lambda d=d: hardy_rep(d).frame, id=f"hardy-{d}") for d in range(2, 7)),
    *(pytest.param(lambda s=s: _random_stratonovich(s, 0)[0].frame, id=f"stratonovich-{s}")
      for s in (0.5, 1, 1.5, 2)),
])
def test_gram_dual_matches_canonical_on_minimal(make):
    fr = make()
    g = gram_dual(fr)
    np.testing.assert_array_equal(g.operators, canonical_dual(fr).operators)
    assert np.max(np.abs(g.operators - frame_oracle.canonical_dual(fr.operators))) < 1e-8


def test_gram_dual_requires_minimal():
    d = 2
    B = hermitian_basis(d)
    ops = np.concatenate([B, B[:1]], axis=0)
    fr = Frame(tuple(range(5)), ops)
    with pytest.raises(DimensionMismatchError):
        gram_dual(fr)


def test_duality_works_both_ways_on_minimal():
    d = 3
    fr = _random_minimal_frame(d, 7)
    dual = canonical_dual(fr)
    A = random_state(d, seed=1)
    # synthesis with the dual of analysis coefficients, and vice versa
    rec1 = sum(trace_inner(F, A) * D for F, D in zip(fr.operators, dual.operators))
    rec2 = sum(trace_inner(D, A) * F for F, D in zip(fr.operators, dual.operators))
    assert np.linalg.norm(rec1 - A) < 1e-9
    assert np.linalg.norm(rec2 - A) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_born_pair_equals_trace(seed):
    d = 3
    fr = _random_minimal_frame(d, seed)
    dual = canonical_dual(fr)
    rho = random_state(d, seed=seed)
    E = random_effect(d, seed=seed + 50)
    mu = represent_state(rho, fr)
    xi = represent_effect(E, dual)
    assert abs(born_pair(mu, xi) - trace_inner(rho, E)) < 1e-8


def test_deformed_born_equals_trace():
    d = 2
    fr = _random_minimal_frame(d, 21)
    dual = canonical_dual(fr)
    rho = random_state(d, seed=0)
    E = random_effect(d, seed=1)
    mu = represent_state(rho, fr)
    xi_frame = QuasiDistribution(
        representation=fr.name,
        dim=d,
        labels=fr.labels,
        values=[trace_inner(E, F) for F in fr.operators],
    )
    assert abs(deformed_born(mu, xi_frame, dual) - trace_inner(rho, E)) < 1e-8


def test_effect_reconstruction():
    d = 3
    fr = _random_minimal_frame(d, 9)
    dual = canonical_dual(fr)
    E = random_effect(d, seed=2)
    xi = represent_effect(E, dual)
    assert np.linalg.norm(reconstruct_effect(xi, fr) - E) < 1e-9


def test_transform_round_trip():
    d = 3
    fa = _random_minimal_frame(d, 11)
    fb = _random_minimal_frame(d, 12)
    da, db = canonical_dual(fa), canonical_dual(fb)
    rho = random_state(d, seed=4)
    mu_a = represent_state(rho, fa)
    T_ab = transform_matrix(da, fb)
    mu_b = apply_transform(mu_a, T_ab, fb)
    assert np.max(np.abs(mu_b.values - represent_state(rho, fb).values)) < 1e-9
    T_ba = transform_matrix(db, fa)
    back = apply_transform(mu_b, T_ba, fa)
    assert np.max(np.abs(back.values - mu_a.values)) < 1e-8
    assert np.max(np.abs(T_ab @ T_ba - np.eye(d * d))) < 1e-8


def test_unitary_conjugated_basis_frame():
    # A rotated orthonormal basis stays tight with the same bounds.
    d = 3
    U = random_unitary(d, np.random.default_rng(6))
    B = hermitian_basis(d)
    ops = np.einsum("ab,nbc,cd->nad", U, B, U.conj().T)
    fr = Frame(tuple(range(d * d)), ops)
    a, b = frame_bounds(fr)
    assert abs(a - 1.0) < 1e-9 and abs(b - 1.0) < 1e-9


def test_represent_state_warning_for_unnormalized_frame():
    d = 2
    B = hermitian_basis(d)
    fr = Frame(tuple(range(4)), 2.0 * B)
    mu = represent_state(random_state(d, seed=0), fr)
    assert "frame-sum-not-identity" in mu.warnings


def test_negativity_report():
    mu = QuasiDistribution("toy", 2, (0, 1, 2), np.array([-0.25, 0.5, 0.75]))
    rep = negativity(mu)
    assert rep.min_value == -0.25
    assert abs(rep.abs_sum - 1.5) < 1e-14
    assert abs(rep.negativity - 0.25) < 1e-14


def test_label_mismatch_raises():
    d = 2
    fr = _random_minimal_frame(d, 1)
    dual = canonical_dual(fr)
    mu = represent_state(random_state(d, seed=0), fr)
    bad = QuasiDistribution("x", d, tuple(range(4))[::-1], mu.values)
    with pytest.raises(DimensionMismatchError):
        reconstruct_state(bad, dual)


def test_born_pair_compares_labels_by_value():
    fr = _random_minimal_frame(2, 2)
    mu = represent_state(random_state(2, seed=1), fr)
    xi = represent_effect(random_effect(2, seed=2), canonical_dual(fr))
    assert mu.labels is xi.labels
    equal = QuasiDistribution(fr.name, 2, tuple(list(xi.labels)), xi.values)
    assert equal.labels == xi.labels and equal.labels is not xi.labels
    assert born_pair(mu, equal) == born_pair(mu, xi)
    for labels in (xi.labels[::-1], tuple(range(1, 5))):
        with pytest.raises(DimensionMismatchError, match="different outcome sets"):
            born_pair(mu, QuasiDistribution("x", 2, labels, xi.values))


CROSS_FAMILY = ("born_pair", "reconstruct_state", "mub_reconstruct", "mub_transition", "sic_born", "from_extended")


def _cross_family_cases():
    """Per case: a pairing of one argument, its own family's values, and another family's values.

    The two families' values sit on equal labels, so only the name they carry tells them apart.
    """
    rho, rho2, E = random_state(3, seed=1), random_state(3, seed=2), random_effect(3, seed=2)
    w, c, fam = wootters(3), cohendet(3), mub_family(3)
    ext = extended_distribution(c.represent(rho))
    return {
        "born_pair": (lambda xi: born_pair(w.represent(rho), xi), w.effect(E), c.effect(E)),
        "reconstruct_state": (lambda mu: reconstruct_state(mu, c.dual), c.represent(rho), w.represent(rho)),
        "mub_reconstruct": (lambda t: mub_reconstruct(t, fam), mub_table(rho, fam),
                            fam.representation().represent(rho)),
        "mub_transition": (lambda t: mub_transition(mub_table(rho, fam), t), mub_table(rho2, fam),
                           fam.representation().represent(rho2)),
        "sic_born": (lambda mu: sic_born(mu, np.ones(9)), sic_rep(3).represent(rho), w.represent(rho)),
        "from_extended": (lambda e: from_extended(e).values, ext, replace(ext, representation="x")),
    }


@pytest.mark.parametrize("case", CROSS_FAMILY)
def test_values_pair_only_with_their_own_family(case):
    pairing, own, other = _cross_family_cases()[case]
    assert other.labels == own.labels
    with pytest.raises(DimensionMismatchError):
        pairing(other)
    # labels equal by value, not by identity, still pair, to the bit
    copy = replace(own, labels=tuple(list(own.labels)))
    assert copy.labels == own.labels and copy.labels is not own.labels
    np.testing.assert_array_equal(pairing(copy), pairing(own))


def test_distributions_compare_and_hash_by_identity():
    rep = wootters(3)
    mu, nu = rep.represent(np.eye(3) / 3), rep.represent(np.eye(3) / 3)
    assert mu == mu and mu != nu
    assert hash(mu) == hash(mu) and len({mu, nu}) == 2


def test_distribution_values_are_read_only_and_owned():
    rep = wootters(3)
    given_values = np.full(9, 1 / 9)
    built = QuasiDistribution("wootters", 3, rep.frame.labels, given_values)
    for dist in (rep.represent(np.eye(3) / 3), rep.effect(np.eye(3)), built):
        with pytest.raises(ValueError, match="read-only"):
            dist.values[0] = 0.5
    given_values[0] = 0.5
    assert built.values[0] == 1 / 9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
def test_non_finite_state_or_effect_raises(bad):
    fr = _random_minimal_frame(2, 3)
    dual = canonical_dual(fr)
    A = random_state(2, seed=0)
    A[0, 1] = bad
    with pytest.raises(DimensionMismatchError, match="finite"):
        represent_state(A, fr)
    with pytest.raises(DimensionMismatchError, match="finite"):
        represent_effect(A, dual)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_distribution_raises(bad):
    values = np.full(4, 0.25)
    values[2] = bad
    with pytest.raises(DimensionMismatchError, match="finite"):
        QuasiDistribution("x", 2, tuple(range(4)), values)


def test_frame_operator_matrix_is_gram_of_coefficients():
    d = 2
    fr = _random_minimal_frame(d, 5)
    S = frame_operator_matrix(fr)
    assert np.allclose(S, S.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(S)) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_operator_rejected_at_construction(bad):
    ops = np.array(hermitian_basis(2))
    ops[3, 0, 0] = bad
    with pytest.raises(DimensionMismatchError, match="finite"):
        Frame(tuple(range(4)), ops)


def test_a_non_finite_entry_is_refused_before_a_non_hermitian_operator():
    ops = np.array(hermitian_basis(2))
    ops[1, 0, 1] += 1.0
    ops[3, 0, 0] = np.inf
    with pytest.raises(DimensionMismatchError, match="operators must be finite"):
        Frame(tuple(range(4)), ops)


def test_finite_entries_whose_squares_overflow_are_accepted():
    with np.errstate(over="ignore"):
        family = Frame(tuple(range(4)), 1e200 * np.array(hermitian_basis(2)))
    assert family.skew == 0.0


def test_the_upper_pairs_are_triu_indices_and_read_only():
    for d in range(1, 33):
        upper = _upper(d)
        assert np.array_equal(upper, np.triu_indices(d, 1))
        assert not upper.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("make", [lambda: wootters(3), lambda: hardy_rep(3)])
def test_a_stack_with_a_non_finite_entry_is_refused_as_a_family_stack_is(make, bad):
    # wootters(3) pairs through its label map, hardy_rep(3) on its stack
    rep = make()
    A = np.stack([random_state(3, seed=5), random_effect(3, seed=6)])
    A[1, 2, 2] = bad
    for family in (rep.frame, rep.dual):
        with pytest.raises(DimensionMismatchError, match="values must be finite"):
            family.analyze(A)
    with pytest.raises(DimensionMismatchError, match="operators must be finite"):
        Frame(tuple(range(2)), A)


@pytest.mark.parametrize("make", [lambda: wootters(3), lambda: hardy_rep(3)])
def test_empty_stacks_analyze_and_synthesize_to_empty_stacks(make):
    # wootters(3) pairs through its label map, hardy_rep(3) on its stack
    rep = make()
    n = len(rep.labels)
    for family in (rep.frame, rep.dual):
        assert family.analyze(np.zeros((0, 3, 3))).shape == (0, n)
        assert family.synthesize(np.zeros((0, n))).shape == (0, 3, 3)


# minimal (d^2-outcome) representations by dimension
MINIMAL = {
    2: [lambda: wootters(2), lambda: ghw(2), lambda: hardy_rep(2), lambda: havel_rep(1),
        lambda: sic_rep(2), lambda: stratonovich_discrete(0.5, tetrahedral_constellation())],
    3: [lambda: wootters(3), lambda: ghw(3), lambda: cohendet(3), lambda: leonhardt(3),
        lambda: ruzzi_s0(3), lambda: hardy_rep(3), lambda: sic_rep(3)],
    4: [lambda: ghw(2, 2), lambda: wootters_composite([2, 2]), lambda: hardy_rep(4),
        lambda: havel_rep(2), lambda: sic_rep(4)],
    5: [lambda: wootters(5), lambda: cohendet(5), lambda: leonhardt(5), lambda: ruzzi_s0(5),
        lambda: hardy_rep(5), lambda: sic_rep(5)],
}


@lru_cache(maxsize=None)
def _minimal(d, i):
    return MINIMAL[d][i]()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.sampled_from(sorted(MINIMAL)))
def test_transforms_compose(data, d):
    # T_{A->C} = T_{A->B} T_{B->C}, applied as mu_C = mu_A T
    a, b, c = (_minimal(d, data.draw(st.integers(0, len(MINIMAL[d]) - 1))) for _ in range(3))
    T_ac = transform_matrix(a.dual, c.frame)
    T_ab_bc = transform_matrix(a.dual, b.frame) @ transform_matrix(b.dual, c.frame)
    assert a.frame.minimal and b.frame.minimal and c.frame.minimal
    assert np.max(np.abs(T_ab_bc - T_ac)) < 1e-9


def test_a_frame_keeps_a_complex_contiguous_read_only_copy_of_a_real_or_strided_stack():
    real = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    frame = Frame(range(3), real)
    ops = frame.operators
    assert ops.dtype == complex and ops.flags.c_contiguous and not ops.flags.writeable
    assert np.array_equal(ops, real) and not np.shares_memory(ops, real)
    assert real.flags.writeable
    stack = np.array([random_state(3, seed=k) for k in range(8)])
    view = stack[::2]
    assert not view.flags.c_contiguous
    ops = Frame(range(4), view).operators
    assert ops.flags.c_contiguous and np.array_equal(ops, view) and not np.shares_memory(ops, stack)


def test_a_stack_of_non_square_matrices_is_refused():
    with pytest.raises(DimensionMismatchError, match=r"expected a stack of square matrices, got shape \(2, 2, 3\)"):
        Frame(range(2), np.zeros((2, 2, 3)))


def test_an_empty_family_pairs_to_no_values_and_the_zero_operator():
    family = Frame((), np.zeros((0, 3, 3), complex))
    assert family.flat.shape == (0, 9)
    assert family.analyze(np.array([random_state(3, seed=k) for k in range(2)])).shape == (2, 0)
    np.testing.assert_array_equal(family.synthesize(np.zeros(0)), np.zeros((3, 3)))
    np.testing.assert_array_equal(family.synthesize(np.zeros((2, 0))), np.zeros((2, 3, 3)))


@pytest.mark.parametrize("call,message", [
    (lambda: is_dual_pair(wootters(3).frame, hardy_rep(3).dual), "frame and dual must share dimension and labels"),
    (lambda: transform_matrix(wootters(3).dual, wootters(5).frame), "representations live in different dimensions"),
    (lambda: apply_transform(wootters(3).represent(np.eye(3) / 3), np.eye(4), wootters(3).frame),
     r"transform shape \(4, 4\) does not fit the outcome sets"),
], ids=["is_dual_pair", "transform_matrix", "apply_transform"])
def test_pairings_of_mismatched_families_are_refused(call, message):
    with pytest.raises(DimensionMismatchError, match=message):
        call()
