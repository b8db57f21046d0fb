"""Flat-view GEMM paths against the dense einsum formulas they replaced.

The einsum forms below are the oracle: each library result must agree with
them to 1e-12 for every representation the CLI can build.  States, effects
and distributions are drawn by hypothesis.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import batch_oracle
import frame_oracle
from qframe.cli import FAMILIES, build_representation, parse_direct
from qframe.errors import DimensionMismatchError, NotAFrameError, SingularBasisError
from qframe.frames import (
    Frame,
    QuasiDistribution,
    _coordinates,
    _from_coordinates,
    _pairings,
    born_pair,
    canonical_dual,
    deformed_born,
    frame_bounds,
    gram_dual,
    is_dual_pair,
    reconstruct_effect,
    represent_effect,
    represent_state,
    transform_matrix,
)
from qframe.operators import EQ_TOL, random_state
from qframe.representations import (
    cohendet,
    ghw,
    hardy_rep,
    havel_rep,
    leonhardt,
    mub_family,
    overlap_deviation,
    ruzzi_s0,
    sic_rep,
    stratonovich_discrete,
    wootters,
    wootters_composite,
)
from qframe.representations.sic import _orbit_stack

ORACLE_TOL = 1e-12


def _states(d: int, seeds) -> np.ndarray:
    """``random_state(d, seed=s)`` for each seed, as one stack."""
    return np.stack([random_state(d, seed=int(s)) for s in seeds])

# (case id, CLI representation name and dimension flags), small sizes
CASES = [
    ("wootters-3", ["wootters", "--d", "3"]),
    ("wootters-2x2", ["wootters", "--dims", "2,2"]),
    ("ghw-2-2", ["ghw", "--p", "2", "--n", "2"]),
    ("cohendet-3", ["cohendet", "--d", "3"]),
    ("leonhardt-3", ["leonhardt", "--d", "3"]),
    ("leonhardt-2", ["leonhardt", "--d", "2"]),
    ("stratonovich-0.5", ["stratonovich", "--s", "0.5"]),
    ("stratonovich-1", ["stratonovich", "--s", "1"]),
    ("ruzzi-3", ["ruzzi", "--d", "3"]),
    ("mub-3", ["mub", "--d", "3"]),
    ("hardy-3", ["hardy", "--d", "3"]),
    ("havel-2", ["havel", "--n", "2"]),
    ("sic-2", ["sic", "--d", "2"]),
    ("sic-3", ["sic", "--d", "3"]),
]
IDS = [case[0] for case in CASES]


@lru_cache(maxsize=None)
def _rep(case_id: str):
    argv = ["build", *CASES[IDS.index(case_id)][1], "--seed", "0"]
    return build_representation(argv[1], parse_direct(argv))


# oracle


def oracle_values(ops, A):
    return np.real(np.einsum("nij,ji->n", ops, A))


def oracle_synthesis(values, ops):
    return np.einsum("n,nij->ij", values, ops)


def oracle_pairings(A, B):
    return np.real(np.einsum("nij,mji->nm", A, B))


def close(got, want, scale=1.0):
    np.testing.assert_allclose(got, want, rtol=0, atol=ORACLE_TOL * scale)


# drawn inputs


def _ginibre(data, d: int) -> np.ndarray:
    parts = data.draw(arrays(np.float64, (2, d, d), elements=st.floats(-1, 1)))
    G = parts[0] + 1j * parts[1]
    return G @ G.conj().T


@st.composite
def state_and_effect(draw, d: int):
    data = draw(st.data())
    rho = _ginibre(data, d) + 1e-3 * np.eye(d)
    rho /= np.trace(rho).real
    E = _ginibre(data, d)
    E /= max(1.0, float(np.linalg.eigvalsh(E)[-1]))
    return rho, E


def test_cases_cover_every_cli_representation():
    assert {case[1][0] for case in CASES} == set(FAMILIES)


@pytest.mark.parametrize("case", IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_represent_effect_reconstruct_match_oracle(case, data):
    rep = _rep(case)
    rho, E = data.draw(state_and_effect(rep.dim))
    mu = rep.represent(rho)
    xi = rep.effect(E)
    close(mu.values, oracle_values(rep.frame.operators, rho))
    close(xi.values, oracle_values(rep.dual.operators, E))
    close(rep.reconstruct(mu), oracle_synthesis(mu.values, rep.dual.operators))
    close(reconstruct_effect(xi, rep.frame), oracle_synthesis(xi.values, rep.frame.operators))


@pytest.mark.parametrize("case", IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_deformed_born_matches_oracle(case, data):
    rep = _rep(case)
    rho, E = data.draw(state_and_effect(rep.dim))
    mu = rep.represent(rho)
    xi = represent_state(E, rep.frame)
    K = oracle_pairings(rep.dual.operators, rep.dual.operators)
    want = float(mu.values @ K @ xi.values)
    close(deformed_born(mu, xi, rep.dual), want, scale=max(1.0, np.abs(K).max()))


@pytest.mark.parametrize("case", IDS)
def test_transform_matrix_matches_oracle(case):
    rep = _rep(case)
    ref = wootters(rep.dim) if rep.dim in (2, 3) else rep
    close(transform_matrix(rep.dual, ref.frame), oracle_pairings(rep.dual.operators, ref.frame.operators))
    close(transform_matrix(ref.dual, rep.frame), oracle_pairings(ref.dual.operators, rep.frame.operators))


@pytest.mark.parametrize("case", IDS)
def test_canonical_dual_matches_oracle(case):
    rep = _rep(case)
    close(canonical_dual(rep.frame).operators, frame_oracle.canonical_dual(rep.frame.operators))


@pytest.mark.parametrize("case", IDS)
def test_gram_dual_matches_oracle(case):
    rep = _rep(case)
    if not rep.frame.minimal:
        with pytest.raises(DimensionMismatchError):
            gram_dual(rep.frame)
        return
    close(gram_dual(rep.frame).operators, frame_oracle.gram_dual(rep.frame.operators))


@pytest.mark.parametrize("case", ["stratonovich-0.5", "stratonovich-1"])
def test_stratonovich_dual_matches_oracle(case):
    rep = _rep(case)
    close(rep.dual.operators, frame_oracle.gram_dual(rep.frame.operators))


def test_dual_error_messages_kept():
    B = frame_oracle.hermitian_basis(2)
    with pytest.raises(NotAFrameError, match="lower frame bound .* vanishes; family does not span"):
        canonical_dual(Frame(labels=(0, 1), operators=B[:2]))
    with pytest.raises(SingularBasisError, match="ill conditioned; redraw the points"):
        stratonovich_discrete(0.5, np.tile([0.0, 0.0, 1.0], (4, 1)))
    ops = np.array([B[0], B[0], B[1], B[2]])
    with pytest.raises(SingularBasisError, match="Gram matrix condition number"):
        gram_dual(Frame(labels=tuple(range(4)), operators=ops))


@pytest.mark.parametrize("d", [2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_overlap_deviation_matches_oracle(d, data):
    parts = data.draw(arrays(np.float64, (2, d), elements=st.floats(-1, 1)))
    phi = parts[0] + 1j * parts[1] + 2.0 * (np.arange(d) == 0)  # nonzero
    v = phi / np.linalg.norm(phi)
    overlaps = np.abs(np.einsum("i,kij,j->k", v.conj(), _orbit_stack(d), v)) ** 2
    assert abs(overlap_deviation(d, phi) - np.max(np.abs(overlaps - 1 / (d + 1)))) <= ORACLE_TOL


# analysis and synthesis on the family


@pytest.mark.parametrize("k", [None, 1, 3], ids=["one", "k1", "k3"])
@pytest.mark.parametrize("case", IDS)
def test_analyze_and_synthesize_match_the_oracles(case, k):
    rep = _rep(case)
    rho = _states(rep.dim, 40 + np.arange(1 if k is None else k))
    for family in (rep.frame, rep.dual):
        ops = family.operators
        if k is None:
            values = family.analyze(rho[0])
            assert values.shape == (len(family),)
            close(values, oracle_values(ops, rho[0]))
            close(family.synthesize(values), oracle_synthesis(values, ops))
            continue
        values = family.analyze(rho)
        assert values.shape == (k, len(family))
        np.testing.assert_array_equal(values, batch_oracle.values(family.flat, rho))
        close(values, np.real(np.einsum("nij,kji->kn", ops, rho)))
        back = family.synthesize(values)
        assert back.shape == (k, rep.dim, rep.dim)
        close(back, np.einsum("kn,nij->kij", values, ops))
    assert max(rep.frame.skew, rep.dual.skew) == batch_oracle.hermiticity_residual(rep)


def test_analyze_and_synthesize_refuse_bad_input():
    frame = wootters(3).frame
    with pytest.raises(DimensionMismatchError, match="not real") as err:
        frame.analyze(np.stack([np.eye(3), np.triu(np.ones((3, 3)))]))
    assert "Hermitian" in str(err.value)
    for A in (np.ones(3), np.ones((1, 1, 3, 3)), np.eye(2), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatchError, match="shape"):
            frame.analyze(A)
    for values in (np.ones(8), np.ones((2, 10)), np.ones((2, 2, 9)), np.float64(1.0)):
        with pytest.raises(DimensionMismatchError):
            frame.synthesize(values)


def _skewed(family, rho: np.ndarray, peak: float) -> np.ndarray:
    """rho + iH with H Hermitian, scaled so the largest |Im Tr[A F(lam)]| over the family is ``peak``."""
    H = random_state(family.dim, seed=90)
    return rho + 1j * H * (peak / np.abs(oracle_values(family.operators, H)).max())


@pytest.mark.parametrize("case", IDS)
def test_single_operator_refusals_survive_the_screen(case):
    rep = _rep(case)
    rho = random_state(rep.dim, seed=91)
    for family, analyze in ((rep.frame, rep.represent), (rep.dual, rep.effect)):
        with pytest.raises(DimensionMismatchError, match="not Hermitian"):
            analyze(_skewed(family, rho, 2 * EQ_TOL))
        for peak in (0.4 * EQ_TOL, 0.9 * EQ_TOL):
            A = _skewed(family, rho, peak)
            close(analyze(A).values, oracle_values(family.operators, A))
        # at 0.9 EQ_TOL the imaginary parts fail the screen and still pass the exact rule
        imag = np.imag(np.einsum("nij,ji->n", family.operators, A))
        assert np.linalg.norm(imag) > EQ_TOL / 2 and np.abs(imag).max() <= EQ_TOL
        # 1e200 rho is finite, but its squared norms overflow (numpy warns): the screen fails,
        # tol_for(A) is inf and the exact rule accepts
        with np.errstate(over="ignore"):
            big = analyze(1e200 * rho).values
        assert np.isfinite(big).all()
        np.testing.assert_allclose(big, 1e200 * oracle_values(family.operators, rho), rtol=1e-10, atol=1e190)


@pytest.mark.parametrize("eps,rejected", [(1e-6, True), (1e-8, True), (1e-12, False)])
def test_family_rejects_non_hermitian_stacks(eps, rejected):
    ops = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)
    ops[1, 0, 1] += eps  # F - F^dag has entries eps and -eps: Frobenius norm sqrt(2) eps
    if rejected:
        with pytest.raises(DimensionMismatchError, match="non-Hermitian"):
            Frame(labels=(0, 1), operators=ops)
    else:
        assert Frame(labels=(0, 1), operators=ops).skew == eps


# per-family invariants and read-only stacks


@pytest.mark.parametrize("case", IDS)
def test_flat_view_is_zero_copy_and_stacks_are_read_only(case):
    rep = _rep(case)
    for family in (rep.frame, rep.dual):
        assert np.shares_memory(family.flat, family.operators)
        assert family.flat.shape == (len(family), rep.dim**2)
        assert not family.operators.flags.writeable
    with pytest.raises(ValueError):
        rep.frame.operators[0, 0, 0] = 1
    with pytest.raises(ValueError):
        rep.dual.flat[0, 0] = 1


def test_family_freezes_the_stack_it_is_given():
    ops = np.array(wootters(3).dual.operators)
    assert ops.flags.writeable
    family = Frame(labels=tuple(range(9)), operators=ops)
    assert family.operators is ops
    with pytest.raises(ValueError):
        ops[0, 0, 0] = 1


def test_invariants_checked_once_still_warn_on_every_call():
    rep = wootters(3)
    doubled = Frame(labels=rep.labels, operators=2 * rep.frame.operators)
    halved = Frame(labels=rep.labels, operators=rep.dual.operators / 2)
    for _ in range(2):
        assert represent_state(np.eye(3) / 3, doubled).warnings == ("frame-sum-not-identity",)
        assert represent_effect(np.eye(3) / 2, halved).warnings == ("dual-traces-not-one",)
        assert rep.represent(np.eye(3) / 3).warnings == ()
        assert rep.effect(np.eye(3) / 2).warnings == ()
    assert not doubled.resolves_identity and not halved.unit_traces
    assert rep.frame.resolves_identity and rep.dual.unit_traces


def test_per_call_checks_remain():
    rep = wootters(3)
    with pytest.raises(ValueError, match="not real"):
        rep.represent(np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError, match="not real"):
        rep.effect(np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError, match="shape"):
        rep.represent(np.eye(2))
    other = QuasiDistribution("x", 3, tuple(range(9)), np.full(9, 1 / 9))
    with pytest.raises(ValueError, match="labels"):
        rep.reconstruct(other)
    fn = QuasiDistribution("x", 3, tuple(range(9)), np.ones(9))
    with pytest.raises(ValueError, match="labels"):
        reconstruct_effect(fn, rep.frame)


# coordinates, bounds and duality against the Gell-Mann oracle


@st.composite
def hermitian_stack(draw, d: int):
    n = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return scale * (G + G.conj().transpose(0, 2, 1)) / 2


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 12))
def test_coordinates_pair_and_invert(data, d):
    A = data.draw(hermitian_stack(d))
    B = data.draw(hermitian_stack(d))
    VA = _coordinates(A)
    assert VA.shape == (len(A), d * d) and VA.dtype == np.float64
    close(VA @ _coordinates(B).T, oracle_pairings(A, B), scale=max(1.0, np.abs(A).max() * np.abs(B).max()))
    close(_pairings(A, B), oracle_pairings(A, B), scale=max(1.0, np.abs(A).max() * np.abs(B).max()))
    close(_from_coordinates(VA, d), A, scale=max(1.0, np.abs(A).max()))


@pytest.mark.parametrize("case", IDS)
def test_frame_bounds_and_duality_match_oracle(case):
    rep = _rep(case)
    ops = rep.frame.operators
    vals = np.linalg.eigvalsh(frame_oracle.frame_operator_matrix(ops))
    a, b = frame_bounds(rep.frame)
    close([a, b], [vals[0], vals[-1]], scale=max(1.0, vals[-1]))
    ok, residual = is_dual_pair(rep.frame, rep.dual)
    want_ok, want_residual = frame_oracle.is_dual_pair(ops, rep.dual.operators)
    assert ok == want_ok is True
    assert residual <= ORACLE_TOL and want_residual <= ORACLE_TOL
    rolled = Frame(labels=rep.labels, operators=np.roll(rep.dual.operators, 1, axis=0))
    assert is_dual_pair(rep.frame, rolled)[0] == frame_oracle.is_dual_pair(ops, rolled.operators)[0] is False


# the per-call products call ndarray.dot, the BLAS routine of the @ forms they replaced

STREAM_FAMILIES = {
    "wootters-13": lambda: wootters(13),
    "wootters-2x2": lambda: wootters_composite([2, 2]),
    "ghw-2-3": lambda: ghw(2, 3),
    "hardy-8": lambda: hardy_rep(8),
    "sic-4": lambda: sic_rep(4),
    "havel-3": lambda: havel_rep(3),
    "mub-7": lambda: mub_family(7).representation(),
}


def _matmul_analyze(family, A):
    """Single ``analyze`` in its ``@`` form: the flat GEMV, or the label map's grid-ordered tables."""
    lm = family.label_map
    if lm is None:
        return (family.flat @ A.T.reshape(-1)).real
    Y = (A.ravel()[lm.gather].view(float) @ lm.dft).view(complex)
    return (Y.T if lm.transposed else Y).ravel().real


def _matmul_synthesize(family, v):
    lm, d = family.label_map, family.dim
    if lm is None:
        return (v @ family.flat).reshape(d, d)
    mirror, sign = lm.mirror
    V = v.reshape(d, d)
    M = ((((V.T if lm.transposed else V) @ lm.half_dft).reshape(-1)[mirror]) * sign).view(complex)
    M[::d + 1].imag = 0.0
    return M.reshape(d, d)


def _matmul_synthesize_stack(family, v):
    lm, d, k = family.label_map, family.dim, len(v)
    if lm is None:
        return (v @ family.flat).reshape(k, d, d)
    mirror, sign = lm.mirror
    V = v.reshape(k, d, d)
    V = (V.transpose(0, 2, 1) if lm.transposed else V).reshape(k * d, d)
    M = (np.stack([row[mirror] for row in (V @ lm.half_dft).reshape(k, -1)]) * sign).view(complex)
    M[:, ::d + 1].imag = 0.0
    return M.reshape(k, d, d)


@pytest.mark.parametrize("name", sorted(STREAM_FAMILIES))
def test_single_operator_pairings_equal_their_matmul_forms_bit_for_bit(name):
    rep = STREAM_FAMILIES[name]()
    rho, E = _states(rep.dim, [70, 71])
    for family, A in ((rep.frame, rho), (rep.dual, E)):
        values = family.analyze(A)
        np.testing.assert_array_equal(values, _matmul_analyze(family, A))
        np.testing.assert_array_equal(family.synthesize(values), _matmul_synthesize(family, values))
    mu, xi = rep.represent(rho), rep.effect(E)
    assert born_pair(mu, xi) == float(mu.values @ xi.values)


# the four label-mapped families at every odd d <= 45 (Wootters at the primes), one and k at a time;
# a stack is analyzed on the flat view, as in every family

PARITY_FAMILIES = {"wootters": wootters, "cohendet": cohendet, "leonhardt": leonhardt, "ruzzi": ruzzi_s0}
ODD_TO_45 = range(3, 46, 2)
parity_case = st.one_of(
    st.tuples(st.just("wootters"), st.sampled_from([d for d in ODD_TO_45 if all(d % k for k in range(3, d, 2))])),
    st.tuples(st.sampled_from(["cohendet", "leonhardt", "ruzzi"]), st.sampled_from(ODD_TO_45)),
)


@lru_cache(maxsize=1)
def _parity_rep(family: str, d: int):
    return PARITY_FAMILIES[family](d)


@settings(max_examples=40, deadline=None)
@given(case=parity_case, k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_label_map_pairings_equal_their_matmul_forms_and_the_dense_stack(case, k, seed):
    rep = _parity_rep(*case)
    rng = np.random.default_rng(seed)
    A = _states(rep.dim, rng.integers(0, 10**6, size=k))
    for family in (rep.frame, rep.dual):
        ops = family.operators
        one, many = family.analyze(A[0]), family.analyze(A)
        np.testing.assert_array_equal(one, _matmul_analyze(family, A[0]))
        np.testing.assert_array_equal(many, batch_oracle.values(family.flat, A))
        close(one, oracle_values(ops, A[0]))
        close(many, np.real(np.einsum("nij,kji->kn", ops, A)))
        v = rng.standard_normal((k, len(family)))
        one, many = family.synthesize(v[0]), family.synthesize(v)
        np.testing.assert_array_equal(one, _matmul_synthesize(family, v[0]))
        np.testing.assert_array_equal(many, _matmul_synthesize_stack(family, v))
        close(one, oracle_synthesis(v[0], ops))
        close(many, np.einsum("kn,nij->kij", v, ops))
