"""Entanglement, classicality, teleportation, and inequality diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

from qframe.analysis import (
    FRANCO_PENNA_THRESHOLD,
    bell_wigner_demo,
    franco_penna,
    negativity_witness,
    nmr_classicality,
    ppt_separability_two_qubit,
    teleport_phase_space,
)
from qframe.cli import main
from qframe.errors import DimensionMismatchError, UnsupportedDimensionError
from qframe.frames import Frame
from qframe.operators import (
    bloch_state,
    maximally_mixed,
    random_pure_state,
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
    ruzzi_s0,
    sic_rep,
    stratonovich_discrete,
    tetrahedral_constellation,
    wootters,
    wootters_composite,
)

MAGIC = 1.0 / np.sqrt(3.0)


def singlet_state():
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


# two-qubit lattice witness


def test_threshold_value():
    assert abs(FRANCO_PENNA_THRESHOLD - (1 - np.sqrt(3)) / 8) < 1e-15
    assert abs(FRANCO_PENNA_THRESHOLD + 0.0915063509) < 1e-9


def test_separable_extreme_is_inconclusive():
    # the most negative product distribution sits exactly at the threshold
    rep = wootters_composite([2, 2])
    rho = tensor(bloch_state(0, 0, 1), bloch_state(MAGIC, MAGIC, MAGIC))
    verdict = franco_penna(rep.represent(rho))
    assert abs(verdict.min_value - FRANCO_PENNA_THRESHOLD) < 1e-12
    assert verdict.verdict == "inconclusive"
    assert verdict.method == "lattice-negativity"


def test_singlet_is_entangled():
    rep = wootters_composite([2, 2])
    verdict = franco_penna(rep.represent(singlet_state()))
    assert abs(verdict.min_value + 0.125) < 1e-12
    assert verdict.min_value < FRANCO_PENNA_THRESHOLD
    assert verdict.verdict == "entangled"


def test_maximally_mixed_is_inconclusive():
    rep = wootters_composite([2, 2])
    verdict = franco_penna(rep.represent(maximally_mixed(4)))
    assert abs(verdict.min_value - 1 / 16) < 1e-12
    assert verdict.verdict == "inconclusive"


def test_rejects_single_qudit_distribution():
    mu = wootters(3).represent(maximally_mixed(3))
    with pytest.raises(DimensionMismatchError):
        franco_penna(mu)


@pytest.mark.parametrize("change,message", [
    ({"labels": (((0, 0), (0, 0)),) * 16}, "two-qubit product lattice"),  # 16 copies of one lattice point
    ({"representation": "ghw"}, "distribution came from 'ghw', not 'wootters'"),
    ({"dim": 3}, "two-qubit product lattice"),
], ids=["duplicated-labels", "name", "dim"])
def test_rejects_a_distribution_off_the_two_qubit_lattice(change, message):
    mu = wootters_composite([2, 2]).represent(maximally_mixed(4))
    franco_penna(mu)
    with pytest.raises(DimensionMismatchError, match=message):
        franco_penna(replace(mu, **change))


def test_rejects_the_lattice_labels_in_another_order():
    # the values sit on the lattice's labels in its own order; reversed, each value names another point
    mu = wootters_composite([2, 2]).represent(singlet_state())
    with pytest.raises(DimensionMismatchError, match="two-qubit product lattice"):
        franco_penna(replace(mu, labels=mu.labels[::-1]))


# partial-transpose test


def test_transpose_test_on_singlet():
    verdict = ppt_separability_two_qubit(singlet_state())
    assert verdict.verdict == "entangled"
    assert abs(verdict.min_value + 0.5) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_transpose_test_on_products(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(3)
    b = rng.standard_normal(3)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    rho = tensor(bloch_state(*a), bloch_state(*b))
    assert ppt_separability_two_qubit(rho).verdict == "separable"


def test_transpose_test_boundary_mixture():
    # visibility sweep of singlet + white noise flips right at 1/3
    def werner(v):
        return v * singlet_state() + (1 - v) * maximally_mixed(4)

    assert ppt_separability_two_qubit(werner(1 / 3 - 1e-6)).verdict == "separable"
    assert ppt_separability_two_qubit(werner(1 / 3 + 1e-6)).verdict == "entangled"
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = (lo + hi) / 2
        if ppt_separability_two_qubit(werner(mid)).verdict == "separable":
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2 - 1 / 3) < 1e-6


def test_product_of_negative_factors_keeps_negative_lattice_minima():
    # both lattice minima can be negative for a separable state, so the
    # verdict must come from the transpose spectrum, not the minima
    rho = tensor(bloch_state(MAGIC, MAGIC, MAGIC), bloch_state(MAGIC, MAGIC, MAGIC))
    verdict = ppt_separability_two_qubit(rho)
    assert verdict.verdict == "separable"
    assert verdict.diagnostics["dwf_min"] < -1e-3
    assert verdict.diagnostics["dwf_min_partial_transpose"] < -1e-3
    assert verdict.diagnostics["dwf_criterion_separable"] is False


def test_transpose_test_rejects_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        ppt_separability_two_qubit(maximally_mixed(3))


def test_lattice_witness_agrees_with_transpose_test():
    # rank cycling keeps a healthy share of strongly negative states; the
    # negativity witness is conclusive only on those
    rep = wootters_composite([2, 2])
    checked = 0
    for seed in range(500):
        rho = random_state(4, rank=1 + seed % 4, seed=seed)
        fp = franco_penna(rep.represent(rho))
        if fp.verdict == "entangled":
            checked += 1
            assert ppt_separability_two_qubit(rho).verdict == "entangled"
    assert checked > 50


# nonclassicality witnesses


WITNESS_FACTORIES = [
    ("wootters-2", lambda: wootters(2)),
    ("wootters-3", lambda: wootters(3)),
    ("wootters-5", lambda: wootters(5)),
    ("wootters-22", lambda: wootters_composite([2, 2])),
    ("ghw-3", lambda: ghw(3, 1)),
    ("ghw-4", lambda: ghw(2, 2)),
    ("cohendet-3", lambda: cohendet(3)),
    ("cohendet-5", lambda: cohendet(5)),
    ("leonhardt-2", lambda: leonhardt(2)),
    ("leonhardt-3", lambda: leonhardt(3)),
    ("stratonovich", lambda: stratonovich_discrete(0.5, tetrahedral_constellation())),
    ("ruzzi-3", lambda: ruzzi_s0(3)),
    ("mub-2", lambda: mub_family(2).representation()),
    ("mub-3", lambda: mub_family(3).representation()),
    ("hardy-2", lambda: hardy_rep(2)),
    ("hardy-3", lambda: hardy_rep(3)),
    ("havel-1", lambda: havel_rep(1)),
    ("havel-2", lambda: havel_rep(2)),
    ("sic-2", lambda: sic_rep(2)),
    ("sic-3", lambda: sic_rep(3)),
]


@pytest.mark.parametrize("name,build", WITNESS_FACTORIES, ids=[n for n, _ in WITNESS_FACTORIES])
def test_every_factory_has_a_witness(name, build):
    rep = build()
    w = negativity_witness(rep)
    assert w["found"]
    if w["kind"] == "state":
        assert w["value"] < -1e-6
    else:
        assert w["value"] < -1e-6 or w["value"] > 1 + 1e-6


def test_positive_frames_witness_on_the_effect_side():
    for name in ("mub", "sic", "hardy"):
        rep = {"mub": mub_family(2).representation(), "sic": sic_rep(2), "hardy": hardy_rep(2)}[name]
        assert negativity_witness(rep)["kind"] == "effect"


def _perturbed(rep, seed, size=1e-15):
    """The pair with Hermitian noise of the given size added to every frame and dual operator."""
    rng = np.random.default_rng(seed)

    def noisy(fam):
        X = rng.standard_normal(fam.operators.shape) + 1j * rng.standard_normal(fam.operators.shape)
        ops = fam.operators + size * (X + X.conj().transpose(0, 2, 1)) / 2
        return fam.__class__(rep.labels, ops, rep.name)

    return Representation(frame=noisy(rep.frame), dual=noisy(rep.dual), geometry=rep.geometry)


def test_witness_ties_go_to_the_first_label():
    # all 16 ghw(2,2) frame operators share the lowest eigenvalue -1/8 up to round-off
    rep = ghw(2, 2)
    lowest = np.linalg.eigvalsh(rep.frame.operators)[:, 0]
    assert np.ptp(lowest) < 1e-14
    w = negativity_witness(rep)
    assert w["label"] == rep.labels[0]
    assert abs(w["value"] + 0.125) < 1e-12
    for seed in range(8):
        assert negativity_witness(_perturbed(rep, seed))["label"] == w["label"]


# each picks its witness in a degenerate eigenspace: the Wootters, Ruzzi and
# GHW point operators and the SIC and MUB duals
@pytest.mark.parametrize("build", [
    lambda: wootters(5), lambda: wootters(7), lambda: ruzzi_s0(5), lambda: ghw(2, 2),
    lambda: sic_rep(4), lambda: sic_rep(5), lambda: mub_family(3).representation(),
], ids=["wootters-5", "wootters-7", "ruzzi-5", "ghw-4", "sic-4", "sic-5", "mub-3"])
def test_witness_is_stable_under_round_off(build):
    rep = build()
    w = negativity_witness(rep)
    for seed in range(3):
        v = negativity_witness(_perturbed(rep, seed, size=1e-14))
        assert (v["kind"], v["label"]) == (w["kind"], w["label"])
        assert np.max(np.abs(v["witness"] - w["witness"])) < 1e-9


def test_witness_vector_is_canonical_in_its_eigenspace():
    # sic_rep(4)'s duals have eigenvalue -1 three times; the witness is the
    # eigenvector closest to the first standard basis vector with weight on
    # that eigenspace: |<e_k|v>|^2 equals the eigenspace projector's P[k, k]
    rep = sic_rep(4)
    w = negativity_witness(rep)
    assert w["kind"] == "effect"
    vals, vecs = np.linalg.eigh(rep.dual.operators[rep.labels.index(w["label"])])
    V = vecs[:, np.abs(vals - vals[0]) < 1e-9]
    assert V.shape[1] == 3
    P = V @ V.conj().T
    k = int(np.flatnonzero(np.diag(P).real > 1e-6)[0])
    W = w["witness"]
    assert np.allclose(W @ W, W, atol=1e-12) and abs(np.trace(W).real - 1) < 1e-12
    assert np.allclose(P @ W, W, atol=1e-12)
    assert abs(W[k, k].real - P[k, k].real) < 1e-12


def test_witness_values_qubit_lattice():
    w = negativity_witness(wootters(2))
    assert w["kind"] == "state"
    assert abs(w["value"] - (1 - np.sqrt(3)) / 4) < 1e-10


def test_plus_x_state_nonnegative():
    mu = wootters(2).represent(bloch_state(1, 0, 0))
    assert mu.values.min() >= -1e-12


# sampled classicality of depolarized registers


def test_bound_values():
    assert abs(nmr_classicality(1, 0.1).epsilon_bound - 1 / 3) < 1e-15
    assert abs(nmr_classicality(2, 0.1).epsilon_bound - 1 / 9) < 1e-15
    assert abs(nmr_classicality(3, 0.05).epsilon_bound - 1 / 33) < 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_at_bound_sampled_nonnegative(n):
    bound = 1 / (1 + 2 ** (2 * n - 1))
    report = nmr_classicality(n, bound)
    assert report.tuple_count >= 10**4
    assert report.sampled_min >= -1e-8
    assert report.classical


@pytest.mark.parametrize("n", [1, 2])
def test_above_bound_goes_negative(n):
    bound = 1 / (1 + 2 ** (2 * n - 1))
    report = nmr_classicality(n, 1.1 * bound)
    assert report.sampled_min < 0
    assert not report.classical
    assert report.bound_respected


def test_zero_noise_is_uniform():
    report = nmr_classicality(2, 0.0)
    want = (1 / (4 * np.pi)) ** 2
    assert abs(report.sampled_min - want) < 1e-12
    # so is any noise on a maximally mixed rho1: rho = (1 - eps) I/4 + eps I/4 = I/4
    report = nmr_classicality(2, 0.5, rho1=maximally_mixed(4))
    assert abs(report.sampled_min - want) <= 1e-15
    assert report.bound_respected


@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_a_product_basis_rho1_is_classical_up_to_the_bound(eps):
    # |00><00| on either side of the n = 2 bound 1/9: the sampled minimum changes sign where classical does
    rho1 = np.zeros((4, 4), dtype=complex)
    rho1[0, 0] = 1.0
    report = nmr_classicality(2, eps, rho1=rho1)
    assert report.bound_respected
    assert report.classical == (eps <= report.epsilon_bound) == (eps < 1 / 9)
    assert (report.sampled_min >= 0) == report.classical


def test_sampled_min_respects_analytic_bound():
    for eps in (0.2, 0.5, 1.0):
        report = nmr_classicality(1, eps)
        assert report.sampled_min >= report.analytic_min - 1e-10
        # the tensor-power state plus the diagonal grid point saturates it
        assert report.sampled_min <= report.analytic_min + 1e-10


def test_register_and_epsilon_validation():
    with pytest.raises(UnsupportedDimensionError):
        nmr_classicality(4, 0.1)
    # the register sizes are the keys of the default grid table, so a size between them is refused too
    with pytest.raises(UnsupportedDimensionError):
        nmr_classicality(2.5, 0.1)
    # a size that equals a register size but is not an integer is refused, a bool among them
    for size in (2.0, True):
        with pytest.raises(UnsupportedDimensionError, match="must be an integer"):
            nmr_classicality(size, 0.1)
    with pytest.raises(ValueError):
        nmr_classicality(1, 1.5)
    with pytest.raises(DimensionMismatchError):
        nmr_classicality(2, 0.1, rho1=maximally_mixed(2))


# phase-space teleportation


def test_lattices_are_built_once_per_process(monkeypatch):
    import qframe.analysis as A

    builds = []
    monkeypatch.setattr(A, "wootters", lambda d: builds.append(d) or wootters(d))
    A._lattice.cache_clear()
    try:
        rho = random_state(3, rank=1, seed=4)
        for a in range(3):
            for b in range(3):
                teleport_phase_space(3, rho, (a, b))
        assert builds == [3]
    finally:
        A._lattice.cache_clear()


def test_the_lattice_cache_keeps_two_lattices():
    import qframe.analysis as A

    A._lattice.cache_clear()
    try:
        for d in (3, 5, 7, 11):
            teleport_phase_space(d, random_state(d, rank=1, seed=d), (1, 0))
        franco_penna(A._lattice((2, 2)).represent(random_state(4, seed=1)))
        assert A._lattice.cache_info().currsize <= 2
    finally:
        A._lattice.cache_clear()


def test_identity_outcome_reproduces_input():
    rho = random_state(3, seed=11)
    out = teleport_phase_space(3, rho, (0, 0))
    mu_in = wootters(3).represent(rho)
    assert out.displacement_residual < 1e-10
    assert np.allclose(out.mu_out.values, mu_in.values, atol=1e-10)


@pytest.mark.parametrize("d", [3, 5])
def test_all_outcomes_displace(d):
    rho = random_state(d, rank=1, seed=21)
    for a in range(d):
        for b in range(d):
            out = teleport_phase_space(d, rho, (a, b))
            assert out.displacement_residual < 1e-9
            assert abs(out.probability - 1 / d**2) < 1e-10


def test_corrections_complete_the_protocol():
    d = 3
    rho = random_state(d, seed=33)
    acc = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            out = teleport_phase_space(d, rho, (a, b))
            C = weyl_monomials(d, a, b)[0].T
            acc += out.probability * (C @ out.state_out @ C.conj().T)
    assert np.allclose(acc, rho, atol=1e-10)


def test_even_and_composite_dimensions_rejected():
    with pytest.raises(UnsupportedDimensionError):
        teleport_phase_space(2, maximally_mixed(2), (0, 0))
    with pytest.raises(UnsupportedDimensionError):
        teleport_phase_space(9, maximally_mixed(9), (0, 0))


# singlet correlations


def test_demo_violation_angles():
    r = bell_wigner_demo(0.0, np.pi / 3, 2 * np.pi / 3)
    assert abs(r["lhs"] - 1.0) < 1e-10
    assert abs(r["rhs"] - 0.5) < 1e-10
    assert r["violated"]


def test_demo_no_violation_angles():
    r = bell_wigner_demo(0.0, np.pi / 2, np.pi)
    assert abs(r["lhs"] - 1.0) < 1e-10
    assert abs(r["rhs"] - 1.0) < 1e-10
    assert not r["violated"]


def test_equal_axes_saturate():
    r = bell_wigner_demo(0.7, 0.7, 1.9)
    assert abs(r["C_ab"] + 1.0) < 1e-12
    assert abs(r["lhs"] - r["rhs"]) < 1e-12
    assert not r["violated"]


def test_correlations_match_cosine():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c = rng.uniform(0, 2 * np.pi, size=3)
        r = bell_wigner_demo(a, b, c)
        assert abs(r["C_ab"] + np.cos(a - b)) < 1e-12
        assert abs(r["C_bc"] + np.cos(b - c)) < 1e-12


def test_violation_exists_on_degree_grid():
    gaps = []
    for deg in range(1, 180):
        b = np.deg2rad(deg)
        r = bell_wigner_demo(0.0, b, 2 * b)
        gaps.append(r["lhs"] - r["rhs"])
    assert max(gaps) > 0


@pytest.mark.parametrize("angles", [(0.0, np.pi / 3, np.nan), (np.inf, 0.0, 1.0), (0.0, -np.inf, 1.0)])
def test_demo_refuses_non_finite_angles(angles):
    with pytest.raises(ValueError, match="angles must be finite"):
        bell_wigner_demo(*angles)


def test_demo_bell_stdout_is_pinned(capsys):
    assert main(["demo", "bell"]) == 0
    assert capsys.readouterr().out == (
        '{"C_ab": -5.000000000000e-01, "C_ac": 5.000000000000e-01, "C_bc": -5.000000000000e-01, '
        '"angles_degrees": [0.000000000000e+00, 6.000000000000e+01, 1.200000000000e+02], '
        '"demo": "bell", "lhs": 1.000000000000e+00, "rhs": 5.000000000000e-01, "violated": true}\n'
    )


def test_a_rho1_that_is_not_a_density_operator_is_refused():
    with pytest.raises(ValueError, match="rho1 must be a density operator"):
        nmr_classicality(1, 0.1, rho1=-np.eye(2) / 2)


def test_a_state_of_another_dimension_is_refused_by_teleportation():
    with pytest.raises(DimensionMismatchError, match="state must be 3 x 3"):
        teleport_phase_space(3, np.eye(2) / 2, (0, 0))
