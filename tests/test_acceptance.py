"""Release gate: the flagship properties, one test (and one line) per claim.

Run with ``pytest tests/test_acceptance.py -v -s`` for a line-per-criterion
readout.  Every tolerance here is a published contract; loosening one is a
release decision, not a test fix.
"""

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
from qframe.cli import FAMILIES
from qframe.cli import main as cli_main
from qframe.frames import QuasiDistribution, born_pair, deformed_born, is_dual_pair
from qframe.operators import (
    bloch_state,
    random_effect,
    random_pure_state,
    random_state,
    tensor,
    trace_inner,
)
from qframe.representations import (
    cohendet,
    ghw,
    hardy_rep,
    havel_rep,
    leonhardt,
    mub_family,
    mub_table,
    mub_transition,
    random_constellation,
    ruzzi_s0,
    sic_rep,
    stratonovich_discrete,
    striation_pvms,
    tetrahedral_constellation,
    wootters,
    wootters_aligned_net,
    wootters_composite,
)

MAGIC = 1.0 / np.sqrt(3.0)


def _stratonovich_one():
    points, _ = random_constellation(1.0, seed=13)
    return stratonovich_discrete(1.0, points)


FACTORY_INSTANCES = [
    ("wootters-2", lambda: wootters(2)),
    ("wootters-3", lambda: wootters(3)),
    ("wootters-5", lambda: wootters(5)),
    ("wootters-2x2", lambda: wootters_composite([2, 2])),
    ("ghw-3", lambda: ghw(3, 1)),
    ("ghw-4", lambda: ghw(2, 2)),
    ("cohendet-3", lambda: cohendet(3)),
    ("cohendet-5", lambda: cohendet(5)),
    ("leonhardt-2", lambda: leonhardt(2)),
    ("leonhardt-3", lambda: leonhardt(3)),
    ("stratonovich-1/2", lambda: stratonovich_discrete(0.5, tetrahedral_constellation())),
    ("stratonovich-1", _stratonovich_one),
    ("ruzzi-3", lambda: ruzzi_s0(3)),
    ("mub-2", lambda: mub_family(2).representation()),
    ("mub-3", lambda: mub_family(3).representation()),
    ("mub-5", lambda: mub_family(5).representation()),
    ("hardy-2", lambda: hardy_rep(2)),
    ("hardy-3", lambda: hardy_rep(3)),
    ("havel-1", lambda: havel_rep(1)),
    ("havel-2", lambda: havel_rep(2)),
    ("sic-2", lambda: sic_rep(2)),
    ("sic-3", lambda: sic_rep(3)),
]


def test_factory_instances_cover_every_cli_representation():
    assert {name.split("-")[0] for name, _ in FACTORY_INSTANCES} == set(FAMILIES)


@pytest.fixture(scope="module")
def reps():
    return {name: make() for name, make in FACTORY_INSTANCES}


def _line(num: int, text: str) -> None:
    print(f"PASS criterion {num:02d}: {text}")


def _points(rep):
    return {lab: rep.dual.operators[i] for i, lab in enumerate(rep.labels)}


def test_c01_point_operator_orthogonality():
    for rep, d in [(wootters(2), 2), (wootters(3), 3), (wootters(5), 5),
                   (wootters_composite([2, 2]), 4)]:
        A = rep.dual.operators
        gram = np.real(np.einsum("aij,bji->ab", A, A))
        assert np.max(np.abs(gram - d * np.eye(len(A)))) < 1e-10
    _line(1, "Tr(A_a A_b) = d delta at d in {2,3,5} and 4 delta on the 2x2 lattice")


def test_c02_line_sums_equal_born_probabilities():
    worst = 0.0
    for rep in [wootters(2), wootters(3), wootters(5), ghw(2, 2)]:
        pvms = striation_pvms(rep)
        index = {pt: i for i, pt in enumerate(rep.labels)}
        for k in range(50):
            rho = random_state(rep.dim, seed=100 + k)
            mu = rep.represent(rho)
            for s, lines in enumerate(rep.geometry.striations):
                for c, li in enumerate(lines):
                    line_sum = sum(mu.values[index[pt]] for pt in rep.geometry.lines[li])
                    born = trace_inner(rho, pvms[s][c])
                    worst = max(worst, abs(line_sum - born))
    assert worst < 1e-9
    _line(2, f"line sums match striation Born probabilities, worst {worst:.2e}")


def test_c03_two_qubit_negativity_threshold_and_ppt_agreement():
    rep = wootters_composite([2, 2])
    extreme = tensor(bloch_state(0, 0, 1), bloch_state(MAGIC, MAGIC, MAGIC))
    v = franco_penna(rep.represent(extreme))
    assert abs(v.min_value - (1 - np.sqrt(3)) / 8) < 1e-10
    assert abs(FRANCO_PENNA_THRESHOLD - (1 - np.sqrt(3)) / 8) < 1e-15

    singlet = np.zeros((4, 4), dtype=complex)
    vec = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    singlet = np.outer(vec, vec.conj())
    s = franco_penna(rep.represent(singlet))
    assert s.min_value < FRANCO_PENNA_THRESHOLD
    assert s.verdict == "entangled"

    conclusive = 0
    for seed in range(500):
        rho = random_state(4, rank=1 + seed % 4, seed=seed)
        fp = franco_penna(rep.represent(rho))
        if fp.verdict == "entangled":
            conclusive += 1
            assert ppt_separability_two_qubit(rho).verdict == "entangled"
    assert conclusive > 50
    _line(3, f"threshold (1-sqrt3)/8 exact; PPT agreed on {conclusive}/500 conclusive states")


def test_c04_duality_everywhere(reps):
    worst = 0.0
    for name, rep in reps.items():
        ok, residual = is_dual_pair(rep.frame, rep.dual)
        assert ok and residual < 1e-9, (name, residual)
        worst = max(worst, residual)
    _line(4, f"frame/dual duality holds for all {len(reps)} instances, worst {worst:.2e}")


def test_c05_born_rule_and_deformed_pairing(reps):
    worst = 0.0
    for name, rep in reps.items():
        for k in range(200):
            rho = random_state(rep.dim, seed=2 * k)
            E = random_effect(rep.dim, seed=2 * k + 1)
            err = abs(born_pair(rep.represent(rho), rep.effect(E)) - trace_inner(rho, E))
            assert err < 1e-8, (name, k, err)
            worst = max(worst, err)
    for d in (2, 3):
        rep = reps[f"sic-{d}"]
        for k in range(50):
            rho = random_state(d, seed=3 * k)
            E = random_effect(d, seed=3 * k + 1)
            mu = rep.represent(rho)
            xi = QuasiDistribution(
                representation=rep.name,
                dim=d,
                labels=rep.frame.labels,
                values=[trace_inner(E, F) for F in rep.frame.operators],
            )
            err = abs(deformed_born(mu, xi, rep.dual) - trace_inner(rho, E))
            assert err < 1e-8, (d, k, err)
            worst = max(worst, err)
    _line(5, f"Born pairing (and deformed pairing on the equiangular frame), worst {worst:.2e}")


def test_c06_every_representation_has_a_negativity_witness(reps):
    kinds = {}
    for name, rep in reps.items():
        w = negativity_witness(rep, tol=1e-6)
        assert w["found"], f"{name} looks fully classical"
        if w["kind"] == "state":
            assert w["value"] < -1e-6
        else:
            assert w["value"] < -1e-6 or w["value"] > 1 + 1e-6
        kinds[name] = w["kind"]
    n_state = sum(1 for k in kinds.values() if k == "state")
    _line(6, f"all {len(kinds)} instances witness negativity "
             f"({n_state} state-side, {len(kinds) - n_state} effect-side)")


def test_c07_unbiased_bases_and_transition_rule():
    worst = 0.0
    for d in (2, 3, 5):
        bases = mub_family(d).bases
        for i in range(len(bases)):
            for j in range(len(bases)):
                ov = np.abs(bases[i].conj().T @ bases[j]) ** 2
                want = np.eye(d) if i == j else np.full((d, d), 1.0 / d)
                worst = max(worst, float(np.max(np.abs(ov - want))))
    assert worst < 1e-9

    fam = mub_family(3)
    trans_worst = 0.0
    for k in range(100):
        r1 = random_state(3, seed=500 + 2 * k)
        r2 = random_state(3, seed=501 + 2 * k)
        got = mub_transition(mub_table(r1, fam), mub_table(r2, fam))
        trans_worst = max(trans_worst, abs(got - trace_inner(r1, r2)))
    assert trans_worst < 1e-9

    for d in (2, 3, 5):
        fam = mub_family(d)
        psi = random_pure_state(d, seed=7)
        t = mub_table(np.outer(psi, psi.conj()), fam)
        assert abs(mub_transition(t, t) - 1.0) < 1e-9
    _line(7, f"unbiasedness within {worst:.2e}; transition rule within {trans_worst:.2e}; "
             "pure self-transition = 1")


def test_c08_equiangular_overlaps_and_round_trip(reps):
    for d in (2, 3):
        rep = reps[f"sic-{d}"]
        assert rep.meta["overlap_deviation"] < 1e-8
        worst = 0.0
        for k in range(25):
            rho = random_state(d, seed=900 + k)
            back = rep.reconstruct(rep.represent(rho))
            worst = max(worst, float(np.max(np.abs(back - rho))))
        assert worst < 1e-8
    _line(8, "equiangular overlaps at 1/(d+1) and exact reconstruction, d in {2,3}")


def test_c09_spin_ensemble_classicality_bound():
    for n in (1, 2):
        eps = 1.0 / (1.0 + 2.0 ** (2 * n - 1))
        at_bound = nmr_classicality(n, eps)
        assert at_bound.tuple_count >= 10_000
        assert at_bound.sampled_min >= -1e-8
        assert at_bound.classical

        above = nmr_classicality(n, 1.1 * eps)
        assert above.sampled_min < 0.0
        assert not above.classical
    _line(9, "polarization bound 1/(1+2^(2n-1)) is tight for n in {1,2}")


def test_c10_teleportation_displacement_identity():
    worst = 0.0
    for d in (3, 5):
        rho = random_state(d, rank=1, seed=21)
        for a in range(d):
            for b in range(d):
                out = teleport_phase_space(d, rho, (a, b))
                worst = max(worst, out.displacement_residual)
    assert worst < 1e-9
    _line(10, f"phase-space teleportation is a pure displacement, worst residual {worst:.2e}")


def test_c11_cross_representation_equivalences():
    for d in (3, 5):
        woo = _points(wootters(d))
        coh = _points(cohendet(d))
        for (q, p), op in coh.items():
            assert np.max(np.abs(op - woo[((-q) % d, p)])) < 1e-10

    for d in (3, 5):
        coh = _points(cohendet(d))
        leo = _points(leonhardt(d))
        for (q, p), op in leo.items():
            assert np.max(np.abs(op - coh[((-q) % d, p)])) < 1e-10

    for p in (2, 3, 5):
        aligned = _points(ghw(p, 1, net=wootters_aligned_net(p)))
        woo = _points(wootters(p))
        for lab, op in aligned.items():
            assert np.max(np.abs(op - woo[lab])) < 1e-10
    _line(11, "lattice reflections and the aligned field net identify the three constructions")


def test_c12_bell_violation_at_the_frozen_angles():
    r = bell_wigner_demo(0.0, np.pi / 3, 2 * np.pi / 3)
    assert abs(r["lhs"] - 1.0) < 1e-10
    assert abs(r["rhs"] - 0.5) < 1e-10
    assert r["violated"]
    _line(12, "at (0, 60, 120) degrees: lhs 1.0 > rhs 0.5")


def test_c13_cli_byte_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["build", "wootters", "--d", "3", "--out", str(a)]) == 0
    assert cli_main(["build", "wootters", "--d", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("wootters-d3-frame.json", "wootters-d3-dual.json",
                 "wootters-d3-geometry.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    runs = []
    for _ in range(2):
        assert cli_main(["represent", "sic", "--d", "2", "--pure", "4"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    runs = []
    for _ in range(2):
        assert cli_main(["demo", "teleport", "--d", "3", "--seed", "5"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    _line(13, "equal seeds give byte-identical artifacts and stdout")
