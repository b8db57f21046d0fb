"""Property-verification suite reports."""

from dataclasses import replace

import numpy as np
import pytest

from qframe.errors import DimensionMismatchError
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
from qframe.verify import verify_representation

FACTORIES = [
    ("wootters-2", lambda: wootters(2)),
    ("wootters-22", lambda: wootters_composite([2, 2])),
    ("ghw-9", lambda: ghw(3, 2)),
    ("cohendet-3", lambda: cohendet(3)),
    ("leonhardt-2", lambda: leonhardt(2)),
    ("leonhardt-3", lambda: leonhardt(3)),
    ("stratonovich-half", lambda: stratonovich_discrete(0.5, tetrahedral_constellation())),
    ("ruzzi-3", lambda: ruzzi_s0(3)),
    ("mub-3", lambda: mub_family(3).representation()),
    ("hardy-2", lambda: hardy_rep(2)),
    ("havel-1", lambda: havel_rep(1)),
    ("sic-2", lambda: sic_rep(2)),
]


UNIVERSAL = [("hermitian_families", 1e-10), ("duality", 1e-9), ("born_consistency", 1e-8),
             ("round_trip", 1e-8)]
LINES = [("striation_projectors", 1e-9), ("line_sums_match_born", 1e-9)]
# (name, tolerance) of every check, in report order
EXPECTED_CHECKS = {
    "wootters-2": UNIVERSAL + LINES,
    "wootters-22": UNIVERSAL + LINES,
    "ghw-9": UNIVERSAL + LINES,
    "cohendet-3": UNIVERSAL + LINES + [("extended_nonnegativity", 1e-10)],
    "leonhardt-2": UNIVERSAL,
    "leonhardt-3": UNIVERSAL + LINES,
    "stratonovich-half": UNIVERSAL + [("dual_resolves_identity", 1e-8)],
    "ruzzi-3": UNIVERSAL + LINES,
    "mub-3": UNIVERSAL + [("pairwise_unbiasedness", 1e-9)],
    "hardy-2": UNIVERSAL,
    "havel-1": UNIVERSAL,
    "sic-2": UNIVERSAL + [("overlap_deviation", 1e-8)],
}


@pytest.mark.parametrize("name,make", FACTORIES, ids=[n for n, _ in FACTORIES])
def test_suite_passes(name, make):
    report = verify_representation(make(), seed=3, samples=40)
    assert report["all_passed"], [c for c in report["checks"] if not c["passed"]]
    assert report["seed"] == 3
    assert report["samples"] == 40
    assert [(c["name"], c["tolerance"]) for c in report["checks"]] == EXPECTED_CHECKS[name]
    for c in report["checks"]:
        assert set(c) == {"name", "residual", "tolerance", "passed"}
        assert c["residual"] >= 0.0


def test_conditional_checks_present():
    names = lambda rep: [c["name"] for c in verify_representation(rep, samples=5)["checks"]]
    w = names(wootters(3))
    assert "striation_projectors" in w and "line_sums_match_born" in w
    assert "pairwise_unbiasedness" in names(mub_family(2).representation())
    assert "overlap_deviation" in names(sic_rep(2))
    assert "extended_nonnegativity" in names(cohendet(3))
    assert "dual_resolves_identity" in names(
        stratonovich_discrete(0.5, tetrahedral_constellation())
    )
    hv = names(havel_rep(1))
    assert "striation_projectors" not in hv
    assert "pairwise_unbiasedness" not in hv


def test_identity_checks_travel_with_the_representation():
    # the factory's identities follow the pair, not its name
    for rep, check in [(mub_family(3).representation(), "pairwise_unbiasedness"),
                       (cohendet(3), "extended_nonnegativity")]:
        renamed = replace(rep, frame=replace(rep.frame, name="renamed"), dual=replace(rep.dual, name="renamed"))
        report = verify_representation(renamed, samples=5)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name[check]["passed"]
        assert report["representation"] == "renamed"


def test_a_representation_refuses_a_dual_of_another_name_or_labels():
    # a pair renamed on one side would refuse its own values in reconstruct
    rep = cohendet(3)
    relabeled = tuple((q, -p) for q, p in rep.labels)
    for broken in (dict(frame=replace(rep.frame, name="renamed")), dict(dual=replace(rep.dual, name="renamed")),
                   dict(geometry=None, dual=replace(rep.dual, labels=relabeled))):
        with pytest.raises(DimensionMismatchError, match="frame and dual must share name and labels"):
            replace(rep, **broken)
    # labels equal by value but not the same tuple still pair
    same = replace(rep, dual=replace(rep.dual, labels=tuple(list(rep.labels))))
    assert same.dual.labels is not same.frame.labels
    np.testing.assert_allclose(same.reconstruct(same.represent(np.eye(3) / 3)), np.eye(3) / 3, atol=1e-12)


def test_attached_check_runs_after_the_line_checks():
    seen = []

    def residual(rep, rng):
        seen.append((rep.dim, rng.random()))
        return 0.5

    rep = replace(wootters(3), checks=(("custom", 1.0, residual),))
    report = verify_representation(rep, seed=4, samples=5)
    names = [c["name"] for c in report["checks"]]
    assert names[-3:] == ["striation_projectors", "line_sums_match_born", "custom"]
    assert report["checks"][-1] == {"name": "custom", "residual": 0.5, "tolerance": 1.0, "passed": True}
    # the first family check draws from the stream after verify's four sample stacks
    assert seen == [(3, np.random.default_rng([4, 4]).random())]


def test_each_family_check_draws_from_its_own_stream():
    seen = []

    def residual(rep, rng):
        seen.append(rng.random())
        return 0.0

    rep = replace(wootters(3), checks=(("first", 1.0, residual), ("second", 1.0, residual)))
    verify_representation(rep, seed=4, samples=5)
    assert seen == [np.random.default_rng([4, 4]).random(), np.random.default_rng([4, 5]).random()]


def test_corrupted_dual_fails_duality():
    rep = wootters(2)
    bad_dual = rep.dual.__class__(
        labels=rep.dual.labels,
        operators=rep.dual.operators * 1.001,
        name=rep.dual.name,
    )
    broken = Representation(
        frame=rep.frame,
        dual=bad_dual,
        geometry=rep.geometry,
        meta=dict(rep.meta),
    )
    report = verify_representation(broken, samples=5)
    assert not report["all_passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["duality"]["passed"]


def test_corrupted_frame_fails_hermiticity():
    # 5e-10 slips past the construction gate but not the 1e-10 suite bound
    rep = wootters(2)
    ops = rep.frame.operators.copy()
    ops[0] = ops[0] + 5e-10 * np.array([[0, 1j], [0, 0]])
    bad_frame = rep.frame.__class__(labels=rep.frame.labels, operators=ops, name=rep.frame.name)
    broken = Representation(
        frame=bad_frame,
        dual=rep.dual,
        geometry=rep.geometry,
        meta=dict(rep.meta),
    )
    report = verify_representation(broken, samples=5)
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["hermitian_families"]["passed"]


def test_report_is_deterministic_for_equal_seeds():
    a = verify_representation(wootters(3), seed=7, samples=20)
    b = verify_representation(wootters(3), seed=7, samples=20)
    assert a == b
