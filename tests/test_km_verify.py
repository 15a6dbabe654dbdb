"""End-to-end reconstruction reports and the bundled lemma-level checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from bicombing_lab import (
    ConvexFunctional,
    ExtremalParams,
    InvalidInputError,
    PointNet,
    euclidean,
    hull_closure,
    run_paper_checks,
    verify_krein_milman,
)


@pytest.fixture(scope="module")
def square_hull(plane):
    corners = [euclidean(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
    res = hull_closure(plane, PointNet.build(plane, corners, 0.1))
    assert res.converged
    return res.net


def test_km_singleton(plane):
    C = PointNet.build(plane, [euclidean(0.4, 0.4)], 0.1)
    params = ExtremalParams(eps=0.1, delta=0.1, t_grid=7, face_tol=0.025)
    rep, nets = verify_krein_milman(plane, C, params)
    assert rep.passed
    assert rep.extremal_count == 1
    assert rep.hausdorff_c_vs_hull_ext == 0.0


def test_km_square(plane, square_hull):
    params = ExtremalParams.defaults(square_hull)
    rep, nets = verify_krein_milman(plane, square_hull, params)
    assert rep.passed
    assert rep.hausdorff_c_vs_hull_ext <= 3 * square_hull.eps
    # corners are always detected
    corner_set = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert corner_set <= {p.coords for p in nets["extremal"].points}
    # the easy inclusion holds in every report
    assert rep.inclusion_defect <= square_hull.eps


def test_km_star_tree(star_hulls):
    t, C, leaves = star_hulls[3]
    rep, nets = verify_krein_milman(t, C, ExtremalParams.defaults(C))
    assert rep.passed
    assert set(leaves) <= set(nets["extremal"].points)
    # the hull of the extremal points re-covers all three spokes
    assert rep.hausdorff_c_vs_hull_ext <= C.eps


@pytest.mark.parametrize("pass_factor", [0.0, -1.0, math.nan, math.inf])
def test_km_rejects_bad_pass_factor(plane, pass_factor):
    C = PointNet.build(plane, [euclidean(0.4, 0.4)], 0.1)
    params = ExtremalParams(eps=0.1, delta=0.1, t_grid=7, face_tol=0.025)
    with pytest.raises(InvalidInputError, match="pass_factor"):
        verify_krein_milman(plane, C, params, pass_factor=pass_factor)


def test_paper_checks_rejects_negative_seed(plane, square_hull):
    params = ExtremalParams.defaults(square_hull)
    with pytest.raises(InvalidInputError, match="rng_seed"):
        run_paper_checks(plane, square_hull, [], params, rng_seed=-1)


def test_km_failing_report_keeps_inclusion(plane, square_hull):
    params = ExtremalParams.defaults(square_hull)
    rep, _ = verify_krein_milman(plane, square_hull, params, pass_factor=1e-6)
    assert not rep.passed
    assert rep.inclusion_defect <= square_hull.eps


def test_km_report_deterministic(plane, square_hull):
    params = ExtremalParams.defaults(square_hull)
    a, _ = verify_krein_milman(plane, square_hull, params)
    b, _ = verify_krein_milman(plane, square_hull, params)
    da = {k: v for k, v in dataclasses.asdict(a).items() if k != "timings"}
    db = {k: v for k, v in dataclasses.asdict(b).items() if k != "timings"}
    assert da == db


def test_paper_checks_euclidean(plane, square_hull):
    # face checks need a hit radius below the corner clearance (the nearest
    # net points sit eps/2 from a corner, and qualifying chords clear the
    # corner by at least delta/sqrt(2)); the net-resolution default blurs
    # near-corner chords into false crossings
    params = ExtremalParams(eps=0.025, delta=0.05, t_grid=7, face_tol=0.025)
    suite = [
        ConvexFunctional.dist_to_point(euclidean(0.2, 0.3)),
        ConvexFunctional.linear([1.0, 0.0]),
    ]
    rep = run_paper_checks(plane, square_hull, suite, params, rng_seed=0)
    assert rep.passed
    assert all(e.status == "ok" for e in rep.face_checks)
    assert rep.dist_check.lipschitz_ok
    assert rep.dist_check.lipschitz_defect <= 1e-12
    assert rep.dist_check.convexity_ok
    for e in rep.descent_checks:
        assert e.trace_non_increasing and e.endpoint_extremal


def test_paper_checks_concave_control_inapplicable(plane, square_hull):
    params = ExtremalParams.defaults(square_hull)
    suite = [ConvexFunctional.dist_to_point(euclidean(0.5, 0.5)).scaled(-1.0)]
    rep = run_paper_checks(plane, square_hull, suite, params, rng_seed=0)
    assert rep.face_checks[0].status == "inapplicable"
    assert "not convex" in rep.face_checks[0].detail


def test_functional_labels(plane, square_hull):
    """Reports carry these labels in face_checks[].functional."""
    labels = [
        ConvexFunctional.dist_to_point(euclidean(0.5, 0.5)).label(),
        ConvexFunctional.dist_to_net(square_hull).label(),
        ConvexFunctional.dist_to_hull(square_hull).label(),
        ConvexFunctional.linear([1, -0.5]).label(),
        ConvexFunctional.constant(2.5).label(),
        ConvexFunctional.dist_to_point(euclidean(0.5, 0.5)).scaled(-1.0).label(),
        ConvexFunctional.linear([1.0 / math.sqrt(2)] * 2).scaled(2).label(),
    ]
    assert labels == [
        "dist_to_point", "dist_to_net", "dist_to_hull", "linear(1.0, -0.5)", "constant(2.5)",
        "-1.0*dist_to_point", "2*linear(0.7071067811865475, 0.7071067811865475)",
    ]
    suite = [ConvexFunctional.dist_to_point(euclidean(0.5, 0.5)).scaled(-1.0)]
    rep = run_paper_checks(plane, square_hull, suite, ExtremalParams.defaults(square_hull))
    assert rep.face_checks[0].functional == "-1.0*dist_to_point"


def test_paper_checks_hyperbolic(hplane, hyp_triangle_hull, hyp_params):
    C, verts = hyp_triangle_hull
    suite = [ConvexFunctional.dist_to_point(v) for v in verts]
    rep = run_paper_checks(hplane, C, suite, hyp_params, rng_seed=1)
    assert rep.passed, [
        (e.functional, e.status, e.detail) for e in rep.face_checks
    ]
