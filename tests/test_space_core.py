"""Core operation contracts: distances, segment evaluation, sampling, and the
axiom checker."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bicombing_lab import (
    AxiomReport,
    ConvexityWitness,
    InvalidInputError,
    LpSpace,
    NormedSpaceSpec,
    ProductPoint,
    ProductSpaceSpec,
    canonical_key,
    check_axioms,
    distance,
    euclidean,
    evaluate_bicombing,
    hyperboloid,
    make_lp_space,
    make_product,
    sample_segment,
    star_tree,
)

coord = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


def test_distance_pythagorean(plane):
    assert distance(plane, euclidean(0, 0), euclidean(3, 4)) == 5.0


def test_distance_self_is_zero(plane, hplane, star3):
    assert distance(plane, euclidean(0.3, -2), euclidean(0.3, -2)) == 0.0
    p = hyperboloid(math.cosh(1), math.sinh(1), 0)
    assert distance(hplane, p, p) == 0.0
    q = star3.point_on_edge(1, 0.25)
    assert distance(star3, q, q) == 0.0


def test_distance_hyperbolic_unit(hplane):
    # frozen from high-precision arccosh(cosh(1)) = 1
    d = distance(hplane, hyperboloid(1, 0, 0), hyperboloid(math.cosh(1), math.sinh(1), 0))
    assert d == pytest.approx(1.0, abs=1e-12)


def test_distance_rejects_wrong_variant(plane, hplane):
    with pytest.raises(InvalidInputError):
        distance(plane, euclidean(0, 0), hyperboloid(1, 0, 0))
    with pytest.raises(InvalidInputError):
        distance(hplane, hyperboloid(1, 0, 0), euclidean(0, 0, 0))
    with pytest.raises(InvalidInputError):
        distance(plane, euclidean(0, 0), euclidean(0, 0, 0))


def test_bicombing_linear_midpoint(plane):
    mid = evaluate_bicombing(plane, euclidean(0, 0), euclidean(2, 2), 0.5)
    assert mid == euclidean(1, 1)


def test_bicombing_degenerate_is_constant(plane, hplane, star3):
    for space, p in [
        (plane, euclidean(0.2, 0.7)),
        (hplane, hyperboloid(math.cosh(0.5), math.sinh(0.5), 0)),
        (star3, star3.point_on_edge(0, 0.5)),
    ]:
        assert evaluate_bicombing(space, p, p, 0.37) == p


def test_bicombing_tree_quarter(star3):
    a, b = star3.node_point("l0"), star3.node_point("l1")
    # path length 2 through the center; quarter point is 0.5 from a on a's edge
    q = evaluate_bicombing(star3, a, b, 0.25)
    assert distance(star3, q, a) == pytest.approx(0.5, abs=1e-12)
    assert q.edge == 0


def test_bicombing_rejects_bad_t(plane):
    with pytest.raises(InvalidInputError):
        evaluate_bicombing(plane, euclidean(0, 0), euclidean(1, 0), 1.2)
    with pytest.raises(InvalidInputError):
        evaluate_bicombing(plane, euclidean(0, 0), euclidean(1, 0), -0.1)


def test_sample_segment_contracts(plane):
    x, y = euclidean(0, 0), euclidean(1, 0)
    assert sample_segment(plane, x, y, 1) == [x, y]
    quarters = sample_segment(plane, x, y, 4)
    assert [p.coords for p in quarters] == [(0, 0), (0.25, 0), (0.5, 0), (0.75, 0), (1, 0)]
    z = euclidean(0.4, 0.4)
    assert sample_segment(plane, z, z, 3) == [z, z, z, z]
    with pytest.raises(InvalidInputError):
        sample_segment(plane, x, y, 0)


def test_check_axioms_hand_worked_quadruple(plane):
    # gamma1(t) = (t, 0), gamma2(t) = (2t, 1+2t); their distance is
    # sqrt(5t^2 + 4t + 1), convex since the quadratic has positive leading
    # coefficient and negative discriminant
    quad = (euclidean(0, 0), euclidean(1, 0), euclidean(0, 1), euclidean(2, 3))
    rep = check_axioms(plane, [quad], grid=16, tol=1e-9)
    assert rep.passed
    assert rep.max_convexity_violation <= 1e-12
    assert rep.max_endpoint_error == 0.0
    for k in (0, 8, 16):
        t = k / 16
        f = math.sqrt(5 * t * t + 4 * t + 1)
        g1 = evaluate_bicombing(plane, quad[0], quad[1], t)
        g2 = evaluate_bicombing(plane, quad[2], quad[3], t)
        assert distance(plane, g1, g2) == pytest.approx(f, abs=1e-12)


def test_check_axioms_constant_quadruple(plane):
    p = euclidean(0.5, 0.5)
    rep = check_axioms(plane, [(p, p, p, p)], grid=8, tol=1e-9)
    assert rep.passed
    assert rep.max_convexity_violation == 0.0
    assert rep.max_idempotence_error == 0.0


class _BumpedPlane(LpSpace):
    """Deliberately broken segment map: a transverse bump at mid-parameter on
    every non-degenerate segment."""

    description = "plane with bumped segments"

    def __init__(self):
        super().__init__(NormedSpaceSpec(2, 2.0))

    def segment_batch(self, packed, I, J, ts):
        S = super().segment_batch(packed, I, J, ts).reshape(len(I), len(ts), 2)
        moving = (packed[I] != packed[J]).any(axis=1)
        S[moving, :, 1] += 0.5 * np.sin(np.pi * np.asarray(ts))
        return S.reshape(-1, 2)


class _DriftingPlane(LpSpace):
    """Linear segments, except that a degenerate segment [p, p] sits 1e-6
    off p, which only the idempotence check can see."""

    description = "plane with drifting constant segments"

    def __init__(self):
        super().__init__(NormedSpaceSpec(2, 2.0))

    def segment_batch(self, packed, I, J, ts):
        S = super().segment_batch(packed, I, J, ts).reshape(len(I), len(ts), 2)
        S[(packed[I] == packed[J]).all(axis=1), :, 0] += 1e-6
        return S.reshape(-1, 2)


def test_check_axioms_flags_broken_bicombing():
    broken = _BumpedPlane()
    # a bumped segment measured against a constant one on the far side of the
    # bump direction: the bulge lifts the midpoint distance above its chord
    z = euclidean(0.5, -2)
    quads = [(euclidean(0, 0), euclidean(1, 0), z, z)]
    rep = check_axioms(broken, quads, grid=16, tol=1e-9)
    assert not rep.passed
    assert rep.worst_witness is not None
    assert rep.max_convexity_violation > 1e-3


class _OneWayPlane(LpSpace):
    """Segments that bulge by 0.25 sin(pi t) when they run towards larger
    first coordinates and are straight otherwise, so [x, y](t) and
    [y, x](1 - t) part by up to 0.25."""

    description = "plane with one-way bulges"

    def __init__(self):
        super().__init__(NormedSpaceSpec(2, 2.0))

    def segment_batch(self, packed, I, J, ts):
        S = super().segment_batch(packed, I, J, ts).reshape(len(I), len(ts), 2)
        rising = packed[I, 0] < packed[J, 0]
        S[rising, :, 1] += 0.25 * np.sin(np.pi * np.asarray(ts))
        return S.reshape(-1, 2)


def test_check_axioms_symmetry_defect_compares_reversed_segment():
    # both segments of the quadruple coincide, so f is 0 and the map passes;
    # the symmetry defect is informative only
    x, y = euclidean(0, 0), euclidean(1, 0)
    rep = check_axioms(_OneWayPlane(), [(x, y, x, y)], grid=16, tol=1e-9)
    assert rep.passed
    assert rep.max_symmetry_defect == pytest.approx(0.25, rel=1e-12)


def test_check_axioms_witness_is_first_largest_defect():
    broken = _BumpedPlane()
    # a mirrors b in the first coordinate, so their defects tie bit for bit;
    # in c both segments bulge alike and the distance stays 1
    a = (euclidean(0, 0), euclidean(1, 0), euclidean(0.5, -2), euclidean(0.5, -2))
    b = (euclidean(0, 0), euclidean(-1, 0), euclidean(-0.5, -2), euclidean(-0.5, -2))
    c = (euclidean(0, 0), euclidean(1, 0), euclidean(0, 1), euclidean(1, 1))
    alone = check_axioms(broken, [a], grid=16, tol=1e-9)
    assert check_axioms(broken, [b], grid=16, tol=1e-9).max_convexity_violation == (
        alone.max_convexity_violation) > 1e-3
    assert check_axioms(broken, [c], grid=16, tol=1e-9).max_convexity_violation <= 1e-12
    rep = check_axioms(broken, [c, a, b, c], grid=16, tol=1e-9)
    assert not rep.passed
    assert rep.worst_witness == ConvexityWitness(*a, 7 / 16, 0.5, 9 / 16,
                                                 alone.max_convexity_violation)
    assert check_axioms(broken, [b, a], grid=16, tol=1e-9).worst_witness.x2 == b[2]
    # below tol nothing is reported as a witness
    assert check_axioms(broken, [a], grid=16, tol=1.0).worst_witness is None
    empty = check_axioms(broken, [], grid=16, tol=1e-9)
    assert empty == AxiomReport(0, 16, 1e-9, 0.0, 0.0, 0.0, 0.0, None, True)


def test_check_axioms_measures_idempotence_on_the_kernel():
    # the drift sits on [p, p] only; the quadruple's own segments are exact
    quad = (euclidean(0, 0), euclidean(1, 0), euclidean(0, 1), euclidean(2, 3))
    rep = check_axioms(_DriftingPlane(), [quad], grid=16, tol=1e-9)
    assert not rep.passed
    assert rep.max_idempotence_error == pytest.approx(1e-6, rel=1e-9)
    assert rep.max_endpoint_error == 0.0
    assert rep.max_convexity_violation <= 1e-12
    assert check_axioms(make_lp_space(NormedSpaceSpec(2, 2.0)), [quad], grid=16,
                        tol=1e-9).passed


def _oracle_spaces():
    """Criterion 1's lp, star and star x line spaces with point samplers, as
    pytest params."""
    cases = []
    for n in (2, 3):
        for p in (1.0, 2.0, math.inf):
            space = make_lp_space(NormedSpaceSpec(n, p))
            cases.append(pytest.param(
                space, lambda rng, n=n: euclidean(*rng.uniform(-1, 1, n)), id=space.description))
    star = star_tree(5)

    def tree_sample(rng):
        e = int(rng.integers(0, 5))
        return star.point_on_edge(e, float(rng.choice([0.0, 1.0, rng.uniform(0, 1)])))

    cases.append(pytest.param(star, tree_sample, id="star"))
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    prod = make_product(ProductSpaceSpec(star, line))
    cases.append(pytest.param(prod, lambda rng: ProductPoint(
        tree_sample(rng), euclidean(float(rng.uniform(-1, 1)))), id="star_x_line"))
    return cases


@pytest.mark.parametrize("space, sampler", _oracle_spaces())
def test_check_axioms_maxima_match_oracle(space, sampler):
    rng = np.random.default_rng(61)
    quads = [tuple(sampler(rng) for _ in range(4)) for _ in range(40)]
    x, y = quads[0][:2]
    quads += [(x, x, y, y), (x, y, y, x)]  # degenerate and reversed segments
    rep = check_axioms(space, quads, grid=16, tol=space.base_tol)
    want = oracles.axiom_defects(space, quads, grid=16)
    got = (rep.max_endpoint_error, rep.max_idempotence_error,
           rep.max_convexity_violation, rep.max_symmetry_defect)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)
    assert rep.passed


def test_check_axioms_rejects_small_grid(plane):
    quad = (euclidean(0, 0), euclidean(1, 0), euclidean(0, 1), euclidean(1, 1))
    with pytest.raises(InvalidInputError):
        check_axioms(plane, [quad], grid=1, tol=1e-9)


@given(st.lists(coord, min_size=2, max_size=2), st.lists(coord, min_size=2, max_size=2),
       st.lists(coord, min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_metric_axioms_random(xs, ys, zs):
    plane = make_lp_space(NormedSpaceSpec(2, 2.0))
    x, y, z = euclidean(*xs), euclidean(*ys), euclidean(*zs)
    assert distance(plane, x, y) == distance(plane, y, x)
    assert distance(plane, x, z) <= distance(plane, x, y) + distance(plane, y, z) + 1e-9


@given(st.lists(coord, min_size=2, max_size=2), st.lists(coord, min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_endpoint_exactness_random(xs, ys):
    plane = make_lp_space(NormedSpaceSpec(2, 2.0))
    x, y = euclidean(*xs), euclidean(*ys)
    d = distance(plane, x, y)
    assert distance(plane, evaluate_bicombing(plane, x, y, 0.0), x) <= 1e-12 * (1 + d)
    assert distance(plane, evaluate_bicombing(plane, x, y, 1.0), y) <= 1e-12 * (1 + d)


@given(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_convexity_and_constant_target_random(quad_coords):
    plane = make_lp_space(NormedSpaceSpec(2, 2.0))
    x, y, x2, y2 = (euclidean(*c) for c in quad_coords)
    rep = check_axioms(plane, [(x, y, x2, y2)], grid=16, tol=1e-9)
    assert rep.passed
    # specialization against a constant segment: the convexity used by the
    # farthest-point argument
    rep2 = check_axioms(plane, [(x, y, x2, x2)], grid=16, tol=1e-9)
    assert rep2.passed


def test_canonical_key_orders_lexicographically():
    pts = [euclidean(1, 0), euclidean(0, 1), euclidean(0, 0.5), euclidean(0, 0.5)]
    ordered = sorted(set(pts), key=canonical_key)
    assert [p.coords for p in ordered] == [(0, 0.5), (0, 1), (1, 0)]
