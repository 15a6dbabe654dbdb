"""Nets, distance-to-net, hull closure, convexity checks, Hausdorff distance."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import oracles
from bicombing_lab import (
    ConvexFunctional,
    InvalidInputError,
    MetricTreeSpec,
    NormedSpaceSpec,
    PointNet,
    ProductPoint,
    ProductSpaceSpec,
    TreePoint,
    canonical_key,
    check_convex_functional,
    directed_excess,
    distance,
    euclidean,
    extremal_points,
    hausdorff,
    hull_closure,
    hyperbolic_point_at,
    hyperboloid,
    is_convex_net,
    lorentz_boost,
    make_hyperbolic_plane,
    make_lp_space,
    make_metric_tree,
    make_product,
    star_tree,
)
from bicombing_lab.convexity import (
    FunctionalCheck,
    FunctionalWitness,
    NetWitness,
    _CellCover,
    _greedy_separate,
    _pair_blocks,
    canonical_rows,
)
from bicombing_lab.instances import build_space, generate_instance
from bicombing_lab.space_core import BLOCK_ENTRIES

coord = st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# nets and dist_to_net
# ---------------------------------------------------------------------------


def test_net_build_dedups_and_sorts(plane):
    pts = [euclidean(1, 0), euclidean(0, 0), euclidean(0.001, 0)]
    net = PointNet.build(plane, pts, 0.1)
    assert [p.coords for p in net.points] == [(0, 0), (1, 0)]


def test_net_build_rejects_empty_and_bad_eps(plane):
    with pytest.raises(InvalidInputError):
        PointNet.build(plane, [], 0.1)
    with pytest.raises(InvalidInputError):
        PointNet.build(plane, [euclidean(0, 0)], 0.0)
    for eps in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            PointNet.build(plane, [euclidean(0, 0)], eps)
    with pytest.raises(InvalidInputError):
        PointNet.build(plane, [euclidean(math.nan, 1.0)], 0.1)


def test_dist_to_net_examples(plane, star3):
    corners = PointNet.build(plane, [euclidean(a, b) for a in (0, 1) for b in (0, 1)], 0.1)
    to_corners = ConvexFunctional.dist_to_net(corners)
    assert to_corners.evaluate(plane, euclidean(1, 0)) == 0.0
    assert to_corners.evaluate(plane, euclidean(2, 0)) == 1.0
    leaves = PointNet.build(star3, [star3.node_point(f"l{i}") for i in range(3)], 0.1)
    assert ConvexFunctional.dist_to_net(leaves).evaluate(star3, star3.node_point("c")) == 1.0


# ---------------------------------------------------------------------------
# hull closure
# ---------------------------------------------------------------------------


def test_hull_singleton_fixed_point(plane):
    seed = PointNet.build(plane, [euclidean(0.3, 0.3)], 0.05)
    res = hull_closure(plane, seed)
    assert res.converged and res.rounds == 1
    assert res.net.points == seed.points


def test_hull_triangle_barycentric_and_raster(plane):
    seed = PointNet.build(plane, [euclidean(0, 0), euclidean(1, 0), euclidean(0, 1)], 0.05)
    res = hull_closure(plane, seed)
    assert res.converged
    for p in res.net.points:
        assert oracles.barycentric_in_triangle(p.coords, (0, 0), (1, 0), (0, 1))
    raster = PointNet(
        plane,
        plane.pack(sorted((euclidean(*c) for c in oracles.triangle_raster(0.01)),
                          key=canonical_key)),
        0.05,
    )
    assert hausdorff(plane, res.net, raster) <= 0.05


def test_hull_result_is_superset_of_seed(plane):
    seed = PointNet.build(plane, [euclidean(0, 0), euclidean(1, 0), euclidean(0.3, 0.9)], 0.07)
    res = hull_closure(plane, seed)
    assert set(seed.points) <= set(res.net.points)


def test_hull_two_leaves_covers_path_only(star3):
    a, b = star3.node_point("l0"), star3.node_point("l1")
    res = hull_closure(star3, PointNet.build(star3, [a, b], 0.05))
    assert res.converged
    # every point within eps of the a-c-b path; nothing strictly on spoke 2
    for p in res.net.points:
        assert p.edge in (0, 1) or p.offset in (0.0, 1.0)
    path_pts = [star3.point_on_edge(e, round(k * 0.01, 10)) for e in (0, 1) for k in range(101)]
    path_net = PointNet(star3, star3.pack(sorted(set(path_pts), key=canonical_key)), 0.05)
    assert hausdorff(star3, res.net, path_net) <= 0.05


def test_hull_idempotent_and_monotone(plane):
    seed = PointNet.build(plane, [euclidean(0, 0), euclidean(1, 0), euclidean(0, 1)], 0.05)
    first = hull_closure(plane, seed)
    again = hull_closure(plane, first.net)
    assert again.converged and again.rounds == 1
    assert again.net.points == first.net.points
    assert hausdorff(plane, again.net, first.net) <= 0.05
    # monotone in the seed, up to eps matching
    bigger_seed = PointNet.build(
        plane, list(seed.points) + [euclidean(1, 1)], 0.05
    )
    bigger = hull_closure(plane, bigger_seed)
    assert directed_excess(plane, first.net, bigger.net) <= 0.05


def test_hull_caratheodory_membership(plane):
    seeds = [euclidean(0.1, 0.1), euclidean(0.9, 0.2), euclidean(0.5, 0.95), euclidean(0.2, 0.7)]
    res = hull_closure(plane, PointNet.build(plane, seeds, 0.1))
    arr = np.array([p.coords for p in seeds])
    for p in res.net.points:
        assert oracles.caratheodory_member(np.array(p.coords), arr)


def test_hull_rejects_bad_args(plane):
    seed = PointNet.build(plane, [euclidean(0, 0)], 0.1)
    with pytest.raises(InvalidInputError):
        hull_closure(plane, seed, segment_samples=1)
    with pytest.raises(InvalidInputError):
        hull_closure(plane, seed, max_rounds=0)


def test_hull_non_converged_flagged(plane):
    seed = PointNet.build(plane, [euclidean(0, 0), euclidean(1, 0), euclidean(0, 1)], 0.02)
    res = hull_closure(plane, seed, max_rounds=2)
    assert not res.converged
    assert res.rounds == 2


_BRUTE_HULL_CASES = {
    "l1": ("lp_ball", {"p": 1.0}),
    "l2": ("simplex", {}),
    "linf": ("lp_ball", {}),
    "l2xl2": ("product_demo", {}),
    "hyp-side1": ("hyp_triangle", {}),
    "hyp-side2.5": ("hyp_triangle", {"side": 2.5}),
    "star3": ("tree_leaves", {}),
}


@pytest.mark.parametrize("case", list(_BRUTE_HULL_CASES))
def test_hull_closure_matches_brute_oracle(case):
    kind, options = _BRUTE_HULL_CASES[case]
    inst = generate_instance(kind, **options)
    space = build_space(inst.space)
    seed = PointNet.build(space, inst.seed_points, inst.params.eps)
    res = hull_closure(space, seed)
    assert res.converged
    assert list(res.net.points) == oracles.brute_hull_closure(space, seed)


def _packed_bytes(packed) -> list:
    """Dtype, shape and bytes of a packed set."""
    return [(packed.dtype.str, packed.shape, packed.tobytes())]


@pytest.mark.parametrize("kind", ["simplex", "hyp_triangle", "tree_leaves", "product_demo"])
def test_nets_own_their_packed_rows(kind):
    """A net's packed rows are the truth: its points pack back to them, they
    survive a rebuild from those points, and an extremal scan's net is the
    rows of the scanned net that it names."""
    inst = generate_instance(kind)
    space, eps = build_space(inst.space), inst.params.eps
    net = hull_closure(space, PointNet.build(space, inst.seed_points, eps)).net
    assert _packed_bytes(net.packed) == _packed_bytes(space.pack(net.points))
    assert _packed_bytes(PointNet.build(space, net.points, eps).packed) == _packed_bytes(net.packed)
    scan = extremal_points(space, net, inst.params.extremal_params())
    assert not scan.is_empty
    assert _packed_bytes(scan.net().packed) == _packed_bytes(net.packed[scan.rows])
    assert scan.points == tuple(net.points[i] for i in scan.rows)


def test_hull_queries_under_a_tenth_of_samples(hplane):
    inst = generate_instance("hyp_triangle")
    seed = PointNet.build(hplane, inst.seed_points, inst.params.eps)
    res = hull_closure(hplane, seed)
    assert 0 < res.queried < res.samples / 10
    # the counts take no part in comparisons
    assert dataclasses.replace(res, samples=0, queried=0) == res


def test_star_hull_queries_under_a_tenth_of_samples():
    # trees have a cell cover too: without one every sample took a query
    inst = generate_instance("tree_leaves")
    space = build_space(inst.space)
    res = hull_closure(space, PointNet.build(space, inst.seed_points, inst.params.eps))
    assert 0 < res.queried < res.samples / 10


# ---------------------------------------------------------------------------
# pair scans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 57])
def test_pair_blocks_are_row_major_upper_triangle(n):
    per_pair = BLOCK_ENTRIES // 120  # two rows of 57 pairs, at most 120 pairs, per block
    I_all, J_all = np.triu_indices(n, 1)
    for lo in sorted({0, 1, n - 1, n} & set(range(n + 1))):
        blocks = list(_pair_blocks(n, per_pair, lo))
        assert all(len(I) == len(J) <= 120 for I, J in blocks)
        I, J = (np.concatenate([np.empty(0, np.int64)] + [b[k] for b in blocks]) for k in (0, 1))
        assert np.array_equal(I, I_all[J_all >= lo]) and np.array_equal(J, J_all[J_all >= lo])
    if n == 57:
        assert len(list(_pair_blocks(n, per_pair))) == 28


def _gapped_line(plane):
    """Integer points 0..389 and 399 on the x-axis of the plane: the samples
    farthest from the net lie in the gap, on chords from rows in the fourth
    and fifth pair blocks of a 7-parameter scan (rows 285-379 and 380-389)."""
    pts = [euclidean(x, 0.0) for x in list(range(390)) + [399]]
    return PointNet.build(plane, pts, 1.0)


def _brute_worst(space, net, ts, score):
    """Row-major all-pairs scan: the first largest score as (i, j, column, score)."""
    I, J = np.triu_indices(len(net), 1)
    vals = score(space.segment_batch(net.packed, I, J, ts)).reshape(len(I), -1)
    r, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return int(I[r]), int(J[r]), int(k), float(vals[r, k])


def test_is_convex_net_witness_matches_all_pairs_scan(plane):
    C = _gapped_line(plane)
    ts = np.arange(1, 8) / 8
    i, j, k, dist = _brute_worst(plane, C, ts, C.index.min_dist)
    # x = 394 = 359/8 + 7 * 399/8 is 5 from the net; rows 379 and 389 tie
    assert (i, j, k, dist) == (359, 390, 6, 5.0)
    ok, witness = is_convex_net(plane, C)
    assert not ok
    assert witness == NetWitness(C.points[i], C.points[j], float(ts[k]), dist)


def test_check_functional_witness_matches_all_pairs_scan(plane):
    C = _gapped_line(plane)
    # the distance to {376, 380} has one concave kink, at 378, with defects
    # of at most 2; exactly 2 on chords of length 32 with a node at 378, from
    # rows 348-350 in the ninth block of a 17-parameter scan and 352-356 in
    # the tenth
    phi = ConvexFunctional.dist_to_net(
        PointNet.build(plane, [euclidean(376.0, 0.0), euclidean(380.0, 0.0)], 1.0))
    ts = np.arange(17) / 16

    def defects(S):
        vals = phi.evaluate_packed(plane, S).reshape(-1, 17)
        return vals[:, 1:-1] - 0.5 * (vals[:, :-2] + vals[:, 2:])

    i, j, k, defect = _brute_worst(plane, C, ts, defects)
    assert (i, j, k, defect) == (348, 380, 14, 2.0)
    res = check_convex_functional(plane, phi, C, 16, 1e-7)
    witness = FunctionalWitness(C.points[i], C.points[j], float(ts[k + 1]), defect)
    assert res == FunctionalCheck(False, defect, witness)


# ---------------------------------------------------------------------------
# is_convex_net
# ---------------------------------------------------------------------------


def test_is_convex_net_cases(plane):
    single = PointNet.build(plane, [euclidean(0, 0)], 0.05)
    assert is_convex_net(plane, single)[0]
    hull = hull_closure(plane, PointNet.build(plane, [euclidean(0, 0), euclidean(1, 0)], 0.05))
    assert is_convex_net(plane, hull.net)[0]
    two = PointNet.build(plane, [euclidean(0, 0), euclidean(1, 0)], 0.01)
    ok, wit = is_convex_net(plane, two)
    assert not ok
    assert wit is not None and wit.t == 0.5


# ---------------------------------------------------------------------------
# convex functionals
# ---------------------------------------------------------------------------


def test_check_functional_constant(plane, square_grid):
    res = check_convex_functional(plane, ConvexFunctional.constant(2.5), square_grid, 8, 1e-12)
    assert res.ok and res.max_defect == 0.0


@pytest.mark.parametrize("space_name", ["plane", "hplane", "star3"])
def test_check_functional_dist_to_point(space_name, request):
    space = request.getfixturevalue(space_name)
    if space_name == "plane":
        pts = [euclidean(a, b) for a in (0, 0.5, 1) for b in (0, 0.5, 1)]
        anchor = euclidean(0.25, 0.25)
    elif space_name == "hplane":
        pts = [hyperbolic_point_at(r, th) for r in (0.0, 0.7, 1.4) for th in (0, 2, 4)]
        anchor = hyperbolic_point_at(0.3, 1.0)
    else:
        pts = [space.point_on_edge(e, o) for e in range(3) for o in (0.25, 0.75, 1.0)]
        anchor = space.point_on_edge(0, 0.5)
    domain = PointNet.build(space, pts, 0.01)
    res = check_convex_functional(
        space, ConvexFunctional.dist_to_point(anchor), domain, 16, 1e-7
    )
    assert res.ok, res


def test_check_functional_concave_control(plane, square_grid):
    phi = ConvexFunctional.dist_to_point(euclidean(0.5, 0.5)).scaled(-1.0)
    res = check_convex_functional(plane, phi, square_grid, 16, 1e-7)
    assert not res.ok
    assert res.witness is not None


def test_dist_to_net_functional_lipschitz_and_convexity(plane):
    seed = PointNet.build(plane, [euclidean(0.2, 0.2), euclidean(0.8, 0.3), euclidean(0.4, 0.8)], 0.1)
    K = hull_closure(plane, seed).net
    rng = np.random.default_rng(9)
    phi = ConvexFunctional.dist_to_net(K)
    pts = [euclidean(*rng.uniform(-1, 2, 2)) for _ in range(300)]
    vals = phi.evaluate_packed(plane, plane.pack(pts))
    for _ in range(500):
        i, j = rng.integers(0, len(pts), 2)
        lhs = abs(vals[i] - vals[j])
        rhs = math.dist(pts[int(i)].coords, pts[int(j)].coords)
        assert lhs <= rhs + 1e-12
    # convex along segments up to a net-resolution tolerance: the kink
    # amplitude of a min over finitely many points scales with the spacing
    domain = PointNet.build(plane, [euclidean(*rng.uniform(-1, 2, 2)) for _ in range(25)], 0.1)
    res = check_convex_functional(plane, phi, domain, 16, tol=2 * K.eps + 1e-9)
    assert res.ok, res.max_defect


def test_linear_functional_reads_coordinate_rows(plane, hplane):
    # lp rows are coordinates and hyperboloid rows are (x0, x1, x2)
    assert ConvexFunctional.linear([2.0, -1.0]).evaluate(plane, euclidean(0.5, 3.0)) == -2.0
    q = hyperbolic_point_at(0.7, 1.1)
    got = ConvexFunctional.linear([1.0, 2.0, 3.0]).evaluate(hplane, q)
    assert got == pytest.approx(q.coords[0] + 2.0 * q.coords[1] + 3.0 * q.coords[2], rel=1e-15)
    vals = ConvexFunctional.linear([0.0, 1.0]).evaluate_packed(
        plane, plane.pack([euclidean(1, 2), euclidean(3, 4)]))
    assert vals.tolist() == [2.0, 4.0]
    with pytest.raises(InvalidInputError, match="matching coordinate points"):
        ConvexFunctional.linear([1.0]).evaluate(plane, euclidean(0.0, 0.0))


def _line_x_lp(dim):
    return make_product(ProductSpaceSpec(make_lp_space(NormedSpaceSpec(1, 2.0)),
                                         make_lp_space(NormedSpaceSpec(dim, 2.0))))


@pytest.mark.parametrize("case", ["tree", "line_x_plane", "line_x_line"])
def test_linear_functional_rejects_non_coordinate_rows(case, star3):
    # tree rows are (edge, offset) and product rows hold factor points: no
    # linear functional reads them, even with as many coefficients as columns
    if case == "tree":
        space, p = star3, star3.point_on_edge(1, 0.5)
    else:
        dim = 2 if case == "line_x_plane" else 1
        space = _line_x_lp(dim)
        p = ProductPoint(euclidean(0.5), euclidean(*[0.25] * dim))
    phi = ConvexFunctional.linear([1.0] * space.width)
    with pytest.raises(InvalidInputError, match="linear functionals need coordinate points"):
        phi.evaluate(space, p)
    with pytest.raises(InvalidInputError, match="linear functionals need coordinate points"):
        phi.evaluate_packed(space, space.pack([p, p]))


# ---------------------------------------------------------------------------
# exact distance to the convex hull
# ---------------------------------------------------------------------------


def _hull_values(space, K_points, queries):
    """dist_to_hull of the net on K_points, evaluated at the query points."""
    K = PointNet.build(space, K_points, 1e-3)
    return ConvexFunctional.dist_to_hull(K).evaluate_packed(space, space.pack(queries))


def _coordinate_sets(rng, n):
    """Full-dimensional, one-point, collinear and (in R^3) coplanar point sets."""
    full = rng.uniform(-1, 1, (7, n))
    line = rng.uniform(-1, 1, n) + np.outer(rng.uniform(-1, 1, 5), rng.uniform(-1, 1, n))
    sets = [full, full[:1], line]
    if n == 3:
        sets.append(rng.uniform(-1, 1, 3) + rng.uniform(-1, 1, (6, 2)) @ rng.uniform(-1, 1, (2, 3)))
    return sets


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_dist_to_hull_lp_matches_reference(n, p):
    """l^1/l^inf against a linear program, l^2 against subset projections,
    including flat sets that Qhull cannot take directly."""
    space = make_lp_space(NormedSpaceSpec(n, p))
    rng = np.random.default_rng(31)
    for P in _coordinate_sets(rng, n):
        Q = rng.uniform(-2, 2, (20, n))
        got = _hull_values(space, [euclidean(*c) for c in P], [euclidean(*q) for q in Q])
        if p == 2.0:
            want = [oracles.euclidean_hull_dist_subsets(q, P) for q in Q]
        else:
            want = [oracles.lp_hull_dist_linprog(q, P, p) for q in Q]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_dist_to_hull_cube_grid_is_box_distance(p):
    """A 5x5x5 grid has many coplanar points on each facet of its hull."""
    space = make_lp_space(NormedSpaceSpec(3, p))
    g = [k / 4 for k in range(5)]
    grid = [euclidean(*c) for c in itertools.product(g, g, g)]
    Q = np.random.default_rng(33).uniform(-1, 2, (200, 3))
    got = _hull_values(space, grid, [euclidean(*q) for q in Q])
    want = np.linalg.norm(Q - np.clip(Q, 0.0, 1.0), ord=p, axis=1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_dist_to_hull_euclidean_product_uses_joined_coordinates():
    prod = make_product(ProductSpaceSpec(make_lp_space(NormedSpaceSpec(2, 2.0)),
                                         make_lp_space(NormedSpaceSpec(1, 2.0))))

    def as_points(rows):
        return [ProductPoint(euclidean(*r[:2]), euclidean(r[2])) for r in rows]

    rng = np.random.default_rng(34)
    for P in _coordinate_sets(rng, 3):
        Q = rng.uniform(-2, 2, (20, 3))
        got = _hull_values(prod, as_points(P), as_points(Q))
        want = [oracles.euclidean_hull_dist_subsets(q, P) for q in Q]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def _space_samplers():
    """(space, sampler) for every space kind with an exact hull route."""
    table = [
        (space, lambda rng, s=space: euclidean(*rng.uniform(-1, 1, s.n)))
        for space in (make_lp_space(NormedSpaceSpec(n, p))
                      for n in (1, 2, 3) for p in (1.0, 2.0, math.inf))
    ]
    table.append((make_hyperbolic_plane(),
                  lambda rng: hyperbolic_point_at(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi))))
    star = star_tree(4)
    def on_star(rng):
        return star.point_on_edge(int(rng.integers(0, 4)), float(rng.uniform(0, 1)))
    table.append((star, on_star))
    table.append((make_product(ProductSpaceSpec(star, make_lp_space(NormedSpaceSpec(1, 2.0)))),
                  lambda rng: ProductPoint(on_star(rng), euclidean(rng.uniform(-1, 1)))))
    plane = make_lp_space(NormedSpaceSpec(2, 2.0))
    table.append((make_product(ProductSpaceSpec(plane, plane)),
                  lambda rng: ProductPoint(euclidean(*rng.uniform(-1, 1, 2)),
                                           euclidean(*rng.uniform(-1, 1, 2)))))
    return table


def test_dist_to_hull_of_one_point_is_dist_to_point():
    rng = np.random.default_rng(35)
    for space, sampler in _space_samplers():
        anchor = sampler(rng)
        queries = [sampler(rng) for _ in range(30)]
        got = _hull_values(space, [anchor], queries)
        want = ConvexFunctional.dist_to_point(anchor).evaluate_packed(space, space.pack(queries))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=space.description)


def test_dist_to_hull_two_tree_points_is_gromov_product(star3):
    caterpillar = make_metric_tree(MetricTreeSpec(
        ("a", "b", "c", "d", "e", "f"),
        (("a", "b", 1.0), ("b", "c", 0.5), ("c", "d", 2.0), ("b", "e", 0.7), ("c", "f", 1.2)),
    ))
    for tree in (star3, caterpillar):
        pts = [tree.point_on_edge(e, tree.edges[e][2] * k / 4)
               for e in range(len(tree.edges)) for k in range(5)]
        for a, b in itertools.combinations(pts[::3], 2):
            if a == b:
                continue
            got = _hull_values(tree, [a, b], pts)
            want = [(distance(tree, x, a) + distance(tree, x, b) - distance(tree, a, b)) / 2
                    for x in pts]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _assert_fine_net_bracket(space, seeds, fine, queries):
    """0 <= d(fine net) - d(conv(seeds)) <= fine.eps at every query, with some
    queries inside the hull and some outside."""
    d_hull = _hull_values(space, seeds, queries)
    gap = ConvexFunctional.dist_to_net(fine).evaluate_packed(space, space.pack(queries)) - d_hull
    assert gap.min() >= -1e-12, gap.min()
    assert gap.max() <= fine.eps, gap.max()
    assert (d_hull < 1e-12).any() and (d_hull > fine.eps).any()


def test_dist_to_hull_hyperbolic_bracketed_by_fine_net(hplane, hyp_triangle_hull):
    fine, verts = hyp_triangle_hull
    rng = np.random.default_rng(36)
    queries = [hyperbolic_point_at(rng.uniform(0, 2.5), rng.uniform(0, 2 * math.pi))
               for _ in range(300)] + verts
    _assert_fine_net_bracket(hplane, verts, fine, queries)
    # a geodesic segment: the Klein images are collinear
    ends = [hyperbolic_point_at(0.3, 0.5), hyperbolic_point_at(1.2, 2.5)]
    segment = hull_closure(hplane, PointNet.build(hplane, ends, 0.05))
    assert segment.converged
    _assert_fine_net_bracket(hplane, ends, segment.net, queries + list(segment.net.points))


def test_dist_to_hull_star_times_line_bracketed_by_fine_net():
    star = star_tree(3)
    prod = make_product(ProductSpaceSpec(star, make_lp_space(NormedSpaceSpec(1, 2.0))))
    seeds = [
        ProductPoint(star.point_on_edge(0, 0.6), euclidean(0.0)),
        ProductPoint(star.point_on_edge(1, 0.4), euclidean(0.4)),
        ProductPoint(star.point_on_edge(2, 0.5), euclidean(-0.3)),
    ]
    fine = hull_closure(prod, PointNet.build(prod, seeds, 0.1))
    assert fine.converged
    rng = np.random.default_rng(37)
    queries = [ProductPoint(star.point_on_edge(int(rng.integers(0, 3)), float(rng.uniform(0, 1))),
                            euclidean(rng.uniform(-1, 1))) for _ in range(300)]
    _assert_fine_net_bracket(prod, seeds, fine.net, queries + list(fine.net.points))
    # every point on the spine: the hull is the spine interval
    spine = [ProductPoint(star.node_point("c"), euclidean(s)) for s in (-0.2, 0.5)]
    got = _hull_values(prod, spine, queries)
    r = np.array([distance(star, q.left, star.node_point("c")) for q in queries])
    s = np.array([q.right.coords[0] for q in queries])
    np.testing.assert_allclose(got, np.hypot(r, s - np.clip(s, -0.2, 0.5)), rtol=0, atol=1e-12)


def test_dist_to_hull_unsupported_spaces_raise(star3, path_tree):
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    hplane = make_hyperbolic_plane()
    unsupported = [
        (make_lp_space(NormedSpaceSpec(2, 3.0)), euclidean(0.0, 0.0)),
        (make_product(ProductSpaceSpec(star3, hplane)),
         ProductPoint(star3.node_point("c"), hyperbolic_point_at(0.0, 0.0))),
        (make_product(ProductSpaceSpec(line, star3)),
         ProductPoint(euclidean(0.0), star3.node_point("c"))),
        (make_product(ProductSpaceSpec(star3, make_lp_space(NormedSpaceSpec(2, 2.0)))),
         ProductPoint(star3.node_point("c"), euclidean(0.0, 0.0))),
    ]
    caterpillar = make_metric_tree(MetricTreeSpec(
        ("a", "b", "c", "d"), (("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0))
    ))
    unsupported.append((make_product(ProductSpaceSpec(caterpillar, line)),
                        ProductPoint(caterpillar.node_point("a"), euclidean(0.0))))
    for space, point in unsupported:
        with pytest.raises(InvalidInputError, match=re.escape(space.description)):
            _hull_values(space, [point], [point])


# ---------------------------------------------------------------------------
# packed canonical order and greedy separation, refereed by the one-point
# oracles in oracles.py
# ---------------------------------------------------------------------------


def _duplicate_heavy_points(space_name, rng, count):
    """Points drawn from a few values per coordinate, so most rows repeat and
    -0.0 and 0.0 both occur (they are equal points)."""
    zeros = (0.0, -0.0)
    if space_name == "plane":
        vals = zeros + (0.5, -0.5, 1.0)
        return [euclidean(*rng.choice(vals, 2)) for _ in range(count)]
    if space_name == "hplane":
        dirs = ((1.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-0.0, 1.0), (-0.6, 0.8))
        pts = []
        for _ in range(count):
            r, (c, s) = rng.choice([0.0, 0.4, 0.9]), dirs[rng.integers(len(dirs))]
            pts.append(hyperboloid(math.cosh(r), math.sinh(r) * c, math.sinh(r) * s))
        return pts
    if space_name == "star3":  # offset 0 on edge 0 is the centre, on other edges not canonical
        edges = rng.integers(3, size=count).tolist()
        return [TreePoint(e, float(rng.choice((zeros if e == 0 else ()) + (0.25, 1.0))))
                for e in edges]
    vals = zeros + (0.5, 1.0)
    return [ProductPoint(euclidean(rng.choice(vals)), euclidean(rng.choice(vals)))
            for _ in range(count)]


def _flip_zeros(p):
    """The same point with the sign of every zero coordinate flipped."""
    if isinstance(p, ProductPoint):
        return ProductPoint(_flip_zeros(p.left), _flip_zeros(p.right))
    if isinstance(p, TreePoint):
        return TreePoint(p.edge, -p.offset if p.offset == 0 else p.offset)
    return type(p)(tuple(-c if c == 0 else c for c in p.coords))


@pytest.mark.parametrize("space_name", ["plane", "hplane", "star3", "product_space"])
def test_canonical_rows_match_sorted_set(space_name, request):
    space = request.getfixturevalue(space_name)
    rng = np.random.default_rng(41)
    for count in (1, 2, 300):
        pts = _duplicate_heavy_points(space_name, rng, count)
        # the last copy of some point differs from its first copy in the sign
        # of a zero, so keeping any copy but the first shows in the reprs
        signed = [p for p in pts if repr(_flip_zeros(p)) != repr(p)]
        pts += [_flip_zeros(p) for p in signed[:1]]
        for p in pts:
            space.validate_point(p)
        packed = space.pack(pts)
        got = space.points_from_packed(packed[canonical_rows(packed)])
        # repr tells -0.0 from 0.0, so the kept representative is checked too
        assert [repr(p) for p in got] == [repr(p) for p in oracles.canonical_dedup(pts)]


def test_canonical_rows_keep_first_signed_zero(plane):
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        pts = [euclidean(1, 1)] + [euclidean(first, 1), euclidean(second, 1)] * 20
        got = plane.points_from_packed(plane.pack(pts)[canonical_rows(plane.pack(pts))])
        assert [math.copysign(1.0, p.coords[0]) for p in got] == [math.copysign(1.0, first), 1.0]


def _random_points(space_name, rng, count):
    if space_name == "plane":
        return [euclidean(*rng.uniform(0, 1, 2)) for _ in range(count)]
    if space_name == "hplane":
        return [hyperbolic_point_at(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
                for _ in range(count)]
    if space_name == "star3":
        return [TreePoint(int(rng.integers(3)), float(rng.uniform(0.01, 0.99)))
                for _ in range(count)]
    return [ProductPoint(euclidean(rng.uniform(0, 1)), euclidean(rng.uniform(0, 1)))
            for _ in range(count)]


@pytest.mark.parametrize("space_name, eps, count", [
    ("plane", 0.1, 1300), ("hplane", 0.2, 1300), ("star3", 0.05, 1300),
    ("product_space", 0.1, 1300),
])
def test_greedy_separation_matches_one_point_oracle(space_name, eps, count, request):
    # 1300 candidates span many leader blocks, so both the kills by earlier
    # blocks' keepers and the in-block decisions are exercised
    space = request.getfixturevalue(space_name)
    pts = oracles.canonical_dedup(_random_points(space_name, np.random.default_rng(43), count))
    want = oracles.greedy_separation(space, pts, eps)
    rows = _greedy_separate(space, space.pack(pts), eps)
    assert [pts[i] for i in rows] == want
    assert 1 < len(want) < len(pts)
    rng = np.random.default_rng(44)
    shuffled = [pts[i] for i in rng.permutation(len(pts))] + pts[:50]
    assert PointNet.build(space, shuffled, eps).points == tuple(want)


def _hull_shaped(case, caterpillar):
    """(space, candidate points, eps) shaped like a hull round's candidates:
    the samples at t = k/256 of every segment between a few seed points, in
    canonical order.  Each kept row has dozens of near-duplicates, and the
    clusters around crossing segments interleave in canonical order, so they
    straddle leader blocks.  On the linear cases seed and samples are dyadic,
    so many rows lie exactly eps/2 = 1/8 apart."""
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.25), (0.25, 0.75)]
    if case in ("l1", "l2", "linf"):
        space = make_lp_space(NormedSpaceSpec(2, {"l1": 1.0, "l2": 2.0, "linf": math.inf}[case]))
        seed, eps = [euclidean(*c) for c in corners], 0.25
    elif case == "l2xl2":
        space = make_product(ProductSpaceSpec(make_lp_space(NormedSpaceSpec(1, 2.0)),
                                              make_lp_space(NormedSpaceSpec(1, 2.0))))
        seed, eps = [ProductPoint(euclidean(a), euclidean(b)) for a, b in corners], 0.25
    elif case.startswith("hyperbolic"):
        space = make_hyperbolic_plane()
        seed = [hyperbolic_point_at(1.0, k * 2 * math.pi / 5) for k in range(5)]
        seed, eps = seed + [hyperbolic_point_at(0.0, 0.0)], 0.2
    elif case == "caterpillar":
        space = caterpillar
        seed = [space.node_point(nm) for nm in ("a0", "b0", "a1", "a2", "b2", "a3")]
        seed, eps = seed + [space.node_point("s1")], 0.1
    else:  # star x line
        star = star_tree(3)
        space = make_product(ProductSpaceSpec(star, make_lp_space(NormedSpaceSpec(1, 2.0))))
        seed = [ProductPoint(star.node_point(f"l{i}"), euclidean(y)) for i in range(3)
                for y in (0.0, 1.0)]
        seed, eps = seed + [ProductPoint(star.node_point("c"), euclidean(0.5))], 0.2
    P = space.pack(seed)
    I, J = np.triu_indices(len(P), 1)
    cands = np.concatenate([P, space.segment_batch(P, I, J, np.arange(1, 256) / 256)])
    if case == "hyperbolic_boosted":
        cands = cands @ lorentz_boost(3.0).T
    return space, space.points_from_packed(cands[canonical_rows(cands)]), eps


_HULL_SHAPED = ["l1", "l2", "linf", "l2xl2", "hyperbolic", "hyperbolic_boosted",
                "caterpillar", "star_x_line"]


@pytest.mark.parametrize("case", _HULL_SHAPED)
def test_greedy_separation_matches_oracle_on_hull_shaped_sets(case, caterpillar):
    space, pts, eps = _hull_shaped(case, caterpillar)
    want = oracles.greedy_separation(space, pts, eps)
    P = space.pack(pts)
    rows = _greedy_separate(space, P, eps)
    assert [pts[i] for i in rows] == want
    assert len(pts) > 10 * len(want) and len(pts) > 16 * 64
    if case in ("l1", "l2", "linf", "l2xl2"):
        kept = P[rows]
        assert (space.dist_matrix(kept, kept) == eps / 2).any()
    # the small and degenerate inputs: no rows, one, two, and the largest
    # cluster within eps/4 of one row, whose first row alone is kept
    for few in ([], pts[:1], pts[:2], pts[len(pts) // 2 : len(pts) // 2 + 2]):
        assert [few[i] for i in _greedy_separate(space, space.pack(few), eps)] == \
            oracles.greedy_separation(space, few, eps)
    step = BLOCK_ENTRIES // len(P)
    counts = np.concatenate([(space.dist_matrix(P[lo:lo + step], P) < eps / 4).sum(axis=1)
                             for lo in range(0, len(P), step)])
    centre = int(np.argmax(counts))
    close = space.dist_matrix(P[centre:centre + 1], P)[0] < eps / 4
    cluster = [pts[i] for i in np.flatnonzero(close)]
    got = _greedy_separate(space, space.pack(cluster), eps)
    assert [cluster[i] for i in got] == oracles.greedy_separation(space, cluster, eps)
    assert len(got) == 1 and len(cluster) > 64


def _raster_space(name):
    """A 2-coordinate space for the raster tests, with its point maker."""
    if name == "l2xl2":
        seg = make_lp_space(NormedSpaceSpec(1, 2.0))
        pair = lambda x, y: ProductPoint(euclidean(x), euclidean(y))  # noqa: E731
        return make_product(ProductSpaceSpec(seg, seg)), pair
    p = {"l1": 1.0, "l2": 2.0, "l3": 3.0, "linf": math.inf}[name]
    return make_lp_space(NormedSpaceSpec(2, p)), euclidean


_HALF_EPS_CASES = [(name, step, kept) for name in ("l2", "l1", "linf", "l2xl2")
                   for step, kept in ((0.125, 33 * 33), (0.0625, 17 * 17))]


@pytest.mark.parametrize("name, step, kept", _HALF_EPS_CASES,
                         ids=[f"{step}-{kept}" + ("" if name == "l2" else f"-{name}")
                              for name, step, kept in _HALF_EPS_CASES])
def test_greedy_separation_keeps_exact_half_eps_gaps(name, step, kept, monkeypatch):
    # dyadic 33 x 33 raster, so every axis gap is exact: at step 0.125 all
    # gaps equal eps/2 and every point is kept; at 0.0625 every other point
    # is killed and the survivors tie at exactly eps/2 (in l1 the diagonal
    # neighbours tie too, and the keepers form a checkerboard).  The raster spans
    # many leader blocks, so ties reach the KD ball hits of earlier blocks'
    # keepers, and the exact paired_dist that re-decides them outside the
    # leaders' dense dist_matrix block.
    space, point = _raster_space(name)
    eps = 0.25
    pts = [point(i * step, j * step) for i in range(33) for j in range(33)]
    want = oracles.greedy_separation(space, pts, eps)
    assert len(want) == (kept + 16 * 16 if name == "l1" and step == 0.0625 else kept)
    hit_ties, in_block = [], []
    exact, block_matrix = space.paired_dist, space.dist_matrix

    def counted(A, B):
        d = exact(A, B)
        if not in_block:
            hit_ties.append(int((d == eps / 2).sum()))
        return d

    def block(A, B):
        in_block.append(True)
        D = block_matrix(A, B)
        in_block.pop()
        return D

    monkeypatch.setattr(space, "paired_dist", counted)
    monkeypatch.setattr(space, "dist_matrix", block)
    rows = _greedy_separate(space, space.pack(pts), eps)
    assert [pts[i] for i in rows] == want
    assert sum(hit_ties) > 0
    assert PointNet.build(space, pts[::-1], eps).points == tuple(want)


@pytest.mark.parametrize("name", ["l1", "l2", "l3", "linf", "l2xl2"])
def test_greedy_block_and_kill_distances_agree(name):
    # greedy separation decides a block of leaders from its dense
    # dist_matrix block and kills later rows by paired_dist, so the two must
    # agree at eps/2: paired_dist of (J, I) is entry [J, I] bit for bit.  A
    # dyadic raster of step 1/16 puts many pairs at r = 1/16 (exactly, but in l3)
    space, point = _raster_space(name)
    rng = np.random.default_rng(45)
    pts = [point(i / 16, j / 16) for i in range(17) for j in range(17)]
    pts += [point(*rng.uniform(0, 1, 2)) for _ in range(200)]
    P = space.pack(pts)
    D = space.dist_matrix(P, P)
    I, J = np.triu_indices(len(pts), k=1)
    exact = space.paired_dist(P[J], P[I])
    assert exact.tobytes() == D[J, I].tobytes()


def test_diameter_is_maximum_over_row_blocks():
    # 2500 points span 25 row blocks; the diameter is the full matrix's
    # maximum, and no more than a few blocks are held at once
    space = make_lp_space(NormedSpaceSpec(3, 2.0))
    rng = np.random.default_rng(46)
    net = PointNet.build(space, [euclidean(*rng.uniform(0, 1, 3)) for _ in range(2500)], 1e-6)
    assert len(net) == 2500
    full = space.dist_matrix(net.packed, net.packed)
    want, full_bytes = float(full.max()), full.nbytes
    del full
    tracemalloc.start()
    try:
        got = net.diameter
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < full_bytes / 2


# ---------------------------------------------------------------------------
# far_rows: nearest queries that skip the rows of certified grid cells
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _triangle_hull_rows():
    """Packed rows of the hull net of the default hyperbolic triangle."""
    inst = generate_instance("hyp_triangle")
    space = make_hyperbolic_plane()
    seed = PointNet.build(space, inst.seed_points, inst.params.eps)
    return hull_closure(space, seed).net.packed


def _cover_net(case, rng):
    """(net rows, r) for the far_rows cases."""
    if case == "random":
        return rng.uniform(0, 1, (300, 2)), 0.05
    if case == "raster":  # dyadic, every axis gap exactly r = eps/2
        g = np.arange(17) / 16
        return np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2), 1 / 16
    if case == "collinear":  # the y axis of the box has zero width
        return np.column_stack([rng.uniform(0, 1, 60), np.full(60, 0.3)]), 0.04
    if case in ("flat20", "flat30"):  # a line in R^20 or R^30: all but one axis flat
        P = np.full((60, int(case[4:])), 0.3)
        P[:, 0] = rng.uniform(0, 1, 60)
        return P, 0.04
    if case == "r8":  # the cell grid coarsens until no cell can be covered
        return rng.uniform(0, 1, (200, 8)), 0.1
    if case == "triangle":
        return _triangle_hull_rows(), 0.05
    if case == "far":  # the triangle moved out to x0 from 12 to about 32
        return _triangle_hull_rows() @ lorentz_boost(math.acosh(12.0)).T, 0.05
    if case == "offsheet":  # two net points moved 0.999e-9 off the sheet, one each way
        P = _triangle_hull_rows().copy()
        for row, off in ((0, 0.999e-9), (1, -0.999e-9)):
            P[row, 0] = math.sqrt(P[row, 0] ** 2 + off)
            make_hyperbolic_plane().validate_point(hyperboloid(*P[row]))
        return P, 0.05
    # a line with non-dyadic corner and radius whose second point sits on a
    # cell edge, so the points at distance r from it sit on cell edges too:
    # there a cell's certificate is tight, and rounding decides it
    lo, r = rng.uniform(-1, 1), rng.uniform(0.03, 0.07)
    h = r / 4
    return np.array([[lo], [lo + 2 * h], [lo + 2 * h + 5 * r], [lo + 40 * h]]), r


def _float_neighbours(probe, axes):
    """The probe rows moved by up to 3 ulps either way along each axis."""
    parts = []
    for axis in axes:
        for steps in range(-3, 4):
            moved = probe.copy()
            for _ in range(abs(steps)):
                moved[:, axis] = np.nextafter(moved[:, axis], np.sign(steps) * np.inf)
            parts.append(moved)
    return parts


def _cover_queries(P, r, rng):
    """Uniform points over the net's box grown by 2r (so some lie off the
    grid), far points, segment samples between net points, and probes at
    distance about r from net points along each axis, with their float
    neighbours."""
    lo, hi = P.min(axis=0) - 2 * r, P.max(axis=0) + 2 * r
    n = P.shape[1]
    parts = [rng.uniform(lo, hi, (8000, n)), np.vstack([lo - 10, hi + 10])]
    I, J = rng.integers(len(P), size=(2, 300))
    t = (np.arange(1, 8) / 8)[:, None, None]
    parts.append(((1 - t) * P[I] + t * P[J]).reshape(-1, n))
    X = P[rng.permutation(len(P))[:40]]
    for axis in range(n):
        for sign in (-1.0, 1.0):
            probe = X.copy()
            probe[:, axis] += sign * r
            parts += _float_neighbours(probe, [axis])
    return np.vstack(parts)


def _hyp_cover_queries(P, r, rng):
    """The hyperbolic counterpart of `_cover_queries`: sheet points over the
    (x1, x2) box grown by 2r, far points, segment samples, and probes at
    distance r along geodesics from net points (the off-sheet points of the
    "offsheet" net among them) in 8 directions, with their float neighbours
    in x1 and x2."""
    hplane = make_hyperbolic_plane()
    lift = lambda X: np.column_stack([np.sqrt(1 + (X * X).sum(axis=1)), X])  # noqa: E731
    lo, hi = P[:, 1:].min(axis=0) - 2 * r, P[:, 1:].max(axis=0) + 2 * r
    parts = [lift(rng.uniform(lo, hi, (8000, 2))), lift(np.vstack([lo - 10, hi + 10]))]
    I, J = rng.integers(len(P), size=(2, 300))
    parts.append(hplane.segment_batch(P, I, J, np.arange(1, 8) / 8))
    X = P[np.r_[0, 1, 2 + rng.permutation(len(P) - 2)[:38]]]
    mink = np.array([-1.0, 1.0, 1.0])
    for theta in np.arange(8) * np.pi / 4:
        u = np.array([0.0, math.cos(theta), math.sin(theta)])
        v = u + ((X * mink) @ u)[:, None] * X  # tangent part of u at each X
        v /= np.sqrt(((v * v) * mink).sum(axis=1))[:, None]
        parts += _float_neighbours(math.cosh(r) * X + math.sinh(r) * v, [1, 2])
    # the corners of the cover's cells (side r/4 from a box corner at 0) within
    # 2r of the net, each moved an ulp into the four cells that meet there:
    # a corner is where a cell's half-diagonal bound is tight
    h, Y = r / 4, P[:, 1:]
    axes = [np.arange(np.floor(a / h) - 8, np.ceil(b / h) + 9) * h
            for a, b in zip(Y.min(axis=0), Y.max(axis=0))]
    corners = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    corners = corners[cKDTree(Y).query(corners)[0] <= 2 * r]
    for ux, uy in itertools.product((-np.inf, np.inf), repeat=2):
        parts.append(lift(np.column_stack([np.nextafter(corners[:, 0], ux),
                                           np.nextafter(corners[:, 1], uy)])))
    return np.vstack(parts)


def _random_cover_tree(nodes, seed):
    """Random recursive tree: node i hangs off a uniformly drawn earlier node
    by an edge of length in [0.1, 1.3), stored head-first about half the time."""
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(nodes)]
    edges = []
    for i in range(1, nodes):
        parent, w = names[int(rng.integers(0, i))], float(rng.uniform(0.1, 1.3))
        edges.append((parent, names[i], w) if rng.random() < 0.5 else (names[i], parent, w))
    return make_metric_tree(MetricTreeSpec(tuple(names), tuple(edges)))


#: trees of the cover cases: the unit star, a star with uneven edges (the
#: edge intervals of its cover do not start on cell boundaries) and a random
#: tree whose diameter is several edges long
_COVER_TREES = {
    "star": lambda: star_tree(3),
    "uneven_star": lambda: make_metric_tree(MetricTreeSpec(
        ("c", "a", "b", "d"), (("c", "a", 0.7), ("c", "b", 1.3), ("c", "d", 0.45)))),
    "random_tree": lambda: _random_cover_tree(12, 53),
}


def _tree_rows(tree, edge, off):
    """Packed canonical tree points at the given edges and offsets, the
    offsets clipped to their edges."""
    edge = np.asarray(edge, dtype=np.int64)
    return np.column_stack(tree._canonical(edge, np.clip(off, 0.0, tree._len[edge])))


def _tree_cover_net(case, rng):
    """(tree, net rows, r) for the tree cover cases: each edge's head and
    four points at offsets from 3r (or half the edge) to the head, so that
    the stars' leaves are in the net and their centre is far from it."""
    tree = _COVER_TREES[case]()
    r = {"star": 0.037, "uneven_star": 0.037, "random_tree": 0.041}[case]
    edge = np.repeat(np.arange(len(tree.edges)), 5)
    length = tree._len[edge]
    off = np.where(np.arange(len(edge)) % 5, rng.uniform(np.minimum(3 * r, length / 2), length),
                   length)
    P = _tree_rows(tree, edge, off)
    return tree, P[canonical_rows(P)], r


def _tree_cover_queries(tree, P, r, rng):
    """Tree points: uniform ones, a crowd within 3r of the edges' ends, the
    nodes, segment samples between net points, probes at distance r along
    the edge from net points, and the points on cell boundaries (side r/4)
    within 3r of an edge's end, each with its float neighbours in offset."""
    n_edges = len(tree.edges)
    length = tree._len
    e = rng.integers(0, n_edges, 8000)
    near = rng.uniform(0, 3 * r, 4000)
    parts = [_tree_rows(tree, e[:4000], rng.uniform(0, length[e[:4000]])),
             _tree_rows(tree, e[4000:], np.where(rng.random(4000) < 0.5, near,
                                                 length[e[4000:]] - near)),
             _tree_rows(tree, np.arange(n_edges).repeat(2), np.c_[np.zeros(n_edges), length].ravel())]
    I, J = rng.integers(len(P), size=(2, 300))
    parts.append(tree.segment_batch(P, I, J, np.arange(1, 8) / 8))
    h, start = r / 4, tree.cover_frame(P).coords(_tree_rows(tree, np.arange(n_edges),
                                                            np.zeros(n_edges)))[:, 0]
    probes = [P[:, 1] - r, P[:, 1] + r]
    edges = [P[:, 0], P[:, 0]]
    for k in range(n_edges):
        for a, b in ((0.0, 3 * r), (length[k] - 3 * r, length[k])):
            cells = np.arange(np.ceil((start[k] + a) / h), np.floor((start[k] + b) / h) + 1)
            probes.append(cells * h - start[k])
            edges.append(np.full(len(cells), k))
    probe = np.column_stack([np.concatenate(edges), np.concatenate(probes)])
    for moved in _float_neighbours(probe, [1]):
        parts.append(_tree_rows(tree, moved[:, 0], moved[:, 1]))
    return np.vstack(parts)


def _far_rows_case(kind, case, rng):
    """(space, net rows, r, queries) of a far_rows case."""
    if kind == "tree":
        space, P, r = _tree_cover_net(case, rng)
        return space, P, r, _tree_cover_queries(space, P, r, rng)
    P, r = _cover_net(case, rng)
    Q = (_hyp_cover_queries if kind == "hyp" else _cover_queries)(P, r, rng)
    return _cover_space(kind, P.shape[1]), P, r, Q


def _cover_space(kind, n):
    """The space of a far_rows case, whose packed rows are the net's rows: the
    l2 x l2 product splits the coordinates between its factors."""
    if kind == "hyp":
        return make_hyperbolic_plane()
    if kind == "l2xl2":
        a = n // 2
        return make_product(ProductSpaceSpec(make_lp_space(NormedSpaceSpec(a, 2.0)),
                                             make_lp_space(NormedSpaceSpec(n - a, 2.0))))
    return make_lp_space(NormedSpaceSpec(n, kind))


_FAR_ROWS_CASES = [(kind, case) for case in ("random", "raster", "collinear", "line", "r8")
                   for kind in (1.0, 2.0, math.inf, "l2xl2")
                   if not (kind == "l2xl2" and case == "line")]  # a product needs 2 axes
# one cell per flat axis: the grid stays small however many axes are flat; in
# l2 the cell centres sit too far off the line to certify, in linf they do not
_FAR_ROWS_CASES += [(2.0, "flat30"), ("l2xl2", "flat30"), (math.inf, "flat20")]
_FAR_ROWS_CASES += [("hyp", case) for case in ("triangle", "far", "offsheet")]
_FAR_ROWS_CASES += [("tree", case) for case in _COVER_TREES]


def _kind_id(kind):
    return kind if isinstance(kind, str) else f"l{kind:g}"


@pytest.mark.parametrize("kind, case", _FAR_ROWS_CASES,
                         ids=[f"{case}-{_kind_id(kind)}" for kind, case in _FAR_ROWS_CASES])
def test_far_rows_match_min_dist(kind, case, monkeypatch):
    seeds = range(40) if case == "line" else [51]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        space, P, r, Q = _far_rows_case(kind, case, rng)
        index = space.make_index(P)
        want = np.nonzero(index.min_dist(Q) >= r)[0]
        assert 0 < len(want) < len(Q)
        queried = []
        nearest = index.min_dist

        def counted(A):
            out = nearest(A)
            queried.append(len(out))
            return out

        monkeypatch.setattr(index, "min_dist", counted)
        got = _CellCover(space, P, r).far_rows(Q, index)
        assert got.dtype.kind == "i"
        np.testing.assert_array_equal(got, want)
        if case == "r8":
            assert queried == [len(Q)]  # no cell centre queried, every row queried
        elif case == "flat30":
            assert queried[-1] == len(Q)  # a grid of 101 cells, none covered
        elif seed == seeds[0]:
            assert queried[-1] < len(Q)  # after the cell centres, the rows left open


@pytest.mark.parametrize("kind", [2.0, "l2xl2", "hyp", *_COVER_TREES], ids=_kind_id)
def test_cover_persists_across_inserts(kind):
    # one cover, built from the first third of a net, answers for the net
    # grown by the other two thirds as a fresh index does, and the rows
    # inserted certify cells that a sample visited while they were open
    rng = np.random.default_rng(52)
    if kind in _COVER_TREES:
        space, P, r, Q = _far_rows_case("tree", kind, rng)
    else:
        space, P, r, Q = _far_rows_case(kind, "triangle" if kind == "hyp" else "random", rng)
    batches = np.array_split(P[rng.permutation(len(P))], 3)
    cover = _CellCover(space, batches[0], r)
    certified = []
    for k in range(3):
        if k:
            before = int((cover.dist < cover.limit).sum())
            cover.insert(batches[k])
            certified.append(int((cover.dist < cover.limit).sum()) - before)
        index = space.make_index(np.vstack(batches[: k + 1]))
        want = np.nonzero(index.min_dist(Q) >= r)[0]
        np.testing.assert_array_equal(cover.far_rows(Q, index), want)
    assert min(certified) > 0


@pytest.mark.parametrize("case", list(_COVER_TREES))
def test_tree_cover_frame_bounds_distances(case):
    # d(x, y) <= |u(x) - u(y)| for every pair, with equality on one edge:
    # the gap between two edges' intervals is at least the tree's diameter
    rng = np.random.default_rng(54)
    tree, P, r = _tree_cover_net(case, rng)
    Q = _tree_cover_queries(tree, P, r, rng)[rng.permutation(8000)[:600]]
    U = tree.cover_frame(P).coords(Q)[:, 0]
    D, dU = tree.dist_matrix(Q, Q), np.abs(U[:, None] - U[None, :])
    tol = 1e-12 * np.abs(U).max()
    assert (D <= dU + tol).all()
    one_edge = Q[:, None, 0] == Q[None, :, 0]
    assert one_edge.sum() > len(Q) and np.allclose(D[one_edge], dU[one_edge], rtol=0, atol=tol)


@pytest.mark.parametrize("case", list(_COVER_TREES))
def test_tree_cover_cells_hold_their_samples_close(case):
    # at every radius, a cell's centre maps to a point within half a cell of
    # each sample in the cell (on the sample's edge), which is what lets the
    # cell certify them.  Cells as wide as the gap between two edges'
    # intervals could reach both, so those radii get no cells; radii that
    # make the cells between one and two diameters wide, where a centre on
    # the wrong edge would lie more than half a cell from a sample, are
    # swept densely
    rng = np.random.default_rng(55)
    tree, P, _ = _tree_cover_net(case, rng)
    diameter = float(tree._dist.max())
    Q = np.vstack([_tree_cover_queries(tree, P, r, rng) for r in (0.05, 0.3, diameter)])
    gap, with_cells = tree.cover_frame(P).gap, 0
    for r in np.r_[np.geomspace(0.01, 4 * diameter, 40), np.linspace(4 * gap, 8 * diameter, 150)]:
        cover = _CellCover(tree, P, r)
        if cover.dist is None:
            assert r / 4 * (1 + 1e-9) >= gap
            continue
        with_cells += 1
        cells = cover._cells(cover.frame.coords(Q))
        assert (cells >= 0).all()
        d = tree.paired_dist(Q, cover._centres(cells))
        assert (d <= cover.h / 2 * (1 + 1e-9) + 1e-12 * float(cover.frame.hi[0])).all()
    assert with_cells >= 39


# ---------------------------------------------------------------------------
# hausdorff
# ---------------------------------------------------------------------------


def test_hausdorff_examples(plane):
    A = PointNet.build(plane, [euclidean(0, 0)], 0.1)
    B = PointNet.build(plane, [euclidean(0, 0), euclidean(0, 3)], 0.1)
    assert hausdorff(plane, A, A) == 0.0
    assert hausdorff(plane, A, B) == 3.0
    assert hausdorff(plane, B, A) == 3.0
    corners = PointNet.build(plane, [euclidean(a, b) for a in (0, 1) for b in (0, 1)], 0.1)
    raster = PointNet(
        plane,
        plane.pack(sorted((euclidean(*c) for c in oracles.square_raster(0.01)),
                          key=canonical_key)),
        0.1,
    )
    assert hausdorff(plane, corners, raster) == pytest.approx(math.sqrt(2) / 2, abs=0.02)


def test_directed_excess_checks_nets(plane):
    A = PointNet.build(plane, [euclidean(0, 0)], 0.1)
    B = PointNet.build(plane, [euclidean(0, 0), euclidean(0, 3)], 0.1)
    assert (directed_excess(plane, A, B), directed_excess(plane, B, A)) == (0.0, 3.0)
    l1 = make_lp_space(NormedSpaceSpec(2, 1.0))
    # a net of l1(R^2) used to give an excess of 1.0 here
    other = PointNet.build(l1, [euclidean(1, 0)], 0.1)
    empty = A.take(np.empty(0, dtype=np.int64))
    for X, Y in [(A, other), (other, A), (A, empty), (empty, A)]:
        with pytest.raises(InvalidInputError):
            directed_excess(plane, X, Y)


@given(st.lists(st.tuples(coord, coord), min_size=2, max_size=6, unique=True))
@settings(max_examples=25, deadline=None)
def test_hull_extensive_and_separated(seed_coords):
    plane = make_lp_space(NormedSpaceSpec(2, 2.0))
    eps = 0.25
    seed = PointNet.build(plane, [euclidean(*c) for c in seed_coords], eps)
    res = hull_closure(plane, seed)
    assert set(seed.points) <= set(res.net.points)
    P = res.net.packed
    D = plane.dist_matrix(P, P)
    np.fill_diagonal(D, np.inf)
    if len(res.net.points) > 1:
        assert D.min() >= eps / 2
    if res.converged:
        ok, _ = is_convex_net(plane, res.net)
        assert ok
