"""Model space constructors: l^p, hyperbolic plane, metric trees, products."""

from __future__ import annotations

import copy
import math
from collections import deque

import numpy as np
import pytest

import oracles
from bicombing_lab import (
    InvalidInputError,
    MetricTreeSpec,
    NormedSpaceSpec,
    PointNet,
    ProductPoint,
    ProductSpaceSpec,
    TreePoint,
    check_axioms,
    distance,
    euclidean,
    evaluate_bicombing,
    hull_closure,
    hyperbolic_point_at,
    hyperboloid,
    lorentz_boost,
    make_hyperbolic_plane,
    make_lp_space,
    make_metric_tree,
    make_product,
    star_tree,
)


# ---------------------------------------------------------------------------
# l^p
# ---------------------------------------------------------------------------


def test_lp_norms():
    l2 = make_lp_space(NormedSpaceSpec(2, 2.0))
    assert distance(l2, euclidean(0, 0), euclidean(1, 1)) == pytest.approx(math.sqrt(2))
    linf = make_lp_space(NormedSpaceSpec(2, math.inf))
    assert distance(linf, euclidean(0, 0), euclidean(1, -2)) == 2.0
    l1 = make_lp_space(NormedSpaceSpec(3, 1.0))
    mid = evaluate_bicombing(l1, euclidean(0, 0, 0), euclidean(2, 0, 2), 0.5)
    assert mid == euclidean(1, 0, 1)


def test_lp_rejects_non_norm_exponent():
    with pytest.raises(InvalidInputError):
        make_lp_space(NormedSpaceSpec(2, 0.5))


def test_lp_affine_segments_exactly_convex():
    rng = np.random.default_rng(1)
    for p in (1.0, 2.0, math.inf):
        space = make_lp_space(NormedSpaceSpec(2, p))
        quads = [
            tuple(euclidean(*rng.uniform(-1, 1, 2)) for _ in range(4)) for _ in range(25)
        ]
        rep = check_axioms(space, quads, grid=16, tol=1e-9)
        assert rep.passed, f"p={p}"
        assert rep.max_convexity_violation <= 1e-12


# ---------------------------------------------------------------------------
# hyperbolic plane
# ---------------------------------------------------------------------------


def test_hyperbolic_distance_against_reference(hplane):
    x = hyperboloid(1, 0, 0)
    y = hyperboloid(math.cosh(1), math.sinh(1), 0)
    # minus the Minkowski pairing of x and y is cosh(1); the reference value is
    # acosh of that, evaluated at 50 digits
    minus_pairing = y.coords[0]
    ref = oracles.acosh_reference(minus_pairing)
    assert ref == pytest.approx(1.0, abs=1e-15)
    assert distance(hplane, x, y) == pytest.approx(ref, abs=1e-12)


def test_hyperbolic_midpoint_on_radial_geodesic(hplane):
    # geodesic through (1,0,0) in the e1 direction, evaluated at arclength 1
    x = hyperboloid(1, 0, 0)
    y = hyperboloid(math.cosh(2), math.sinh(2), 0)
    mid = evaluate_bicombing(hplane, x, y, 0.5)
    assert mid.coords[0] == pytest.approx(math.cosh(1), abs=1e-12)
    assert mid.coords[1] == pytest.approx(math.sinh(1), abs=1e-12)
    assert abs(mid.coords[2]) <= 1e-12


def test_hyperbolic_points_renormalized(hplane):
    rng = np.random.default_rng(2)
    x = hyperbolic_point_at(2.0, 0.3)
    y = hyperbolic_point_at(2.5, 4.0)
    for t in rng.uniform(0, 1, 20):
        z = evaluate_bicombing(hplane, x, y, float(t))
        c = z.coords
        assert abs(-c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + 1.0) <= 1e-12


def test_hyperbolic_rejects_off_sheet_points(hplane):
    with pytest.raises(InvalidInputError):
        distance(hplane, hyperboloid(1.5, 0, 0), hyperboloid(1, 0, 0))
    with pytest.raises(InvalidInputError):
        distance(hplane, hyperboloid(-1, 0, 0), hyperboloid(1, 0, 0))


def test_hyperbolic_boost_invariance(hplane):
    rng = np.random.default_rng(3)
    B = lorentz_boost(0.7)
    for _ in range(50):
        x = hyperbolic_point_at(rng.uniform(0, 2.5), rng.uniform(0, 2 * math.pi))
        y = hyperbolic_point_at(rng.uniform(0, 2.5), rng.uniform(0, 2 * math.pi))
        bx = hyperboloid(*(B @ np.array(x.coords)))
        by = hyperboloid(*(B @ np.array(y.coords)))
        assert distance(hplane, bx, by) == pytest.approx(distance(hplane, x, y), abs=1e-9)


def test_hyperbolic_axioms(hplane):
    rng = np.random.default_rng(4)
    quads = [
        tuple(
            hyperbolic_point_at(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi))
            for _ in range(4)
        )
        for _ in range(100)
    ]
    rep = check_axioms(hplane, quads, grid=16, tol=1e-7)
    assert rep.passed
    assert rep.max_convexity_violation <= 1e-7
    # refinement oracle: a grid-64 pass confirms the verdict is not a sampling
    # artifact (the true defect is never positive on this space)
    fine = check_axioms(hplane, quads, grid=64, tol=1e-7)
    assert fine.passed
    assert fine.max_convexity_violation <= 1e-7


# ---------------------------------------------------------------------------
# metric trees
# ---------------------------------------------------------------------------


def test_star_tree_distances(star3):
    a, b = star3.node_point("l0"), star3.node_point("l1")
    assert distance(star3, a, b) == 2.0
    mid = evaluate_bicombing(star3, a, b, 0.5)
    assert mid == star3.node_point("c")


def test_path_tree_walk(path_tree):
    a, c = path_tree.node_point("a"), path_tree.node_point("c")
    # cumulative arclength: d(a,c) = 3, so t=0.75 lands 2.25 from a, which is
    # 1.25 into the length-2 edge b-c
    q = evaluate_bicombing(path_tree, a, c, 0.75)
    assert q == TreePoint(edge=1, offset=1.25)


def test_tree_additivity_along_paths(path_tree):
    a, b, c = (path_tree.node_point(n) for n in "abc")
    assert abs(distance(path_tree, a, b) + distance(path_tree, b, c)
               - distance(path_tree, a, c)) <= 1e-12
    x = path_tree.point_on_edge(0, 0.25)
    y = path_tree.point_on_edge(1, 1.75)
    assert abs(distance(path_tree, x, b) + distance(path_tree, b, y)
               - distance(path_tree, x, y)) <= 1e-12


def test_tree_node_canonicalization(star3):
    # offset 0 on every spoke edge is the same center point
    reps = {star3.point_on_edge(e, 0.0) for e in range(3)}
    assert len(reps) == 1
    assert star3.point_on_edge(0, 1.0) == star3.node_point("l0")


def test_tree_rejects_bad_specs():
    with pytest.raises(InvalidInputError):
        make_metric_tree(MetricTreeSpec(("a", "b", "c"),
                                        (("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0))))
    with pytest.raises(InvalidInputError):
        make_metric_tree(MetricTreeSpec(("a", "b", "c", "d"),
                                        (("a", "b", 1.0), ("c", "d", 1.0))))
    with pytest.raises(InvalidInputError):
        make_metric_tree(MetricTreeSpec(("a", "b"), (("a", "b", 0.0),)))


def test_tree_axioms():
    t = star_tree(5)
    rng = np.random.default_rng(5)
    def rnd_point():
        e = int(rng.integers(0, 5))
        return t.point_on_edge(e, float(rng.uniform(0, 1)))
    quads = [tuple(rnd_point() for _ in range(4)) for _ in range(100)]
    rep = check_axioms(t, quads, grid=16, tol=1e-9)
    assert rep.passed


def test_tree_dist_matrix_matches_scalar(star3):
    pts = [star3.point_on_edge(e, o) for e in range(3) for o in (0.1, 0.5, 0.9)]
    P = star3.pack(pts)
    D = star3.dist_matrix(P, P)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert D[i, j] == pytest.approx(distance(star3, x, y), abs=1e-14)


def _tree_points(tree, m: int, seed: int) -> list[TreePoint]:
    """m seeded points, a fifth of them at nodes (offset 0 or the edge length)."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(m):
        e = int(rng.integers(0, len(tree.edges)))
        length = tree.edges[e][2]
        r = rng.random()
        off = 0.0 if r < 0.1 else length if r < 0.2 else float(rng.uniform(0.0, length))
        pts.append(tree.point_on_edge(e, off))
    return pts


@pytest.fixture(params=["star", "random"])
def tree_case(request, random_tree):
    return star_tree(3) if request.param == "star" else random_tree


def test_tree_node_table_matches_breadth_first_sums(random_tree):
    # every entry is the sum a breadth-first walk from the source forms, one
    # edge at a time, bit for bit
    adj = {}
    for u, v, w in random_tree.edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    index = {name: i for i, name in enumerate(random_tree.nodes)}
    for source in random_tree.nodes[::50]:
        row = {source: 0.0}
        queue = deque([source])
        while queue:
            cur = queue.popleft()
            for nxt, w in adj[cur]:
                if nxt not in row:
                    row[nxt] = row[cur] + w
                    queue.append(nxt)
        want = np.array([row[name] for name in random_tree.nodes])
        assert np.array_equal(random_tree._dist[index[source]], want)


def test_tree_distance_matches_path_oracle(tree_case):
    pts = _tree_points(tree_case, 60, seed=11)
    for x, y in zip(pts[:-1], pts[1:]):
        assert abs(distance(tree_case, x, y) - oracles.tree_distance(tree_case, x, y)) <= 1e-12


def test_tree_segment_batch_matches_scalar_and_walk(tree_case):
    pts = _tree_points(tree_case, 120, seed=12)
    rng = np.random.default_rng(13)
    I = rng.integers(0, len(pts), 400)
    J = rng.integers(0, len(pts), 400)
    J[:10] = I[:10]  # degenerate segments
    same_edge = [(i, j) for i in range(len(pts)) for j in range(len(pts))
                 if i != j and pts[i].edge == pts[j].edge][:10]
    I = np.concatenate([I, [i for i, _ in same_edge]])
    J = np.concatenate([J, [j for _, j in same_edge]])
    ts = np.array([k / 9 for k in range(9)])
    S = tree_case.segment_batch(tree_case.pack(pts), I, J, ts)
    got = tree_case.points_from_packed(S)
    want = [tree_case._bicombing(pts[i], pts[j], float(t)) for i, j in zip(I, J) for t in ts]
    assert got == want
    # at t = 1 the walk ends on y's edge, where the last leg is clamped
    apart = [(i, j) for i, j in zip(I, J) if pts[i].edge != pts[j].edge]
    ends = tree_case.segment_batch(tree_case.pack(pts), [i for i, _ in apart],
                                   [j for _, j in apart], np.array([1.0]))
    assert tree_case.points_from_packed(ends) == [tree_case._bicombing(pts[i], pts[j], 1.0)
                                                  for i, j in apart]
    for k, (i, j) in enumerate(zip(I[:150], J[:150])):
        walked = oracles.tree_walk(tree_case, pts[i], pts[j], ts)
        for g, w in zip(got[k * len(ts):(k + 1) * len(ts)], walked):
            assert oracles.tree_distance(tree_case, g, w) <= 1e-12


def test_tree_same_edge_segment_ends_at_y():
    # x + 1.0 * (y - x) rounds past the edge end here; both paths clamp it to y
    tree = make_metric_tree(MetricTreeSpec(("c", "d"), (("c", "d", 0.45),)))
    x, y = tree.point_on_edge(0, 0.022949999999999998), tree.node_point("d")
    assert x.offset + 1.0 * (y.offset - x.offset) > 0.45
    assert tree._bicombing(x, y, 1.0) == y
    P = tree.pack([x, y])
    out = tree.points_from_packed(
        tree.segment_batch(P, np.array([0, 1]), np.array([1, 0]), np.array([0.5, 1.0]))
    )
    assert out == [tree._bicombing(x, y, 0.5), y,
                   tree._bicombing(y, x, 0.5), tree._bicombing(y, x, 1.0)]


def test_tree_dist_matrix_and_min_dist_match_scalar(tree_case):
    A = _tree_points(tree_case, 200, seed=14)
    B = _tree_points(tree_case, 150, seed=15)
    PA, PB = tree_case.pack(A), tree_case.pack(B)
    want = np.array([[tree_case._distance(a, b) for b in B] for a in A])
    assert np.array_equal(tree_case.dist_matrix(PA, PB), want)
    assert np.array_equal(tree_case.min_dist(PA, PB), want.min(axis=1))
    assert np.array_equal(tree_case.make_index(PB).min_dist(PA), want.min(axis=1))
    assert np.array_equal(tree_case.paired_dist(PA, tree_case.pack(B + A[:50])),
                          np.array([tree_case._distance(a, b) for a, b in zip(A, B + A[:50])]))


def test_tree_space_state_unchanged_by_queries(tree_case):
    # all tables are built at construction: queries leave every attribute as it was
    before = copy.deepcopy(vars(tree_case))
    pts = _tree_points(tree_case, 40, seed=16)
    P = tree_case.pack(pts)
    tree_case.dist_matrix(P, P)
    tree_case.min_dist(P, P)
    tree_case.segment_batch(P, np.arange(39), np.arange(1, 40), np.array([0.25, 0.5]))
    tree_case.hull_dist(P, tree_case.packed_take(P, np.arange(5)))
    distance(tree_case, pts[0], pts[1])
    evaluate_bicombing(tree_case, pts[0], pts[1], 0.5)
    hull_closure(tree_case, PointNet.build(tree_case, pts[:3], 0.2))
    after = vars(tree_case)
    assert after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(after[key], value), key
        else:
            assert after[key] == value, key


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def test_product_of_lines_matches_plane(plane, product_space):
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b, c, d = rng.uniform(-1, 1, 4)
        dp = distance(product_space, ProductPoint(euclidean(a), euclidean(b)),
                      ProductPoint(euclidean(c), euclidean(d)))
        d2 = distance(plane, euclidean(a, b), euclidean(c, d))
        assert dp == pytest.approx(d2, abs=1e-14)


def test_product_tree_times_line_distances(star3):
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    prod = make_product(ProductSpaceSpec(star3, line))
    cases = [
        (star3.node_point("l0"), 0.0, star3.node_point("l1"), 1.0),
        (star3.point_on_edge(0, 0.5), -1.0, star3.point_on_edge(0, 0.75), 2.0),
        (star3.node_point("c"), 0.25, star3.node_point("l2"), 0.25),
    ]
    for ta, ra, tb, rb in cases:
        want = math.hypot(distance(star3, ta, tb), abs(ra - rb))
        got = distance(prod, ProductPoint(ta, euclidean(ra)), ProductPoint(tb, euclidean(rb)))
        assert got == pytest.approx(want, abs=1e-14)


def test_product_projections_lipschitz(star3):
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    prod = make_product(ProductSpaceSpec(star3, line))
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = ProductPoint(star3.point_on_edge(int(rng.integers(0, 3)), float(rng.uniform(0, 1))),
                         euclidean(float(rng.uniform(-1, 1))))
        y = ProductPoint(star3.point_on_edge(int(rng.integers(0, 3)), float(rng.uniform(0, 1))),
                         euclidean(float(rng.uniform(-1, 1))))
        dxy = distance(prod, x, y)
        assert distance(star3, x.left, y.left) <= dxy + 1e-12
        assert abs(x.right.coords[0] - y.right.coords[0]) <= dxy + 1e-12


def test_product_axioms_tree_times_hyperbolic(star3, hplane):
    prod = make_product(ProductSpaceSpec(star3, hplane))
    rng = np.random.default_rng(8)
    def rnd():
        tp = star3.point_on_edge(int(rng.integers(0, 3)), float(rng.uniform(0, 1)))
        hp = hyperbolic_point_at(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi))
        return ProductPoint(tp, hp)
    quads = [tuple(rnd() for _ in range(4)) for _ in range(50)]
    rep = check_axioms(prod, quads, grid=16, tol=1e-7)
    assert rep.passed
