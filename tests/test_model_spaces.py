"""Model space constructors: l^p, hyperbolic plane, metric trees, products."""

from __future__ import annotations

import copy
import hashlib
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
    model_spaces,
    star_tree,
)
from bicombing_lab.space_core import BLOCK_ENTRIES


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


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_lp_rejects_non_finite_coordinates(p):
    space = make_lp_space(NormedSpaceSpec(2, p))
    for bad in (euclidean(math.nan, 0), euclidean(0, math.inf), euclidean(-math.inf, 1)):
        with pytest.raises(InvalidInputError):
            distance(space, bad, euclidean(0, 0))
        with pytest.raises(InvalidInputError):
            evaluate_bicombing(space, euclidean(0, 0), bad, 0.5)


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
    # NaN and infinite coordinates slip past the sheet test <x,x>_M = -1
    for bad in (hyperboloid(1, math.nan, 0), hyperboloid(math.inf, math.inf, 0),
                hyperboloid(math.nan, 0, 0)):
        with pytest.raises(InvalidInputError):
            distance(hplane, bad, hyperboloid(1, 0, 0))


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
    for w in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError):
            make_metric_tree(MetricTreeSpec(("a", "b"), (("a", "b", w),)))


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


def _digest(*arrays) -> str:
    """SHA-256 of the arrays' bytes in order, as little-endian int64 or float64."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(np.ascontiguousarray(a, dtype="<i8" if a.dtype.kind in "iu" else "<f8").tobytes())
    return h.hexdigest()


#: digests of tree batch outputs, keyed by node count (4: the 3-leaf star,
#: 1000: the seeded random tree).  They were recorded at commit bd95d23, where
#: each output equalled the per-point scalar distance and segment evaluators
#: bit for bit, so they keep that exact check now that the batch kernels are
#: the only ones.  Tree kernels only add, subtract, multiply and compare, so
#: the digests do not depend on the BLAS.
TREE_DIGESTS = {
    4: {
        "segments": "5890b1d98388c1dea207f4a89737e77bf3fe1aa5c53650c18f33c6fe461dc7cb",
        "ends": "2d0a12c7f43160026f8c69aa1d4fa37179d5b7176ee186c2f4a22045c3db5059",
        "dist_matrix": "8aa0fbd3bbe1a7c4124b88477a33a71acce4fc7d101a16b52b738d5ff0179a50",
        "row_minima": "e4862a2a9e41f8a8f964b8a4a4c4f736e5b7e14ae300e42b7d57c469c90547c8",
        "paired": "9be5fdb989f4785deb559c2a667d8137ad50d439c1f8f6918ac920f2c6dd8b3a",
    },
    1000: {
        "segments": "e37b012cc87892558bc021b6dffe37fbf925324b44aae891395777a383f409e3",
        "ends": "e9c9f8270374ddb1af880e2561b7e49da0da90759a662cb0baf44c73e0b7f235",
        "dist_matrix": "49208526edfcbca72902ba0844d599f1a5683f036dcb70801ffb33dff5527962",
        "row_minima": "6676025a12cff6cfc6a5cedf430935ae812dfa30082713a02d6553a2cfaac8ff",
        "paired": "dfd2c6007095532338577d6b46e0774fc2e780a8e770d45c083deb621f88bb46",
    },
}

#: digest of the four samples of test_tree_same_edge_segment_ends_at_y,
#: recorded with TREE_DIGESTS
SAME_EDGE_DIGEST = "5fe10a2b8ece72ceb7d7e305cd8cdbc0073bd3097d94f105ac5ed7dac1813c4f"


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
    want = TREE_DIGESTS[len(tree_case.nodes)]
    assert _digest(S[:, 0].astype(np.int64), S[:, 1]) == want["segments"]
    got = tree_case.points_from_packed(S)
    # at t = 1 the walk ends on y's edge, where the last leg is clamped
    apart = [(i, j) for i, j in zip(I, J) if pts[i].edge != pts[j].edge]
    ends = tree_case.segment_batch(tree_case.pack(pts), [i for i, _ in apart],
                                   [j for _, j in apart], np.array([1.0]))
    assert _digest(ends[:, 0].astype(np.int64), ends[:, 1]) == want["ends"]
    for k, (i, j) in enumerate(zip(I[:150], J[:150])):
        walked = oracles.tree_walk(tree_case, pts[i], pts[j], ts)
        for g, w in zip(got[k * len(ts):(k + 1) * len(ts)], walked):
            assert oracles.tree_distance(tree_case, g, w) <= 1e-12


def test_tree_same_edge_segment_ends_at_y():
    # x + 1.0 * (y - x) rounds past the edge end here; the kernel clamps it to y
    tree = make_metric_tree(MetricTreeSpec(("c", "d"), (("c", "d", 0.45),)))
    x, y = tree.point_on_edge(0, 0.022949999999999998), tree.node_point("d")
    assert x.offset + 1.0 * (y.offset - x.offset) > 0.45
    S = tree.segment_batch(tree.pack([x, y]), np.array([0, 1]), np.array([1, 0]),
                           np.array([0.5, 1.0]))
    assert _digest(S[:, 0].astype(np.int64), S[:, 1]) == SAME_EDGE_DIGEST
    assert tree.points_from_packed(S)[1] == y
    assert evaluate_bicombing(tree, x, y, 0.5) == tree.points_from_packed(S)[0]


def test_tree_dist_matrix_and_min_dist_match_scalar(tree_case):
    A = _tree_points(tree_case, 200, seed=14)
    B = _tree_points(tree_case, 150, seed=15)
    PA, PB = tree_case.pack(A), tree_case.pack(B)
    want = TREE_DIGESTS[len(tree_case.nodes)]
    assert _digest(tree_case.dist_matrix(PA, PB)) == want["dist_matrix"]
    assert _digest(tree_case.min_dist(PA, PB)) == want["row_minima"]
    assert _digest(tree_case.make_index(PB).min_dist(PA)) == want["row_minima"]
    assert _digest(tree_case.paired_dist(PA, tree_case.pack(B + A[:50]))) == want["paired"]


def _path_tree():
    """Path p0-...-p5 with non-dyadic edges, stored in both directions."""
    return make_metric_tree(MetricTreeSpec(
        ("p0", "p1", "p2", "p3", "p4", "p5"),
        (("p1", "p0", 0.3), ("p1", "p2", 0.7), ("p3", "p2", 0.45),
         ("p3", "p4", 0.15), ("p5", "p4", 0.55)),
    ))


@pytest.fixture(params=["star", "path", "caterpillar", "random"])
def nearest_tree(request, caterpillar, random_tree):
    if request.param == "path":
        return _path_tree()
    return {"star": star_tree(3), "caterpillar": caterpillar, "random": random_tree}[request.param]


def _assert_dense_row_minima(tree, A, B):
    """tree.min_dist(A, B) is dist_matrix(A, B).min(axis=1), bit for bit."""
    PA, PB = tree.pack(A), tree.pack(B)
    got, want = tree.min_dist(PA, PB), tree.dist_matrix(PA, PB).min(axis=1)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_tree_min_dist_is_dense_row_minima(nearest_tree):
    # a fifth of the points at nodes, each on its canonical edge, and half of
    # those written with offset -0.0; B repeats some of its rows, and the
    # queries include every B row and every node
    tree = nearest_tree
    nodes = [tree.node_point(name) for name in tree.nodes]
    B = _tree_points(tree, 120, seed=21)
    B = [TreePoint(p.edge, -0.0) if p.offset == 0.0 and k % 2 else p for k, p in enumerate(B)]
    B += B[:30]
    A = _tree_points(tree, 400, seed=22) + B + nodes
    assert any(math.copysign(1.0, p.offset) < 0 for p in B)
    _assert_dense_row_minima(tree, A, B)
    _assert_dense_row_minima(tree, B, A)
    _assert_dense_row_minima(tree, A, nodes)


@pytest.mark.parametrize("tree_name", ["path", "caterpillar"])
def test_tree_min_dist_own_edge_cases(tree_name, caterpillar):
    tree = caterpillar if tree_name == "caterpillar" else _path_tree()
    rng = np.random.default_rng(23)
    everywhere = [tree.point_on_edge(e, float(rng.uniform(0, w)))
                  for e, (_, _, w) in enumerate(tree.edges) for _ in range(6)]
    # B on one edge only: interior offsets with a repeat, and the edge's two ends
    w = tree.edges[1][2]
    one_edge = [tree.point_on_edge(1, o) for o in (0.1, 0.25, 0.25, w / 3, w)]
    one_edge.append(tree.point_on_edge(1, 0.0))
    _assert_dense_row_minima(tree, everywhere + one_edge, one_edge)
    # a single B point, and B on every other edge only, so that most query
    # edges hold no B point
    _assert_dense_row_minima(tree, everywhere, one_edge[:1])
    sparse = [p for p in everywhere if p.edge % 2 == 0]
    _assert_dense_row_minima(tree, everywhere, sparse)
    # queries sitting on the B offsets, just below and just above them
    near = [tree.point_on_edge(p.edge, o) for p in sparse
            for o in (p.offset, np.nextafter(p.offset, 0.0), np.nextafter(p.offset, 1.0))
            if 0.0 <= o <= tree.edges[p.edge][2]]
    _assert_dense_row_minima(tree, near, sparse)


def test_tree_min_dist_spans_row_blocks(random_tree):
    # 300 B points on distinct edges give several hundred columns, so the
    # queries run over several row blocks
    tree = random_tree
    rng = np.random.default_rng(24)
    edges = rng.choice(len(tree.edges), 300, replace=False)
    B = [tree.point_on_edge(int(e), float(rng.uniform(0, tree.edges[e][2]))) for e in edges]
    A = _tree_points(tree, 3000, seed=25)
    PB = tree.pack(B)
    edge = PB[:, 0].astype(np.int64)
    columns = len(np.unique(np.concatenate([tree._tail[edge], tree._head[edge]])))
    assert len(A) > 2 * (BLOCK_ENTRIES // columns)
    _assert_dense_row_minima(tree, A, B)


def test_tree_first_leg_segment_stays_on_edge():
    # the midpoint of x = 0.15 on edge p0-p1 (0.45) and y at the same
    # distance past p1 is p1 itself; s = to_head there, and x + s rounds
    # past the edge end, which the kernel clamps to p1
    tree = make_metric_tree(MetricTreeSpec(
        ("p0", "p1", "p2"), (("p0", "p1", 0.45), ("p1", "p2", 1.0))))
    x = tree.point_on_edge(0, 0.15)
    y = tree.point_on_edge(1, 0.45 - 0.15)
    assert 0.15 + (0.45 - 0.15) > 0.45
    assert evaluate_bicombing(tree, x, y, 0.5) == tree.node_point("p1")
    S = tree.segment_batch(tree.pack([x, y]), np.array([0, 1]), np.array([1, 0]),
                           np.array([0.5]))
    assert tree.points_from_packed(S) == [tree.node_point("p1")] * 2


def test_tree_space_state_unchanged_by_queries(tree_case):
    # all tables are built at construction: queries leave every attribute as it was
    before = copy.deepcopy(vars(tree_case))
    pts = _tree_points(tree_case, 40, seed=16)
    P = tree_case.pack(pts)
    tree_case.dist_matrix(P, P)
    tree_case.min_dist(P, P)
    tree_case.segment_batch(P, np.arange(39), np.arange(1, 40), np.array([0.25, 0.5]))
    tree_case.hull_dist(P, P[:5])
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


def test_every_space_packs_float64_rows_of_its_width(star3):
    # one layout for every space: a C-contiguous float64 row per point, the
    # left factor's columns before the right's, nested products recursing;
    # segment samples come back in it, and tree edges return as ints
    hyp, line = make_hyperbolic_plane(), make_lp_space(NormedSpaceSpec(1, 2.0))
    tree_pts = [star3.point_on_edge(2, 0.25), star3.node_point("c"), star3.point_on_edge(1, 1.0)]
    hyp_pts = [hyperbolic_point_at(0.3, 1.0), hyperbolic_point_at(1.2, -2.0), hyperboloid(1, 0, 0)]
    nested = make_product(ProductSpaceSpec(make_product(ProductSpaceSpec(hyp, star3)), line))
    cases = [
        (line, [euclidean(0.5), euclidean(-1.0), euclidean(2.0)]),
        (hyp, hyp_pts),
        (star3, tree_pts),
        (make_product(ProductSpaceSpec(star3, line)),
         [ProductPoint(p, euclidean(k)) for k, p in enumerate(tree_pts)]),
        (nested, [ProductPoint(ProductPoint(h, p), euclidean(k))
                  for k, (h, p) in enumerate(zip(hyp_pts, tree_pts))]),
    ]
    assert [space.width for space, _ in cases] == [1, 3, 2, 3, 6]
    for space, pts in cases:
        for P in (space.pack(pts), space.pack([]),
                  space.segment_batch(space.pack(pts), [0, 1], [1, 2], np.array([0.0, 0.5]))):
            assert P.dtype == np.float64 and P.ndim == 2 and P.shape[1] == space.width
            assert P.flags.c_contiguous
        assert space.points_from_packed(space.pack(pts)) == pts
    P = nested.pack(cases[-1][1])
    assert P[:, :3].tolist() == [list(h.coords) for h in hyp_pts]
    assert P[:, 3:5].tolist() == [[p.edge, p.offset] for p in tree_pts]
    assert all(type(p.edge) is int for p in star3.points_from_packed(star3.pack(tree_pts)))


def test_product_of_lines_matches_plane(plane, product_space):
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b, c, d = rng.uniform(-1, 1, 4)
        dp = distance(product_space, ProductPoint(euclidean(a), euclidean(b)),
                      ProductPoint(euclidean(c), euclidean(d)))
        d2 = distance(plane, euclidean(a, b), euclidean(c, d))
        assert dp == pytest.approx(d2, abs=1e-14)


@pytest.mark.parametrize("case", ["l1", "l2", "linf", "l2xl2"])
def test_min_dist_is_dense_row_minima(case):
    """min_dist(A, B) is dist_matrix(A, B).min(axis=1), bit for bit, over
    queries spanning two row blocks."""
    rng = np.random.default_rng(12)
    A, B = rng.uniform(-1, 1, (700, 3)), rng.uniform(-1, 1, (500, 3))
    if case == "l2xl2":
        space = make_product(ProductSpaceSpec(make_lp_space(NormedSpaceSpec(2, 2.0)),
                                              make_lp_space(NormedSpaceSpec(1, 2.0))))
    else:
        space = make_lp_space(NormedSpaceSpec(3, {"l1": 1.0, "l2": 2.0, "linf": math.inf}[case]))
    assert space.min_dist(A, B).tobytes() == space.dist_matrix(A, B).min(axis=1).tobytes()


@pytest.mark.parametrize("name", ["l1", "l2", "l3", "linf", "star", "path", "caterpillar",
                                  "l2xl2", "star_x_line"])
def test_dist_matrix_entries_are_paired_dist(name, caterpillar):
    """dist_matrix(A, B)[i, j] is paired_dist(A[[i]], B[[j]]) bit for bit;
    A and B share rows, so zero and same-edge entries occur."""
    rng = np.random.default_rng(31)
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    trees = {"star": star_tree(3), "path": _path_tree(), "caterpillar": caterpillar}
    if name in trees:
        space = trees[name]
        pts = _tree_points(space, 60, seed=32)
    elif name == "star_x_line":
        star = star_tree(3)
        space = make_product(ProductSpaceSpec(star, line))
        pts = [ProductPoint(t, euclidean(x))
               for t, x in zip(_tree_points(star, 60, seed=32), rng.uniform(-1, 1, 60))]
    elif name == "l2xl2":
        space = make_product(ProductSpaceSpec(make_lp_space(NormedSpaceSpec(2, 2.0)), line))
        pts = [ProductPoint(euclidean(a, b), euclidean(c)) for a, b, c in rng.uniform(-1, 1, (60, 3))]
    else:
        p = {"l1": 1.0, "l2": 2.0, "l3": 3.0, "linf": math.inf}[name]
        space = make_lp_space(NormedSpaceSpec(3, p))
        pts = [euclidean(*row) for row in rng.uniform(-1, 1, (60, 3))]
    P = space.pack(pts)
    A, B = P[:40], P[20:]
    want = [[space.paired_dist(A[[i]], B[[j]])[0] for j in range(len(B))] for i in range(len(A))]
    assert space.dist_matrix(A, B).tobytes() == np.array(want).tobytes()


def test_product_block_keeps_hyperbolic_gram_rounding(hplane):
    # the product's block is the hypot of the factor blocks, so a hyperbolic
    # factor keeps its Gram form, which rounds differently from paired_dist
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    space = make_product(ProductSpaceSpec(hplane, line))
    rng = np.random.default_rng(33)
    pts = [ProductPoint(hyperbolic_point_at(r, th), euclidean(x))
           for r, th, x in zip(rng.uniform(0, 2, 50), rng.uniform(0, 2 * math.pi, 50),
                               rng.uniform(-1, 1, 50))]
    P = space.pack(pts)
    H, L = P[:, :3], P[:, 3:]
    want = np.hypot(hplane.dist_matrix(H, H), line.dist_matrix(L, L))
    assert space.dist_matrix(P, P).tobytes() == want.tobytes()


def test_linear_p_declares_linear_rows(star3, hplane, caterpillar):
    l1, l2, l3, linf = (make_lp_space(NormedSpaceSpec(2, p)) for p in (1.0, 2.0, 3.0, math.inf))
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    l2xl2 = make_product(ProductSpaceSpec(l2, line))
    cases = [
        (l1, 1.0), (l2, 2.0), (l3, 3.0), (linf, math.inf), (l2xl2, 2.0),
        (hplane, None), (star3, None), (caterpillar, None),
        (make_product(ProductSpaceSpec(star3, line)), None),
        (make_product(ProductSpaceSpec(l2, l1)), None),
        (make_product(ProductSpaceSpec(l2, l2xl2)), None),
    ]
    for space, p in cases:
        assert space.linear_p == p, space.description
    P = np.zeros((2, 3))
    assert type(l2xl2.make_index(P)) is model_spaces._ProductJointIndex
    assert type(l3.make_index(P[:, :2])) is model_spaces._KDTreeIndex


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
