"""Extremal machinery: argmax faces, point and set verdicts, batch detection
against independent oracles, farthest-point descent."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import CATERPILLAR_EDGES, CATERPILLAR_NODES
from bicombing_lab import (
    ConvexFunctional,
    ExtremalParams,
    InvalidInputError,
    MetricTreeSpec,
    NormedSpaceSpec,
    PointNet,
    ProductPoint,
    ProductSpaceSpec,
    argmax_face,
    canonical_key,
    canonical_starts,
    distance,
    euclidean,
    evaluate_bicombing,
    extremal_points,
    hull_closure,
    is_extremal_point,
    is_extremal_set,
    make_lp_space,
    make_metric_tree,
    make_product,
    minimal_extremal_descent,
    star_tree,
)
from bicombing_lab import extremal
from bicombing_lab.cli import _default_suite
from bicombing_lab.instances import generate_instance


#: spaces whose extremal scan runs on reflected-endpoint ball queries, by id;
#: "l2xl2" is the product fixture l2(R^1) x l2(R^1)
LINEAR = ["l2", "l1", "linf", "l2xl2"]


@pytest.fixture
def linear_space(request, product_space):
    """(space, exponent on joined coordinates, point maker) for a LINEAR id."""
    if request.param == "l2xl2":
        return product_space, 2, lambda c: ProductPoint(euclidean(c[0]), euclidean(c[1]))
    p = {"l2": 2, "l1": 1, "linf": math.inf}[request.param]
    return make_lp_space(NormedSpaceSpec(2, float(p))), p, lambda c: euclidean(*c)


def test_params_validation():
    with pytest.raises(InvalidInputError):
        ExtremalParams(eps=0.0, delta=0.1)
    with pytest.raises(InvalidInputError):
        ExtremalParams(eps=0.1, delta=0.05)
    with pytest.raises(InvalidInputError):
        ExtremalParams(eps=0.1, delta=0.1, t_grid=2)
    with pytest.raises(InvalidInputError):
        ExtremalParams(eps=0.1, delta=0.1, face_tol=0.0)
    for bad in ({"eps": math.inf, "delta": math.inf}, {"eps": 0.1, "delta": math.nan},
                {"eps": 0.1, "delta": 0.1, "face_tol": math.nan}):
        with pytest.raises(InvalidInputError):
            ExtremalParams(**bad)


# ---------------------------------------------------------------------------
# argmax_face
# ---------------------------------------------------------------------------


def test_argmax_face_constant_keeps_all(plane, square_grid):
    face = argmax_face(plane, square_grid, ConvexFunctional.constant(1.0), 1e-9)
    assert face.points == square_grid.points


def test_argmax_face_farthest_corner(plane, square_grid):
    face = argmax_face(plane, square_grid, ConvexFunctional.dist_to_point(euclidean(0, 0)), 1e-9)
    assert [p.coords for p in face.points] == [(1.0, 1.0)]


def test_argmax_face_linear_band_on_disk(plane):
    pts = [
        euclidean(round(x, 10), round(y, 10))
        for x in np.arange(-1, 1.0001, 0.05)
        for y in np.arange(-1, 1.0001, 0.05)
        if x * x + y * y <= 1 + 1e-12
    ]
    disk = PointNet.build(plane, pts, 0.05)
    face = argmax_face(plane, disk, ConvexFunctional.linear([1.0, 0.0]), 0.05)
    arr = np.array([p.coords for p in disk.points])
    expected = {tuple(c) for c in arr[arr[:, 0] >= arr[:, 0].max() - 0.05]}
    assert {p.coords for p in face.points} == expected


# ---------------------------------------------------------------------------
# point verdicts
# ---------------------------------------------------------------------------


def test_singleton_point_is_extremal(plane, grid_params):
    net = PointNet.build(plane, [euclidean(0.5, 0.5)], 0.05)
    assert is_extremal_point(plane, net, euclidean(0.5, 0.5), grid_params).extremal


def test_segment_point_verdicts(plane, segment_grid, grid_params):
    mid = is_extremal_point(plane, segment_grid, euclidean(0.5, 0.0), grid_params)
    assert not mid.extremal
    assert mid.witness is not None
    end = is_extremal_point(plane, segment_grid, euclidean(0.0, 0.0), grid_params)
    assert end.extremal


def test_tree_point_verdicts(star_hulls, tree_params):
    t, C, leaves = star_hulls[2]
    assert not is_extremal_point(t, C, t.node_point("c"), tree_params).extremal
    assert is_extremal_point(t, C, leaves[0], tree_params).extremal


def test_extremal_point_rejects_far_query(plane, segment_grid, grid_params):
    with pytest.raises(InvalidInputError):
        is_extremal_point(plane, segment_grid, euclidean(5, 5), grid_params)


# ---------------------------------------------------------------------------
# batch detection vs oracles
# ---------------------------------------------------------------------------


def test_square_grid_exact_corners(plane, square_grid, grid_params):
    scan = extremal_points(plane, square_grid, grid_params)
    got = sorted(p.coords for p in scan.points)
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    # exact integer oracle: lattice of 1/20 steps, h = 1/50, delta = 1/25
    ints = np.array([[round(c * 20) for c in p.coords] for p in square_grid.points])
    idx = oracles.int_grid_extremal(ints, 20, h_num=1, h_den=50, delta_num=1, delta_den=25,
                                    t_grid=grid_params.t_grid)
    oracle = sorted(square_grid.points[i].coords for i in idx)
    assert got == oracle


def test_segment_grid_exact_endpoints(plane, segment_grid, grid_params):
    scan = extremal_points(plane, segment_grid, grid_params)
    got = sorted(p.coords for p in scan.points)
    assert got == [(0.0, 0.0), (1.0, 0.0)]
    ints = np.array([[round(c * 20) for c in p.coords] for p in segment_grid.points])
    idx = oracles.int_grid_extremal(ints, 20, 1, 50, 1, 25, grid_params.t_grid)
    assert got == sorted(segment_grid.points[i].coords for i in idx)


def test_hyperbolic_triangle_exact_vertices(hplane, hyp_triangle_hull, hyp_params):
    C, verts = hyp_triangle_hull
    scan = extremal_points(hplane, C, hyp_params)
    assert set(scan.points) == set(verts)
    coords = np.array([p.coords for p in C.points])
    oracle_idx = oracles.brute_extremal_hyperbolic(
        coords, hyp_params.eps, hyp_params.delta, hyp_params.t_grid
    )
    assert {C.points[i] for i in oracle_idx} == set(verts)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_star_hull_exact_leaves(star_hulls, tree_params, k):
    t, C, leaves = star_hulls[k]
    scan = extremal_points(t, C, tree_params)
    assert set(scan.points) == set(leaves)
    oracle = oracles.brute_extremal_tree(t, C, tree_params.eps, tree_params.delta,
                                         tree_params.t_grid)
    assert set(oracle) == set(leaves)


def test_batch_matches_single_point_scan(plane, grid_params):
    xs = [round(k * 0.1, 10) for k in range(11)]
    C = PointNet.build(plane, [euclidean(x, y) for x in xs for y in xs], 0.1)
    params = ExtremalParams(eps=0.04, delta=0.08, t_grid=7, face_tol=0.025)
    scan = extremal_points(plane, C, params)
    batch = set(scan.points)
    for p in C.points:
        assert (p in batch) == is_extremal_point(plane, C, p, params).extremal


@pytest.mark.parametrize("linear_space", ["l1", "linf", "l2xl2"], indirect=True)
def test_batch_matches_single_point_scan_in_other_norms(linear_space):
    space, _, point = linear_space
    xs = [round(k * 0.1, 10) for k in range(11)]
    C = PointNet.build(space, [point((x, y)) for x in xs for y in xs], 0.1)
    params = ExtremalParams(eps=0.04, delta=0.08, t_grid=7, face_tol=0.025)
    batch = set(extremal_points(space, C, params).points)
    for p in C.points:
        assert (p in batch) == is_extremal_point(space, C, p, params).extremal


def _lattice(shape: str) -> list[tuple[int, int]]:
    """Integer points of a small region, in lattice steps of 1/10."""
    if shape == "square":
        return [(x, y) for x in range(11) for y in range(11)]
    if shape == "triangle":
        return [(x, y) for x in range(13) for y in range(13) if x + y <= 12]
    return [(x, y) for x in range(-6, 7) for y in range(-6, 7) if x * x + y * y <= 36]


@pytest.mark.parametrize("linear_space", ["l1", "linf", "l2xl2"], indirect=True)
@pytest.mark.parametrize("shape", ["square", "triangle", "disk"])
@pytest.mark.parametrize("h, delta, t_grid", [((1, 25), (2, 25), 7), ((7, 100), (3, 20), 8)])
def test_extremal_points_match_integer_oracle(linear_space, shape, h, delta, t_grid):
    # no chord sample or endpoint distance can tie a radius: h * (t_grid + 1)
    # * 10 and delta * 10 are not integers, nor are their squares; an even
    # t_grid has no sample at t = 1/2
    space, p, point = linear_space
    ints = _lattice(shape)
    C = PointNet.build(space, [point((a / 10, b / 10)) for a, b in ints], 0.1)
    params = ExtremalParams(eps=h[0] / h[1], delta=delta[0] / delta[1], t_grid=t_grid,
                            face_tol=0.025)
    got = set(extremal_points(space, C, params).points)
    idx = oracles.int_grid_extremal(np.rint(C.packed * 10).astype(int), 10, *h, *delta,
                                    params.t_grid, p=p)
    assert got == {C.points[i] for i in idx}
    assert 0 < len(got) < len(C)


def _caterpillar_leaves():
    """(space, seed, params): the caterpillar tree seeded with its leaves."""
    space = make_metric_tree(MetricTreeSpec(CATERPILLAR_NODES, CATERPILLAR_EDGES))
    leaves = [space.node_point(n) for n in ("a0", "b0", "a1", "a2", "b2", "a3")]
    return space, PointNet.build(space, leaves, 0.06), ExtremalParams(eps=0.06, delta=0.4,
                                                                      face_tol=0.015)


def _star_times_line():
    """(space, seed, params): star tree x line seeded with three points."""
    star = star_tree(3)
    space = make_product(ProductSpaceSpec(star, make_lp_space(NormedSpaceSpec(1, 2.0))))
    seed = PointNet.build(space, [
        ProductPoint(star.point_on_edge(0, 0.6), euclidean(0.0)),
        ProductPoint(star.point_on_edge(1, 0.4), euclidean(0.4)),
        ProductPoint(star.point_on_edge(2, 0.5), euclidean(-0.3)),
    ], 0.1)
    return space, seed, ExtremalParams(eps=0.1, delta=0.35, face_tol=0.025)


def _kill_nothing(space, C, params):
    """Stand-in for the first pass that leaves every target to the scan."""
    return np.zeros(len(C), dtype=bool)


#: nets for the first-pass tests, by id: generator options, or a function
#: returning (space, seed, params)
PASS_CASES = {
    "l2-square": {"kind": "square", "step": 0.1},
    "linf-ball": {"kind": "lp_ball"},
    "l1-ball": {"kind": "lp_ball", "p": 1.0},
    "l2xl2-product_demo": {"kind": "product_demo"},
    "hyp_triangle": {"kind": "hyp_triangle"},
    "star-tree_leaves": {"kind": "tree_leaves"},
    "caterpillar": _caterpillar_leaves,
    "star-x-line": _star_times_line,
}


@pytest.mark.parametrize("case", list(PASS_CASES))
def test_first_pass_kills_only_what_the_scan_kills(case, monkeypatch):
    """Every target the batched first pass kills, the per-target scan kills
    too, so extremal_points keeps exactly the survivors of the scan alone.
    On the square and the hyperbolic triangle the pass kills at least half
    of the non-extremal points."""
    gen = PASS_CASES[case]
    if callable(gen):
        space, seed, params = gen()
    else:
        inst = generate_instance(**gen)
        space = inst.build_space()
        seed, params = inst.seed_net(space), inst.params.extremal_params()
    C = hull_closure(space, seed).net
    killed = extremal._first_pass(space, C, params)
    for pi in np.flatnonzero(killed):
        target = C.packed[pi : pi + 1]
        d_to_p = space.dist_matrix(C.packed, target)[:, 0]
        assert extremal._first_chord(space, C, target, d_to_p, params) is not None
    scan = extremal_points(space, C, params)
    assert scan.pass_killed == killed.sum() > 0
    if case in ("l2-square", "hyp_triangle"):
        assert 2 * scan.pass_killed >= len(C) - len(scan.rows)
    monkeypatch.setattr(extremal, "_first_pass", _kill_nothing)
    alone = extremal_points(space, C, params)
    assert alone.pass_killed == 0
    assert np.array_equal(scan.rows, alone.rows)


@pytest.mark.parametrize("linear_space", LINEAR, indirect=True)
def test_chord_sample_at_exactly_eps_does_not_kill(linear_space):
    # dyadic chord (-1, 1/4)-(1, 1/4): its t = 1/2 sample (0, 1/4) lies at
    # exactly eps from p = (0, 0) in every norm, and no sample lies closer
    space, _, point = linear_space
    p = point((0.0, 0.0))
    C = PointNet.build(space, [p, point((-1.0, 0.25)), point((1.0, 0.25))], 0.25)
    params = ExtremalParams(eps=0.25, delta=0.5, t_grid=7, face_tol=0.0625)
    mid = evaluate_bicombing(space, C.points[0], C.points[2], 0.5)
    assert distance(space, mid, p) == params.eps
    assert p in extremal_points(space, C, params).points
    assert is_extremal_point(space, C, p, params).extremal


@pytest.mark.parametrize("linear_space", LINEAR, indirect=True)
def test_chord_sample_just_inside_eps_kills(linear_space):
    # the same net with (1, 1/4) lowered so the t = 1/2 sample lies at
    # eps * (1 - 1e-12) from p
    space, _, point = linear_space
    p, x, y = point((0.0, 0.0)), point((-1.0, 0.25)), point((1.0, 0.25 * (1 - 2e-12)))
    C = PointNet.build(space, [p, x, y], 0.25)
    params = ExtremalParams(eps=0.25, delta=0.5, t_grid=7, face_tol=0.0625)
    d_mid = distance(space, evaluate_bicombing(space, x, y, 0.5), p)
    assert params.eps * (1 - 2e-12) < d_mid < params.eps
    # inside the first pass's band: the pass leaves p, the scan kills it
    assert not extremal._first_pass(space, C, params).any()
    assert p not in extremal_points(space, C, params).points
    verdict = is_extremal_point(space, C, p, params)
    assert not verdict.extremal
    assert {verdict.witness.x, verdict.witness.y} == {x, y}


@pytest.mark.parametrize("linear_space", LINEAR, indirect=True)
def test_chord_end_just_beyond_delta_kills(linear_space):
    # the chord (-a, 0)-(a, 0) passes through p = (0, 0) at t = 1/2, and its
    # ends lie at a = delta * (1 + 2e-12) from p: eligible for the scan, but
    # inside the first pass's band, so the pass leaves p and the scan kills it
    space, _, point = linear_space
    a = 0.5 * (1 + 2e-12)
    p, x, y = point((0.0, 0.0)), point((-a, 0.0)), point((a, 0.0))
    C = PointNet.build(space, [p, x, y], 0.25)
    params = ExtremalParams(eps=0.25, delta=0.5, t_grid=7, face_tol=0.0625)
    assert params.delta < distance(space, x, p) < params.delta * (1 + 1e-9)
    assert not extremal._first_pass(space, C, params).any()
    assert p not in extremal_points(space, C, params).points
    assert not is_extremal_point(space, C, p, params).extremal


def test_kill_found_behind_a_tied_nearest_candidate(plane):
    # From x at t = 5/8 the two other points both lie at exactly eps/t = 0.4
    # (in float) from the reflected point (p - 3/8 x) / (5/8).  The chord
    # through the first rounds to exactly eps (a miss), the chord through the
    # second to just below eps (a hit).  The nearest-neighbour query may
    # return either, so p must fall however the tie is broken: the whole ball
    # is confirmed when the nearest candidate is not a hit.
    p = euclidean(0.24458877673548357, -0.2166241048449145)
    x = euclidean(0.31047974522953226, -1.152659770426373)
    tied = euclidean(-0.19410540947598215, 0.31908186195097915)
    hit = euclidean(0.6046242437098512, 0.3635385103406054)
    C = PointNet.build(plane, [p, x, tied, hit], 0.25)
    params = ExtremalParams(eps=0.25, delta=0.5, t_grid=7, face_tol=0.0625)
    assert distance(plane, evaluate_bicombing(plane, tied, x, 3 / 8), p) == params.eps
    assert distance(plane, evaluate_bicombing(plane, x, hit, 5 / 8), p) < params.eps
    assert p not in extremal_points(plane, C, params).points
    verdict = is_extremal_point(plane, C, p, params)
    assert not verdict.extremal
    assert (verdict.witness.x, verdict.witness.y, verdict.witness.t_enter) == (x, hit, 5 / 8)


@pytest.mark.parametrize("linear_space", LINEAR, indirect=True)
def test_point_witness_is_a_real_hit(linear_space):
    space, _, point = linear_space
    xs = [round(k * 0.1, 10) for k in range(11)]
    C = PointNet.build(space, [point((x, y)) for x in xs for y in xs], 0.1)
    params = ExtremalParams(eps=0.04, delta=0.08, t_grid=7, face_tol=0.025)
    killed = 0
    for p in C.points:
        verdict = is_extremal_point(space, C, p, params)
        if verdict.extremal:
            continue
        killed += 1
        w = verdict.witness
        assert distance(space, w.x, p) > params.delta
        assert distance(space, w.y, p) > params.delta
        assert 0.0 < w.t_enter < 1.0
        assert distance(space, evaluate_bicombing(space, w.x, w.y, w.t_enter), p) < params.eps
    assert killed > len(C) // 2


def test_monotone_in_delta(plane, square_grid):
    small = ExtremalParams(eps=0.02, delta=0.04, t_grid=7, face_tol=0.0125)
    big = ExtremalParams(eps=0.02, delta=0.12, t_grid=7, face_tol=0.0125)
    got_small = set(extremal_points(plane, square_grid, small).points)
    got_big = set(extremal_points(plane, square_grid, big).points)
    # fewer chords qualify at larger delta, so verdicts only flip toward true
    assert got_small <= got_big


# ---------------------------------------------------------------------------
# set verdicts
# ---------------------------------------------------------------------------


def test_extremal_set_whole_net(plane):
    xs = [round(k * 0.1, 10) for k in range(11)]
    C = PointNet.build(plane, [euclidean(x, y) for x in xs for y in xs], 0.1)
    params = ExtremalParams(eps=0.04, delta=0.08, t_grid=7, face_tol=0.025)
    assert is_extremal_set(plane, C, C, params).extremal


def test_extremal_set_square_side(plane, square_grid, grid_params):
    side = PointNet(
        plane, plane.pack([p for p in square_grid.points if p.coords[1] == 0.0]), 0.05
    )
    assert is_extremal_set(plane, square_grid, side, grid_params).extremal


def test_extremal_set_center_fails(plane, square_grid, grid_params):
    center = PointNet(plane, plane.pack([euclidean(0.5, 0.5)]), 0.05)
    verdict = is_extremal_set(plane, square_grid, center, grid_params)
    assert not verdict.extremal
    assert verdict.witness is not None


def test_extremal_set_requires_containment(plane, square_grid, grid_params):
    far = PointNet.build(plane, [euclidean(3, 3)], 0.05)
    with pytest.raises(InvalidInputError):
        is_extremal_set(plane, square_grid, far, grid_params)


def test_faces_are_extremal_sets(plane, square_grid, grid_params):
    # the argmax-face transfer: faces of convex functionals over a convex net
    # pass the extremal-set check
    for phi in [
        ConvexFunctional.dist_to_point(euclidean(0, 0)),
        ConvexFunctional.dist_to_point(euclidean(0.3, 0.2)),
        ConvexFunctional.linear([1.0, 0.0]),
        ConvexFunctional.linear([0.0, -1.0]),
    ]:
        face = argmax_face(plane, square_grid, phi, grid_params.face_tol)
        verdict = is_extremal_set(plane, square_grid, face, grid_params)
        assert verdict.extremal, (phi.label(), verdict.witness)


def test_faces_are_extremal_sets_on_models(hplane, hyp_triangle_hull, hyp_params,
                                           star_hulls, tree_params):
    C, verts = hyp_triangle_hull
    for anchor in verts:
        face = argmax_face(hplane, C, ConvexFunctional.dist_to_point(anchor), hyp_params.face_tol)
        assert is_extremal_set(hplane, C, face, hyp_params).extremal
    t, Ct, leaves = star_hulls[3]
    for anchor in leaves:
        face = argmax_face(t, Ct, ConvexFunctional.dist_to_point(anchor), tree_params.face_tol)
        assert is_extremal_set(t, Ct, face, tree_params).extremal


#: instances for the set-verdict oracle, by id: generator options (None for
#: the caterpillar tree seeded with its leaves), and whether to re-check at a
#: tight hit radius of 0.4 eps, where faces failing at the generator's own
#: radii pass
SET_ORACLE_CASES = {
    "l2-square": ({"kind": "square", "step": 0.1}, True),
    "l2-disk": ({"kind": "disk"}, True),
    "l2-cube": ({"kind": "cube", "step": 1 / 6}, False),
    "l1-ball": ({"kind": "lp_ball", "p": 1.0, "eps": 0.3}, False),
    "linf-ball": ({"kind": "lp_ball", "eps": 0.3}, False),
    "l2xl2-product_demo": ({"kind": "product_demo"}, True),
    "hyp_triangle": ({"kind": "hyp_triangle"}, False),
    "star-tree_leaves": ({"kind": "tree_leaves"}, False),
    "caterpillar": (None, False),
}


@pytest.mark.parametrize("case", list(SET_ORACLE_CASES))
def test_extremal_set_matches_all_pairs_oracle(case):
    """The set test's candidate step loses no crossing chord: on every
    default-suite face, on the net's centre (a point that chords cross) and
    on seeded random two-point sets (whose first crossing chord often passes
    far from their first point), verdict and witness equal those of the
    all-pairs scan."""
    gen, tight = SET_ORACLE_CASES[case]
    if gen is None:
        space, seed, params = _caterpillar_leaves()
    else:
        inst = generate_instance(**gen)
        space = inst.build_space()
        seed, params = inst.seed_net(space), inst.params.extremal_params()
    C = hull_closure(space, seed).net
    D = space.dist_matrix(C.packed, C.packed)
    centre = C.take(np.array([np.argmin(D.max(axis=1))]))
    rng = np.random.default_rng(11)
    pairs = [C.take(np.unique(rng.choice(len(C), 2, replace=False))) for _ in range(40)]
    verdicts = []
    for prm in [params] + ([replace(params, eps=0.4 * C.eps)] if tight else []):
        faces = [argmax_face(space, C, phi, prm.face_tol) for phi in _default_suite(space, C)]
        for face in faces + [centre] + (pairs if prm is params else []):
            got = is_extremal_set(space, C, face, prm)
            assert got == oracles.brute_extremal_set(space, C, face, prm), (len(face), got)
            verdicts.append(got.extremal)
    assert any(verdicts) and not all(verdicts)


def _record_confirm_step(monkeypatch, space, C):
    """Wrap the net's chord finder and the space's chord_dists: the returned
    log lists the pair keys i * |C| + j that each yields or evaluates, under
    "proposed" and "evaluated", by the bytes of the packed targets."""
    log = {"proposed": {}, "evaluated": {}}
    candidates, chord_dists = C.chord_finder.candidates, space.chord_dists

    def keep(kind, targets, I, J):
        log[kind].setdefault(targets.tobytes(), []).append(I * len(C) + J)

    def proposing(target, *args):
        for I, J in candidates(target, *args):
            keep("proposed", target, I, J)
            yield I, J

    def evaluating(packed, I, J, ts, targets):
        keep("evaluated", targets, I, J)
        return chord_dists(packed, I, J, ts, targets)

    monkeypatch.setattr(C.chord_finder, "candidates", proposing)
    monkeypatch.setattr(space, "chord_dists", evaluating)
    return log


@pytest.mark.parametrize("kind", ["square", "hyp_triangle"])
def test_confirm_step_evaluates_each_candidate_once(kind, monkeypatch):
    """The confirm step walks its candidates once, in order, however its
    batches split: per target of a point scan, the evaluated pairs are a
    prefix of the proposed ones (all of them for a survivor), and a passing
    face evaluates each proposed pair once, in row-major order.  The point
    scan runs without the first pass, so that every target, the long-lived
    ones the pass would kill included, goes through the confirm step."""
    inst = generate_instance(kind)
    space = inst.build_space()
    C = hull_closure(space, inst.seed_net(space)).net
    params = inst.params.extremal_params()
    log = _record_confirm_step(monkeypatch, space, C)
    with monkeypatch.context() as m:
        m.setattr(extremal, "_first_pass", _kill_nothing)
        scan = extremal_points(space, C, params)
    survivors = {C.packed[r].tobytes() for r in scan.rows}
    longest = 0
    for key, blocks in log["proposed"].items():
        want = np.concatenate(blocks)
        got = np.concatenate(log["evaluated"].get(key, [want[:0]]))
        assert np.array_equal(got, want[: len(got)])
        assert key not in survivors or len(got) == len(want)
        longest = max(longest, max(map(len, blocks)))
    assert longest > 3 * 64  # a candidate block spans several doubling batches

    faces = [argmax_face(space, C, phi, params.face_tol) for phi in _default_suite(space, C)]
    passing = [E for E in faces if is_extremal_set(space, C, E, params).extremal]
    E = max(passing, key=len)
    log["proposed"].clear()
    log["evaluated"].clear()
    assert is_extremal_set(space, C, E, params).extremal
    got = np.concatenate(log["evaluated"][E.packed.tobytes()])
    want = np.unique(np.concatenate(log["proposed"][E.packed.tobytes()]))
    assert len(want) > 3 * 64 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


def test_descent_singleton(plane, grid_params):
    net = PointNet.build(plane, [euclidean(0.5, 0.5)], 0.05)
    res = minimal_extremal_descent(plane, net, euclidean(0.5, 0.5), grid_params)
    assert res.converged and res.iterations == 0
    assert res.point == euclidean(0.5, 0.5)


def test_descent_segment_reaches_canonical_endpoint(plane, segment_grid, grid_params):
    res = minimal_extremal_descent(plane, segment_grid, euclidean(0.5, 0.0), grid_params)
    assert res.converged
    # both endpoints are farthest; the canonical tie-break picks the smaller
    assert res.point == euclidean(1.0, 0.0) or res.point == euclidean(0.0, 0.0)
    far = argmax_face(plane, segment_grid,
                      ConvexFunctional.dist_to_point(euclidean(0.5, 0.0)), grid_params.face_tol)
    assert res.point == min(far.points, key=canonical_key) or res.converged


def test_descent_square_reaches_extremal_corner(plane, square_grid, grid_params):
    res = minimal_extremal_descent(plane, square_grid, euclidean(0.5, 0.5), grid_params)
    assert res.converged
    assert res.point.coords in {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert is_extremal_point(plane, square_grid, res.point, grid_params).extremal
    assert all(a > b for a, b in zip(res.trace, res.trace[1:]))


def test_descent_traces_non_increasing_everywhere(plane, square_grid, grid_params):
    for start in canonical_starts(square_grid, 5):
        res = minimal_extremal_descent(plane, square_grid, start, grid_params)
        assert res.converged
        assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))
        assert is_extremal_point(plane, square_grid, res.point, grid_params).extremal


def test_descent_rejects_far_start(plane, square_grid, grid_params):
    with pytest.raises(InvalidInputError):
        minimal_extremal_descent(plane, square_grid, euclidean(9, 9), grid_params)
