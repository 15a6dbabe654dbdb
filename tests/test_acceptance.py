"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 2 is split into its Lipschitz and segment-convexity halves.  The
convexity half demands a 1e-7 second-difference bound for the distance to a
convex set along segments.  Each case's set is conv(K) for a hull-closure net
K, measured exactly by ``ConvexFunctional.dist_to_hull``; the distance to K's
stored points alone is not convex (its kinks scale with the net spacing), so
the check also brackets the exact functional against it to confirm that it
measures the set K stands for.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
from bicombing_lab import (
    ConvexFunctional,
    ExtremalParams,
    NormedSpaceSpec,
    PointNet,
    ProductPoint,
    ProductSpaceSpec,
    canonical_key,
    canonical_starts,
    check_axioms,
    check_convex_functional,
    euclidean,
    extremal_points,
    hausdorff,
    hull_closure,
    hyperbolic_point_at,
    is_extremal_point,
    is_extremal_set,
    make_hyperbolic_plane,
    make_lp_space,
    make_product,
    minimal_extremal_descent,
    star_tree,
    verify_krein_milman,
)
from bicombing_lab.cli import main as cli_main
from bicombing_lab.instances import generate_instance, save_instance


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n{line}", flush=True)


# ---------------------------------------------------------------------------
# shared space/sampler table
# ---------------------------------------------------------------------------


def _axiom_spaces():
    """(space, sampler, tolerance) for the standard space matrix."""
    table = []
    for n in (2, 3):
        for p in (1.0, 2.0, math.inf):
            space = make_lp_space(NormedSpaceSpec(n, p))
            table.append(
                (space, lambda rng, s=space: euclidean(*rng.uniform(-1, 1, s.n)), 1e-9)
            )
    hyp = make_hyperbolic_plane()
    table.append(
        (hyp, lambda rng: hyperbolic_point_at(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi)), 1e-7)
    )
    star = star_tree(5)
    def tree_sample(rng, t=star):
        return t.point_on_edge(int(rng.integers(0, 5)), float(rng.uniform(0, 1)))
    table.append((star, tree_sample, 1e-9))
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    prod = make_product(ProductSpaceSpec(star, line))
    def prod_sample(rng):
        return ProductPoint(tree_sample(rng), euclidean(float(rng.uniform(-1, 1))))
    table.append((prod, prod_sample, 1e-7))
    return table


#: generator calls for the eight standard reconstruction instances; refinement
#: runs regenerate at half resolution so resolution-derived radii (the sag-rule
#: delta scales with sqrt(eps)) are recomputed rather than linearly rescaled
KM_GENERATORS = {
    "square": ("square", dict(step=0.1)),
    "cube": ("cube", dict(step=0.1)),
    "linf_ball": ("lp_ball", dict(p=math.inf)),
    "simplex": ("simplex", {}),
    "disk": ("disk", dict(radius=0.5)),
    "hyp_triangle": ("hyp_triangle", {}),
    "star_tree": ("tree_leaves", dict(leaves=3)),
    "product": ("product_demo", {}),
}


@pytest.fixture(scope="module")
def km_instances():
    return {name: generate_instance(kind, **kw) for name, (kind, kw) in KM_GENERATORS.items()}


def _km_run(inst):
    space = inst.build_space()
    seed = inst.seed_net(space)
    samples, max_rounds = inst.params.segment_samples, inst.params.max_rounds
    hull = hull_closure(space, seed, samples, max_rounds)
    assert hull.converged
    rep, nets = verify_krein_milman(
        space, hull.net, inst.params.extremal_params(), samples, max_rounds,
        inst.params.pass_factor,
    )
    return space, hull.net, rep, nets


@pytest.fixture(scope="module")
def km_base_runs(km_instances):
    return {name: _km_run(inst) for name, inst in km_instances.items()}


# ---------------------------------------------------------------------------
# criterion 1: axiom suite
# ---------------------------------------------------------------------------


def test_criterion_1_axiom_suite(capsys):
    t0 = time.monotonic()
    worst = {}
    rng = np.random.default_rng(101)
    ok = True
    for space, sampler, tol in _axiom_spaces():
        quads = [tuple(sampler(rng) for _ in range(4)) for _ in range(100)]
        rep = check_axioms(space, quads, grid=16, tol=tol)
        worst[space.description] = rep.max_convexity_violation
        ok = ok and rep.passed
    elapsed = time.monotonic() - t0
    line = (
        f"ACCEPTANCE 1 axiom suite: {'PASS' if ok and elapsed < 10 else 'FAIL'} "
        f"(9 spaces x 100 quadruples, {elapsed:.1f}s)"
    )
    announce(capsys, line)
    assert ok, worst
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: distance-to-set suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dist_set_cases():
    rng = np.random.default_rng(202)
    cases = []
    for space, sampler, _tol in _axiom_spaces():
        eps = 0.25 if "tree" not in space.description else 0.1
        for _ in range(5):
            seed_pts = [sampler(rng) for _ in range(4)]
            seed = PointNet.build(space, seed_pts, eps)
            res = hull_closure(space, seed)
            assert res.converged
            cases.append((space, sampler, res.net))
    return cases, rng


def test_criterion_2a_distance_lipschitz(capsys, dist_set_cases):
    cases, rng = dist_set_cases
    worst = 0.0
    for space, sampler, K in cases:
        phi = ConvexFunctional.dist_to_net(K)
        pts = [sampler(rng) for _ in range(2 * (1000 // len(cases) + 1))]
        P = space.pack(pts)
        vals = phi.evaluate_packed(space, P)
        half = len(pts) // 2
        A, B = P[:half], P[half : 2 * half]
        d = space.paired_dist(A, B)
        defect = float((np.abs(vals[:half] - vals[half : 2 * half]) - d).max())
        worst = max(worst, defect)
    ok = worst <= 1e-12
    announce(capsys, f"ACCEPTANCE 2a distance-to-set 1-Lipschitz: "
                     f"{'PASS' if ok else 'FAIL'} (max defect {worst:.2e} <= 1e-12)")
    assert ok


def test_criterion_2b_distance_convexity_at_stated_tolerance(capsys, dist_set_cases):
    cases, _ = dist_set_cases
    # own generator: the shared one has been advanced by whichever tests ran first
    rng = np.random.default_rng(203)
    checked = cases[:: max(1, len(cases) // 12)]
    worst = 0.0
    for space, sampler, K in checked:
        phi = ConvexFunctional.dist_to_hull(K)
        domain = PointNet.build(space, [sampler(rng) for _ in range(16)], K.eps)
        # conv(K) contains K, and K is eps-dense in it: a functional measuring a
        # smaller or a larger set than conv(K) leaves this bracket
        gap = ConvexFunctional.dist_to_net(K).evaluate_packed(space, domain.packed) - (
            phi.evaluate_packed(space, domain.packed)
        )
        assert -1e-12 <= gap.min() and gap.max() <= K.eps, (
            f"{space.description}: dist_to_net - dist_to_hull spans "
            f"[{gap.min():.3e}, {gap.max():.3e}], outside [-1e-12, eps = {K.eps}]"
        )
        res = check_convex_functional(space, phi, domain, grid=16, tol=1e-7)
        worst = max(worst, res.max_defect)
    ok = worst <= 1e-7
    announce(
        capsys,
        f"ACCEPTANCE 2b distance-to-hull segment convexity at 1e-7: "
        f"{'PASS' if ok else 'FAIL'} (max second-difference defect {worst:.2e} "
        f"over {len(checked)} hulls)",
    )
    assert ok, (
        f"second-difference defect {worst:.3e} of the distance to conv(K) "
        f"exceeds the stated 1e-7"
    )


# ---------------------------------------------------------------------------
# criterion 3: argmax faces are extremal sets
# ---------------------------------------------------------------------------


def test_criterion_3_argmax_faces(capsys, square_grid, segment_grid, grid_params,
                                  hyp_triangle_hull, hyp_params, star_hulls, tree_params,
                                  plane, hplane, space3d):
    xs3 = [round(k * 0.1, 10) for k in range(11)]
    cube = PointNet.build(space3d, [euclidean(x, y, z) for x in xs3 for y in xs3 for z in xs3], 0.2)
    cube_params = ExtremalParams(eps=0.04, delta=0.08, t_grid=7, face_tol=0.01)
    hyp_C, _ = hyp_triangle_hull
    star3_t, star3_C, _ = star_hulls[3]
    star5_t, star5_C, _ = star_hulls[5]

    jobs = [
        ("square", plane, square_grid, grid_params, True),
        ("segment", plane, segment_grid, grid_params, True),
        ("cube", space3d, cube, cube_params, True),
        ("hyp_triangle", hplane, hyp_C, hyp_params, False),
        ("star3", star3_t, star3_C, tree_params, False),
        ("star5", star5_t, star5_C, tree_params, False),
    ]
    failures = []
    checked = 0
    for name, space, C, params, has_linear in jobs:
        suite = [ConvexFunctional.dist_to_point(p) for p in canonical_starts(C, 3)]
        if has_linear:
            dim = len(C.points[0].coords)
            for k in range(dim):
                coeffs = [0.0] * dim
                coeffs[k] = 1.0
                suite.append(ConvexFunctional.linear(coeffs))
            suite.append(ConvexFunctional.linear([1 / math.sqrt(dim)] * dim))
        for phi in suite:
            from bicombing_lab import argmax_face

            face = argmax_face(space, C, phi, params.face_tol)
            verdict = is_extremal_set(space, C, face, params)
            checked += 1
            if not verdict.extremal:
                failures.append((name, phi.label(), verdict.witness))
    ok = not failures
    announce(capsys, f"ACCEPTANCE 3 argmax faces extremal: {'PASS' if ok else 'FAIL'} "
                     f"({checked} faces, {len(failures)} witnesses)")
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 4: exact extremal detection
# ---------------------------------------------------------------------------


def test_criterion_4_exact_detection(capsys, plane, square_grid, segment_grid, grid_params,
                                     hplane, hyp_triangle_hull, hyp_params,
                                     star_hulls, tree_params):
    t0 = time.monotonic()
    problems = []

    got = sorted(p.coords for p in extremal_points(plane, square_grid, grid_params).points)
    if got != [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]:
        problems.append(("square", got))
    ints = np.array([[round(c * 20) for c in p.coords] for p in square_grid.points])
    idx = oracles.int_grid_extremal(ints, 20, 1, 50, 1, 25, grid_params.t_grid)
    if sorted(square_grid.points[i].coords for i in idx) != got:
        problems.append(("square oracle mismatch", idx))

    got = sorted(p.coords for p in extremal_points(plane, segment_grid, grid_params).points)
    if got != [(0.0, 0.0), (1.0, 0.0)]:
        problems.append(("segment", got))
    ints = np.array([[round(c * 20) for c in p.coords] for p in segment_grid.points])
    idx = oracles.int_grid_extremal(ints, 20, 1, 50, 1, 25, grid_params.t_grid)
    if sorted(segment_grid.points[i].coords for i in idx) != got:
        problems.append(("segment oracle mismatch", idx))

    C, verts = hyp_triangle_hull
    got_h = set(extremal_points(hplane, C, hyp_params).points)
    if got_h != set(verts):
        problems.append(("hyp_triangle", len(got_h)))
    coords = np.array([p.coords for p in C.points])
    oracle_idx = oracles.brute_extremal_hyperbolic(coords, hyp_params.eps, hyp_params.delta,
                                                   hyp_params.t_grid)
    if {C.points[i] for i in oracle_idx} != got_h:
        problems.append(("hyp_triangle oracle mismatch", oracle_idx))

    for k in (2, 3, 5):
        t, Ck, leaves = star_hulls[k]
        got_t = set(extremal_points(t, Ck, tree_params).points)
        if got_t != set(leaves):
            problems.append((f"star{k}", len(got_t)))
        oracle = set(oracles.brute_extremal_tree(t, Ck, tree_params.eps, tree_params.delta,
                                                 tree_params.t_grid))
        if oracle != got_t:
            problems.append((f"star{k} oracle mismatch", len(oracle)))

    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30.0
    announce(capsys, f"ACCEPTANCE 4 exact extremal detection: {'PASS' if ok else 'FAIL'} "
                     f"(square/segment/hyperbolic triangle/star trees, {elapsed:.1f}s)")
    assert not problems, problems
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 5: reconstruction end-to-end with refinement stability
# ---------------------------------------------------------------------------


def test_criterion_5_reconstruction(capsys, km_instances, km_base_runs):
    results = {}
    for name, inst in km_instances.items():
        _, _, rep, _ = km_base_runs[name]
        base_pass = rep.passed and rep.hausdorff_c_vs_hull_ext <= 3 * rep.eps
        kind, kw = KM_GENERATORS[name]
        halved = generate_instance(kind, eps=inst.params.eps / 2, **kw)
        _, _, rep2, _ = _km_run(halved)
        results[name] = (base_pass, rep2.passed, rep.hausdorff_c_vs_hull_ext, rep2.hausdorff_c_vs_hull_ext)
    ok = all(b and h for b, h, *_ in results.values())
    flips = [n for n, (b, h, *_ ) in results.items() if b and not h]
    announce(capsys, f"ACCEPTANCE 5 reconstruction from extremal points: "
                     f"{'PASS' if ok else 'FAIL'} "
                     f"(8 instances at base and halved resolution, flips: {flips})")
    assert ok, results


# ---------------------------------------------------------------------------
# criterion 6: descent
# ---------------------------------------------------------------------------


def test_criterion_6_descent(capsys, km_base_runs):
    bad = []
    for name, (space, C, rep, _nets) in km_base_runs.items():
        params = ExtremalParams.defaults(C)
        for start in canonical_starts(C, 5):
            res = minimal_extremal_descent(space, C, start, params)
            strict = all(a > b for a, b in zip(res.trace, res.trace[1:]))
            endpoint_ok = is_extremal_point(space, C, res.point, params).extremal
            if not (res.converged and res.iterations <= 50 and strict and endpoint_ok):
                bad.append((name, start, res.trace, res.converged, endpoint_ok))
    ok = not bad
    announce(capsys, f"ACCEPTANCE 6 farthest-point descent: {'PASS' if ok else 'FAIL'} "
                     f"(5 canonical starts on 8 instances)")
    assert ok, bad


# ---------------------------------------------------------------------------
# criterion 7: hull properties
# ---------------------------------------------------------------------------


def test_criterion_7_hull_properties(capsys, plane, path_tree):
    bad = []

    def check(space, seed_pts, eps, raster_pts, tag):
        seed = PointNet.build(space, seed_pts, eps)
        res = hull_closure(space, seed)
        assert res.converged
        again = hull_closure(space, res.net)
        idem = hausdorff(space, again.net, res.net)
        raster = PointNet(space, space.pack(sorted(set(raster_pts), key=canonical_key)), eps)
        exact = hausdorff(space, res.net, raster)
        if idem > eps or exact > 2 * eps:
            bad.append((tag, idem, exact))

    check(
        plane,
        [euclidean(0, 0), euclidean(1, 0), euclidean(0, 1)],
        0.05,
        [euclidean(*c) for c in oracles.triangle_raster(0.01)],
        "triangle",
    )
    check(
        plane,
        [euclidean(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)],
        0.05,
        [euclidean(*c) for c in oracles.square_raster(0.01)],
        "square",
    )
    path_raster = [
        path_tree.point_on_edge(e, round(k * float(w) / 200, 12))
        for e, w in ((0, 1.0), (1, 2.0))
        for k in range(201)
    ]
    check(
        path_tree,
        [path_tree.node_point("a"), path_tree.node_point("c")],
        0.05,
        path_raster,
        "tree-path",
    )
    ok = not bad
    announce(capsys, f"ACCEPTANCE 7 hull idempotence and exactness: "
                     f"{'PASS' if ok else 'FAIL'} (triangle, square, tree path)")
    assert ok, bad


# ---------------------------------------------------------------------------
# criterion 8: CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(capsys, tmp_path):
    instances = {
        "tree": generate_instance("tree_leaves", leaves=3),
        "square": generate_instance("square", step=0.1),
    }
    mismatches = []
    for tag, inst in instances.items():
        inst_path = tmp_path / f"{tag}.json"
        save_instance(inst, str(inst_path))
        for sub in ("check-axioms", "hull", "extremal", "verify-km", "paper-checks"):
            a = tmp_path / f"{tag}.{sub}.a.json"
            b = tmp_path / f"{tag}.{sub}.b.json"
            ca = cli_main([sub, "--instance", str(inst_path), "--out", str(a), "--quiet"])
            cb = cli_main([sub, "--instance", str(inst_path), "--out", str(b), "--quiet"])
            if ca != cb or a.read_bytes() != b.read_bytes():
                mismatches.append((tag, sub))
        rep = tmp_path / f"{tag}.hull.a.json"
        pa, pb = tmp_path / f"{tag}.pa.csv", tmp_path / f"{tag}.pb.csv"
        cli_main(["export-plot", "--report", str(rep), "--out", str(pa)])
        cli_main(["export-plot", "--report", str(rep), "--out", str(pb)])
        if pa.read_bytes() != pb.read_bytes():
            mismatches.append((tag, "export-plot"))
    ok = not mismatches
    announce(capsys, f"ACCEPTANCE 8 CLI determinism: {'PASS' if ok else 'FAIL'} "
                     f"(byte-identical reports across repeated runs)")
    assert ok, mismatches
