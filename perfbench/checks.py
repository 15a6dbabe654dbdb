"""Checks of the lab's outputs made with the benchmark's own formulas.

Every checker raises ``CheckFailed`` with a message naming what is wrong.
They read report JSON objects (as the CLI writes them) and use only
``geometry.py`` for distances and segments, plus Qhull (through scipy) for
the hull of a seed set.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.spatial import ConvexHull

from geometry import Euclidean, Hyperbolic, Product, Tree, geometry_for

TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the lab disagrees with the benchmark's own computation."""


def _expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _key(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _flat(geo, A):
    """Coordinates in which the geodesic hull is the Euclidean hull: the
    Klein model for the hyperbolic plane, joined coordinates for a product
    of two Euclidean factors; None for trees."""
    if isinstance(geo, Euclidean):
        return A
    if isinstance(geo, Hyperbolic):
        return geo.klein(A)
    if isinstance(geo, Product) and isinstance(geo.left, Euclidean) \
            and isinstance(geo.right, Euclidean):
        return np.hstack([A[0], A[1]])
    return None


def _tree_between_excess(geo: Tree, S, X) -> np.ndarray:
    """For each point x of X, min over seed pairs a, b of
    d(a, x) + d(x, b) - d(a, b): zero exactly on the subtree the seeds span."""
    DS = geo.dist(S, S)
    DX = geo.dist(X, S)
    return (DX[:, :, None] + DX[:, None, :] - DS[None, :, :]).min(axis=(1, 2))


def hull_vertices(geo, S) -> np.ndarray:
    """Indices of the seed points that are vertices of the seeds' own hull."""
    flat = _flat(geo, S)
    if flat is not None:
        return np.sort(ConvexHull(flat).vertices)
    n = geo.size(S)
    keep = []
    for s in range(n):
        others = np.array([k for k in range(n) if k != s], dtype=np.int64)
        if len(others) < 2 or _tree_between_excess(
                geo, geo.take(S, others), geo.take(S, np.array([s])))[0] > TOL:
            keep.append(s)
    return np.array(keep, dtype=np.int64)


def hull_excess(geo, S, X) -> float:
    """How far the points X stick out of the hull of the seeds S (0 when inside)."""
    flat = _flat(geo, S)
    if flat is not None:
        eq = ConvexHull(flat).equations
        return float(max(0.0, (_flat(geo, X) @ eq[:, :-1].T + eq[:, -1]).max()))
    return float(max(0.0, _tree_between_excess(geo, S, X).max()))


def min_separation(geo, C) -> float:
    m = geo.size(C)
    best = np.inf
    rows = max(1, 2_000_000 // m)
    for lo in range(0, m, rows):
        sl = np.arange(lo, min(lo + rows, m))
        D = geo.dist(geo.take(C, sl), C)
        D[np.arange(len(sl)), sl] = np.inf
        best = min(best, float(D.min()))
    return best


def check_km_report(rep: dict, rng: np.random.Generator, segment_pairs: int = 2000) -> None:
    """Independent checks of one verify-km report (see the README)."""
    inst = rep["instance"]
    geo = geometry_for(inst["space"])
    eps = inst["params"]["eps"]
    pass_factor = inst["params"]["pass_factor"]
    pts = rep["points"]
    C = geo.from_objs(pts["net"])
    E = geo.from_objs(pts["extremal"])
    H = geo.from_objs(pts["hull_of_extremal"])
    S = geo.from_objs(inst["seed_points"])
    res = rep["result"]
    name = inst["space"]["kind"]
    m = geo.size(C)

    _expect(rep["passed"] is True, f"{name}: report does not pass")
    _expect(res["net_size"] == m, f"{name}: net_size {res['net_size']} != {m} points listed")
    _expect(res["extremal_count"] == geo.size(E),
            f"{name}: extremal_count {res['extremal_count']} != {geo.size(E)} points listed")

    sep = min_separation(geo, C)
    _expect(sep >= eps / 2 - TOL, f"{name}: net points {sep:.6g} apart, below eps/2 = {eps / 2:.6g}")
    cover = float(geo.min_dist(S, C).max())
    _expect(cover <= eps / 2 + TOL, f"{name}: a seed lies {cover:.6g} from the net (> eps/2)")
    out = hull_excess(geo, S, C)
    _expect(out <= TOL, f"{name}: a net point lies {out:.3g} outside the hull of the seeds")

    I = rng.integers(0, m, segment_pairs)
    J = rng.integers(0, m, segment_pairs)
    t = rng.uniform(0.0, 1.0, segment_pairs)
    samples = geo.segment(geo.take(C, I), geo.take(C, J), t)
    gap = float(geo.min_dist(samples, C).max())
    _expect(gap <= eps + TOL, f"{name}: a segment sample lies {gap:.6g} from the net (> eps)")

    net_keys = {_key(o) for o in pts["net"]}
    ext_keys = {_key(o) for o in pts["extremal"]}
    _expect(ext_keys <= net_keys, f"{name}: an extremal point is not a net point")
    for v in hull_vertices(geo, S):
        obj = inst["seed_points"][int(v)]
        d = float(geo.min_dist(geo.take(S, np.array([v])), E)[0])
        _expect(d <= eps + TOL, f"{name}: seed vertex {obj} lies {d:.6g} from the extremal set")
        if _key(obj) in net_keys:
            _expect(_key(obj) in ext_keys, f"{name}: seed vertex {obj} is stored but not extremal")

    c_to_h = float(geo.min_dist(C, H).max())
    h_to_c = float(geo.min_dist(H, C).max())
    hd = max(c_to_h, h_to_c)
    _expect(abs(hd - res["hausdorff_c_vs_hull_ext"]) <= TOL,
            f"{name}: Hausdorff gap recomputes to {hd!r}, report says "
            f"{res['hausdorff_c_vs_hull_ext']!r}")
    _expect(abs(h_to_c - res["inclusion_defect"]) <= TOL,
            f"{name}: inclusion defect recomputes to {h_to_c!r}, report says "
            f"{res['inclusion_defect']!r}")
    _expect(hd <= pass_factor * eps + TOL,
            f"{name}: Hausdorff gap {hd:.6g} above pass_factor*eps = {pass_factor * eps:.6g}")


def _canonical_picks(m: int, count: int) -> list[int]:
    """Evenly spaced picks from a canonically ordered net, as the paper checks
    choose their anchors and descent starts."""
    return sorted({round(i * (m - 1) / max(count - 1, 1)) for i in range(count)})


def check_cube_paper_checks(rep: dict, hull_rep: dict) -> None:
    """Recount the cube's face sizes from coordinates and redo each descent.

    hull_rep is the `hull` report of the same instance, whose net (listed in
    canonical order) is the net the paper checks ran on.
    """
    _expect(hull_rep["instance"] == rep["instance"], "cube: hull and paper-checks instances differ")
    params = rep["instance"]["params"]
    face_tol, hit = params["face_tol"], params["hit_eps"]
    C = np.array([o["coords"] for o in hull_rep["points"]["net"]], dtype=float)
    m, n = C.shape
    _expect(rep["hull"]["size"] == m, "cube: paper-checks net size differs from the hull run")

    values = [np.linalg.norm(C - C[i], axis=1) for i in _canonical_picks(m, 3)]
    values += [C[:, k] for k in range(n)]
    values.append(C @ np.full(n, 1.0 / np.sqrt(n)))
    faces = rep["result"]["face_checks"]
    _expect(len(faces) == len(values), f"cube: {len(faces)} face checks, expected {len(values)}")
    for entry, vals in zip(faces, values):
        _expect(entry["status"] == "ok", f"cube: face check {entry['functional']} is {entry['status']}")
        size = int((vals >= vals.max() - face_tol).sum())
        _expect(size == entry["face_size"],
                f"cube: face of {entry['functional']} has {size} points, report says "
                f"{entry['face_size']}")

    descents = rep["result"]["descent_checks"]
    starts = _canonical_picks(m, 5)
    _expect(len(descents) == len(starts), "cube: unexpected number of descents")
    for entry, start in zip(descents, starts):
        face = np.arange(m)
        anchor = C[start]
        trace = [m]
        for _ in range(50):
            F = C[face]
            diam = float(np.linalg.norm(F[:, None, :] - F[None, :, :], axis=2).max())
            if len(face) == 1 or diam <= 2.0 * hit:
                break
            vals = np.linalg.norm(F - anchor, axis=1)
            face = face[vals >= vals.max() - face_tol]
            anchor = C[face[0]]
            trace.append(len(face))
        _expect(trace == entry["trace"], f"cube: descent trace {entry['trace']} recomputes to {trace}")
        end = C[face[0]]
        _expect(bool(np.all((end == 0.0) | (end == 1.0))), f"cube: descent ends at {end}, not a corner")
        _expect(entry["endpoint_extremal"] is True, "cube: descent endpoint judged not extremal")


def check_paper_checks(rep: dict) -> None:
    """Verdict-level consistency of a paper-checks report."""
    name = rep["instance"]["space"]["kind"]
    res = rep["result"]
    _expect(rep["passed"] is True, f"{name}: paper-checks do not pass")
    for entry in res["face_checks"]:
        _expect(entry["status"] in ("ok", "inapplicable"), f"{name}: face check failed: {entry}")
    for entry in res["descent_checks"]:
        tr = entry["trace"]
        _expect(all(a >= b for a, b in zip(tr, tr[1:])), f"{name}: descent trace {tr} increases")
        _expect(entry["endpoint_extremal"] is True, f"{name}: descent endpoint not extremal")


def check_axiom_batch(report, space_desc: dict, quad_objs: list, base_tol: float,
                      grid: int = 16, sample: int = 40) -> None:
    """The axiom report stays within base_tol, and the convexity defect of
    the first `sample` quadruples, recomputed here, does too."""
    name = space_desc["kind"]
    _expect(report.pairs_checked == len(quad_objs), f"{name}: quadruple count differs")
    for field in ("max_endpoint_error", "max_idempotence_error", "max_convexity_violation"):
        v = getattr(report, field)
        _expect(v <= base_tol, f"{name}: {field} = {v!r} above base_tol {base_tol!r}")
    _expect(report.passed is True, f"{name}: check_axioms does not pass")

    geo = geometry_for(space_desc)
    quads = quad_objs[:sample]
    X, Y, X2, Y2 = (geo.from_objs([q[k] for q in quads]) for k in range(4))
    q = len(quads)
    ts = np.arange(grid + 1) / grid
    f = np.empty((q, grid + 1))
    for k, t in enumerate(ts):
        tt = np.full(q, t)
        a = geo.segment(X, Y, tt)
        b = geo.segment(X2, Y2, tt)
        f[:, k] = [geo.dist(geo.take(a, np.array([r])), geo.take(b, np.array([r])))[0, 0]
                   for r in range(q)]
    defect = float((f[:, 1:-1] - 0.5 * (f[:, :-2] + f[:, 2:])).max())
    _expect(defect <= base_tol, f"{name}: recomputed convexity defect {defect!r} above {base_tol!r}")
