"""Independent oracles for the test suite.

These deliberately avoid the library's optimized code paths: grid instances are
decided in exact integer arithmetic, tree metric scans materialize segment
points by walking, and hyperbolic values come from a directly coded chord
formula plus high-precision arccosh where a reference number is needed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from bicombing_lab import LpSpace, PointNet, ProductSpace, TreePoint, canonical_key


def int_grid_extremal(coords: np.ndarray, unit: int, h_num: int, h_den: int,
                      delta_num: int, delta_den: int, t_grid: int,
                      p: float = 2) -> list[int]:
    """Exact extremal scan for a net of integer-coordinate points.

    coords are integers on a lattice with `unit` lattice steps per coordinate
    unit; the hit radius is h_num/h_den and the exclusion radius
    delta_num/delta_den (coordinate units), both in the l^p norm for p in
    {1, 2, inf} (the l^2 product of two Euclidean factors is l^2 on the joined
    coordinates).  All comparisons reduce to integer inequalities: squared
    norms for p = 2, sums and maxima of absolute values for p = 1 and
    p = inf, so the verdict carries no floating-point uncertainty.

    Returns indices of points with no qualifying chord.
    """
    if p not in (1, 2, math.inf):
        raise ValueError(f"no exact integer norm for p = {p}")
    pts = np.asarray(coords, dtype=np.int64)
    m, dim = pts.shape
    g = t_grid + 1  # chord parameters k/g, k=1..g-1

    def below(v, num, den, scale):
        """Whether |v|_p < num/den * scale for integer vectors v."""
        if p == 2:
            return (v * v).sum(axis=-1) * (den * den) < (num * num) * (scale * scale)
        a = np.abs(v)
        n = a.sum(axis=-1) if p == 1 else a.max(axis=-1)
        return n * den < num * scale

    # delta comparison: d > delta  <=>  not |diff|_p <= delta; on integers
    # |diff| * delta_den > delta_num * unit
    diff = pts[:, None, :] - pts[None, :, :]
    if p == 2:
        qual = (diff * diff).sum(axis=2) * (delta_den * delta_den) > (
            (delta_num * delta_num) * (unit * unit)
        )
    else:
        a = np.abs(diff)
        n = a.sum(axis=2) if p == 1 else a.max(axis=2)
        qual = n * delta_den > delta_num * unit

    out = []
    ks = np.arange(1, g, dtype=np.int64)
    for pi in range(m):
        cand = np.nonzero(qual[:, pi])[0]
        killed = False
        for a in range(len(cand) - 1):
            i = cand[a]
            js = cand[a + 1 :]
            # chord point scaled by g*unit: (g-k)*x + k*y ; target scaled: g*p
            X = pts[i][None, None, :] * (g - ks)[None, :, None]
            Y = pts[js][:, None, :] * ks[None, :, None]
            T = pts[pi][None, None, :] * g
            # d < h  <=>  |v| < h * g * unit
            if below(X + Y - T, h_num, h_den, g * unit).any():
                killed = True
                break
        if not killed:
            out.append(pi)
    return out


def brute_extremal_hyperbolic(coords: np.ndarray, h: float, delta: float,
                              t_grid: int, margin: float = 1e-9) -> list[int]:
    """Float brute-force extremal scan on hyperboloid-model points.

    Chord points come from a directly coded sinh interpolation and distances
    from arccosh of the Minkowski pairing.  Every comparison against the hit
    and exclusion radii is asserted to clear `margin`, so rounding cannot have
    flipped a verdict.
    """
    P = np.asarray(coords, dtype=np.float64)
    m = P.shape[0]
    signs = np.array([-1.0, 1.0, 1.0])

    def dmat(A, B):
        g = -(A @ (B * signs).T)
        return np.arccosh(np.clip(g, 1.0, None))

    D = dmat(P, P)
    ts = np.array([k / (t_grid + 1) for k in range(1, t_grid + 1)])

    out = []
    for pi in range(m):
        dp = D[:, pi]
        assert (np.abs(dp[np.arange(m) != pi] - delta) > margin).all()
        cand = np.nonzero(dp > delta)[0]
        killed = False
        for a in range(len(cand) - 1):
            i = cand[a]
            js = cand[a + 1 :]
            L = D[i, js]
            safe = np.where(L > 0, L, 1.0)
            wa = np.sinh((1 - ts)[None, :] * safe[:, None]) / np.sinh(safe)[:, None]
            wb = np.sinh(ts[None, :] * safe[:, None]) / np.sinh(safe)[:, None]
            S = wa[:, :, None] * P[i][None, None, :] + wb[:, :, None] * P[js][:, None, :]
            nrm = np.sqrt(np.maximum((S * S * signs).sum(axis=2) * -1.0, 1e-300))
            S = S / nrm[:, :, None]
            dd = np.arccosh(np.clip(-(S @ (P[pi] * signs)), 1.0, None))
            assert (np.abs(dd - h) > margin).all()
            if (dd < h).any():
                killed = True
                break
        if not killed:
            out.append(pi)
    return out


def tree_path(space, x: TreePoint, y: TreePoint) -> list[tuple[int, float, float]]:
    """Pieces (edge, offset at start, offset at end) of the path from x to y.

    Built from ``space.edges`` alone: x and y split their edges into two
    pieces each, and a breadth-first search over the resulting tree finds the
    unique path between them.
    """
    if x.edge == y.edge:
        return [(x.edge, x.offset, y.offset)]
    start, goal = object(), object()  # cannot clash with node names
    adj: dict = {}

    def link(u, v, edge, off_u, off_v):
        adj.setdefault(u, []).append((v, edge, off_u, off_v))
        adj.setdefault(v, []).append((u, edge, off_v, off_u))

    for e, (u, v, w) in enumerate(space.edges):
        if e == x.edge or e == y.edge:
            end = start if e == x.edge else goal
            off = x.offset if e == x.edge else y.offset
            link(u, end, e, 0.0, off)
            link(end, v, e, off, w)
        else:
            link(u, v, e, 0.0, w)
    came = {start: None}
    queue = [start]
    for cur in queue:
        for nxt, edge, off_a, off_b in adj[cur]:
            if nxt not in came:
                came[nxt] = (cur, edge, off_a, off_b)
                queue.append(nxt)
    pieces = []
    cur = goal
    while came[cur] is not None:
        prev, edge, off_a, off_b = came[cur]
        pieces.append((edge, off_a, off_b))
        cur = prev
    return pieces[::-1]


def tree_distance(space, x: TreePoint, y: TreePoint) -> float:
    """Length of the path from x to y, summed piece by piece."""
    return sum(abs(b - a) for _, a, b in tree_path(space, x, y))


def tree_walk(space, x: TreePoint, y: TreePoint, ts) -> list[TreePoint]:
    """Points at fractions ts of the way from x to y, found by walking the
    path piece by piece; node locations are put on their smallest incident
    edge, the library's canonical form."""
    pieces = tree_path(space, x, y)
    total = sum(abs(b - a) for _, a, b in pieces)
    out = []
    for t in ts:
        s = t * total
        # the last piece takes what is left, which rounding can push past its end
        for edge, a, b in pieces[:-1]:
            if s <= abs(b - a):
                break
            s -= abs(b - a)
        else:
            edge, a, b = pieces[-1]
        off = min(max(a + s if b >= a else a - s, min(a, b)), max(a, b))
        out.append(_tree_canonical(space, edge, off))
    return out


def _tree_canonical(space, edge: int, off: float) -> TreePoint:
    u, v, w = space.edges[edge]
    if off not in (0.0, w):
        return TreePoint(edge, off)
    node = u if off == 0.0 else v
    e = min(i for i, (a, b, _) in enumerate(space.edges) if node in (a, b))
    return TreePoint(e, 0.0 if space.edges[e][0] == node else space.edges[e][2])


def brute_extremal_tree(space, C: PointNet, h: float, delta: float,
                        t_grid: int) -> list[TreePoint]:
    """Walk-based brute-force extremal scan on a tree net.

    Chord samples are materialized by this module's own path walk
    (``tree_walk``), not by the library's segment map or the
    distance-profile shortcut it uses internally.
    """
    pts = list(C.points)
    m = len(pts)
    ts = [k / (t_grid + 1) for k in range(1, t_grid + 1)]
    pairs = [(i, j) for i in range(m - 1) for j in range(i + 1, m)]
    samples = []
    for i, j in pairs:
        samples.extend(tree_walk(space, pts[i], pts[j], ts))
    S = space.pack(samples)
    SD = space.dist_matrix(S, C.packed)  # (pairs*g, m)
    D = space.dist_matrix(C.packed, C.packed)

    g = len(ts)
    out = []
    for pi in range(m):
        killed = False
        col = SD[:, pi].reshape(len(pairs), g)
        for k, (i, j) in enumerate(pairs):
            if D[i, pi] > delta and D[j, pi] > delta and (col[k] < h).any():
                killed = True
                break
        if not killed:
            out.append(pts[pi])
    return out


def brute_extremal_set(space, C: PointNet, E: PointNet, params):
    """All-pairs set-extremality scan: every pair (i, j), i < j, of C in
    row-major order, evaluated with ``chord_dists`` at 0, every interior grid
    parameter and 1 against every point of E, with no candidate step.

    This is the library's set test before it proposed candidate chords: a
    chord crosses E when an interior sample is strictly within params.eps of
    E and samples on both sides lie beyond max(params.eps, C.eps).  Returns
    the SetVerdict of the first crossing pair, with the parameters of its
    first crossing and its first exit.
    """
    from bicombing_lab.extremal import ChordWitness, SetVerdict

    r_in, r_out = params.eps, max(params.eps, C.eps)
    ts = np.concatenate([[0.0], params.interior_ts(), [1.0]])
    I_all, J_all = np.triu_indices(len(C), 1)
    chunk = max(1, 20_000 // (len(ts) * len(E)))
    for lo in range(0, len(I_all), chunk):
        I, J = I_all[lo : lo + chunk], J_all[lo : lo + chunk]
        dd = space.chord_dists(C.packed, I, J, ts, E.packed).min(axis=2)
        out = dd > r_out
        before = np.logical_or.accumulate(out, axis=1)[:, :-2]
        after = np.logical_or.accumulate(out[:, ::-1], axis=1)[:, ::-1][:, 2:]
        crossing = (dd[:, 1:-1] < r_in) & before & after  # interior parameters
        rows = np.nonzero(crossing.any(axis=1))[0]
        if len(rows):
            r = int(rows[0])
            return SetVerdict(False, ChordWitness(
                x=C.points[int(I[r])], y=C.points[int(J[r])],
                t_enter=float(ts[1 + int(np.argmax(crossing[r]))]),
                t_exit=float(ts[int(np.argmax(out[r]))])))
    return SetVerdict(True, None)


def _axiom_geometry(space):
    """(convert, segment, distance) for lp spaces, metric trees and their
    products.  convert(p) gives this module's form of a point, segment(x, y,
    ts) the points at fractions ts from x to y, distance(a, b) a float.  Lp
    segments are the closed form (1-t)x + ty with np.linalg.norm distances;
    tree segments and distances come from this module's path walk."""
    if isinstance(space, LpSpace):
        return (lambda p: np.array(p.coords),
                lambda x, y, ts: [(1.0 - t) * x + t * y for t in ts],
                lambda a, b: float(np.linalg.norm(a - b, ord=space.p)))
    if isinstance(space, ProductSpace):
        conv_l, seg_l, dist_l = _axiom_geometry(space.left)
        conv_r, seg_r, dist_r = _axiom_geometry(space.right)
        return (lambda p: (conv_l(p.left), conv_r(p.right)),
                lambda x, y, ts: list(zip(seg_l(x[0], y[0], ts), seg_r(x[1], y[1], ts))),
                lambda a, b: math.hypot(dist_l(a[0], b[0]), dist_r(a[1], b[1])))
    return (lambda p: p, lambda x, y, ts: tree_walk(space, x, y, ts),
            lambda a, b: tree_distance(space, a, b))


def axiom_defects(space, quads, grid: int) -> tuple[float, float, float, float]:
    """Largest endpoint error, idempotence error, midpoint-convexity defect and
    symmetry defect over the quadruples, as ``check_axioms`` defines them,
    evaluated one segment at a time on the t-grid k/grid."""
    convert, segment, dist = _axiom_geometry(space)
    ts = [k / grid for k in range(grid + 1)]
    endpoint = idem = sym = 0.0
    conv = -math.inf
    for quad in quads:
        x, y, x2, y2 = (convert(p) for p in quad)
        s1, s2 = segment(x, y, ts), segment(x2, y2, ts)
        endpoint = max(endpoint, dist(s1[0], x), dist(s1[-1], y),
                       dist(s2[0], x2), dist(s2[-1], y2))
        for p in (x, y, x2, y2):
            idem = max([idem] + [dist(q, p) for q in segment(p, p, ts)])
        for seg, (a, b) in ((s1, (x, y)), (s2, (x2, y2))):
            rev = segment(b, a, [1.0 - t for t in ts])
            sym = max([sym] + [dist(u, v) for u, v in zip(seg, rev)])
        f = [dist(u, v) for u, v in zip(s1, s2)]
        conv = max([conv] + [f[k] - 0.5 * (f[k - 1] + f[k + 1]) for k in range(1, grid)])
    return endpoint, idem, conv, sym


def acosh_reference(x: float, terms: int = 60) -> float:
    """High-precision arccosh via mpmath, for frozen reference values."""
    import mpmath

    with mpmath.workdps(50):
        return float(mpmath.acosh(mpmath.mpf(x)))


def triangle_raster(step: float) -> list[tuple[float, float]]:
    """Dense rasterization of the closed triangle (0,0)-(1,0)-(0,1)."""
    n = round(1.0 / step)
    pts = []
    for a in range(n + 1):
        for b in range(n + 1 - a):
            pts.append((a * step, b * step))
    return pts


def square_raster(step: float, lo: float = 0.0, hi: float = 1.0) -> list[tuple[float, float]]:
    n = round((hi - lo) / step)
    return [(lo + a * step, lo + b * step) for a in range(n + 1) for b in range(n + 1)]


def barycentric_in_triangle(p, v0, v1, v2, tol: float = 1e-9) -> bool:
    """Membership in a closed triangle by solving for barycentric weights."""
    a = np.array([[v1[0] - v0[0], v2[0] - v0[0]], [v1[1] - v0[1], v2[1] - v0[1]]])
    b = np.array([p[0] - v0[0], p[1] - v0[1]])
    lam = np.linalg.solve(a, b)
    return lam[0] >= -tol and lam[1] >= -tol and lam.sum() <= 1 + tol


def caratheodory_member(p: np.ndarray, seeds: np.ndarray, tol: float = 1e-9) -> bool:
    """Brute-force convex-combination membership over (dim+1)-subsets of seeds."""
    dim = seeds.shape[1]
    for subset in itertools.combinations(range(len(seeds)), dim + 1):
        V = seeds[list(subset)]
        A = np.vstack([V.T, np.ones(dim + 1)])
        b = np.concatenate([p, [1.0]])
        try:
            lam, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        except np.linalg.LinAlgError:
            continue
        if np.allclose(A @ lam, b, atol=1e-9) and (lam >= -tol).all():
            return True
    return False


def lp_hull_dist_linprog(x, P, p: float) -> float:
    """l^1 or l^inf distance from x to conv(P) as a linear program.

    Variables are the convex weights lam (m) and the slack bounds u; the
    residual r = x - P^T lam is bounded by -u <= r <= u componentwise, with one
    shared bound for l^inf and one per coordinate for l^1.
    """
    from scipy.optimize import linprog

    P = np.asarray(P, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    m, n = P.shape
    nu = n if p == 1.0 else 1
    spread = np.eye(n) if p == 1.0 else np.ones((n, 1))
    cost = np.concatenate([np.zeros(m), np.ones(nu)])
    # x - P^T lam <= u   and   P^T lam - x <= u
    A_ub = np.block([[-P.T, -spread], [P.T, -spread]])
    b_ub = np.concatenate([-x, x])
    A_eq = np.concatenate([np.ones(m), np.zeros(nu)])[None, :]
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (m + nu), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def euclidean_hull_dist_subsets(x, P, tol: float = 1e-12) -> float:
    """Euclidean distance from x to conv(P) by projecting onto the affine hull
    of every subset of at most dim+1 points.

    A projection counts when its barycentric weights are nonnegative, so it is
    a point of the hull; the nearest point of the hull is a positive convex
    combination of at most dim+1 affinely independent points, and it is the
    projection of x onto their affine hull.  No hull facets are computed.
    """
    P = np.asarray(P, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    m, n = P.shape
    best = math.inf
    for size in range(1, min(n + 1, m) + 1):
        for subset in itertools.combinations(range(m), size):
            V = P[list(subset)]
            E = (V[1:] - V[0]).T
            if size > 1 and np.linalg.matrix_rank(E) < size - 1:
                continue
            mu = np.linalg.lstsq(E, x - V[0], rcond=None)[0] if size > 1 else np.zeros(0)
            if (mu >= -tol).all() and mu.sum() <= 1 + tol:
                best = min(best, float(np.linalg.norm(x - V[0] - E @ mu)))
    return best


def canonical_dedup(points) -> list:
    """Distinct points in canonical order, each represented by its first
    occurrence: the Python-object definition that packed sorting must match."""
    return sorted(set(points), key=canonical_key)


def greedy_separation(space, points, eps: float) -> list:
    """Greedy eps/2 separation one point at a time, in the given order.

    A point is kept when ``space.dist_matrix`` puts it at least eps/2 from
    every point kept before it; no chunking, no nearest-distance index.
    """
    P = space.pack(points)
    kept: list[int] = []
    for i in range(len(points)):
        if kept:
            D = space.dist_matrix(space.packed_take(P, [i]), space.packed_take(P, kept))
            if D.min() < eps / 2:
                continue
        kept.append(i)
    return [points[i] for i in kept]


def brute_hull_closure(space, seed: PointNet, segment_samples: int = 8,
                       max_rounds: int = 64) -> list:
    """Hull closure with no cell cover and no index: every segment sample is
    decided by ``space.min_dist`` over the whole net.

    The rounds are those of ``hull_closure``: every pair in the first round,
    then the pairs that touch the last round's points, with the samples at
    least eps/2 from the net thinned in canonical order by the library's
    greedy eps/2 separation.  Returns the net's points in canonical order.
    """
    from bicombing_lab.convexity import _greedy_separate, canonical_rows

    eps, packed = seed.eps, seed.packed
    ts = np.arange(1, segment_samples) / segment_samples
    n_old = 0
    for round_no in range(max_rounds):
        n = space.packed_len(packed)
        I, J = np.triu_indices(n, 1)
        if round_no:
            I, J = I[J >= n_old], J[J >= n_old]
        far = []
        for lo in range(0, len(I), 20_000):
            S = space.segment_batch(packed, I[lo : lo + 20_000], J[lo : lo + 20_000], ts)
            far.append(space.packed_take(S, np.nonzero(space.min_dist(S, packed) >= eps / 2)[0]))
        cands = space.packed_concat(far)
        if not space.packed_len(cands):
            break
        cands = space.packed_take(cands, canonical_rows(space, cands))
        n_old = n
        packed = space.packed_concat(
            [packed, space.packed_take(cands, _greedy_separate(space, cands, eps))])
    pts = space.points_from_packed(packed)
    return [pts[i] for i in canonical_rows(space, packed)]
