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

from bicombing_lab import PointNet, TreePoint


def int_grid_extremal(coords: np.ndarray, unit: int, h_num: int, h_den: int,
                      delta_num: int, delta_den: int, t_grid: int) -> list[int]:
    """Exact extremal scan for a net of integer-coordinate points.

    coords are integers on a lattice with `unit` lattice steps per coordinate
    unit; the hit radius is h_num/h_den and the exclusion radius
    delta_num/delta_den (coordinate units).  All comparisons reduce to integer
    inequalities, so the verdict carries no floating-point uncertainty.

    Returns indices of points with no qualifying chord.
    """
    pts = np.asarray(coords, dtype=np.int64)
    m, dim = pts.shape
    g = t_grid + 1  # chord parameters k/g, k=1..g-1

    # squared distances scaled by unit^2
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    # delta comparison: d > delta  <=>  d2 * delta_den^2 > delta_num^2 * unit^2
    qual = d2 * (delta_den * delta_den) > (delta_num * delta_num) * (unit * unit)

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
            v = X + Y - T
            q2 = (v * v).sum(axis=2)  # scaled by (g*unit)^2
            # d < h  <=>  q2 * h_den^2 < h_num^2 * (g*unit)^2
            if (q2 * (h_den * h_den) < (h_num * h_num) * (g * unit) * (g * unit)).any():
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
        for edge, a, b in pieces:
            if s <= abs(b - a):
                break
            s -= abs(b - a)
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
