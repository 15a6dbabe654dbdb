"""Concrete model spaces: l^p spaces with the linear segment map, the hyperbolic
plane (hyperboloid model) and metric trees with their geodesic segment maps, and
l^2 products of spaces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .space_core import (
    BicombedSpace,
    CoverFrame,
    EuclideanPoint,
    HyperboloidPoint,
    InvalidInputError,
    Point,
    ProductPoint,
    TreePoint,
    _KDTreeIndex,
    _row_blocks,
)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormedSpaceSpec:
    """Finite-dimensional l^p space: dimension n >= 1 and exponent p in [1, inf]."""

    dimension: int
    exponent: float  # math.inf encodes the max norm

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidInputError("dimension must be >= 1")
        if not (self.exponent >= 1.0):
            raise InvalidInputError(f"p = {self.exponent} is not a norm exponent (need p >= 1)")


@dataclass(frozen=True)
class MetricTreeSpec:
    """Edge-weighted tree: node identifiers plus (tail, head, length) edges."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]


@dataclass(frozen=True)
class ProductSpaceSpec:
    """Two factor spaces combined with the l^2 distance."""

    left: BicombedSpace
    right: BicombedSpace


def euclidean(*coords: float) -> EuclideanPoint:
    return EuclideanPoint(tuple(float(c) for c in coords))


def hyperboloid(x0: float, x1: float, x2: float) -> HyperboloidPoint:
    return HyperboloidPoint((float(x0), float(x1), float(x2)))


# ---------------------------------------------------------------------------
# Exact distance to the convex hull of finitely many coordinate points
# ---------------------------------------------------------------------------

#: directions whose singular value is below this fraction of the largest one
#: count as flat, so degenerate point sets are handled in their affine hull
#: instead of being passed to Qhull (which rejects flat input)
_FLAT_RTOL = 1e-9


def _affine_frame(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Origin and orthonormal rows spanning the affine hull of the rows of P."""
    origin = P.mean(axis=0)
    _, s, Vt = np.linalg.svd(P - origin, full_matrices=False)
    k = int((s > _FLAT_RTOL * s[0]).sum()) if s[0] > 0 else 0
    return origin, Vt[:k]


def _dist_to_simplex_faces(Q: np.ndarray, V: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Distance from each row of Q to the union of the given simplices (rows of
    vertex indices into V).

    Every face of every simplex is tried: the projection onto the face's affine
    hull counts when its barycentric weights are nonnegative.  The nearest point
    of the union is such a projection for the face holding it in its relative
    interior, and every counted projection lies in the union, so the minimum
    is exact.  The pseudo-inverse keeps zero-volume faces (from triangulated
    coplanar facets) harmless: whatever weights it returns for them, a counted
    projection is still a point of the face.
    """
    by_size: dict[int, set] = {}
    for simplex in simplices:
        for size in range(1, len(simplex) + 1):
            by_size.setdefault(size, set()).update(itertools.combinations(sorted(simplex), size))
    # per face size: base vertices, edge vectors from the base, inverse Gram matrices
    groups = []
    for size, faces in by_size.items():
        F = np.array(sorted(faces))
        E = V[F[:, 1:]] - V[F[:, :1]]  # (faces, size-1, dim)
        groups.append((V[F[:, 0]], E, np.linalg.pinv(E @ E.transpose(0, 2, 1))))
    n_faces = sum(len(base) for base, _, _ in groups)
    best = np.full(len(Q), np.inf)
    for rows in _row_blocks(len(Q), n_faces * Q.shape[1]):
        for base, E, G_inv in groups:
            rel = Q[None, rows, :] - base[:, None, :]  # (faces, queries, dim)
            mu = G_inv @ (E @ rel.transpose(0, 2, 1))  # (faces, size-1, queries)
            inside = (mu >= 0.0).all(axis=1) & (mu.sum(axis=1) <= 1.0)
            d = np.linalg.norm(rel - mu.transpose(0, 2, 1) @ E, axis=2)
            best[rows] = np.minimum(best[rows], np.where(inside, d, np.inf).min(axis=0))
    return best


def _inside_hull(hull: ConvexHull, Q: np.ndarray) -> np.ndarray:
    """Rows of Q on the inner side of every facet hyperplane of a Qhull hull."""
    return (Q @ hull.equations[:, :-1].T + hull.equations[:, -1]).max(axis=1) <= 0.0


def _euclidean_hull_dist(Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of Q to the convex hull of the rows of P.

    The hull is taken in the affine hull of P, so single points, collinear and
    coplanar sets need no joggling: the distance splits into the part
    orthogonal to that affine hull and the part inside it.
    """
    origin, basis = _affine_frame(P)
    k = basis.shape[0]
    if k == P.shape[1]:
        Y, par, perp = P, Q, np.zeros(len(Q))
    else:
        rel = Q - origin
        par = rel @ basis.T
        perp = np.linalg.norm(rel - par @ basis, axis=1)
        Y = (P - origin) @ basis.T
    if k == 0:
        return perp
    if k == 1:
        y = par[:, 0]
        inner = np.maximum(np.maximum(Y.min() - y, y - Y.max()), 0.0)
    else:
        hull = ConvexHull(Y)
        inner = _dist_to_simplex_faces(par, Y, hull.simplices)
        inner[_inside_hull(hull, par)] = 0.0
    return np.hypot(perp, inner)


def _polyhedral_hull_dist(
    Q: np.ndarray, P: np.ndarray, ball_vertices: np.ndarray, dual_ord: float
) -> np.ndarray:
    """Distance from each row of Q to conv(P) in a norm whose unit ball B is the
    polytope conv(ball_vertices) (dual norm order dual_ord).

    x lies in conv(P) + rB exactly when <n, x> <= h_P(n) + r h_B(n) for every
    facet normal n of conv(P) + rB, and for r > 0 those are the facet normals
    of conv(P) + B.  So the distance is max(0, max_n (<n,x> - h_P(n)) / h_B(n)).
    conv(P) + B is full-dimensional even when P is flat.
    """
    sums = (P[:, None, :] + ball_vertices[None, :, :]).reshape(-1, P.shape[1])
    normals = ConvexHull(sums).equations[:, :-1]
    h_P = (P @ normals.T).max(axis=0)
    h_B = np.linalg.norm(normals, ord=dual_ord, axis=1)
    out = np.empty(len(Q))
    for rows in _row_blocks(len(Q), len(normals)):
        out[rows] = np.maximum(((Q[rows] @ normals.T - h_P) / h_B).max(axis=1), 0.0)
    return out


# ---------------------------------------------------------------------------
# l^p spaces
# ---------------------------------------------------------------------------


class LpSpace(BicombedSpace):
    """R^n with the l^p norm and the straight-line segment map.

    For p != 2 these are not convex metric spaces in the comparison-triangle
    sense, but the linear segment map still satisfies the distance-convexity
    axiom, which is exactly why the segment-map framework is broader.
    """

    coordinate_rows = True

    def __init__(self, spec: NormedSpaceSpec):
        self.spec = spec
        self.n = self.width = spec.dimension
        self.p = self.linear_p = spec.exponent
        pname = "inf" if math.isinf(self.p) else f"{self.p:g}"
        self.description = f"l{pname}(R^{self.n})"

    def validate_point(self, p: Point) -> None:
        if not isinstance(p, EuclideanPoint) or len(p.coords) != self.n:
            raise InvalidInputError(f"{p!r} is not a point of {self.description}")
        if not all(map(math.isfinite, p.coords)):
            raise InvalidInputError(f"{p!r} has a non-finite coordinate")

    def paired_dist(self, A, B) -> np.ndarray:
        """l^p norms of the row differences."""
        diff = A - B
        if math.isinf(self.p):
            return np.abs(diff).max(axis=-1)
        if self.p == 2.0:
            return np.sqrt((diff * diff).sum(axis=-1))
        if self.p == 1.0:
            return np.abs(diff).sum(axis=-1)
        return (np.abs(diff) ** self.p).sum(axis=-1) ** (1.0 / self.p)

    def _row(self, p: EuclideanPoint):
        return p.coords

    def _point(self, row: list) -> EuclideanPoint:
        return EuclideanPoint(tuple(row))

    def segment_batch(self, packed, I, J, ts) -> np.ndarray:
        X = packed[I]
        Y = packed[J]
        ts = np.asarray(ts, dtype=np.float64)
        S = (1.0 - ts)[None, :, None] * X[:, None, :] + ts[None, :, None] * Y[:, None, :]
        return S.reshape(len(I) * len(ts), self.n)

    def hull_dist(self, A, K) -> np.ndarray:
        """Exact l^p distance to conv(K) for p in {1, 2, inf} (any p on a line):
        nearest-face projection for p = 2, facet normals of conv(K) plus the
        unit ball for the polyhedral norms."""
        if self.n == 1 or self.p == 2.0:
            return _euclidean_hull_dist(A, K)
        if self.p == 1.0:
            eye = np.eye(self.n)
            return _polyhedral_hull_dist(A, K, np.vstack([eye, -eye]), math.inf)
        if math.isinf(self.p):
            cube = np.array(list(itertools.product((-1.0, 1.0), repeat=self.n)))
            return _polyhedral_hull_dist(A, K, cube, 1)
        return super().hull_dist(A, K)


def make_lp_space(spec: NormedSpaceSpec) -> LpSpace:
    """l^p space on R^n with the linear segment map [x,y](t) = (1-t)x + ty."""
    return LpSpace(spec)


# ---------------------------------------------------------------------------
# Hyperbolic plane, hyperboloid model
# ---------------------------------------------------------------------------

_MINK_SIGNS = np.array([-1.0, 1.0, 1.0])


def _minkowski_sq(U: np.ndarray) -> np.ndarray:
    """<u, u>_M of the vectors along the last axis."""
    return (U * U * _MINK_SIGNS).sum(axis=-1)


def _chord_dist(q: np.ndarray) -> np.ndarray:
    """Distance 2*asinh(sqrt(q)/2) from chord squares q = <x-y, x-y>_M;
    a q that rounding left below 0 counts as 0."""
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(q, 0.0)))


def _on_sheet(X: np.ndarray) -> np.ndarray:
    """Points of the sheet with projected coordinates X = (x1, x2)."""
    return np.column_stack([np.sqrt(1.0 + (X * X).sum(axis=1)), X])


class HyperbolicPlane(BicombedSpace):
    """Hyperbolic plane realized on the unit hyperboloid in Minkowski 3-space.

    Distances use the chord form d = 2*asinh(|x - y|_M / 2), which agrees with
    acosh(-<x,y>_M) but does not lose precision for nearby points.  Segment
    evaluations are re-normalized onto the hyperboloid after every call so the
    sheet invariant cannot drift across repeated closure rounds.
    """

    base_tol = 1e-7
    description = "hyperbolic plane (hyperboloid model)"
    width = 3
    coordinate_rows = True

    _INVARIANT_TOL = 1e-9

    def validate_point(self, p: Point) -> None:
        if not isinstance(p, HyperboloidPoint):
            raise InvalidInputError(f"{p!r} is not a hyperboloid point")
        c = p.coords
        if not all(map(math.isfinite, c)):
            raise InvalidInputError(f"{p!r} has a non-finite coordinate")
        if not c[0] > 0:
            raise InvalidInputError(f"hyperboloid point must have x0 > 0, got {c[0]}")
        q = float(_minkowski_sq(np.array(c)))
        if abs(q + 1.0) > self._INVARIANT_TOL:
            raise InvalidInputError(
                f"point off the unit hyperboloid: <x,x>_M = {q!r} (|<x,x>_M + 1| > 1e-9)"
            )

    def _row(self, p: HyperboloidPoint):
        return p.coords

    def _point(self, row: list) -> HyperboloidPoint:
        return HyperboloidPoint(tuple(row))

    def _dist_block(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # Gram form of the Minkowski chord: <a-b, a-b>_M = -2 - 2<a,b>_M for
        # points on the sheet.  The matrix product runs through BLAS; entries
        # with heavy cancellation (nearby points) are recomputed from
        # coordinate differences, which is exact at small separations.  A
        # product hands in column slices: BLAS rounding may depend on the
        # memory layout, so the product runs on contiguous rows
        A = np.ascontiguousarray(A)
        q = -2.0 - 2.0 * (A @ (B * _MINK_SIGNS).T)
        small = q < 1e-4
        if small.any():
            ra, cb = np.nonzero(small)
            q[ra, cb] = _minkowski_sq(A[ra] - B[cb])
        return _chord_dist(q)

    def min_dist(self, A, B) -> np.ndarray:
        """Row minima of the distance matrix without per-entry arcsinh.

        The chord square q is monotone in the distance, so only row minima
        need the transcendental transform.  Rows whose minimum suffers Gram
        cancellation (nearby points) are refined from coordinate differences
        over the near-tied columns.
        """
        Bs = (B * _MINK_SIGNS).T
        out = np.empty(A.shape[0])
        for rows in _row_blocks(A.shape[0], B.shape[0]):
            Ab = A[rows]
            q = -2.0 - 2.0 * (Ab @ Bs)
            qmin = q.min(axis=1)
            small = np.nonzero(qmin < 1e-4)[0]
            if len(small):
                cand = q[small] <= qmin[small, None] + 1e-12
                ra, cb = np.nonzero(cand)
                refined = np.full(len(small), np.inf)
                np.minimum.at(refined, ra, _minkowski_sq(Ab[small][ra] - B[cb]))
                qmin[small] = refined
            out[rows] = _chord_dist(qmin)
        return out

    def cover_frame(self, packed):
        """Projected coordinates x' = (x1, x2).  On the sheet
        ds^2 = |dx'|^2 - (x'.dx')^2 / x0^2 <= |dx'|^2, so d(x, y) <= |x' - y'|_2.
        x_i is sinh of the signed distance to the line x_i = 0, so {x_i <= a}
        for a >= 0 and {x_i >= b} for b <= 0 are closed neighbourhoods of
        half-planes, hence convex, and so is the seed's box widened to hold 0.

        ``slack`` covers the sheet tolerance (a chord square from the Gram
        form moves by <x,x>_M + 1 of each point) and the Gram rounding of
        about x0^2 ulp: with both in D, a computed chord square lies within
        2 D of the exact one of the points lifted onto the sheet (the refined
        near rows may pick a column up to 2 D off the nearest), and as
        d = 2 asinh(sqrt(q) / 2) moves by at most sqrt of a move in q, a
        computed distance lies within sqrt(2 D) of the exact one.
        """
        X = packed[:, 1:]
        lo, hi = np.minimum(X.min(axis=0), 0.0), np.maximum(X.max(axis=0), 0.0)
        far = np.maximum(-lo, hi)
        D = 2 * self._INVARIANT_TOL + 16 * np.finfo(float).eps * (1.0 + far @ far)
        return CoverFrame(lambda P: P[:, 1:], _on_sheet, lo, hi, 2.0, 2 * math.sqrt(2 * D))

    def segment_batch(self, packed, I, J, ts) -> np.ndarray:
        X = packed[I]
        Y = packed[J]
        ts = np.asarray(ts, dtype=np.float64)
        d = _chord_dist(_minkowski_sq(X - Y))
        safe = np.where(d > 0.0, d, 1.0)
        sd = np.sinh(safe)[:, None]
        a = np.sinh((1.0 - ts) * safe[:, None])
        a /= sd
        b = np.sinh(ts * safe[:, None])
        b /= sd
        Z = a[:, :, None] * X[:, None, :]
        Z += b[:, :, None] * Y[:, None, :]
        degenerate = d == 0.0
        if degenerate.any():
            Z[degenerate] = X[degenerate][:, None, :]
        # -<z, z>_M summed in the order of _minkowski_sq: (-z0^2 + z1^2) + z2^2
        nrm = Z[..., 1] * Z[..., 1]
        nrm -= Z[..., 0] * Z[..., 0]
        nrm += Z[..., 2] * Z[..., 2]
        np.negative(nrm, out=nrm)
        np.sqrt(nrm, out=nrm)
        Z /= nrm[:, :, None]
        return Z.reshape(len(I) * len(ts), 3)

    def paired_dist(self, A, B) -> np.ndarray:
        return _chord_dist(_minkowski_sq(A - B))

    def hull_dist(self, A, K) -> np.ndarray:
        """Exact distance to the geodesic hull of K.

        Geodesics are straight chords in the Klein model (x1/x0, x2/x0), so
        the hull is the Euclidean hull of the Klein images: a point, a geodesic
        segment, or a convex polygon.  Inside the polygon the distance is 0;
        outside it is the distance to the nearest edge.
        """
        klein_K = K[:, 1:] / K[:, :1]
        origin, basis = _affine_frame(klein_K)
        if basis.shape[0] == 0:
            return self.min_dist(A, K)
        if basis.shape[0] == 1:
            along = (klein_K - origin) @ basis[0]
            return self._geodesic_segment_dist(A, K[along.argmin()], K[along.argmax()])
        hull = ConvexHull(klein_K)
        ring = hull.vertices  # counterclockwise in 2D
        d = np.min(
            [
                self._geodesic_segment_dist(A, K[a], K[b])
                for a, b in zip(ring, np.roll(ring, -1))
            ],
            axis=0,
        )
        d[_inside_hull(hull, A[:, 1:] / A[:, :1])] = 0.0
        return d

    def _geodesic_segment_dist(self, X: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance from each row of X to the geodesic segment [a, b].

        With c = a x b (Euclidean cross product), Jc is a normal of the
        geodesic line through a and b, and sinh of the distance to that line is
        |<x, Jc>_M| / sqrt(<Jc, Jc>_M) = |x.c| / sqrt(c^T J c).  When the foot
        of the perpendicular falls outside the segment, the nearer endpoint is
        the nearest point.
        """
        c = np.cross(a, b)
        norm = math.sqrt(c @ (c * _MINK_SIGNS))
        h = (X @ c) / norm
        foot = X - np.outer(h, c * _MINK_SIGNS / norm)
        ka, kb = a[1:] / a[0], b[1:] / b[0]
        tau = ((foot[:, 1:] / foot[:, :1] - ka) @ (kb - ka)) / ((kb - ka) @ (kb - ka))
        ends = self.dist_matrix(X, np.vstack([a, b])).min(axis=1)
        return np.where((tau >= 0.0) & (tau <= 1.0), np.arcsinh(np.abs(h)), ends)


def make_hyperbolic_plane() -> HyperbolicPlane:
    """The hyperbolic plane with its geodesic segment map."""
    return HyperbolicPlane()


def hyperbolic_point_at(r: float, theta: float) -> HyperboloidPoint:
    """Point at hyperbolic distance r from (1,0,0) in direction theta."""
    return HyperboloidPoint(
        (math.cosh(r), math.sinh(r) * math.cos(theta), math.sinh(r) * math.sin(theta))
    )


def lorentz_boost(eta: float) -> np.ndarray:
    """Boost matrix in the (x0, x1) plane; an isometry of the hyperboloid."""
    c, s = math.cosh(eta), math.sinh(eta)
    return np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# Metric trees
# ---------------------------------------------------------------------------


#: the four route terms of a distance between points on different edges: the
#: first point's leg to its exit node, exit node, entry node, the second
#: point's leg.  Each term is (leg + node distance) + leg, and the distance is
#: their minimum; points on one edge are |offset difference| apart
_ROUTE_ENDS = (
    ("to_tail", "tail", "tail", "to_tail"),
    ("to_tail", "tail", "head", "to_head"),
    ("to_head", "head", "tail", "to_tail"),
    ("to_head", "head", "head", "to_head"),
)


#: most nodes a tree may have: its two node tables hold N^2 entries each
#: (48 MB at this count)
MAX_TREE_NODES = 2048


def _edge_keys(P: dict) -> np.ndarray:
    """Complex keys edge + i*offset of packed tree points: numpy orders
    complex values by real part, then imaginary part, so they sort and
    search by (edge, offset)."""
    key = np.empty(len(P["edge"]), dtype=np.complex128)
    key.real, key.imag = P["edge"], P["off"]
    return key


class TreeSpace(BicombedSpace):
    """Edge-weighted tree with path-length distance and the unique-geodesic
    segment map (walk at constant speed along the connecting path).

    Points are (edge index, offset from the edge's tail).  Node locations are
    canonicalized to the smallest incident edge index so point equality is
    decidable.  Construction tabulates, for every ordered node pair (u, v),
    the path length d(u, v) and the first edge of the path from u to v (two
    N x N tables); distances and segment walks only read them.  Nearest
    distances (``min_dist``) read one column per node at an end of an edge
    holding target points, not one per target point.
    """

    width = 2

    def __init__(self, spec: MetricTreeSpec):
        nodes = list(spec.nodes)
        edges = [(str(u), str(v), float(w)) for u, v, w in spec.edges]
        if not nodes:
            raise InvalidInputError("tree must have at least one node")
        if len(nodes) > MAX_TREE_NODES:
            raise InvalidInputError(
                f"a tree may have at most {MAX_TREE_NODES} nodes, got {len(nodes)}")
        if len(set(nodes)) != len(nodes):
            raise InvalidInputError("duplicate node identifiers")
        self._node_idx = {n: i for i, n in enumerate(nodes)}
        self.nodes = nodes
        self.edges = edges
        if len(edges) != len(nodes) - 1:
            raise InvalidInputError(
                f"a tree on {len(nodes)} nodes needs {len(nodes) - 1} edges, got {len(edges)}"
            )
        adj: list[list[tuple[int, int]]] = [[] for _ in nodes]
        for ei, (u, v, w) in enumerate(edges):
            if not 0 < w < math.inf:
                raise InvalidInputError(f"edge {ei} has length {w}; need a finite positive one")
            if u not in self._node_idx or v not in self._node_idx:
                raise InvalidInputError(f"edge {ei} references unknown node")
            ui, vi = self._node_idx[u], self._node_idx[v]
            adj[ui].append((ei, vi))
            adj[vi].append((ei, ui))
        self.spec = MetricTreeSpec(tuple(nodes), tuple(edges))
        self.description = f"metric tree ({len(nodes)} nodes, {len(edges)} edges)"
        self._tail = np.array([self._node_idx[e[0]] for e in edges], dtype=np.int64)
        self._head = np.array([self._node_idx[e[1]] for e in edges], dtype=np.int64)
        self._len = np.array([e[2] for e in edges], dtype=np.float64)
        # smallest incident edge per node, for canonical node representations
        self._canon_edge = np.array([min((e for e, _ in a), default=-1) for a in adj],
                                    dtype=np.int64)
        self._dist, self._next_edge = self._node_tables(adj)

    # -- construction helpers ------------------------------------------------

    def _node_tables(self, adj: list[list[tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray]:
        """Node-distance and first-edge tables, indexed [source, target].

        The tree is rooted at node 0 and numbered in depth-first preorder, so
        each subtree is a contiguous range of positions.  d(u, v) accumulates
        from u outwards, d(u, v) = d(u, w) + len(w, v) with w the neighbour of
        v towards u: w is the child of v above u when u lies below v, and v's
        parent otherwise.  These are the sums a breadth-first walk from u
        forms, one edge at a time.
        """
        n = len(adj)
        parent, up_edge = [-1] * n, [-1] * n
        seen = [False] * n
        seen[0] = True
        stack, pre = [0], []
        while stack:
            cur = stack.pop()
            pre.append(cur)
            for ei, nxt in adj[cur]:
                if not seen[nxt]:
                    seen[nxt] = True
                    parent[nxt], up_edge[nxt] = cur, ei
                    stack.append(nxt)
        # connectivity: |edges| == |nodes|-1 plus connectedness implies acyclic
        if len(pre) != n:
            raise InvalidInputError("edge set does not connect all nodes")
        pos = np.empty(n, dtype=np.int64)
        pos[pre] = np.arange(n)
        end = pos + 1  # one past the last preorder position of each subtree
        for v in reversed(pre[1:]):
            end[parent[v]] = max(end[parent[v]], end[v])
        # both tables in preorder positions; dist_to[v, u] = d(u, v)
        dist_to = np.zeros((n, n))
        first = np.full((n, n), -1, dtype=np.int32)
        for v in reversed(pre[1:]):  # sources below v reach parent(v) through v
            pv, pp, w = pos[v], pos[parent[v]], self._len[up_edge[v]]
            dist_to[pp, pv : end[v]] = dist_to[pv, pv : end[v]] + w
            first[pp, pv : end[v]] = up_edge[v]
        for v in pre[1:]:  # other sources reach v through parent(v)
            pv, pp, w = pos[v], pos[parent[v]], self._len[up_edge[v]]
            for cols in (slice(0, pv), slice(end[v], n)):
                dist_to[pv, cols] = dist_to[pp, cols] + w
                first[pv, cols] = up_edge[v]
        grid = np.ix_(pos, pos)
        return np.ascontiguousarray(dist_to.T[grid]), first[grid]

    def point_on_edge(self, edge: int, offset: float) -> TreePoint:
        """Canonical point at `offset` along edge `edge` from its tail node."""
        if not 0 <= edge < len(self.edges):
            raise InvalidInputError(f"edge index {edge} out of range")
        (e,), (off,) = self._canonical(np.array([edge]), np.array([float(offset)]))
        return TreePoint(int(e), float(off))

    def node_point(self, name: str) -> TreePoint:
        if name not in self._node_idx:
            raise InvalidInputError(f"unknown node {name!r}")
        node = self._node_idx[name]
        e = int(self._canon_edge[node])
        return TreePoint(e, 0.0 if self._tail[e] == node else float(self._len[e]))

    def validate_point(self, p: Point) -> None:
        if not isinstance(p, TreePoint):
            raise InvalidInputError(f"{p!r} is not a tree point")
        if not 0 <= p.edge < len(self.edges):
            raise InvalidInputError(f"tree point references unknown edge {p.edge}")
        length = float(self._len[p.edge])
        if not 0.0 <= p.offset <= length:
            raise InvalidInputError(f"offset {p.offset} outside [0, {length}]")
        if (p.offset == 0.0 or p.offset == length) and self.point_on_edge(p.edge, p.offset) != p:
            raise InvalidInputError(
                f"{p!r} is a non-canonical node location; construct via point_on_edge"
            )

    # -- packed points, metric and segment map ---------------------------------

    def _row(self, p: TreePoint):
        return p.edge, p.offset

    def _point(self, row: list) -> TreePoint:
        return TreePoint(int(row[0]), row[1])

    def _ends(self, P: np.ndarray) -> dict:
        """What the kernels read of packed rows (on the last axis): the edge
        as integers, the offset, the edge's end nodes and the legs to them."""
        edge, off = P[..., 0].astype(np.int64), P[..., 1]
        return {"edge": edge, "off": off, "tail": self._tail[edge], "head": self._head[edge],
                "to_tail": off, "to_head": self._len[edge] - off}

    def _canonical(self, edge: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`point_on_edge` over arrays: the first offset outside [0, length]
        raises; node locations, and only they, move to their canonical edge."""
        length = self._len[edge]
        ok = (off >= 0.0) & (off <= length)
        if not ok.all():
            i = int(np.argmin(ok))
            raise InvalidInputError(
                f"offset {float(off[i])} outside [0, {float(length[i])}] on edge {int(edge[i])}"
            )
        at = (off == 0.0) | (off == length)
        if at.any():
            edge, off = edge.copy(), off.copy()
            node = np.where(off[at] == 0.0, self._tail[edge[at]], self._head[edge[at]])
            edge[at] = self._canon_edge[node]
            off[at] = np.where(self._tail[edge[at]] == node, 0.0, self._len[edge[at]])
        return edge, off

    def min_dist(self, A, B) -> np.ndarray:
        """Row minima of ``dist_matrix(A, B)``, bit for bit, without forming
        it.

        A route term is fl(fl(leg_a + d(exit, entry)) + leg_b).  Over the B
        points that enter at one node it never decreases as leg_b grows, so
        its least value is fl(s + least leg_b).  B thus collapses to one
        column per node at an end of a B edge, holding the least leg from a
        B point to that node: two terms per column (the query leaves by its
        tail or its head) instead of four per B point.  Where A and B points
        share an edge the matrix holds |offset difference| instead; their
        route terms can stay in, as none is below it in floating point
        either (each adds nonnegative terms to one at least as large as the
        difference).  Each query takes |offset difference| to the B offsets
        just at or below and just above its own on its edge, found by one
        search of B sorted by (edge, offset).
        """
        A, B = self._ends(A), self._ends(B)
        ends = np.concatenate([B["tail"], B["head"]])
        order = np.argsort(ends, kind="stable")
        ends = ends[order]
        starts = np.nonzero(np.concatenate(([True], ends[1:] != ends[:-1])))[0]
        node = ends[starts]
        least = np.minimum.reduceat(np.concatenate([B["to_tail"], B["to_head"]])[order], starts)

        best = self._own_edge_dist(A, B)
        table, n = self._dist.ravel(), len(self._dist)
        for rows in _row_blocks(len(best), len(node)):
            for leg, exit in (("to_tail", "tail"), ("to_head", "head")):
                term = table.take(A[exit][rows, None] * n + node)
                np.add(A[leg][rows, None], term, out=term)
                term += least
                np.minimum(best[rows], term.min(axis=1), out=best[rows])
        return best

    def _own_edge_dist(self, A, B) -> np.ndarray:
        """|offset difference| from each row of A to the nearest B point on
        its own edge, inf where its edge holds none."""
        key = _edge_keys(B)
        order = np.argsort(key, kind="stable")
        above = np.searchsorted(key[order], _edge_keys(A), side="right")
        # rows -1 and nb both read the pad, whose edge no query is on
        edge = np.concatenate((B["edge"][order], [-1]))
        off = np.concatenate((B["off"][order], [0.0]))
        best = np.full(len(above), np.inf)
        for pos in (above - 1, above):
            near = np.where(edge[pos] == A["edge"], np.abs(A["off"] - off[pos]), np.inf)
            np.minimum(best, near, out=best)
        return best

    def cover_frame(self, packed):
        """One coordinate u = edge * stride + offset, with stride the longest
        edge plus the diameter: each edge fills its own interval of the line,
        and the gaps between intervals are at least the diameter wide, so
        d(x, y) <= |u(x) - u(y)|, with equality on one edge.  The box holds
        every edge.  A row maps to the nearest point of the interval nearest
        it (of the two beside a gap, the nearer one), moved to its canonical
        edge where it is a node; cells narrower than the gap meet one
        interval only, so that point lies on the edge of the cell's samples.
        """
        longest = float(self._len.max())
        stride = longest + float(self._dist.max())
        last = len(self.edges) - 1

        def point(U):
            u = U[:, 0]
            e = np.clip(np.floor(u / stride), 0, last).astype(np.int64)
            off = u - e * stride
            # past edge e's end, nearer the start of edge e + 1
            on = (off - self._len[e] > stride - off) & (e < last)
            e, off = np.where(on, e + 1, e), np.where(on, 0.0, np.clip(off, 0.0, self._len[e]))
            return np.column_stack(self._canonical(e, off))

        return CoverFrame(lambda P: (P[:, 0] * stride + P[:, 1])[:, None], point, np.zeros(1),
                          np.array([(last + 1) * stride]), 1.0, gap=stride - longest)

    def segment_batch(self, packed, I, J, ts):
        """Constant-speed walks along the connecting paths, all samples at
        once.  On one edge a sample is x + t (y - x), clamped to the edge.
        Otherwise the route is the first minimal route term; samples within
        their first leg stay on x's edge, also clamped to it, and samples past
        it walk their node paths in lockstep, one edge per step,
        each subtracting its edge lengths in path order.  Samples of x == y
        stay x.

        What depends only on the pair is resolved once per pair: its ends,
        whether it moves and stays on one edge, its route terms, the least
        one (the length L), its exit and entry nodes and legs.  Per sample
        there remain s = t L, the first-leg test and the walk."""
        ts = np.asarray(ts, dtype=np.float64)
        n = len(ts)
        X = self._ends(packed[np.asarray(I, dtype=np.int64)])
        Y = self._ends(packed[np.asarray(J, dtype=np.int64)])
        edge, off = np.repeat(X["edge"], n), np.repeat(X["off"], n)  # x == y keeps x as it is
        one_edge = X["edge"] == Y["edge"]
        moving = np.flatnonzero(~one_edge | (X["off"] != Y["off"]))

        def samples(pairs):
            """Sample rows of the given pairs, and the t of each."""
            return (pairs[:, None] * n + np.arange(n)).ravel(), np.tile(ts, len(pairs))

        same = moving[one_edge[moving]]
        rows, t = samples(same)
        x_off, y_off = np.repeat(X["off"][same], n), np.repeat(Y["off"][same], n)
        off[rows] = np.clip(x_off + t * (y_off - x_off), 0.0,
                            np.repeat(self._len[X["edge"][same]], n))

        far = np.flatnonzero(~one_edge)
        x, y = ({key: v[far] for key, v in E.items()} for E in (X, Y))
        routes = np.stack(list(self._route_terms(x, y)))
        k = routes.argmin(axis=0)
        exit_is_tail, entry_is_tail = k < 2, k % 2 == 0
        rows, t = samples(far)
        s = t * np.repeat(routes[k, np.arange(len(far))], n)
        leg = np.repeat(np.where(exit_is_tail, x["to_tail"], x["to_head"]), n)
        near = s <= leg
        x_off = np.repeat(x["off"], n)
        # x + s can round past the head even though s <= to_head: clamp it
        ahead = np.minimum(x_off + s, np.repeat(self._len[x["edge"]], n))
        off[rows[near]] = np.where(np.repeat(exit_is_tail, n), x_off - s, ahead)[near]

        walk = ~near
        idx, s = rows[walk], (s - leg)[walk]
        node = np.repeat(np.where(exit_is_tail, x["tail"], x["head"]), n)[walk]
        entry = np.repeat(np.where(entry_is_tail, y["tail"], y["head"]), n)[walk]
        final_leg = np.repeat(np.where(entry_is_tail, y["to_tail"], y["to_head"]), n)[walk]
        entry_is_tail = np.repeat(entry_is_tail, n)[walk]
        while len(idx):
            arrived = node == entry
            if arrived.any():
                a = idx[arrived]
                last = np.minimum(s[arrived], final_leg[arrived])
                edge[a] = Y["edge"][a // n]
                off[a] = np.where(entry_is_tail[arrived], last, self._len[edge[a]] - last)
                on = ~arrived
                idx, s, node, entry, entry_is_tail, final_leg = (
                    v[on] for v in (idx, s, node, entry, entry_is_tail, final_leg)
                )
            e = self._next_edge[node, entry]
            w = self._len[e]
            hit = s <= w
            edge[idx[hit]] = e[hit]
            off[idx[hit]] = np.where(self._tail[e] == node, s, w - s)[hit]
            on = ~hit
            node = self._tail[e] + self._head[e] - node
            idx, s, node, entry, entry_is_tail, final_leg = (
                v[on] for v in (idx, s - w, node, entry, entry_is_tail, final_leg)
            )

        rows = samples(moving)[0]
        edge[rows], off[rows] = self._canonical(edge[rows], off[rows])
        return np.column_stack([edge, off])

    def chord_dists(self, packed, I, J, ts, targets):
        """Tree chords answer from distances alone: along the x->y geodesic the
        distance to p is |s - s*| + d*, with s* and d* given by the Gromov
        products of the endpoint distances."""
        sub, subj = packed[I], packed[J]
        D_IT = self.dist_matrix(sub, targets)
        D_JT = self.dist_matrix(subj, targets)
        L = self.paired_dist(sub, subj)
        ts = np.asarray(ts, dtype=np.float64)
        s_star = 0.5 * (D_IT - D_JT + L[:, None])  # (P, T)
        d_star = 0.5 * (D_IT + D_JT - L[:, None])
        s = ts[None, :, None] * L[:, None, None]  # (P, g, 1)
        return np.abs(s - s_star[:, None, :]) + d_star[:, None, :]

    def _route_terms(self, A, B):
        """`_ROUTE_ENDS` terms of broadcasting ends, one at a time, node distances by take."""
        table, n = self._dist.ravel(), len(self._dist)
        for a, u, v, b in _ROUTE_ENDS:
            term = table.take(A[u] * n + B[v])
            np.add(A[a], term, out=term)
            term += B[b]
            yield term

    def paired_dist(self, A, B) -> np.ndarray:
        """Least route term, |offset difference| on one edge; a running
        minimum holds one term at a time beside it."""
        A, B = self._ends(A), self._ends(B)
        terms = self._route_terms(A, B)
        d = next(terms)
        for term in terms:
            np.minimum(d, term, out=d)
        same = A["edge"] == B["edge"]
        if same.any():
            np.copyto(d, np.abs(A["off"] - B["off"]), where=same)
        return d

    def hull_dist(self, A, K) -> np.ndarray:
        """Exact distance to the hull (the spanned subtree) of K.

        That subtree is the union of the geodesics [a, b] over pairs of points
        of K, and the distance from x to [a, b] is the Gromov product
        (d(x,a) + d(x,b) - d(a,b)) / 2, so the answer is its minimum over pairs
        (a = b gives d(x, a)).
        """
        DK = self.dist_matrix(K, K)
        best = np.full(len(A), np.inf)
        for rows in _row_blocks(len(best), len(DK)):
            DA = self.dist_matrix(A[rows], K)
            for a in range(len(DK)):
                gromov = 0.5 * (DA[:, a : a + 1] + DA[:, a:] - DK[a, a:])
                best[rows] = np.minimum(best[rows], gromov.min(axis=1))
        return best

    def star_centre(self) -> str | None:
        """Name of a node incident to every edge, or None if the tree is not a star."""
        if not self.edges:
            return None
        common = set.intersection(*({u, v} for u, v, _ in self.edges))
        return min(common) if common else None


def make_metric_tree(spec: MetricTreeSpec) -> TreeSpace:
    """Metric tree with path-length distance; rejects cyclic or disconnected input."""
    return TreeSpace(spec)


def star_tree(leaves: int, length: float = 1.0) -> TreeSpace:
    """Star with `leaves` unit (or given-length) edges from a central node."""
    if leaves < 1:
        raise InvalidInputError("star tree needs at least one leaf")
    names = tuple(f"l{i}" for i in range(leaves))
    return make_metric_tree(
        MetricTreeSpec(("c",) + names, tuple(("c", n, length) for n in names))
    )


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


class _ProductJointIndex(_KDTreeIndex):
    """KD index over l^2 x l^2 rows: the factor columns side by side are
    Euclidean coordinates of the product."""

    # its own class attribute, so that perfbench/spans.py times product
    # queries apart from lp ones
    min_dist = _KDTreeIndex.min_dist


class ProductSpace(BicombedSpace):
    """l^2 product of two spaces: distances combine as sqrt(dA^2 + dB^2) and
    segments evaluate componentwise.  The combination is convex and
    nondecreasing in each nonnegative coordinate, so distance convexity in the
    factors transfers to the product.  Only l^2 x l^2 is linear (``linear_p``
    2): over nested products a KD-tree distance would round differently from
    the hypot of factor distances.
    """

    _kd_index = _ProductJointIndex

    def __init__(self, spec: ProductSpaceSpec):
        self.left = spec.left
        self.right = spec.right
        self.spec = spec
        self.width = self.left.width + self.right.width
        self.base_tol = max(self.left.base_tol, self.right.base_tol)
        self.description = f"({self.left.description}) x ({self.right.description})"
        if all(isinstance(f, LpSpace) and f.p == 2.0 for f in (self.left, self.right)):
            self.linear_p = 2.0

    def validate_point(self, p: Point) -> None:
        if not isinstance(p, ProductPoint):
            raise InvalidInputError(f"{p!r} is not a product point")
        self.left.validate_point(p.left)
        self.right.validate_point(p.right)

    def _row(self, p: ProductPoint):
        return (*self.left._row(p.left), *self.right._row(p.right))

    def _point(self, row: list) -> ProductPoint:
        a = self.left.width
        return ProductPoint(self.left._point(row[:a]), self.right._point(row[a:]))

    def _split(self, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The left and right factor columns of packed rows (views)."""
        a = self.left.width
        return P[..., :a], P[..., a:]

    def _dist_block(self, A, B) -> np.ndarray:
        (Al, Ar), (Bl, Br) = self._split(A), self._split(B)
        return np.hypot(self.left._dist_block(Al, Bl), self.right._dist_block(Ar, Br))

    def segment_batch(self, packed, I, J, ts):
        L, R = self._split(packed)
        return np.hstack([self.left.segment_batch(L, I, J, ts),
                          self.right.segment_batch(R, I, J, ts)])

    def paired_dist(self, A, B) -> np.ndarray:
        (Al, Ar), (Bl, Br) = self._split(A), self._split(B)
        return np.hypot(self.left.paired_dist(Al, Bl), self.right.paired_dist(Ar, Br))

    def hull_dist(self, A, K) -> np.ndarray:
        """Exact distance to conv(K) for l^2 x l^2 products (one Euclidean space
        on the rows) and for star tree x line."""
        if self.linear_p is not None:
            return _euclidean_hull_dist(A, K)
        centre = self.left.star_centre() if isinstance(self.left, TreeSpace) else None
        if centre is None or not (isinstance(self.right, LpSpace) and self.right.n == 1):
            return super().hull_dist(A, K)
        return self._book_hull_dist(A, K, self.left.pack([self.left.node_point(centre)]))

    def _book_hull_dist(self, A, K, centre) -> np.ndarray:
        """Star tree x line is a book: one flat half-plane page (r, s), r >= 0,
        per star edge, glued along the spine r = 0 over the centre.

        A chord between points on different pages unfolds to a straight line
        that crosses the spine at s = (s_a r_b + s_b r_a) / (r_a + r_b).  The
        hull meets the spine in the interval I spanned by the spine points of K
        and all such crossings, and on each page it is the planar hull of that
        page's points plus I: two such page hulls unfold to a convex set, since
        every chord between them crosses the spine inside I.  A query at
        (r, s) is at planar distance from its own page's hull, and from another
        page's hull at the planar distance of its mirror image (-r, s).
        """
        def book_coords(P):
            tree_rows, line = self._split(P)
            return tree_rows[:, 0], self.left.dist_matrix(tree_rows, centre)[:, 0], line[:, 0]

        page_K, r_K, s_K = book_coords(K)
        page_A, r_A, s_A = book_coords(A)
        off = np.nonzero(r_K > 0.0)[0]
        I, J = np.triu_indices(len(off), k=1)
        I, J = off[I], off[J]
        apart = page_K[I] != page_K[J]
        I, J = I[apart], J[apart]
        spine = np.concatenate(
            [s_K[r_K == 0.0], (s_K[I] * r_K[J] + s_K[J] * r_K[I]) / (r_K[I] + r_K[J])]
        )
        ends = np.array([[0.0, spine.min()], [0.0, spine.max()]]) if len(spine) else np.empty((0, 2))
        best = np.full(len(r_A), np.inf)
        for page in np.unique(page_K[off]) if len(off) else [-1]:
            on_page = off[page_K[off] == page]
            P = np.vstack([np.column_stack([r_K[on_page], s_K[on_page]]), ends])
            Q = np.column_stack([np.where(page_A == page, r_A, -r_A), s_A])
            best = np.minimum(best, _euclidean_hull_dist(Q, P))
        return best


def make_product(spec: ProductSpaceSpec) -> ProductSpace:
    """l^2 product of two bicombed spaces with the componentwise segment map."""
    return ProductSpace(spec)
