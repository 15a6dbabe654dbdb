"""Core space abstraction: tagged points, metric-plus-segment-map spaces, segment
sampling, and the runtime axiom checker for segment maps.

A space couples a metric with a segment map ``[x, y](t)`` that assigns to every
ordered point pair a parameterized path from x to y.  The two axioms checked at
runtime are endpoint/idempotence behaviour (``[x,y](0) = x``, ``[x,y](1) = y``,
``[x,x] == x``) and distance convexity: for any two segments, the function
``t -> d([x,y](t), [x',y'](t))`` must be convex on [0, 1].
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


#: entry budget of one dense distance block: row-blocked kernels size their
#: blocks so that a block of rows x columns stays within it (2 MB of floats)
BLOCK_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EuclideanPoint:
    """Coordinate vector in a finite-dimensional normed space."""

    coords: tuple[float, ...]


@dataclass(frozen=True)
class HyperboloidPoint:
    """Point (x0, x1, x2) on the upper sheet of the unit hyperboloid.

    Must satisfy <x, x>_M == -1 (up to 1e-9) and x0 > 0, where <.,.>_M is the
    Minkowski bilinear form -x0*y0 + x1*y1 + x2*y2.
    """

    coords: tuple[float, float, float]


@dataclass(frozen=True)
class TreePoint:
    """Location on a metric tree: an edge index plus an offset from its tail node.

    Offsets 0 and length(edge) denote nodes; such points are canonicalized to the
    smallest incident edge index, so equal locations have equal representations.
    """

    edge: int
    offset: float


@dataclass(frozen=True)
class ProductPoint:
    """Pair of factor points in a product space."""

    left: "Point"
    right: "Point"


Point = Union[EuclideanPoint, HyperboloidPoint, TreePoint, ProductPoint]

_KIND_TAG = {EuclideanPoint: 0, HyperboloidPoint: 1, TreePoint: 2, ProductPoint: 3}


def canonical_key(p: Point):
    """Total ordering key for points: lexicographic on the serialized payload.

    Used everywhere an iteration order or a tie-break must be reproducible.
    """
    if isinstance(p, (EuclideanPoint, HyperboloidPoint)):
        return (_KIND_TAG[type(p)], p.coords)
    if isinstance(p, TreePoint):
        return (2, p.edge, p.offset)
    if isinstance(p, ProductPoint):
        return (3, canonical_key(p.left), canonical_key(p.right))
    raise InvalidInputError(f"not a point: {p!r}")


def worker_count() -> int:
    """Worker cap for parallel scans, from BICOMBING_LAB_THREADS (0 or unset = auto)."""
    raw = os.environ.get("BICOMBING_LAB_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise InvalidInputError(f"BICOMBING_LAB_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise InvalidInputError("BICOMBING_LAB_THREADS must be >= 0")
    return n if n > 0 else -1


# ---------------------------------------------------------------------------
# Space base class
# ---------------------------------------------------------------------------


class _PackedIndex:
    """Nearest-distance queries against a fixed packed point set (linear scan)."""

    def __init__(self, space: "BicombedSpace", packed):
        self.space = space
        self.packed = packed

    def min_dist(self, packed_queries) -> np.ndarray:
        return self.space.min_dist(packed_queries, self.packed)


class BicombedSpace:
    """A metric space with a distinguished segment map.

    Subclasses implement the scalar evaluators ``_distance`` and ``_bicombing``
    plus ``validate_point``.  The batch hooks below have generic fallbacks; model
    spaces override them with array implementations so that set-level operations
    (hull closure, extremal scans) run over ndarrays instead of Python objects.

    Spaces are immutable after construction and every evaluator is a pure
    function of its inputs, so instances are safe to share across threads.
    """

    description: str = "bicombed space"
    #: rounding-tolerance class: 1e-9 for exact-arithmetic spaces, 1e-7 where
    #: transcendental functions accumulate error (hyperbolic and its products)
    base_tol: float = 1e-9

    # -- scalar contract ---------------------------------------------------

    def validate_point(self, p: Point) -> None:
        raise NotImplementedError

    def _distance(self, x: Point, y: Point) -> float:
        raise NotImplementedError

    def _bicombing(self, x: Point, y: Point, t: float) -> Point:
        raise NotImplementedError

    # -- batch hooks (generic fallbacks) ------------------------------------

    def pack(self, pts: Sequence[Point]):
        """Bundle points into the space's array form for batch operations."""
        return list(pts)

    def packed_len(self, packed) -> int:
        return len(packed)

    def packed_take(self, packed, rows):
        return [packed[int(i)] for i in np.atleast_1d(rows)]

    def packed_concat(self, a, b):
        return list(a) + list(b)

    def points_from_packed(self, packed) -> list[Point]:
        return list(packed)

    def _dist_block(self, A, B) -> np.ndarray:
        out = np.empty((self.packed_len(A), self.packed_len(B)))
        pa = self.points_from_packed(A)
        pb = self.points_from_packed(B)
        for i, x in enumerate(pa):
            for j, y in enumerate(pb):
                out[i, j] = self._distance(x, y)
        return out

    def dist_matrix(self, A, B) -> np.ndarray:
        """Pairwise distance matrix between two packed sets, built in row blocks."""
        na, nb = self.packed_len(A), self.packed_len(B)
        if na == 0 or nb == 0:
            return np.zeros((na, nb))
        rows = max(1, BLOCK_ENTRIES // max(nb, 1))
        if rows >= na:
            return self._dist_block(A, B)
        out = np.empty((na, nb))
        for lo in range(0, na, rows):
            hi = min(lo + rows, na)
            out[lo:hi] = self._dist_block(self.packed_take(A, np.arange(lo, hi)), B)
        return out

    def min_dist(self, A, B) -> np.ndarray:
        """Per-row minimum distance from packed set A into packed set B."""
        na, nb = self.packed_len(A), self.packed_len(B)
        rows = max(1, BLOCK_ENTRIES // max(nb, 1))
        out = np.empty(na)
        for lo in range(0, na, rows):
            hi = min(lo + rows, na)
            out[lo:hi] = self._dist_block(
                self.packed_take(A, np.arange(lo, hi)), B
            ).min(axis=1)
        return out

    def dist_to_packed(self, p: Point, packed) -> np.ndarray:
        return self.dist_matrix(self.pack([p]), packed)[0]

    def hull_dist(self, A, K) -> np.ndarray:
        """Per-row distance from packed set A to the closed convex hull of the
        packed set K.  Spaces with an exact hull route override this."""
        raise InvalidInputError(f"no exact distance-to-hull route for {self.description}")

    def make_index(self, packed) -> _PackedIndex:
        """Index for repeated nearest-distance queries against a fixed set."""
        return _PackedIndex(self, packed)

    def segment_batch(self, packed, I: np.ndarray, J: np.ndarray, ts: np.ndarray):
        """Packed segment samples for index pairs (I[k], J[k]) at every t in ts.

        Returns a packed set of len(I)*len(ts) samples, pair-major.
        """
        pts = self.points_from_packed(packed)
        out = []
        for i, j in zip(I, J):
            x, y = pts[int(i)], pts[int(j)]
            for t in ts:
                out.append(self._bicombing(x, y, float(t)) if x != y else x)
        return self.pack(out)

    def chord_dists(
        self, packed, I: np.ndarray, J: np.ndarray, ts: np.ndarray, targets
    ) -> np.ndarray:
        """Distances from segment samples to target points: shape (len(I), len(ts), nT)."""
        S = self.segment_batch(packed, I, J, ts)
        M = self.dist_matrix(S, targets)
        return M.reshape(len(I), len(ts), self.packed_len(targets))

    def paired_dist(self, A, B) -> np.ndarray:
        """Rowwise distances between equal-length packed sets."""
        pa = self.points_from_packed(A)
        pb = self.points_from_packed(B)
        return np.array([self._distance(x, y) for x, y in zip(pa, pb)])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def distance(space: BicombedSpace, x: Point, y: Point) -> float:
    """Metric distance d(x, y) in the given space.

    Raises InvalidInputError when either point does not belong to the space.
    """
    space.validate_point(x)
    space.validate_point(y)
    return space._distance(x, y)


def evaluate_bicombing(space: BicombedSpace, x: Point, y: Point, t: float) -> Point:
    """Point [x, y](t) on the segment from x to y.

    Endpoints are returned exactly; a degenerate segment (x == y) is the
    constant map.  t outside [0, 1] is rejected.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError(f"segment parameter must lie in [0, 1], got {t}")
    space.validate_point(x)
    space.validate_point(y)
    if x == y or t == 0.0:
        return x
    if t == 1.0:
        return y
    return space._bicombing(x, y, t)


def sample_segment(space: BicombedSpace, x: Point, y: Point, m: int) -> list[Point]:
    """The m+1 points [x, y](k/m) for k = 0..m; first is x, last is y."""
    if m < 1:
        raise InvalidInputError("segment sample count m must be >= 1")
    return [evaluate_bicombing(space, x, y, k / m) for k in range(m + 1)]


@dataclass(frozen=True)
class ConvexityWitness:
    """Worst observed convexity defect: the quadruple and the grid node where
    f(t_k) exceeded the mean of its neighbours."""

    x: Point
    y: Point
    x2: Point
    y2: Point
    t_prev: float
    t_mid: float
    t_next: float
    defect: float


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the segment-map axiom check over sampled quadruples."""

    pairs_checked: int
    grid_size: int
    max_endpoint_error: float
    max_idempotence_error: float
    max_convexity_violation: float
    max_symmetry_defect: float
    worst_witness: ConvexityWitness | None
    passed: bool


def check_axioms(
    space: BicombedSpace,
    pairs: Sequence[tuple[Point, Point, Point, Point]],
    grid: int,
    tol: float,
) -> AxiomReport:
    """Check the segment-map axioms on sampled quadruples over a uniform t-grid.

    For each quadruple (x, y, x', y') the function
    f(t) = d([x,y](t), [x',y'](t)) is sampled at t_k = k/grid and the
    midpoint-convexity defect f(t_k) - (f(t_{k-1}) + f(t_{k+1}))/2 is recorded
    for interior nodes.  Endpoint and idempotence errors are measured on the
    same grid.  The symmetry defect d([x,y](t), [y,x](1-t)) is reported
    informatively and does not affect the verdict.
    """
    if grid < 2:
        raise InvalidInputError("axiom-check grid must be >= 2")
    ts = [k / grid for k in range(grid + 1)]

    max_endpoint = 0.0
    max_idem = 0.0
    max_conv = -math.inf
    max_sym = 0.0
    witness = None

    def raw(a: Point, b: Point, t: float) -> Point:
        return a if a == b else space._bicombing(a, b, t)

    for quad in pairs:
        x, y, x2, y2 = quad
        for p in quad:
            space.validate_point(p)
        seg1 = [raw(x, y, t) for t in ts]
        seg2 = [raw(x2, y2, t) for t in ts]
        f = [space._distance(a, b) for a, b in zip(seg1, seg2)]

        max_endpoint = max(
            max_endpoint,
            space._distance(seg1[0], x),
            space._distance(seg1[-1], y),
            space._distance(seg2[0], x2),
            space._distance(seg2[-1], y2),
        )
        for p in {x, y, x2, y2}:
            for t in ts:
                max_idem = max(max_idem, space._distance(raw(p, p, t), p))
        rev1 = [raw(y, x, 1.0 - t) for t in ts]
        rev2 = [raw(y2, x2, 1.0 - t) for t in ts]
        for a, b, c, d in zip(seg1, rev1, seg2, rev2):
            max_sym = max(max_sym, space._distance(a, b), space._distance(c, d))

        for k in range(1, grid):
            defect = f[k] - 0.5 * (f[k - 1] + f[k + 1])
            if defect > max_conv:
                max_conv = defect
                if defect > tol:
                    witness = ConvexityWitness(
                        x, y, x2, y2, ts[k - 1], ts[k], ts[k + 1], defect
                    )

    if max_conv == -math.inf:
        max_conv = 0.0
    passed = bool(max_endpoint <= tol and max_idem <= tol and max_conv <= tol)
    return AxiomReport(
        pairs_checked=len(pairs),
        grid_size=grid,
        max_endpoint_error=float(max_endpoint),
        max_idempotence_error=float(max_idem),
        max_convexity_violation=float(max_conv),
        max_symmetry_defect=float(max_sym),
        worst_witness=witness,
        passed=passed,
    )
