"""Core space abstraction: tagged points, metric-plus-segment-map spaces, segment
sampling, and the runtime axiom checker for segment maps.

A space couples a metric with a segment map ``[x, y](t)`` that assigns to every
ordered point pair a parameterized path from x to y.  The two axioms checked at
runtime are endpoint/idempotence behaviour (``[x,y](0) = x``, ``[x,y](1) = y``,
``[x,x] == x``) and distance convexity: for any two segments, the function
``t -> d([x,y](t), [x',y'](t))`` must be convex on [0, 1].
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.spatial import cKDTree


class InvalidInputError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


#: entry budget of one dense distance block: row-blocked kernels size their
#: blocks so that a block of rows x columns stays within it (2 MB of floats)
BLOCK_ENTRIES = 1 << 18


def _row_blocks(n_rows: int, width: int) -> list[slice]:
    """Row slices covering range(n_rows) whose temporaries of rows x width
    entries stay within BLOCK_ENTRIES each."""
    rows = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(lo, lo + rows) for lo in range(0, n_rows, rows)]


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


class _KDTreeIndex:
    """KD-tree over coordinate rows, measured in the p-norm."""

    def __init__(self, data: np.ndarray, p: float):
        self.tree = cKDTree(data)
        self.p = p

    def min_dist(self, queries: np.ndarray) -> np.ndarray:
        d, _ = self.tree.query(np.atleast_2d(queries), k=1, p=self.p, workers=worker_count())
        return np.atleast_1d(d)


@dataclass(frozen=True)
class CoverFrame:
    """Coordinates in which hull closure grids its cell cover.

    ``coords(packed)`` maps points to rows of R^n and ``point(X)`` maps such
    rows back to packed points, with d(x, y) <= |coords(x) - coords(y)|_p.
    The box [lo, hi] is convex in the space and holds the seed, so it holds
    the seed's hull.  ``slack`` bounds the sum of the rounding in two of the
    space's computed nearest distances, where it exceeds the cover's relative
    margins.
    """

    coords: Callable
    point: Callable
    lo: np.ndarray
    hi: np.ndarray
    p: float
    slack: float = 0.0


#: slack added to the chord alignment filter so float rounding in distances can
#: never exclude a genuinely hitting chord
_ALIGN_SLACK = 1e-9


class _AlignedChords:
    """Candidate chords through a target set by the alignment filter, over
    one dense distance matrix of a fixed packed point set.

    A chord [i, j] whose sample at parameter t lies within eps of a target e
    sits at distance t*L and (1-t)*L from its endpoints (L = d(i, j), the
    segment has constant speed), so the triangle inequality forces
    d(i, e) + d(j, e) < L + 2*eps.  Every pair passing that necessary
    condition for some target is a candidate.
    """

    def __init__(self, space: "BicombedSpace", packed):
        self.D = space.dist_matrix(packed, packed)

    def candidates(self, target, d_to_target: np.ndarray, elig: np.ndarray,
                   eps: float, ts: np.ndarray):
        """Yield (I, J) blocks, I < J, of eligible pairs passing the filter;
        d_to_target holds the distances from every stored row (rows) to every
        target (columns)."""
        A = d_to_target[elig]
        for rows in _row_blocks(len(elig) - 1, len(elig)):
            R = elig[rows]
            through = A[rows, None, 0] + A[None, :, 0]
            for k in range(1, A.shape[1]):
                np.minimum(through, A[rows, None, k] + A[None, :, k], out=through)
            aligned = through < self.D[np.ix_(R, elig)] + 2.0 * eps + _ALIGN_SLACK
            aligned &= R[:, None] < elig[None, :]
            ri, ci = np.nonzero(aligned)
            yield R[ri], elig[ci]


#: relative margin on KD-tree radii (the reflected ball radius, the close-pair
#: radius), so rounding in the reflected centre or in the KD-tree's distances
#: can never drop a hitting chord or a close pair
_BALL_MARGIN = 1e-9


class _ReflectedChords:
    """Candidate chords through a target set by reflected-endpoint ball
    queries, for a packed set whose rows are linear coordinates in a p-norm
    (``BicombedSpace.linear_p``).

    On a linear chord (1-t)x + ty - q = t(y - y*) with y* = (q - (1-t)x)/t,
    so its sample at t lies within eps of a target q exactly when y lies
    within eps/t of y*.  The t grid is symmetric, so ordered pairs (x, y) at
    t >= 1/2 cover every chord at every t, with radii at most 2*eps.  One
    k = 1 query per (q, x, t) proposes the nearest y; where such a y exists,
    the whole ball follows, for the confirm step to fall back on when no
    nearest y confirms.
    """

    def __init__(self, packed, p: float):
        self.coords, self.p = packed, p

    def candidates(self, target, d_to_target: np.ndarray, elig: np.ndarray,
                   eps: float, ts: np.ndarray):
        """Yield (I, J) blocks, I < J: the nearest y of every (q, x, t), one t
        at a time from t = 1/2 up and targets q in row blocks, then every y
        in the balls where a nearest one was found.  d_to_target is unused:
        the reflection needs only coordinates."""
        X = self.coords[elig]
        tree = cKDTree(X)  # one thread: a point's queries are a few hundred rows
        blocks = _row_blocks(len(target), len(X))
        balls = []
        for t in ts[ts >= 0.5]:
            r = eps / t * (1.0 + _BALL_MARGIN)
            for rows in blocks:
                centres = ((target[rows, None, :] - (1.0 - t) * X) / t).reshape(-1, X.shape[1])
                d, k = tree.query(centres, k=1, p=self.p, distance_upper_bound=r)
                hit = np.nonzero(np.isfinite(d))[0]
                xs = hit % len(X)
                yield _ordered_pairs(elig, xs, k[hit])
                balls.append((xs, centres[hit], r))
        for xs, centres, r in balls:
            found = tree.query_ball_point(centres, r, p=self.p)
            counts = np.fromiter(map(len, found), dtype=np.int64, count=len(found))
            ys = np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64,
                             count=int(counts.sum()))
            yield _ordered_pairs(elig, np.repeat(xs, counts), ys)


def _ordered_pairs(elig: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Stored-index pairs (I, J), I < J, of local pairs (xs, ys), x != y."""
    keep = xs != ys
    a, b = elig[xs[keep]], elig[ys[keep]]
    return np.minimum(a, b), np.maximum(a, b)


class BicombedSpace:
    """A metric space with a distinguished segment map.

    Each space writes its geometry once, as batch kernels over its packed
    form of a point set, plus a scalar ``validate_point`` for input.  A
    packed set is a C-contiguous 2-D float64 array with one row per point
    and ``width`` columns:

    - lp: the coordinates;
    - hyperboloid: (x0, x1, x2);
    - tree: (edge, offset), the edge an integral value;
    - product: the left factor's columns, then the right factor's.

    Rows select, join and sort as plain arrays (``P[rows]``,
    ``np.concatenate``, a lexsort of ``P.T``): the lexicographic row order
    is the canonical point order, and rows are equal exactly when points
    are.  Every space implements these packed hooks:

    - ``_row(p)`` and ``_point(row)``: one point to and from its row, which
      ``pack(points)`` and ``points_from_packed(packed)`` apply to a set;
    - ``paired_dist(A, B)``: distances of rows that broadcast (rowwise pairs);
    - ``segment_batch(packed, I, J, ts)``: packed samples [I[k], J[k]](t)
      for every t in ts, pair-major (len(I) * len(ts) rows).

    Each distance is written once, as ``paired_dist``: the dense block
    ``_dist_block(A, B)`` is ``paired_dist(A[:, None], B[None])``.  Only the
    hyperbolic plane (a Gram product through BLAS) and products (the hypot
    of factor blocks, so a hyperbolic factor keeps its Gram rounding)
    override it.

    ``linear_p`` is the p of a norm in which rows are linear coordinates
    (lp, l^2 x l^2).  Those spaces get KD-tree nearest queries and close
    pairs, a cell cover on the rows and reflected-endpoint chord queries;
    the others scan dense blocks and filter chords by alignment.

    Set-level operations (hull closure, extremal scans), the single-point
    operations ``distance`` and ``evaluate_bicombing``, and ``check_axioms``
    all run on these kernels.

    Spaces are immutable after construction and every kernel is a pure
    function of its inputs, so instances are safe to share across threads.
    """

    description: str = "bicombed space"
    #: rounding-tolerance class: 1e-9 for exact-arithmetic spaces, 1e-7 where
    #: transcendental functions accumulate error (hyperbolic and its products)
    base_tol: float = 1e-9
    #: columns of a packed row
    width: int
    #: whether a packed row is the point's coordinate vector, which linear
    #: functionals read (lp and the hyperboloid)
    coordinate_rows: bool = False
    #: p of the norm in which packed rows are linear coordinates, or None
    linear_p: float | None = None
    #: index class of linear spaces (perfbench/spans.py times products' apart)
    _kd_index = _KDTreeIndex

    def validate_point(self, p: Point) -> None:
        raise NotImplementedError

    def pack(self, pts: Sequence[Point]) -> np.ndarray:
        return np.array([self._row(p) for p in pts], dtype=np.float64).reshape(len(pts), self.width)

    def points_from_packed(self, packed) -> list[Point]:
        return [self._point(row) for row in packed.tolist()]

    def packed_len(self, packed) -> int:
        # kept for perfbench/spans.py, which counts kernel work with it
        return len(packed)

    def _dist_block(self, A, B) -> np.ndarray:
        return self.paired_dist(A[:, None], B[None])

    def dist_matrix(self, A, B) -> np.ndarray:
        """Pairwise distance matrix between two packed sets, built in row blocks."""
        na, nb = len(A), len(B)
        if na == 0 or nb == 0:
            return np.zeros((na, nb))
        blocks = _row_blocks(na, nb)
        if len(blocks) == 1:
            return self._dist_block(A, B)
        out = np.empty((na, nb))
        for rows in blocks:
            out[rows] = self._dist_block(A[rows], B)
        return out

    def min_dist(self, A, B) -> np.ndarray:
        """Per-row minimum distance from packed set A into packed set B."""
        out = np.empty(len(A))
        for rows in _row_blocks(len(A), len(B)):
            out[rows] = self._dist_block(A[rows], B).min(axis=1)
        return out

    def close_pairs(self, packed, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Row pairs (I, J), I < J, of a packed set at distance below r,
        ordered by I, then J; the distance of a pair is entry [J, I] of
        ``dist_matrix(packed, packed)``.  Linear spaces take KD-tree pairs
        within r (1 + _BALL_MARGIN) and re-decide them by ``paired_dist``."""
        if self.linear_p is None:
            D = self.dist_matrix(packed, packed)
            return np.nonzero(np.triu(D.T < r, k=1))
        pairs = cKDTree(packed).query_pairs(r * (1.0 + _BALL_MARGIN), p=self.linear_p,
                                            output_type="ndarray")
        I, J = pairs[np.lexsort(pairs.T[::-1])].T
        close = self.paired_dist(packed[J], packed[I]) < r
        return I[close], J[close]

    def hull_dist(self, A, K) -> np.ndarray:
        """Per-row distance from packed set A to the closed convex hull of the
        packed set K.  Spaces with an exact hull route override this."""
        raise InvalidInputError(f"no exact distance-to-hull route for {self.description}")

    def make_index(self, packed):
        """Index for repeated nearest-distance queries against a fixed set."""
        if self.linear_p is None:
            return _PackedIndex(self, packed)
        return self._kd_index(packed, self.linear_p)

    def cover_frame(self, packed) -> CoverFrame | None:
        """Grid coordinates for the cell cover of a hull closure seeded with
        the packed set, or None where the space has none (its closures query
        every sample).  Linear spaces grid their rows' (convex) box."""
        if self.linear_p is None:
            return None
        return CoverFrame(np.asarray, np.asarray, packed.min(axis=0), packed.max(axis=0),
                          self.linear_p)

    def make_chord_finder(self, packed):
        """Candidate step of the extremal scan over a fixed packed set: its
        ``candidates`` yield a superset of the stored pairs whose chords pass
        within eps of some row of a packed target set."""
        if self.linear_p is None:
            return _AlignedChords(self, packed)
        return _ReflectedChords(packed, self.linear_p)

    def chord_dists(
        self, packed, I: np.ndarray, J: np.ndarray, ts: np.ndarray, targets
    ) -> np.ndarray:
        """Distances from segment samples to target points: shape (len(I), len(ts), nT)."""
        S = self.segment_batch(packed, I, J, ts)
        M = self.dist_matrix(S, targets)
        return M.reshape(len(I), len(ts), len(targets))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def distance(space: BicombedSpace, x: Point, y: Point) -> float:
    """Metric distance d(x, y) in the given space.

    Raises InvalidInputError when either point does not belong to the space.
    """
    space.validate_point(x)
    space.validate_point(y)
    return float(space.paired_dist(space.pack([x]), space.pack([y]))[0])


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
    S = space.segment_batch(space.pack([x, y]), np.array([0]), np.array([1]), np.array([t]))
    return space.points_from_packed(S)[0]


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
    for interior nodes; the witness is the first largest defect in quadruple
    then node order, reported when it exceeds tol.  The endpoint error is
    d([x,y](0), x) and d([x,y](1), y), the idempotence error d([p,p](t), p)
    for each point p of the quadruple, both on the same grid.  The symmetry
    defect d([x,y](t), [y,x](1-t)) is reported informatively and does not
    affect the verdict.

    All points are packed once, and every segment sample, degenerate [p,p]
    ones included, comes from the space's ``segment_batch`` and every
    distance from its ``paired_dist``, the kernels the set-level operations
    use.
    """
    if grid < 2:
        raise InvalidInputError("axiom-check grid must be >= 2")
    if not pairs:
        return AxiomReport(0, grid, 0.0, 0.0, 0.0, 0.0, None, True)
    for quad in pairs:
        for p in quad:
            space.validate_point(p)
    n = grid + 1
    ts = np.arange(n) / grid
    P = space.pack([p for quad in pairs for p in quad])
    rows = np.arange(len(P))
    # segments [x, y] of every quadruple, then every [x', y']
    I = np.concatenate([rows[0::4], rows[2::4]])
    J = np.concatenate([rows[1::4], rows[3::4]])
    S = space.segment_batch(P, I, J, ts)
    half = len(pairs) * n
    f = space.paired_dist(S[:half], S[half:]).reshape(len(pairs), n)
    starts = np.arange(len(I)) * n  # the t = 0 sample of every segment
    max_endpoint = max(
        space.paired_dist(S[starts], P[I]).max(),
        space.paired_dist(S[starts + grid], P[J]).max(),
    )
    idem = space.segment_batch(P, rows, rows, ts)
    max_idem = space.paired_dist(idem, P[np.repeat(rows, n)]).max()
    max_sym = space.paired_dist(S, space.segment_batch(P, J, I, 1.0 - ts)).max()

    defects = f[:, 1:-1] - 0.5 * (f[:, :-2] + f[:, 2:])
    worst = int(np.argmax(defects))
    max_conv = float(defects.flat[worst])
    witness = None
    if max_conv > tol:
        q, k = divmod(worst, grid - 1)
        witness = ConvexityWitness(
            *pairs[q], float(ts[k]), float(ts[k + 1]), float(ts[k + 2]), max_conv
        )
    passed = bool(max_endpoint <= tol and max_idem <= tol and max_conv <= tol)
    return AxiomReport(
        pairs_checked=len(pairs),
        grid_size=grid,
        max_endpoint_error=float(max_endpoint),
        max_idempotence_error=float(max_idem),
        max_convexity_violation=max_conv,
        max_symmetry_defect=float(max_sym),
        worst_witness=witness,
        passed=passed,
    )
