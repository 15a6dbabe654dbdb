"""Core space abstraction: tagged points, metric-plus-segment-map spaces, segment
sampling, and the runtime axiom checker for segment maps.

A space couples a metric with a segment map ``[x, y](t)`` that assigns to every
ordered point pair a parameterized path from x to y.  The two axioms checked at
runtime are endpoint/idempotence behaviour (``[x,y](0) = x``, ``[x,y](1) = y``,
``[x,x] == x``) and distance convexity: for any two segments, the function
``t -> d([x,y](t), [x',y'](t))`` must be convex on [0, 1].
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np


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


class BicombedSpace:
    """A metric space with a distinguished segment map.

    Each space writes its geometry once, as batch kernels over its packed
    (array) form of a point set, plus a scalar ``validate_point`` for input.
    Every space implements these packed hooks:

    - ``pack(points)`` and ``points_from_packed(packed)``: to and from the
      packed form; ``packed_len``, ``packed_take(packed, rows)`` and
      ``packed_concat(parts)`` size, select and join packed sets;
    - ``sort_columns(packed)``: columns, most significant first, whose
      lexicographic row order is the canonical point order; rows are equal
      exactly when points are;
    - ``_dist_block(A, B)``: the dense distance matrix of two packed sets;
    - ``paired_dist(A, B)``: rowwise distances of equal-length packed sets;
    - ``segment_batch(packed, I, J, ts)``: packed samples [I[k], J[k]](t)
      for every t in ts, pair-major (len(I) * len(ts) rows).

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

    def validate_point(self, p: Point) -> None:
        raise NotImplementedError

    def dist_matrix(self, A, B) -> np.ndarray:
        """Pairwise distance matrix between two packed sets, built in row blocks."""
        na, nb = self.packed_len(A), self.packed_len(B)
        if na == 0 or nb == 0:
            return np.zeros((na, nb))
        blocks = _row_blocks(na, nb)
        if len(blocks) == 1:
            return self._dist_block(A, B)
        out = np.empty((na, nb))
        for rows in blocks:
            out[rows] = self._dist_block(self.packed_take(A, np.arange(na)[rows]), B)
        return out

    def min_dist(self, A, B) -> np.ndarray:
        """Per-row minimum distance from packed set A into packed set B."""
        na, nb = self.packed_len(A), self.packed_len(B)
        out = np.empty(na)
        for rows in _row_blocks(na, nb):
            out[rows] = self._dist_block(self.packed_take(A, np.arange(na)[rows]), B).min(axis=1)
        return out

    def close_pairs(self, packed, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Row pairs (I, J), I < J, of a packed set at distance below r,
        ordered by I, then J; the distance of a pair is entry [J, I] of
        ``dist_matrix(packed, packed)``.  Coordinate spaces override this
        with KD-tree pairs re-decided by ``paired_dist``."""
        D = self.dist_matrix(packed, packed)
        return np.nonzero(np.triu(D.T < r, k=1))

    def hull_dist(self, A, K) -> np.ndarray:
        """Per-row distance from packed set A to the closed convex hull of the
        packed set K.  Spaces with an exact hull route override this."""
        raise InvalidInputError(f"no exact distance-to-hull route for {self.description}")

    def make_index(self, packed) -> _PackedIndex:
        """Index for repeated nearest-distance queries against a fixed set."""
        return _PackedIndex(self, packed)

    def cover_frame(self, packed) -> CoverFrame | None:
        """Grid coordinates for the cell cover of a hull closure seeded with
        the packed set, or None where the space has none (its closures query
        every sample)."""
        return None

    def make_chord_finder(self, packed) -> _AlignedChords:
        """Candidate step of the extremal scan over a fixed packed set: its
        ``candidates`` yield a superset of the stored pairs whose chords pass
        within eps of some row of a packed target set.  Spaces whose segment
        map is linear in a p-norm override this with reflected-endpoint ball
        queries."""
        return _AlignedChords(self, packed)

    def chord_dists(
        self, packed, I: np.ndarray, J: np.ndarray, ts: np.ndarray, targets
    ) -> np.ndarray:
        """Distances from segment samples to target points: shape (len(I), len(ts), nT)."""
        S = self.segment_batch(packed, I, J, ts)
        M = self.dist_matrix(S, targets)
        return M.reshape(len(I), len(ts), self.packed_len(targets))


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
    rows = np.arange(space.packed_len(P))
    # segments [x, y] of every quadruple, then every [x', y']
    I = np.concatenate([rows[0::4], rows[2::4]])
    J = np.concatenate([rows[1::4], rows[3::4]])
    S = space.segment_batch(P, I, J, ts)
    half = len(pairs) * n
    seg1 = space.packed_take(S, np.arange(half))
    seg2 = space.packed_take(S, np.arange(half, 2 * half))
    f = space.paired_dist(seg1, seg2).reshape(len(pairs), n)
    starts = np.arange(len(I)) * n  # the t = 0 sample of every segment
    max_endpoint = max(
        space.paired_dist(space.packed_take(S, starts), space.packed_take(P, I)).max(),
        space.paired_dist(space.packed_take(S, starts + grid), space.packed_take(P, J)).max(),
    )
    idem = space.segment_batch(P, rows, rows, ts)
    max_idem = space.paired_dist(idem, space.packed_take(P, np.repeat(rows, n))).max()
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
