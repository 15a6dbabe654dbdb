"""Discretized convexity machinery: finite point nets, distance-to-net, iterated
segment-closure hulls, convex-net and convex-functional checks, and Hausdorff
distance between nets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .space_core import (BLOCK_ENTRIES, _BALL_MARGIN, BicombedSpace, InvalidInputError, Point,
                         _row_blocks)


# ---------------------------------------------------------------------------
# Point nets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointNet:
    """Finite point collection standing in for a compact set at resolution eps.

    The packed rows (``space.pack`` form) are the net: canonically ordered
    and pairwise at least eps/2 apart.  ``points`` builds ``Point`` objects
    from them on first use, for the API and reports.  Points from outside
    enter through :meth:`build`, which validates, sorts and deduplicates; the
    constructor takes rows already sorted and separated.  Nets compare by
    identity.
    """

    space: BicombedSpace
    packed: np.ndarray
    eps: float

    @staticmethod
    def build(space: BicombedSpace, points: Iterable[Point], eps: float) -> "PointNet":
        """Validate, canonically sort, and deduplicate points at radius eps/2.

        When two points fall within eps/2 of each other the canonically smaller
        one is kept, so the stored net is independent of input order.
        """
        if not (math.isfinite(eps) and eps > 0):
            raise InvalidInputError(f"net resolution eps must be finite and positive, got {eps}")
        pts = list(points)
        if not pts:
            raise InvalidInputError("a point net cannot be empty")
        for p in pts:
            space.validate_point(p)
        packed = space.pack(pts)
        if not np.isfinite(packed).all():
            raise InvalidInputError("point coordinates must be finite")
        rows = canonical_rows(packed)
        rows = rows[_greedy_separate(space, packed[rows], eps)]
        return PointNet(space, packed[rows], float(eps))

    def __len__(self) -> int:
        return len(self.packed)

    def take(self, rows) -> "PointNet":
        """The net of the given rows, which must be in increasing order."""
        return PointNet(self.space, self.packed[rows], self.eps)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(self.space.points_from_packed(self.packed))

    @cached_property
    def index(self):
        return self.space.make_index(self.packed)

    @cached_property
    def chord_finder(self):
        return self.space.make_chord_finder(self.packed)

    @cached_property
    def diameter(self) -> float:
        """Largest stored distance, as the maximum of the row blocks that
        ``dist_matrix`` forms, one block at a time."""
        n = len(self)
        return max(
            float(self.space.dist_matrix(self.packed[rows], self.packed).max())
            for rows in _row_blocks(n, n)
        )


# ---------------------------------------------------------------------------
# Convex functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexFunctional:
    """Real-valued map on points, as a label and a map from a space's packed
    rows to values: distance to an anchor, distance to a net's stored points,
    distance to the convex hull of a net's stored points, a linear functional
    (coordinate spaces only), a constant, or a multiple of one of these.

    ``dist_to_hull`` is exactly convex along segments (the distance to a convex
    set is).  ``dist_to_net`` is a minimum over finitely many points and is
    convex only up to kinks of the order of the net spacing; it exceeds
    ``dist_to_hull`` by at most how far the net is from covering its hull.
    Both measure in the net's own space.  ``dist_to_hull`` needs a space with
    an exact hull route (see ``BicombedSpace.hull_dist``) and raises
    InvalidInputError elsewhere.
    """

    name: str
    map: Callable[[BicombedSpace, np.ndarray], np.ndarray] = field(repr=False)

    @staticmethod
    def dist_to_point(anchor: Point) -> "ConvexFunctional":
        return ConvexFunctional(
            "dist_to_point", lambda space, packed: space.dist_matrix(space.pack([anchor]), packed)[0])

    @staticmethod
    def dist_to_net(target: PointNet) -> "ConvexFunctional":
        return _dist_to_set("dist_to_net", target, "min_dist")

    @staticmethod
    def dist_to_hull(target: PointNet) -> "ConvexFunctional":
        return _dist_to_set("dist_to_hull", target, "hull_dist")

    @staticmethod
    def linear(coefficients: Sequence[float]) -> "ConvexFunctional":
        coefficients = tuple(float(c) for c in coefficients)

        def linear_map(space, packed):
            if not space.coordinate_rows:
                raise InvalidInputError(
                    f"linear functionals need coordinate points, not points of {space.description}")
            if packed.shape[1] != len(coefficients):
                raise InvalidInputError("linear functionals require matching coordinate points")
            return packed @ np.asarray(coefficients)

        return ConvexFunctional(f"linear{coefficients}", linear_map)

    @staticmethod
    def constant(value: float) -> "ConvexFunctional":
        value = float(value)
        return ConvexFunctional(f"constant({value})", lambda space, packed: np.full(len(packed), value))

    def scaled(self, factor: float) -> "ConvexFunctional":
        """Same functional scaled by a constant (negative factors break convexity)."""
        return ConvexFunctional(f"{factor}*{self.name}",
                                lambda space, packed: factor * self.map(space, packed))

    def label(self) -> str:
        return self.name

    def evaluate(self, space: BicombedSpace, p: Point) -> float:
        return float(self.map(space, space.pack([p]))[0])

    def evaluate_packed(self, space: BicombedSpace, packed) -> np.ndarray:
        return self.map(space, packed)


def _dist_to_set(name: str, target: PointNet | None, method: str) -> ConvexFunctional:
    """Distance from packed rows to the target net, by its space's ``method``."""

    def to_set(space, packed):
        if target is None or not len(target):
            raise InvalidInputError(f"{name} functional needs a non-empty net")
        return getattr(target.space, method)(packed, target.packed)

    return ConvexFunctional(name, to_set)


# ---------------------------------------------------------------------------
# Hull closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullResult:
    """Fixed point of the segment-closure iteration plus convergence data.

    ``samples`` counts the segment samples formed and ``queried`` the rows
    sent to a nearest-distance query (samples left open by the cell cover,
    and cell centres); neither takes part in comparisons or reports.
    """

    net: PointNet
    converged: bool
    rounds: int
    samples: int = field(default=0, compare=False)
    queried: int = field(default=0, compare=False)


def canonical_rows(packed: np.ndarray) -> np.ndarray:
    """Rows of a packed set in canonical point order, one row per distinct point.

    A stable lexsort on the columns, the first most significant, orders rows
    as ``sorted(..., key=canonical_key)`` orders points.  Of each run of equal
    rows the first (earliest) one is kept, as ``set`` keeps the first of equal
    points; -0.0 and 0.0 compare equal in both.
    """
    order = np.lexsort(packed.T[::-1])
    ranked = packed[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order[first]


#: alive rows that one step of `_greedy_separate` decides among themselves,
#: from a dense block whose cost grows with the square of this count
_LEADERS = 48


def _greedy_separate(space: BicombedSpace, cands, eps: float) -> np.ndarray:
    """Rows of the packed candidates that a greedy eps/2 separation keeps.

    Candidates are taken in row order, and each is kept when it lies at least
    eps/2 from every earlier keeper.  The sweep takes the next _LEADERS rows
    still alive and decides them in order from their dense distance block
    (``space.dist_matrix``): a row still alive when its turn comes is kept
    and kills its later rows closer than eps/2.  The block's keepers then
    kill every later alive row closer than eps/2 to one of them, so each row
    that reaches a block lies at least eps/2 from every earlier keeper.
    Linear spaces find those rows among the hits of one KD-tree over all
    candidates within eps/2 (1 + _BALL_MARGIN), each re-decided by the exact
    ``paired_dist``; other spaces take ``space.min_dist`` from the later
    alive rows to the keepers.  Both equal the distance matrix entry bit for
    bit, so eps/2 ties fall as that entry says.
    """
    n, r = len(cands), eps / 2
    alive = np.ones(n, dtype=bool)
    # an unbalanced tree builds faster, and a sweep asks it only a few queries
    tree = (cKDTree(cands, balanced_tree=False, compact_nodes=False)
            if space.linear_p is not None and n else None)
    kept, lo = [np.empty(0, dtype=np.int64)], 0
    while True:
        rows = np.flatnonzero(alive[lo:])[:_LEADERS] + lo
        if not len(rows):
            break
        B = cands[rows]
        near = np.triu(space.dist_matrix(B, B).T < r, k=1)
        ok = np.ones(len(rows), dtype=bool)
        for i in np.flatnonzero(near.any(axis=1)).tolist():
            if ok[i]:
                ok &= ~near[i]
        keep, lo = rows[ok], int(rows[-1]) + 1
        kept.append(keep)
        if tree is None:
            later = np.flatnonzero(alive[lo:]) + lo
            if len(later):
                alive[later[space.min_dist(cands[later], cands[keep]) < r]] = False
            continue
        found = tree.query_ball_point(cands[keep], r * (1.0 + _BALL_MARGIN), p=space.linear_p,
                                      return_sorted=False)
        counts = np.fromiter(map(len, found), dtype=np.int64, count=len(found))
        hits = np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64,
                           count=int(counts.sum()))
        owners = np.repeat(keep, counts)
        later = (hits >= lo) & alive[hits]
        hits, owners = hits[later], owners[later]
        alive[hits[space.paired_dist(cands[hits], cands[owners]) < r]] = False
    return np.concatenate(kept)


#: cell side of the cover grid, as a fraction of the radius r: eps/8 for hull
#: closure's r = eps/2
_COVER_CELL = 0.25
#: relative margin of the cell certificate, for rounding in the nearest
#: distances, the cell centres and the cell of a sample
_COVER_MARGIN = 1e-9
#: sample rows per slice of the cell lookup, to keep its temporaries small
_COVER_SLICE = 1 << 15


class _CellCover:
    """Grid cells certified to lie within r of a growing net, kept for all
    the rounds of one hull closure.

    The grid covers the box of the space's ``cover_frame`` at side r/4,
    doubled until it has at most BLOCK_ENTRIES cells.  Each cell keeps one
    float, its centre's nearest distance to the net, computed the first time
    a sample lands in the cell (inf until then) and lowered by the rows each
    round inserts.  A cell is covered when that distance plus the cell's
    half-diagonal (h/2 n^(1/p)) is below r, less relative margins and the
    frame's slack: by the triangle inequality every sample in it then lies
    within r of the net, and a covered cell stays covered as the net grows.
    Spaces without a frame, and grids whose cells are too coarse to certify,
    get a cover with no cells.
    """

    def __init__(self, space: BicombedSpace, seed_packed, r: float):
        self.space, self.r = space, r
        self.samples = self.queried = 0
        self.dist = None
        frame = space.cover_frame(seed_packed) if r > 0 else None
        if frame is None:
            return
        lo, hi, m = frame.lo, frame.hi, _COVER_MARGIN
        h = _COVER_CELL * r
        while math.prod((np.floor((hi - lo) / h) + 1).tolist()) > BLOCK_ENTRIES:
            h *= 2.0
        half_diag = h / 2 * (1.0 if math.isinf(frame.p) else len(lo) ** (1.0 / frame.p))
        scale = max(np.abs(lo).max(), np.abs(hi).max())
        limit = r * (1 - m) - half_diag * (1 + m) - m * scale - frame.slack
        if limit > 0:
            self.frame, self.lo, self.h, self.limit = frame, lo, h, limit
            self.cells = (np.floor((hi - lo) / h) + 1).astype(np.intp)
            self.dist = np.full(int(np.prod(self.cells)), np.inf)

    def far_rows(self, S, index) -> np.ndarray:
        """Rows of the packed samples S at nearest distance >= r from the
        net that `index` holds; always exactly
        ``np.nonzero(index.min_dist(S) >= r)[0]``.  A sample in a covered
        cell is answered without a query; every other one, a sample off the
        grid included, takes the index's query."""
        n = len(S)
        self.samples += n
        if self.dist is None:
            self.queried += n
            return np.flatnonzero(index.min_dist(S) >= self.r)
        X = self.frame.coords(S)
        rows = np.concatenate([a + self._open_rows(X[a : a + _COVER_SLICE], index)
                               for a in range(0, n, _COVER_SLICE)])
        self.queried += len(rows)
        return rows[index.min_dist(S[rows]) >= self.r]

    def _open_rows(self, X: np.ndarray, index) -> np.ndarray:
        """Rows of the coordinate rows X in no covered cell, once the cells
        that they are the first to land in have their centres queried."""
        cell = self._cells(X)
        on = np.flatnonzero(cell >= 0)
        cell = cell[on]
        d = self.dist[cell]
        fresh = np.isinf(d)
        if fresh.any():
            mark = np.zeros(len(self.dist), dtype=bool)
            mark[cell[fresh]] = True
            hit = np.flatnonzero(mark)
            self.dist[hit] = index.min_dist(self._centres(hit))
            d[fresh] = self.dist[cell[fresh]]
            self.queried += len(hit)
        open_rows = np.ones(len(X), dtype=bool)
        open_rows[on] = d >= self.limit
        return np.flatnonzero(open_rows)

    def insert(self, packed_new) -> None:
        """Lower the distances of the visited cells not yet covered to the
        rows just added to the net."""
        if self.dist is None:
            return
        stale = np.flatnonzero(np.isfinite(self.dist) & (self.dist >= self.limit))
        if len(stale):
            self.queried += len(stale)
            d = self.space.make_index(packed_new).min_dist(self._centres(stale))
            self.dist[stale] = np.minimum(self.dist[stale], d)

    def _cells(self, X: np.ndarray) -> np.ndarray:
        """Row-major cell number of each coordinate row, -1 off the grid."""
        flat, inside = np.zeros(len(X)), np.ones(len(X), dtype=bool)
        for j in range(X.shape[1]):
            k = np.floor((X[:, j] - self.lo[j]) / self.h)
            inside &= (k >= 0) & (k < self.cells[j])
            flat = flat * self.cells[j] + k
        return np.where(inside, flat, -1).astype(np.intp)

    def _centres(self, flat: np.ndarray):
        k = np.stack(np.unravel_index(flat, self.cells), axis=1)
        return self.frame.point(self.lo + (k + 0.5) * self.h)


def _pair_blocks(n: int, per_pair: int, lo: int = 0):
    """Yield (I, J) index arrays covering the pairs i < j < n with j >= lo in
    row-major order, at most BLOCK_ENTRIES / per_pair pairs (or one row) each."""
    cols = np.arange(lo, n)
    for rows in _row_blocks(n - 1, (n - lo) * per_pair):
        I, J = np.nonzero(np.arange(n - 1)[rows, None] < cols)
        yield I + rows.start, J + lo


def hull_closure(
    space: BicombedSpace,
    seed: PointNet,
    segment_samples: int = 8,
    max_rounds: int = 64,
) -> HullResult:
    """Iterated segment-closure approximation of the smallest closed convex set
    containing the seed.

    Each round samples every segment between current net points at
    segment_samples+1 parameters and keeps the samples at least eps/2 from
    the net.  One cell cover (`_CellCover`), built from the seed, serves all
    rounds: it grids a box that is convex in the space and holds the seed,
    so it holds every sample in exact arithmetic.  The coordinates are the
    packed rows on lp and l2 x l2 nets, and (x1, x2) on the
    hyperboloid, where d_H <= |delta(x1, x2)|_2.  A cell's centre is queried
    the first time a sample lands in it, and afterwards only against the
    rows inserted since; a sample in a cell certified within eps/2 of the
    net skips its query, and every other sample takes the exact
    ``index.min_dist(...) >= eps/2``, so the same samples are kept.  Other
    spaces get a cover with no cells.  The net stays packed rows throughout:
    the kept samples, joined once per round, pass in canonical order
    (``canonical_rows``) through ``_greedy_separate``, whose keepers kill
    their later neighbours block by block, and the rows it accepts are
    appended, so the result does not depend on scan order.
    Stops at the first round that inserts nothing, or returns
    converged=False when max_rounds is exhausted.
    """
    if seed.space is not space:
        raise InvalidInputError("seed net belongs to a different space")
    if segment_samples < 2:
        raise InvalidInputError("segment_samples must be >= 2")
    if max_rounds < 1:
        raise InvalidInputError("max_rounds must be >= 1")

    eps = seed.eps
    packed = seed.packed
    # endpoint samples coincide with stored points and can never be inserted,
    # so only strictly interior parameters are queried
    ts = np.array([k / segment_samples for k in range(1, segment_samples)])
    n_old = 0
    cover = _CellCover(space, packed, eps / 2)

    def result(converged: bool, rounds: int) -> HullResult:
        net = PointNet(space, packed[canonical_rows(packed)], eps)
        return HullResult(net=net, converged=converged, rounds=rounds,
                          samples=cover.samples, queried=cover.queried)

    for round_no in range(1, max_rounds + 1):
        index = space.make_index(packed)
        n_total = len(packed)
        survivors = []
        # after round 1 only pairs touching new points need sampling: a sample
        # rejected against an earlier, smaller net stays within eps/2 of the
        # grown net, so old-old pairs can never contribute again
        for I, J in _pair_blocks(n_total, len(ts), n_old):
            S = space.segment_batch(packed, I, J, ts)
            keep = cover.far_rows(S, index)
            if len(keep):
                survivors.append(S[keep])
        if not survivors:
            return result(True, round_no)
        cands = np.concatenate(survivors)
        cands = cands[canonical_rows(cands)]
        accepted = cands[_greedy_separate(space, cands, eps)]
        # keep insertion order: indices >= n_old are exactly this round's points
        n_old = n_total
        packed = np.concatenate([packed, accepted])
        cover.insert(accepted)

    return result(False, max_rounds)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _worst_sample(space: BicombedSpace, net: PointNet, ts: np.ndarray, score):
    """The first largest score over all pairs of the net, in pair-then-column
    order, as (score, x, y, column); None on fewer than two points.  score maps
    a block's ``segment_batch`` samples at ts to one row of floats per pair."""
    best, at = -math.inf, None
    for I, J in _pair_blocks(len(net), len(ts)):
        vals = score(space.segment_batch(net.packed, I, J, ts)).reshape(len(I), -1)
        r, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[r, k] > best:
            best, at = float(vals[r, k]), (int(I[r]), int(J[r]), int(k))
    return None if at is None else (best, net.points[at[0]], net.points[at[1]], at[2])


@dataclass(frozen=True)
class NetWitness:
    x: Point
    y: Point
    t: float
    dist: float


#: `is_convex_net` samples each segment at k/_CONVEX_SAMPLES, 0 < k < _CONVEX_SAMPLES
_CONVEX_SAMPLES = 8


def is_convex_net(space: BicombedSpace, C: PointNet) -> tuple[bool, NetWitness | None]:
    """Whether every sampled segment between net points stays within eps of the net.

    On failure returns the worst witness: the sample farthest from the net.
    """
    if C.space is not space:
        raise InvalidInputError("net belongs to a different space")
    ts = np.arange(1, _CONVEX_SAMPLES) / _CONVEX_SAMPLES
    worst = _worst_sample(space, C, ts, C.index.min_dist)
    if worst is None or worst[0] <= C.eps:
        return True, None
    dist, x, y, k = worst
    return False, NetWitness(x=x, y=y, t=float(ts[k]), dist=dist)


@dataclass(frozen=True)
class FunctionalWitness:
    x: Point
    y: Point
    t: float
    defect: float


@dataclass(frozen=True)
class FunctionalCheck:
    ok: bool
    max_defect: float
    witness: FunctionalWitness | None


def check_convex_functional(
    space: BicombedSpace,
    phi,
    domain: PointNet,
    grid: int = 16,
    tol: float = 1e-9,
) -> FunctionalCheck:
    """Midpoint-convexity check of t -> phi([x,y](t)) over all domain pairs.

    The defect at an interior grid node is f(t_k) - (f(t_{k-1}) + f(t_{k+1}))/2;
    the check passes when the largest defect is at most tol.
    """
    if grid < 2:
        raise InvalidInputError("functional-check grid must be >= 2")
    ts = np.array([k / grid for k in range(grid + 1)])

    def defects(S):
        vals = np.asarray(phi.evaluate_packed(space, S), dtype=float).reshape(-1, grid + 1)
        return vals[:, 1:-1] - 0.5 * (vals[:, :-2] + vals[:, 2:])

    worst = _worst_sample(space, domain, ts, defects)
    if worst is None:
        return FunctionalCheck(ok=True, max_defect=0.0, witness=None)
    defect, x, y, k = worst
    if defect <= tol:
        return FunctionalCheck(ok=True, max_defect=defect, witness=None)
    return FunctionalCheck(False, defect, FunctionalWitness(x, y, float(ts[k + 1]), defect))


def hausdorff(space: BicombedSpace, A: PointNet, B: PointNet) -> float:
    """Symmetric Hausdorff distance between two stored point sets."""
    return max(directed_excess(space, A, B), directed_excess(space, B, A))


def directed_excess(space: BicombedSpace, A: PointNet, B: PointNet) -> float:
    """One-sided excess: max over A of the distance into B."""
    if A.space is not space or B.space is not space:
        raise InvalidInputError("nets belong to a different space")
    if not len(A) or not len(B):
        raise InvalidInputError("Hausdorff distance needs non-empty nets")
    return float(B.index.min_dist(A.packed).max())
