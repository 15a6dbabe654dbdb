"""Discretized convexity machinery: finite point nets, distance-to-net, iterated
segment-closure hulls, convex-net and convex-functional checks, and Hausdorff
distance between nets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .space_core import BLOCK_ENTRIES, BicombedSpace, InvalidInputError, Point, _row_blocks


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
    """Real-valued map on points: distance to an anchor, distance to a net's
    stored points, distance to the convex hull of a net's stored points, a
    linear functional (coordinate spaces only), or a constant.

    ``dist_to_hull`` is exactly convex along segments (the distance to a convex
    set is).  ``dist_to_net`` is a minimum over finitely many points and is
    convex only up to kinks of the order of the net spacing; it exceeds
    ``dist_to_hull`` by at most how far the net is from covering its hull.
    ``dist_to_hull`` needs a space with an exact hull route (see
    ``BicombedSpace.hull_dist``) and raises InvalidInputError elsewhere.
    """

    kind: str
    anchor: Point | None = None
    target: PointNet | None = None
    coefficients: tuple[float, ...] | None = None
    value: float = 0.0

    @staticmethod
    def dist_to_point(anchor: Point) -> "ConvexFunctional":
        return ConvexFunctional(kind="dist_to_point", anchor=anchor)

    @staticmethod
    def dist_to_net(target: PointNet) -> "ConvexFunctional":
        return ConvexFunctional(kind="dist_to_net", target=target)

    @staticmethod
    def dist_to_hull(target: PointNet) -> "ConvexFunctional":
        return ConvexFunctional(kind="dist_to_hull", target=target)

    @staticmethod
    def linear(coefficients: Sequence[float]) -> "ConvexFunctional":
        return ConvexFunctional(kind="linear", coefficients=tuple(float(c) for c in coefficients))

    @staticmethod
    def constant(value: float) -> "ConvexFunctional":
        return ConvexFunctional(kind="constant", value=float(value))

    def scaled(self, factor: float) -> "_ScaledFunctional":
        """Same functional scaled by a constant (negative factors break convexity)."""
        return _ScaledFunctional(self, factor)

    def label(self) -> str:
        if self.kind == "linear":
            return f"linear{self.coefficients}"
        if self.kind == "constant":
            return f"constant({self.value})"
        return self.kind

    def evaluate(self, space: BicombedSpace, p: Point) -> float:
        return float(self.evaluate_packed(space, space.pack([p]))[0])

    def evaluate_packed(self, space: BicombedSpace, packed) -> np.ndarray:
        if self.kind == "dist_to_point":
            return space.dist_matrix(space.pack([self.anchor]), packed)[0]
        if self.kind in ("dist_to_net", "dist_to_hull"):
            if self.target is None or not len(self.target):
                raise InvalidInputError(f"{self.kind} functional needs a non-empty net")
            target_space = self.target.space
            to_set = target_space.min_dist if self.kind == "dist_to_net" else target_space.hull_dist
            return to_set(packed, self.target.packed)
        if self.kind == "linear":
            if not space.coordinate_rows:
                raise InvalidInputError(
                    f"linear functionals need coordinate points, not points of {space.description}")
            if packed.shape[1] != len(self.coefficients):
                raise InvalidInputError("linear functionals require matching coordinate points")
            return packed @ np.asarray(self.coefficients)
        if self.kind == "constant":
            return np.full(len(packed), self.value)
        raise InvalidInputError(f"unknown functional kind {self.kind!r}")


class _ScaledFunctional:
    """Wrapper multiplying a functional by a constant; used for negative controls."""

    def __init__(self, base: ConvexFunctional, factor: float):
        self.base = base
        self.factor = factor
        self.kind = f"{factor}*{base.kind}"

    def label(self) -> str:
        return f"{self.factor}*{self.base.label()}"

    def evaluate(self, space, p):
        return self.factor * self.base.evaluate(space, p)

    def evaluate_packed(self, space, packed):
        return self.factor * self.base.evaluate_packed(space, packed)


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


#: relative half-width of the band around eps/2 in which `_greedy_separate`
#: re-decides an index distance with the space's exact ``min_dist``
_TIE_BAND = 1e-9


def _greedy_separate(space: BicombedSpace, cands, eps: float) -> np.ndarray:
    """Rows of the packed candidates that a greedy eps/2 separation keeps.

    Candidates are taken in row order, and each is kept when it lies at least
    eps/2 from every earlier keeper.  Rows go in chunks of 512.  A chunk is
    tested against the keepers of earlier chunks through the space's nearest
    index over them (a KD-tree on coordinate spaces).  An index distance
    within eps/2 * (1 +- _TIE_BAND) is re-decided by the exact
    ``space.min_dist``, so eps/2 ties fall as that exact distance says.  The
    rows that pass are decided in order from their pairs closer than eps/2
    (``space.close_pairs``): a row still alive when its turn comes is kept
    and kills its later partners.  A row already killed can neither be kept
    nor kill a later row, so it is left out.
    """
    kept, n = [np.empty(0, dtype=np.int64)], len(cands)
    r = eps / 2
    for lo in range(0, n, 512):
        rows = np.arange(lo, min(lo + 512, n))
        if lo:
            acc, chunk = cands[np.concatenate(kept)], cands[rows]
            d = space.make_index(acc).min_dist(chunk)
            tie = np.nonzero(np.abs(d - r) <= r * _TIE_BAND)[0]
            if len(tie):
                d[tie] = space.min_dist(chunk[tie], acc)
            rows = rows[d >= r]
        I, J = space.close_pairs(cands[rows], r)
        ok = np.ones(len(rows), dtype=bool)
        heads, firsts = np.unique(I, return_index=True)
        for i, a, b in zip(heads.tolist(), firsts.tolist(), firsts[1:].tolist() + [len(I)]):
            if ok[i]:
                ok[J[a:b]] = False
        kept.append(rows[ok])
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


def _pair_blocks(n_old: int, n_total: int, block_pairs: int):
    """Yield (I, J) index arrays covering the pairs i < j with j >= n_old:
    every pair when n_old is 0.

    After the first round of a closure only pairs touching newly inserted
    points need sampling: a sample rejected against an earlier, smaller net
    stays within eps/2 of the grown net, so old-old pairs can never
    contribute again.
    """
    ranges = [(i, max(i + 1, n_old), n_total) for i in range(n_total)]
    buf_i: list[np.ndarray] = []
    buf_j: list[np.ndarray] = []
    count = 0
    for i, lo, hi in ranges:
        if lo >= hi:
            continue
        js = np.arange(lo, hi, dtype=np.int64)
        buf_i.append(np.full(len(js), i, dtype=np.int64))
        buf_j.append(js)
        count += len(js)
        if count >= block_pairs:
            yield np.concatenate(buf_i), np.concatenate(buf_j)
            buf_i, buf_j, count = [], [], 0
    if count:
        yield np.concatenate(buf_i), np.concatenate(buf_j)


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
    (``canonical_rows``) through ``_greedy_separate``, and the rows it
    accepts are appended, so the result does not depend on scan order.
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
    block_pairs = max(1, 400_000 // (segment_samples + 1))
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
        for I, J in _pair_blocks(n_old, n_total, block_pairs):
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


@dataclass(frozen=True)
class NetWitness:
    x: Point
    y: Point
    t: float
    dist: float


def is_convex_net(
    space: BicombedSpace, C: PointNet, segment_samples: int = 8
) -> tuple[bool, NetWitness | None]:
    """Whether every sampled segment between net points stays within eps of the net.

    On failure returns the worst witness: the sample farthest from the net.
    """
    if C.space is not space:
        raise InvalidInputError("net belongs to a different space")
    ts = np.array([k / segment_samples for k in range(1, segment_samples)])
    packed = C.packed
    index = C.index
    n = len(C)
    block_pairs = max(1, 400_000 // (segment_samples + 1))
    worst = None
    worst_dist = C.eps
    for I, J in _pair_blocks(0, n, block_pairs):
        S = space.segment_batch(packed, I, J, ts)
        dmin = index.min_dist(S).reshape(len(I), len(ts))
        if dmin.max() > worst_dist:
            r, k = np.unravel_index(int(np.argmax(dmin)), dmin.shape)
            worst_dist = float(dmin[r, k])
            worst = NetWitness(
                x=C.points[int(I[r])],
                y=C.points[int(J[r])],
                t=float(ts[k]),
                dist=worst_dist,
            )
    return worst is None, worst


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
    packed = domain.packed
    n = len(domain)
    worst = -math.inf
    witness = None
    block_pairs = max(1, 200_000 // (grid + 1))
    for I, J in _pair_blocks(0, n, block_pairs):
        S = space.segment_batch(packed, I, J, ts)
        vals = np.asarray(phi.evaluate_packed(space, S), dtype=float).reshape(len(I), grid + 1)
        defects = vals[:, 1:-1] - 0.5 * (vals[:, :-2] + vals[:, 2:])
        r, k = np.unravel_index(int(np.argmax(defects)), defects.shape)
        if defects[r, k] > worst:
            worst = float(defects[r, k])
            witness = FunctionalWitness(
                x=domain.points[int(I[r])],
                y=domain.points[int(J[r])],
                t=float(ts[k + 1]),
                defect=worst,
            )
    if worst == -math.inf:
        worst = 0.0
        witness = None
    ok = worst <= tol
    return FunctionalCheck(ok=ok, max_defect=worst, witness=witness if not ok else None)


def hausdorff(space: BicombedSpace, A: PointNet, B: PointNet) -> float:
    """Symmetric Hausdorff distance between two stored point sets."""
    if A.space is not space or B.space is not space:
        raise InvalidInputError("nets belong to a different space")
    if not len(A) or not len(B):
        raise InvalidInputError("Hausdorff distance needs non-empty nets")
    ab = float(B.index.min_dist(A.packed).max())
    ba = float(A.index.min_dist(B.packed).max())
    return max(ab, ba)


def directed_excess(space: BicombedSpace, A: PointNet, B: PointNet) -> float:
    """One-sided excess: max over A of the distance into B."""
    return float(B.index.min_dist(A.packed).max())
