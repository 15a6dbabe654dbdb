"""Discretized extremal-point machinery: argmax faces of convex functionals,
chord-based extremal verdicts for points and sets, batch extremal-point
detection, and the farthest-point descent that drives a face down to a single
point.

A point p of a net C fails to be extremal when some sampled chord of C passes
through p's hit ball at a strictly interior parameter while both chord
endpoints stay outside the exclusion radius delta.  The exclusion radius keeps
chords that merely end near p from counting as crossings; without it every
boundary point of a smooth set would be misclassified.

One chord scan serves is_extremal_point, extremal_points and
is_extremal_set; its target is a packed set, and a point is a set of one.
Its candidate step, the net's chord finder (``make_chord_finder``), proposes
a superset of the chords passing within the hit radius of some target: by
reflected-endpoint ball queries where segments are linear (lp, l^2 x l^2),
and by the alignment filter d(i,q) + d(j,q) < d(i,j) + 2*eps elsewhere.
Its confirm step is one loop, `_first_hit`: it evaluates the candidates in
their order with ``chord_dists``, in doubling batches, and returns the first
one its test accepts.  A point's test is a sample strictly within eps; a
set's is a crossing, tried on the candidates in row-major pair order, so the
witness is the first crossing pair of the full pair order.

extremal_points runs that scan only on the points a batched first pass
(`_first_pass`) leaves open.  The pass tries a few chords per point at once,
fitted from the net's distance rows, and kills a point only on a chord the
scan would accept too.  On linear nets it also proves points extremal from
the same rows: a halfspace that holds every row beyond delta and misses the
point by more than eps in the dual norm holds every chord the scan could
evaluate (`_supported`).  So the survivors are those of the scan alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import ConvexFunctional, PointNet
from .space_core import BLOCK_ENTRIES, BicombedSpace, InvalidInputError, Point


@dataclass(frozen=True)
class ExtremalParams:
    """Discretization knobs for extremal detection.

    eps is the chord hit radius, delta the endpoint exclusion radius
    (delta >= eps), t_grid the number of strictly interior chord parameters,
    and face_tol the argmax band width.
    """

    eps: float
    delta: float
    t_grid: int = 7
    face_tol: float = 0.0125

    def __post_init__(self):
        for name in ("eps", "delta", "face_tol"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eps <= 0:
            raise InvalidInputError("hit radius eps must be positive")
        if self.delta < self.eps:
            raise InvalidInputError("endpoint exclusion delta must be >= eps")
        if self.t_grid < 3:
            raise InvalidInputError("t_grid must be >= 3")
        if self.face_tol <= 0:
            raise InvalidInputError("face_tol must be positive")

    @staticmethod
    def defaults(net: PointNet) -> "ExtremalParams":
        """Spec defaults for a net: hit radius = net resolution, exclusion radius
        sqrt(eps * diam) (the sag threshold below which boundary chords of a
        smooth set falsely hit their own neighbourhood), face_tol = eps/4."""
        eps = net.eps
        diam = max(net.diameter, eps)
        return ExtremalParams(
            eps=eps, delta=max(eps, math.sqrt(eps * diam)), t_grid=7, face_tol=eps / 4
        )

    def interior_ts(self) -> np.ndarray:
        g = self.t_grid
        return np.array([k / (g + 1) for k in range(1, g + 1)])


def argmax_face(
    space: BicombedSpace, E: PointNet, phi, face_tol: float
) -> PointNet:
    """Stored points where phi comes within face_tol of its maximum over E."""
    if E.space is not space:
        raise InvalidInputError("net belongs to a different space")
    vals = np.asarray(phi.evaluate_packed(space, E.packed), dtype=float)
    return E.take(np.flatnonzero(vals >= vals.max() - face_tol))


@dataclass(frozen=True)
class ChordWitness:
    """A chord refuting extremality: endpoints, the hit parameter, and for set
    verdicts the parameter at which the chord leaves the eps-neighbourhood."""

    x: Point
    y: Point
    t_enter: float
    t_exit: float | None = None


@dataclass(frozen=True)
class ExtremalVerdict:
    extremal: bool
    witness: ChordWitness | None


#: pairs in the confirm step's first chord batch; later batches double, up to
#: a quarter of a distance block of chord entries (lp and hyperbolic chords
#: also hold sample coordinates and their differences to the targets)
_FIRST_BATCH = 64


def _first_hit(space: BicombedSpace, C: PointNet, blocks, ts: np.ndarray, targets, hit):
    """Confirm step of every chord scan: the first pair of the (I, J) blocks,
    in candidate order, that `hit` accepts, as (i, j, dd); None if none is.
    dd is the pair's row of ``chord_dists`` from its samples at ts to the
    nearest target, and hit maps a batch of such rows to one bool per pair."""
    max_batch = max(1, BLOCK_ENTRIES // 4 // (len(ts) * len(targets)))
    batch = min(_FIRST_BATCH, max_batch)
    for I, J in blocks:
        lo = 0
        while lo < len(I):
            Ib, Jb = I[lo : lo + batch], J[lo : lo + batch]
            dd = space.chord_dists(C.packed, Ib, Jb, ts, targets).min(axis=2)
            found = np.flatnonzero(hit(dd))
            if len(found):
                r = found[0]
                return int(Ib[r]), int(Jb[r]), dd[r]
            lo += len(Ib)
            batch = min(2 * batch, max_batch)
    return None


def _first_chord(
    space: BicombedSpace, C: PointNet, target, d_to_target: np.ndarray, params: ExtremalParams
) -> tuple[int, int, float] | None:
    """The first chord of C found to hit the target ball, as (i, j, t), i < j.

    Of the pairs with both ends beyond delta that the chord finder proposes,
    `_first_hit` accepts the first with a sample strictly within eps, so a
    verdict rests only on evaluated chords, never on the candidate arithmetic.
    """
    elig = np.nonzero(d_to_target > params.delta)[0]
    if len(elig) < 2:
        return None
    ts = params.interior_ts()
    blocks = C.chord_finder.candidates(target, d_to_target[:, None], elig, params.eps, ts)
    found = _first_hit(space, C, blocks, ts, target, lambda dd: (dd < params.eps).any(axis=1))
    if found is None:
        return None
    i, j, dd = found
    return i, j, float(ts[np.argmax(dd < params.eps)])


def is_extremal_point(
    space: BicombedSpace, C: PointNet, p: Point, params: ExtremalParams
) -> ExtremalVerdict:
    """Chord-crossing test for a single point: p fails to be extremal exactly
    when some chord of stored points, both beyond delta from p, passes
    strictly within eps of p at an interior grid parameter.

    Runs the same scan as extremal_points; the witness is the first chord its
    confirm step finds, with t_enter the first hitting parameter.
    """
    if C.space is not space:
        raise InvalidInputError("net belongs to a different space")
    space.validate_point(p)
    target = space.pack([p])
    dpx = space.dist_matrix(target, C.packed)[0]
    if float(dpx.min()) > params.eps:
        raise InvalidInputError("query point lies farther than eps from the net")
    found = _first_chord(space, C, target, dpx, params)
    if found is None:
        return ExtremalVerdict(extremal=True, witness=None)
    i, j, t = found
    return ExtremalVerdict(
        extremal=False, witness=ChordWitness(x=C.points[i], y=C.points[j], t_enter=t)
    )


@dataclass(frozen=True, eq=False)
class ExtremalScan:
    """Batch extremal detection outcome: the rows of the scanned net that
    survive, and their sub-net, taken once.  Empty results carry a diagnostic
    instead of raising, since emptiness signals a discretization failure.
    pass_killed and pass_proven count the targets the first pass killed and
    proved extremal; no report holds them."""

    rows: np.ndarray
    survivors: PointNet
    diagnostic: str | None
    pass_killed: int
    pass_proven: int

    @property
    def points(self) -> tuple[Point, ...]:
        return self.survivors.points

    @property
    def is_empty(self) -> bool:
        return not len(self.survivors)

    def net(self) -> PointNet:
        if self.is_empty:
            raise InvalidInputError("extremal set came back empty; " + (self.diagnostic or ""))
        return self.survivors


#: x's tried per target by the first pass
_PASS_XS = 4
#: relative margin by which the first pass's tests are stricter than the
#: scan's: both chord ends beyond delta (1 + band), a sample within
#: eps (1 - band).  It dwarfs the rounding in which the two differ (the
#: hyperbolic Gram block, the tree's Gromov-product chord distances)
_PASS_BAND = 1e-9


def _dual_exponent(p: float) -> float:
    """p* with 1/p + 1/p* = 1 (1 and inf swap)."""
    if p == 1.0:
        return math.inf
    return 1.0 if math.isinf(p) else p / (p - 1.0)


def _dual_norms(n: np.ndarray, p: float) -> np.ndarray:
    """Row norms of n in the dual exponent of p.  Each row is divided by its
    largest absolute entry first: near p = 1 the dual exponent is large
    (about 10^4 at p = 1.0001), and the powers of the raw entries would
    underflow to 0 below 1 or overflow above it."""
    s = np.abs(n).max(axis=1)
    unit = n / np.where(s > 0.0, s, 1.0)[:, None]
    return s * np.linalg.norm(unit, ord=_dual_exponent(p), axis=1)


def _proof_margin(eps: float, scale: float) -> float:
    """Least distance, per unit of the dual norm of n, by which a supporting
    halfspace <n, .> <= h must miss a target to prove it: eps beyond the
    band, plus the band times the net's largest absolute coordinate for the
    rounding of chord samples and of the products with n."""
    return eps * (1.0 + _PASS_BAND) + _PASS_BAND * scale


def _supported(space: BicombedSpace, P: np.ndarray, Q: np.ndarray, Dq: np.ndarray,
               params: ExtremalParams) -> np.ndarray:
    """Which targets Q of a linear net (``space.linear_p``) a supporting
    halfspace proves extremal, from their distance rows Dq.

    The rows beyond delta (1 - band) of q hold every row the scan may count
    as eligible for q.  With n = q - their mean and h = max <n, y> over
    them, every chord sample of two such rows lies in <n, .> <= h, so by
    Hoelder it lies at least (<n, q> - h) / ||n||_* from q, the dual norm of
    the space's p.  Where that exceeds eps (by `_proof_margin`), no chord the
    scan evaluates hits q, and q survives the scan.
    """
    rows = Dq > params.delta * (1.0 - _PASS_BAND)
    W = rows.astype(np.float64)
    n = P[Q] - (W @ P) / np.maximum(W.sum(axis=1), 1.0)[:, None]
    h = np.where(rows, n @ P.T, -np.inf).max(axis=1)
    gap = (n * P[Q]).sum(axis=1) - h
    dual = _dual_norms(n, space.linear_p)
    return gap > dual * _proof_margin(params.eps, float(np.abs(P).max()))


def _first_pass(space: BicombedSpace, C: PointNet, params: ExtremalParams) -> np.ma.MaskedArray:
    """Mask of the stored points that one batched sweep proves non-extremal,
    with the points it proves extremal masked out.

    On linear nets a target whose distance row gives it a supporting
    halfspace (`_supported`) is proven and takes no chords.  Each other
    target q tries one chord per (x, t): x among the _PASS_XS eligible rows
    nearest q, t >= 1/2 on the grid, and y the eligible row whose distances
    best fit q = [x, y](t), the y minimising
    |t d(x,y) - d(x,q)| + |t d(q,y) - (1-t) d(x,q)|.  Every such chord is
    evaluated at every interior t, with its ends in stored order as the scan
    evaluates it.  A kill is a chord the scan counts as eligible and hitting
    (by _PASS_BAND), and its chord finder proposes every such chord, so the
    scan would kill q as well: no survivor moves.

    Targets go in row blocks of at most BLOCK_ENTRIES // 4 entries of
    distance rows (m per x) and fitted parameters (len(ts) per x), and their
    chords in chunks of at most as many samples, so memory stays bounded at
    any t_grid.

    The result is a masked bool array: its data marks the killed targets and
    its mask the proven ones, read with np.ma.getdata and np.ma.getmaskarray.
    Proven targets are dropped from their block before any chord is tried,
    so they are never killed and their data is False; reductions such as
    .any(), .sum() and np.flatnonzero, which skip masked entries, therefore
    count the killed targets exactly as on the data.  A plain bool array
    (no mask) proves nothing.
    """
    P, m = C.packed, len(C)
    ts = params.interior_ts()
    far = params.delta * (1.0 + _PASS_BAND)
    k = min(_PASS_XS, m)
    killed = np.zeros(m, dtype=bool)
    proven = np.zeros(m, dtype=bool)
    per_block = max(1, BLOCK_ENTRIES // 4 // max(k * max(m, len(ts)), 1))
    per_chunk = max(1, BLOCK_ENTRIES // 4 // len(ts))
    for lo in range(0, m, per_block):
        Q = np.arange(lo, min(lo + per_block, m))
        Dq = space.dist_matrix(P[Q], P)
        if space.linear_p is not None:
            proven[Q] = _supported(space, P, Q, Dq, params)
            open_ = ~proven[Q]
            Q, Dq = Q[open_], Dq[open_]
            if not len(Q):
                continue
        elig = Dq > far
        xs = np.argpartition(np.where(elig, Dq, np.inf), k - 1, axis=1)[:, :k]
        ux, inv = np.unique(xs, return_inverse=True)
        DX = space.dist_matrix(P[ux], P)[inv.ravel()].reshape(len(Q), k, m)
        dxq = np.take_along_axis(Dq, xs, axis=1)[:, :, None]
        barred = np.where(elig, 0.0, np.inf)[:, None, :]
        score, fit = np.empty_like(DX), np.empty_like(DX)
        ys = []
        for t in ts[ts >= 0.5]:
            np.multiply(DX, t, out=score)
            score -= dxq
            np.abs(score, out=score)
            np.multiply(Dq[:, None, :], t, out=fit)
            fit -= (1.0 - t) * dxq
            np.abs(fit, out=fit)
            score += fit
            score += barred
            ys.append(score.argmin(axis=2))
        X, Y = np.broadcast_arrays(xs[:, :, None], np.stack(ys, axis=2))
        keep = np.take_along_axis(elig, xs, axis=1)[:, :, None] & (X != Y)
        qs = np.broadcast_to(Q[:, None, None], X.shape)[keep]
        I, J = np.minimum(X, Y)[keep], np.maximum(X, Y)[keep]
        for c in range(0, len(I), per_chunk):
            rows = slice(c, c + per_chunk)
            S = space.segment_batch(P, I[rows], J[rows], ts)
            d = space.paired_dist(S, P[np.repeat(qs[rows], len(ts))]).reshape(-1, len(ts))
            killed[qs[rows][(d < params.eps * (1.0 - _PASS_BAND)).any(axis=1)]] = True
    return np.ma.MaskedArray(killed, mask=proven)


def extremal_points(
    space: BicombedSpace, C: PointNet, params: ExtremalParams
) -> ExtremalScan:
    """All stored points of C passing the chord-crossing extremality test.

    First one batched pass over every stored point (`_first_pass`) settles
    what it can: on linear nets it proves the points a supporting halfspace
    separates from every chord beyond delta, and it kills the points it
    finds a hitting chord for, a few fitted chords per point.  Each point it
    leaves open is then scanned as is_extremal_point scans a query point,
    through the net's one chord finder.  In lp spaces and l^2 x l^2 products
    its candidate step is one reflected-endpoint ball query per (x, t); in
    every other space it is the alignment filter over one dense distance
    matrix of C.  A point survives when it is proven or no candidate chord
    confirms.  The pass settles only points the full scan settles the same
    way, so the survivors are those of the full scan alone.
    """
    if C.space is not space:
        raise InvalidInputError("net belongs to a different space")
    settled = _first_pass(space, C, params)
    killed, proven = np.ma.getdata(settled), np.ma.getmaskarray(settled)
    keep = proven.copy()
    for pi in np.flatnonzero(~(killed | proven)):
        target = C.packed[pi : pi + 1]
        d_to_p = space.dist_matrix(C.packed, target)[:, 0]
        keep[pi] = _first_chord(space, C, target, d_to_p, params) is None

    diagnostic = None
    rows = np.flatnonzero(keep)
    if not len(rows):
        diagnostic = (
            "no extremal points at this discretization; a compact convex set "
            "always has some, so retry with smaller eps or a tighter hit radius"
        )
    return ExtremalScan(rows, C.take(rows), diagnostic, int(killed.sum()), int(proven.sum()))


@dataclass(frozen=True)
class SetVerdict:
    extremal: bool
    witness: ChordWitness | None


def is_extremal_set(
    space: BicombedSpace, C: PointNet, E: PointNet, params: ExtremalParams
) -> SetVerdict:
    """Whether E behaves as an extremal subset of C under sampled chords.

    A witness is a chord that comes within the hit radius of E at a strictly
    interior parameter while sitting farther than the net resolution from E at
    parameters on both sides of the hit.  Requiring exits on both sides encodes
    that a violating chord crosses E rather than merely starting or ending near
    it: a chord rooted on E whose early samples are still inside the blur would
    otherwise witness against every face, including genuinely extremal ones.
    Entry uses params.eps and exit uses the coarser of params.eps and the net
    resolution, so gaps between the stored points of E never count as exits.

    Runs the chord scan of is_extremal_point with E as its target set and no
    endpoint exclusion: a crossing chord has an interior sample strictly
    within params.eps of E, so the chord finder proposes it.  The proposed
    pairs go in row-major order (i < j) through the confirm step; the witness
    is the first crossing pair with its first entry and exit parameters, the
    same chord a scan of every pair returns.
    """
    if C.space is not space or E.space is not space:
        raise InvalidInputError("nets belong to a different space")
    if not len(E):
        raise InvalidInputError("an extremal set must be non-empty")
    containment = float(C.index.min_dist(E.packed).max())
    if containment > params.eps:
        raise InvalidInputError(
            f"E is not contained in C up to eps (excess {containment:.3g})"
        )
    r_in = params.eps
    r_out = max(params.eps, C.eps)
    m = len(C)
    ts_int = params.interior_ts()
    ts_full = np.concatenate([[0.0], ts_int, [1.0]])
    d_to_E = space.dist_matrix(C.packed, E.packed)
    keys = [I * m + J for I, J in
            C.chord_finder.candidates(E.packed, d_to_E, np.arange(m), r_in, ts_int)]
    # sorted unique keys i*m + j are the pairs in row-major order
    pairs = np.divmod(np.unique(np.concatenate([np.empty(0, np.int64), *keys])), m)

    def crossings(dd):  # interior parameters within r_in, with exits on both sides
        out = dd > r_out
        before = np.logical_or.accumulate(out, axis=1)[:, :-2]
        after = np.logical_or.accumulate(out[:, ::-1], axis=1)[:, ::-1][:, 2:]
        return (dd[:, 1:-1] < r_in) & before & after

    found = _first_hit(space, C, [pairs], ts_full, E.packed,
                       lambda dd: crossings(dd).any(axis=1))
    if found is None:
        return SetVerdict(extremal=True, witness=None)
    i, j, dd = found
    t_enter = float(ts_full[1 + np.argmax(crossings(dd[None])[0])])
    t_exit = float(ts_full[np.argmax(dd > r_out)])
    return SetVerdict(False, ChordWitness(C.points[i], C.points[j], t_enter, t_exit))


#: step cap of the farthest-point descent
_DESCENT_MAX_ITERS = 50


@dataclass(frozen=True)
class DescentResult:
    """Endpoint of the farthest-point face descent plus its audit trail."""

    point: Point
    trace: tuple[int, ...]
    converged: bool
    iterations: int


def minimal_extremal_descent(
    space: BicombedSpace,
    C: PointNet,
    start: Point,
    params: ExtremalParams,
) -> DescentResult:
    """Drive a face down to a single point by repeatedly taking the argmax face
    of the distance to the current anchor.

    Each face is a subset of the previous one, so the cardinality trace never
    increases; while the anchor belongs to the current face and face_tol stays
    below the net separation, the anchor itself drops out and the trace strictly
    decreases, which forces termination on finite nets.  Stops when the face is
    a single stored point or its diameter is at most 2*eps, or after
    _DESCENT_MAX_ITERS steps.
    """
    if C.space is not space:
        raise InvalidInputError("net belongs to a different space")
    space.validate_point(start)
    if float(C.index.min_dist(space.pack([start]))[0]) > params.eps:
        raise InvalidInputError("descent start lies farther than eps from the net")

    face = C
    anchor = start
    trace = [len(face)]
    for it in range(1, _DESCENT_MAX_ITERS + 1):
        if len(face) == 1 or face.diameter <= 2.0 * params.eps:
            return DescentResult(face.points[0], tuple(trace), True, it - 1)
        face = argmax_face(space, face, ConvexFunctional.dist_to_point(anchor), params.face_tol)
        anchor = face.points[0]  # canonical representative
        trace.append(len(face))
    converged = len(face) == 1 or face.diameter <= 2.0 * params.eps
    return DescentResult(face.points[0], tuple(trace), converged, _DESCENT_MAX_ITERS)


def canonical_starts(C: PointNet, count: int = 5) -> list[Point]:
    """Deterministic descent starts: evenly spaced picks from the canonical order."""
    m = len(C)
    idx = sorted({round(i * (m - 1) / max(count - 1, 1)) for i in range(count)})
    return [C.points[i] for i in idx]
