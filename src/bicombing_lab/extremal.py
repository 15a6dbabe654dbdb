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
Its candidate step comes from the net's chord finder
(``BicombedSpace.make_chord_finder``, built once per net) and proposes a
superset of the chords passing within the hit radius of some target: in lp
spaces and l^2 x l^2 products, where segments are linear, a chord from x hits
the ball of a target q at t exactly when its other end lies within eps/t of
the reflected point (q - (1-t)x)/t, so one ball query per (q, x, t) finds
them; elsewhere the alignment filter min over q of d(i,q) + d(j,q) <
d(i,j) + 2*eps over a dense distance matrix does.  Its confirm step evaluates
every candidate with the space's ``chord_dists``, so verdicts rest only on
evaluated chords.  Point verdicts confirm candidates lazily, nearest first,
and test the strict ``< eps``; set verdicts confirm them in row-major pair
order and test for a crossing, so the witness is the first crossing pair of
the full pair order.
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
#: a quarter of a distance block of chord entries
_FIRST_BATCH = 64


def _first_chord(
    space: BicombedSpace, C: PointNet, target, d_to_target: np.ndarray, params: ExtremalParams
) -> tuple[int, int, float] | None:
    """The first chord of C found to hit the target ball, as (i, j, t), i < j.

    Endpoints qualify beyond delta.  The net's chord finder proposes a
    superset of the hitting pairs (candidate step); each candidate is then
    evaluated with ``chord_dists`` at its own (i, j) and every interior t, and
    hits when a sample lies strictly within eps (confirm step).  A verdict thus
    rests only on evaluated chords, never on the candidate arithmetic.
    """
    elig = np.nonzero(d_to_target > params.delta)[0]
    if len(elig) < 2:
        return None
    ts = params.interior_ts()
    batch, max_batch = _FIRST_BATCH, max(_FIRST_BATCH, BLOCK_ENTRIES // 4 // len(ts))
    for I, J in C.chord_finder.candidates(target, d_to_target[:, None], elig, params.eps, ts):
        lo = 0
        while lo < len(I):
            Ib, Jb = I[lo : lo + batch], J[lo : lo + batch]
            hits = space.chord_dists(C.packed, Ib, Jb, ts, target)[:, :, 0] < params.eps
            if hits.any():
                r, k = np.unravel_index(int(np.argmax(hits)), hits.shape)
                return int(Ib[r]), int(Jb[r]), float(ts[k])
            lo += batch
            batch = min(2 * batch, max_batch)
    return None


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
    instead of raising, since emptiness signals a discretization failure."""

    rows: np.ndarray
    survivors: PointNet
    diagnostic: str | None

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


def extremal_points(
    space: BicombedSpace, C: PointNet, params: ExtremalParams
) -> ExtremalScan:
    """All stored points of C passing the chord-crossing extremality test.

    Every stored point is scanned as is_extremal_point scans a query point,
    through the net's one chord finder.  In lp spaces and l^2 x l^2 products
    its candidate step is one reflected-endpoint ball query per (x, t); in
    every other space it is the alignment filter over one dense distance
    matrix of C.  A point survives when no candidate chord confirms.
    """
    if C.space is not space:
        raise InvalidInputError("net belongs to a different space")
    rows = []
    for pi in range(len(C)):
        target = C.packed[pi : pi + 1]
        d_to_p = space.dist_matrix(C.packed, target)[:, 0]
        if _first_chord(space, C, target, d_to_p, params) is None:
            rows.append(pi)

    diagnostic = None
    if not rows:
        diagnostic = (
            "no extremal points at this discretization; a compact convex set "
            "always has some, so retry with smaller eps or a tighter hit radius"
        )
    rows = np.array(rows, dtype=np.int64)
    return ExtremalScan(rows, C.take(rows), diagnostic)


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
    pairs are deduplicated into row-major order (i < j) and evaluated with
    ``chord_dists`` in chunks; the witness is the first crossing pair and its
    first entry and exit parameters, the same chord a scan of every pair
    returns.
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
    I_all, J_all = np.divmod(np.unique(np.concatenate([np.empty(0, np.int64), *keys])), m)
    # a block's chord entries stay within a quarter of a distance block: lp and
    # hyperbolic chords also hold sample coordinates and their differences to E
    chunk = max(1, BLOCK_ENTRIES // 4 // (len(ts_full) * len(E)))
    for lo in range(0, len(I_all), chunk):
        I, J = I_all[lo : lo + chunk], J_all[lo : lo + chunk]
        dd = space.chord_dists(C.packed, I, J, ts_full, E.packed).min(axis=2)  # (P, g+2)
        out = dd > r_out
        out_before = np.cumsum(out, axis=1) > 0
        out_after = np.cumsum(out[:, ::-1], axis=1)[:, ::-1] > 0
        near = dd < r_in
        crossing = near & np.roll(out_before, 1, axis=1) & np.roll(out_after, -1, axis=1)
        crossing[:, 0] = False
        crossing[:, -1] = False
        bad = np.nonzero(crossing.any(axis=1))[0]
        if len(bad):
            r = int(bad[0])
            k_in = int(np.nonzero(crossing[r])[0][0])
            k_out = int(np.nonzero(out[r])[0][0])
            return SetVerdict(
                extremal=False,
                witness=ChordWitness(
                    x=C.points[int(I[r])],
                    y=C.points[int(J[r])],
                    t_enter=float(ts_full[k_in]),
                    t_exit=float(ts_full[k_out]),
                ),
            )
    return SetVerdict(extremal=True, witness=None)


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
