"""End-to-end verification harness: reconstruct a convex net from its detected
extremal points and compare, plus the bundled per-lemma property checks
(argmax faces are extremal sets, distance-to-set is Lipschitz and convex along
segments, farthest-point descent lands on extremal points).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .convexity import (
    ConvexFunctional,
    PointNet,
    check_convex_functional,
    directed_excess,
    hull_closure,
)
from .extremal import (
    ExtremalParams,
    argmax_face,
    canonical_starts,
    extremal_points,
    is_extremal_point,
    is_extremal_set,
    minimal_extremal_descent,
)
from .space_core import BicombedSpace, InvalidInputError

#: t-grid of the paper checks' functional convexity tests
_CHECK_GRID = 16
#: random net point pairs of the distance-to-set Lipschitz check
_LIPSCHITZ_PAIRS = 1000


@dataclass(frozen=True)
class KMReport:
    """Outcome of the extremal-reconstruction check on one net.

    passed is equivalent to hausdorff_c_vs_hull_ext <= pass_factor * eps.  The
    easy inclusion (hull of the extremal points sits inside the net up to eps)
    is reported separately as inclusion_defect: it follows from convexity alone
    and must hold in failing reports too.
    """

    space_description: str
    net_size: int
    extremal_count: int
    hull_rounds: int
    hull_converged: bool
    hausdorff_c_vs_hull_ext: float
    inclusion_defect: float
    eps: float
    pass_factor: float
    passed: bool
    diagnostic: str | None
    timings: dict = field(default_factory=dict, compare=False)


def verify_krein_milman(
    space: BicombedSpace,
    C: PointNet,
    params: ExtremalParams,
    segment_samples: int = 8,
    max_rounds: int = 64,
    pass_factor: float = 3.0,
) -> tuple[KMReport, dict]:
    """Detect the extremal points of C, close them under segments, and measure
    the Hausdorff gap back to C.  segment_samples and max_rounds go to the
    hull closure of the extremal points.

    The caller must supply a net that is already segment-closed at its
    resolution (a converged hull_closure output); this is not re-verified here
    because the check costs as much as the closure itself.

    Returns the report together with the intermediate nets (for plotting or
    archiving): keys 'extremal' and 'hull_of_extremal'.
    """
    if C.space is not space:
        raise InvalidInputError("net belongs to a different space")
    if not (math.isfinite(pass_factor) and pass_factor > 0):
        raise InvalidInputError(f"pass_factor must be finite and positive, got {pass_factor}")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    scan = extremal_points(space, C, params)
    timings["extremal_s"] = time.perf_counter() - t0

    ext_net = hull = None
    gap, inclusion, diagnostic = math.inf, 0.0, scan.diagnostic
    if not scan.is_empty:
        ext_net = scan.net()
        t0 = time.perf_counter()
        hull = hull_closure(space, ext_net, segment_samples, max_rounds)
        timings["hull_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        inclusion = directed_excess(space, hull.net, C)
        gap = max(directed_excess(space, C, hull.net), inclusion)
        timings["hausdorff_s"] = time.perf_counter() - t0
        diagnostic = None if hull.converged else "hull of extremal points did not converge"

    report = KMReport(
        space_description=space.description,
        net_size=len(C),
        extremal_count=0 if ext_net is None else len(ext_net),
        hull_rounds=0 if hull is None else hull.rounds,
        hull_converged=hull is not None and hull.converged,
        hausdorff_c_vs_hull_ext=gap,
        inclusion_defect=inclusion,
        eps=C.eps,
        pass_factor=pass_factor,
        passed=gap <= pass_factor * C.eps,
        diagnostic=diagnostic,
        timings=timings,
    )
    return report, {"extremal": ext_net, "hull_of_extremal": None if hull is None else hull.net}


# ---------------------------------------------------------------------------
# Lemma-level property checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceCheckEntry:
    functional: str
    status: str  # "ok" | "fail" | "inapplicable"
    face_size: int
    detail: str | None


@dataclass(frozen=True)
class DistanceSetCheck:
    hull_size: int
    lipschitz_defect: float
    lipschitz_ok: bool
    convexity_defect: float
    convexity_tol: float
    convexity_ok: bool


@dataclass(frozen=True)
class DescentCheckEntry:
    start: str
    iterations: int
    trace: tuple[int, ...]
    trace_non_increasing: bool
    endpoint_extremal: bool


@dataclass(frozen=True)
class PaperChecksReport:
    face_checks: tuple[FaceCheckEntry, ...]
    dist_check: DistanceSetCheck
    descent_checks: tuple[DescentCheckEntry, ...]
    passed: bool


def run_paper_checks(
    space: BicombedSpace,
    C: PointNet,
    functional_suite: list,
    params: ExtremalParams,
    rng_seed: int = 0,
    segment_samples: int = 8,
    max_rounds: int = 64,
) -> PaperChecksReport:
    """Bundled lemma-level checks against one convex net.

    (a) every convex functional's argmax face is an extremal set (functionals
    failing the convexity pre-check are reported inapplicable rather than run);
    (b) the distance to a closed-up random subset is 1-Lipschitz to float
    accuracy and convex along segments up to a net-resolution tolerance (the
    kink amplitude of a distance-to-finite-set scales with the net spacing);
    (c) farthest-point descents from canonical starts terminate on extremal
    points with non-increasing face traces.  The sub-nets (thinned domain,
    random subset, sample domain) are rows of C, and segment_samples and
    max_rounds go to the closure of the random subset.
    """
    if rng_seed < 0:
        raise InvalidInputError(f"rng_seed must be non-negative, got {rng_seed}")
    rng = np.random.default_rng(rng_seed)
    m = len(C)

    # thinned domain for functional convexity checks
    domain = C.take(np.arange(0, m, max(1, m // 40)))

    face_entries: list[FaceCheckEntry] = []
    for phi in functional_suite:
        conv = check_convex_functional(space, phi, domain, grid=_CHECK_GRID, tol=space.base_tol)
        if not conv.ok:
            face_entries.append(
                FaceCheckEntry(
                    functional=phi.label(),
                    status="inapplicable",
                    face_size=0,
                    detail=f"not convex along segments (defect {conv.max_defect:.3g})",
                )
            )
            continue
        face = argmax_face(space, C, phi, params.face_tol)
        verdict = is_extremal_set(space, C, face, params)
        face_entries.append(
            FaceCheckEntry(
                functional=phi.label(),
                status="ok" if verdict.extremal else "fail",
                face_size=len(face),
                detail=None if verdict.extremal else f"witness chord {verdict.witness}",
            )
        )

    # distance-to-set checks on the closure of a small random subset
    sub_idx = np.sort(rng.choice(m, size=min(4, m), replace=False))
    K = hull_closure(space, C.take(sub_idx), segment_samples, max_rounds).net
    dK = ConvexFunctional.dist_to_net(K)

    pair_idx = rng.integers(0, m, size=(_LIPSCHITZ_PAIRS, 2))
    A, B = C.packed[pair_idx[:, 0]], C.packed[pair_idx[:, 1]]
    fa = dK.evaluate_packed(space, A)
    fb = dK.evaluate_packed(space, B)
    dab = space.paired_dist(A, B)
    lip_defect = float((np.abs(fa - fb) - dab).max())
    lip_ok = lip_defect <= 1e-12

    sample_idx = np.sort(rng.choice(m, size=min(30, m), replace=False))
    sample_domain = C.take(sample_idx)
    conv_tol = 2.0 * K.eps + space.base_tol
    conv = check_convex_functional(space, dK, sample_domain, grid=_CHECK_GRID, tol=conv_tol)

    dist_check = DistanceSetCheck(
        hull_size=len(K),
        lipschitz_defect=lip_defect,
        lipschitz_ok=lip_ok,
        convexity_defect=conv.max_defect,
        convexity_tol=conv_tol,
        convexity_ok=conv.ok,
    )

    # descent checks
    descent_entries: list[DescentCheckEntry] = []
    for start in canonical_starts(C, 5):
        res = minimal_extremal_descent(space, C, start, params)
        non_inc = all(a >= b for a, b in zip(res.trace, res.trace[1:]))
        endpoint_ok = is_extremal_point(space, C, res.point, params).extremal
        descent_entries.append(
            DescentCheckEntry(
                start=repr(start),
                iterations=res.iterations,
                trace=res.trace,
                trace_non_increasing=non_inc,
                endpoint_extremal=endpoint_ok,
            )
        )

    passed = (
        all(e.status in ("ok", "inapplicable") for e in face_entries)
        and lip_ok
        and conv.ok
        and all(e.trace_non_increasing and e.endpoint_extremal for e in descent_entries)
    )
    return PaperChecksReport(
        face_checks=tuple(face_entries),
        dist_check=dist_check,
        descent_checks=tuple(descent_entries),
        passed=passed,
    )
