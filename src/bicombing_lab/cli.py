"""Command-line front end: instance generation, pipeline runs with structured
JSON reports, and 2D plot-data export.

Exit codes: 0 when the run's check passed, 1 when a check failed (the report
carries witnesses), 2 on usage or input errors.  Reports contain no timings or
timestamps, so identical instance files always produce byte-identical reports;
the run time goes to stderr unless --quiet is given.  For verify-km stderr also
times each phase: ``seed_hull_s`` (the hull closure from the seed to C), then
``extremal_s``, ``hull_s`` (the hull of the extremal points) and
``hausdorff_s``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .convexity import ConvexFunctional, PointNet, hull_closure
from .extremal import extremal_points, canonical_starts
from .instances import (
    GEN_KINDS,
    InstanceFile,
    InstanceFormatError,
    build_space,
    dumps_canonical,
    generate_instance,
    instance_to_obj,
    load_instance,
    point_in_space,
    save_instance,
    to_obj,
)
from .km_verify import run_paper_checks, verify_krein_milman
from .model_spaces import HyperbolicPlane, LpSpace, ProductSpace, TreeSpace
from .space_core import InvalidInputError, check_axioms, evaluate_bicombing, worker_count

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        worker_count()  # validates BICOMBING_LAB_THREADS early
        return args.handler(args)
    except (InvalidInputError, InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicombing-lab",
        description="convex segment-map geometry: hulls, extremal points, reconstruction checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a deterministic instance file")
    g.add_argument("kind", choices=GEN_KINDS)
    g.add_argument("--step", type=float, default=0.05)
    g.add_argument("--eps", type=float, default=None)
    g.add_argument("--leaves", type=int, default=3)
    g.add_argument("--n", type=int, default=20)
    g.add_argument("--dim", type=int, default=3)
    g.add_argument("--p", default="inf")
    g.add_argument("--radius", type=float, default=0.5)
    g.add_argument("--side", type=float, default=1.0)
    g.add_argument("--rng-seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(handler=_cmd_gen)

    for name in ("check-axioms", "hull", "extremal", "verify-km", "paper-checks"):
        r = sub.add_parser(name, help=f"run the {name} pipeline on an instance")
        r.add_argument("--instance", required=True)
        r.add_argument("--out", default=None)
        r.add_argument("--eps", type=float, default=None,
                       help="override the net resolution (rescales coupled radii)")
        r.add_argument("--rng-seed", type=int, default=None)
        r.add_argument("--max-rounds", type=int, default=None)
        r.add_argument("--quiet", action="store_true")
        r.set_defaults(handler=_cmd_run, subcommand=name)

    e = sub.add_parser("export-plot", help="export report points as x,y,label rows")
    e.add_argument("--report", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(handler=_cmd_export_plot)
    return parser


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    for name in ("step", "eps", "radius", "side"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise InvalidInputError(f"--{name} must be a finite number, got {value}")
    if args.rng_seed < 0:
        raise InvalidInputError(f"--rng-seed must be non-negative, got {args.rng_seed}")
    try:
        p = float(args.p)
    except ValueError:
        raise InvalidInputError(f"--p must be a number or inf, got {args.p!r}") from None
    inst = generate_instance(
        args.kind,
        step=args.step,
        eps=args.eps,
        leaves=args.leaves,
        n=args.n,
        dim=args.dim,
        p=p,
        radius=args.radius,
        side=args.side,
        rng_seed=args.rng_seed,
    )
    out = args.out or f"{args.kind}.json"
    save_instance(inst, out)
    print(out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    inst = load_instance(args.instance)
    params = inst.params
    if args.eps is not None:
        if not (math.isfinite(args.eps) and args.eps > 0):
            raise InvalidInputError(f"--eps must be finite and positive, got {args.eps}")
        params = params.scaled(args.eps / params.eps)
    if args.rng_seed is not None:
        if args.rng_seed < 0:
            raise InvalidInputError(f"--rng-seed must be non-negative, got {args.rng_seed}")
        params = replace(params, rng_seed=args.rng_seed)
    if args.max_rounds is not None:
        if args.max_rounds < 1:
            raise InvalidInputError(f"--max-rounds must be >= 1, got {args.max_rounds}")
        params = replace(params, max_rounds=args.max_rounds)
    inst = replace(inst, params=params)

    t0 = time.perf_counter()
    report, passed, timings = _run_pipeline(args.subcommand, inst)
    elapsed = time.perf_counter() - t0
    if not args.quiet:
        print(f"{args.subcommand}: {'pass' if passed else 'FAIL'} in {elapsed:.2f}s",
              file=sys.stderr)
        for phase, seconds in timings.items():
            print(f"  {phase}: {seconds:.3f}s", file=sys.stderr)

    out = args.out or f"{Path(args.instance).stem}.{args.subcommand}.report.json"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(report))
    print(out)
    return EXIT_PASS if passed else EXIT_FAIL


def _run_pipeline(sub: str, inst: InstanceFile) -> tuple[dict, bool, dict]:
    """Report, verdict and phase timings (verify-km only) of one pipeline run."""
    space = inst.build_space()
    seed = inst.seed_net(space)
    report: dict = {
        "format": 1,
        "command": sub,
        "instance": instance_to_obj(inst),
        "space_description": space.description,
    }

    if sub == "check-axioms":
        rng = np.random.default_rng(inst.params.rng_seed)
        quads = _sample_quadruples(space, seed, rng, 100)
        rep = check_axioms(space, quads, grid=16, tol=space.base_tol)
        report["result"] = to_obj(rep)
        report["passed"] = rep.passed
        return report, rep.passed, {}

    samples, max_rounds = inst.params.segment_samples, inst.params.max_rounds
    t0 = time.perf_counter()
    hull = hull_closure(space, seed, samples, max_rounds)
    seed_hull_s = time.perf_counter() - t0
    C = hull.net
    report["hull"] = {
        "size": len(C),
        "rounds": hull.rounds,
        "converged": hull.converged,
        "eps": C.eps,
    }

    if sub == "hull":
        report["points"] = {"net": to_obj(C.points)}
        report["passed"] = hull.converged
        return report, hull.converged, {}

    params = inst.params.extremal_params()

    if sub == "extremal":
        scan = extremal_points(space, C, params)
        report["points"] = {
            "net": to_obj(C.points),
            "extremal": to_obj(scan.points),
        }
        report["result"] = {
            "extremal_count": len(scan.survivors),
            "diagnostic": scan.diagnostic,
        }
        passed = not scan.is_empty
        report["passed"] = passed
        return report, passed, {}

    if sub == "verify-km":
        km, nets = verify_krein_milman(space, C, params, samples, max_rounds,
                                       inst.params.pass_factor)
        report["result"] = to_obj(km, skip=("space_description", "passed", "timings"))
        report["points"] = {
            "net": to_obj(C.points),
            "extremal": to_obj(nets["extremal"].points) if nets["extremal"] else [],
            "hull_of_extremal": to_obj(nets["hull_of_extremal"].points)
            if nets["hull_of_extremal"] else [],
        }
        report["passed"] = km.passed
        return report, km.passed, {"seed_hull_s": seed_hull_s, **km.timings}

    if sub == "paper-checks":
        suite = _default_suite(space, C)
        rep = run_paper_checks(space, C, suite, params, rng_seed=inst.params.rng_seed,
                               segment_samples=samples, max_rounds=max_rounds)
        report["result"] = to_obj(rep, skip=("passed",))
        report["passed"] = rep.passed
        return report, rep.passed, {}

    raise InvalidInputError(f"unknown subcommand {sub!r}")


def _sample_quadruples(space, seed_net: PointNet, rng, count: int):
    """Random quadruples drawn from segments between seed points, so every
    sample is a valid point of the instance's region in any space kind."""
    pts = seed_net.points
    quads = []
    for _ in range(count):
        quad = []
        for _ in range(4):
            i, j = rng.integers(0, len(pts), 2)
            t = float(rng.uniform(0.0, 1.0))
            quad.append(evaluate_bicombing(space, pts[int(i)], pts[int(j)], t))
        quads.append(tuple(quad))
    return quads


def _default_suite(space, C: PointNet) -> list:
    suite = [ConvexFunctional.dist_to_point(p) for p in canonical_starts(C, 3)]
    if isinstance(space, LpSpace):
        for k in range(space.n):
            coeffs = [0.0] * space.n
            coeffs[k] = 1.0
            suite.append(ConvexFunctional.linear(coeffs))
        suite.append(ConvexFunctional.linear([1.0 / math.sqrt(space.n)] * space.n))
    return suite


# ---------------------------------------------------------------------------
# plot export
# ---------------------------------------------------------------------------


def _cmd_export_plot(args) -> int:
    import json

    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(rep, dict) or "points" not in rep:
        raise InstanceFormatError("report has no points section to plot")
    points, instance = rep["points"], rep.get("instance", {})
    if not isinstance(points, dict):
        raise InstanceFormatError("points: expected an object")
    if not isinstance(instance, dict):
        raise InstanceFormatError("instance: expected an object")
    space_desc = instance.get("space")
    if not isinstance(space_desc, dict):
        raise InstanceFormatError("report carries no space description")
    space = build_space(space_desc)
    project = _projection_for(space)

    rows = []
    for label in ("net", "extremal", "hull_of_extremal"):
        objs = points.get(label, [])
        if not isinstance(objs, list):
            raise InstanceFormatError(f"points.{label}: expected a list of points")
        for i, obj in enumerate(objs):
            x, y = project(point_in_space(space, obj, f"points.{label}[{i}]"))
            rows.append((x, y, label))

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y,label\n")
        for x, y, label in rows:
            fh.write(f"{x:.9g},{y:.9g},{label}\n")
    print(args.out)
    return EXIT_PASS


def _projection_for(space):
    """Planar projection: identity for R^2, disk model for the hyperbolic
    plane, angular embedding for trees, factor pairing for 1-D x 1-D products."""
    if isinstance(space, LpSpace) and space.n == 2:
        return lambda p: (p.coords[0], p.coords[1])
    if isinstance(space, HyperbolicPlane):
        return lambda p: (p.coords[1] / (1 + p.coords[0]), p.coords[2] / (1 + p.coords[0]))
    if isinstance(space, TreeSpace):
        layout = _tree_layout(space)

        def proj(p):
            u, v, w = space.edges[p.edge]
            (x0, y0), (x1, y1) = layout[u], layout[v]
            f = p.offset / w
            return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))

        return proj
    if (
        isinstance(space, ProductSpace)
        and isinstance(space.left, LpSpace)
        and isinstance(space.right, LpSpace)
        and space.left.n == 1
        and space.right.n == 1
    ):
        return lambda p: (p.left.coords[0], p.right.coords[0])
    raise InvalidInputError(
        f"no 2D projection registered for space {space.description!r}"
    )


def _tree_layout(space: TreeSpace) -> dict:
    """Deterministic planar embedding: highest-degree node at the origin,
    children fanned at equal angles, subtrees confined to nested sectors."""
    adj: dict[str, list[tuple[str, float]]] = {n: [] for n in space.spec.nodes}
    for u, v, w in space.spec.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    root = min(space.spec.nodes, key=lambda n: (-len(adj[n]), n))
    pos = {root: (0.0, 0.0)}

    def place(node, parent, lo, hi):
        kids = sorted((m for m, _ in adj[node] if m != parent))
        if not kids:
            return
        span = (hi - lo) / len(kids)
        for k, kid in enumerate(kids):
            ang = lo + span * (k + 0.5)
            w = next(wt for m, wt in adj[node] if m == kid)
            px, py = pos[node]
            pos[kid] = (px + w * math.cos(ang), py + w * math.sin(ang))
            place(kid, node, lo + span * k, lo + span * (k + 1))

    place(root, None, 0.0, 2.0 * math.pi)
    return pos


if __name__ == "__main__":
    sys.exit(main())
