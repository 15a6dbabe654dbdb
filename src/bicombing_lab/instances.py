"""Self-contained instance files: a space description, seed points, and all run
parameters.  Loading a file reproduces the exact run; serialization is
deterministic byte-for-byte so reports can be diffed and runs compared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any

import numpy as np

from .convexity import PointNet
from .extremal import ExtremalParams
from .model_spaces import (
    MetricTreeSpec,
    NormedSpaceSpec,
    ProductSpaceSpec,
    euclidean,
    hyperboloid,
    make_hyperbolic_plane,
    make_lp_space,
    make_metric_tree,
    make_product,
)
from .space_core import (
    BicombedSpace,
    EuclideanPoint,
    HyperboloidPoint,
    InvalidInputError,
    Point,
    ProductPoint,
    TreePoint,
)

FORMAT_VERSION = 1

GEN_KINDS = (
    "square",
    "cube",
    "simplex",
    "lp_ball",
    "disk",
    "hyp_triangle",
    "tree_leaves",
    "product_demo",
    "random_points",
)


class InstanceFormatError(InvalidInputError):
    """Malformed instance or report file; the message names the offending field."""


@dataclass(frozen=True)
class InstanceParams:
    """Run parameters carried by an instance file.

    eps is the net resolution; hit_eps the chord hit radius used by extremal
    detection (defaults to eps, but exactness demonstrations need it below the
    net's own gaps, which is why it is a separate field).
    """

    eps: float
    hit_eps: float
    delta: float
    face_tol: float
    t_grid: int = 7
    segment_samples: int = 8
    max_rounds: int = 64
    rng_seed: int = 0
    pass_factor: float = 3.0

    def extremal_params(self) -> ExtremalParams:
        return ExtremalParams(
            eps=self.hit_eps, delta=self.delta, t_grid=self.t_grid, face_tol=self.face_tol
        )

    def scaled(self, factor: float) -> "InstanceParams":
        """Resolution-coupled rescaling: eps, hit radius, exclusion radius and
        face band all scale together (used by grid-refinement runs)."""
        return replace(
            self,
            eps=self.eps * factor,
            hit_eps=self.hit_eps * factor,
            delta=self.delta * factor,
            face_tol=self.face_tol * factor,
        )


@dataclass(frozen=True)
class InstanceFile:
    space: dict
    seed_points: tuple[Point, ...]
    params: InstanceParams
    format: int = FORMAT_VERSION

    def build_space(self) -> BicombedSpace:
        return build_space(self.space)

    def seed_net(self, space: BicombedSpace) -> PointNet:
        return PointNet.build(space, self.seed_points, self.params.eps)


# ---------------------------------------------------------------------------
# Space descriptions
# ---------------------------------------------------------------------------


def build_space(desc: dict, path: str = "space") -> BicombedSpace:
    kind = _expect_str(desc, "kind", path)
    if kind == "lp":
        _reject_unknown(desc, {"kind", "dim", "p"}, path)
        dim = _expect_int(desc, "dim", path)
        p = desc.get("p")
        if p == "inf":
            p = math.inf
        if not isinstance(p, (int, float)) or not (_finite(p) or p == math.inf):
            raise InstanceFormatError(f"{path}.p: expected a number or \"inf\"")
        return _at(path, lambda: make_lp_space(NormedSpaceSpec(dim, float(p))))
    if kind == "hyperbolic":
        _reject_unknown(desc, {"kind"}, path)
        return make_hyperbolic_plane()
    if kind == "tree":
        _reject_unknown(desc, {"kind", "nodes", "edges"}, path)
        nodes = desc.get("nodes")
        edges = desc.get("edges")
        if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
            raise InstanceFormatError(f"{path}.nodes: expected a list of strings")
        if not isinstance(edges, list):
            raise InstanceFormatError(f"{path}.edges: expected a list")
        parsed = []
        for i, e in enumerate(edges):
            if not (isinstance(e, list) and len(e) == 3 and isinstance(e[0], str)
                    and isinstance(e[1], str) and isinstance(e[2], (int, float))
                    and _finite(e[2])):
                raise InstanceFormatError(f"{path}.edges[{i}]: expected [tail, head, length]")
            parsed.append((e[0], e[1], float(e[2])))
        return _at(path, lambda: make_metric_tree(MetricTreeSpec(tuple(nodes), tuple(parsed))))
    if kind == "product":
        _reject_unknown(desc, {"kind", "left", "right"}, path)
        left = desc.get("left")
        right = desc.get("right")
        if not isinstance(left, dict) or not isinstance(right, dict):
            raise InstanceFormatError(f"{path}: product factors must be space objects")
        factors = build_space(left, path + ".left"), build_space(right, path + ".right")
        return _at(path, lambda: make_product(ProductSpaceSpec(*factors)))
    raise InstanceFormatError(f"{path}.kind: unknown space kind {kind!r}")


def _at(path: str, call, *args):
    """``call(*args)``, its input errors re-raised naming ``path``."""
    try:
        return call(*args)
    except InvalidInputError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def space_to_dict(space: BicombedSpace) -> dict:
    from .model_spaces import HyperbolicPlane, LpSpace, ProductSpace, TreeSpace

    if isinstance(space, LpSpace):
        return {
            "kind": "lp",
            "dim": space.n,
            "p": "inf" if math.isinf(space.p) else space.p,
        }
    if isinstance(space, HyperbolicPlane):
        return {"kind": "hyperbolic"}
    if isinstance(space, TreeSpace):
        return {
            "kind": "tree",
            "nodes": list(space.spec.nodes),
            "edges": [[u, v, w] for u, v, w in space.spec.edges],
        }
    if isinstance(space, ProductSpace):
        return {
            "kind": "product",
            "left": space_to_dict(space.left),
            "right": space_to_dict(space.right),
        }
    raise InvalidInputError(f"space {space.description!r} has no file representation")


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def point_to_obj(p: Point) -> dict:
    if isinstance(p, EuclideanPoint):
        return {"kind": "euclidean", "coords": list(p.coords)}
    if isinstance(p, HyperboloidPoint):
        return {"kind": "hyperboloid", "coords": list(p.coords)}
    if isinstance(p, TreePoint):
        return {"kind": "tree", "edge": p.edge, "offset": p.offset}
    if isinstance(p, ProductPoint):
        return {"kind": "product", "left": point_to_obj(p.left), "right": point_to_obj(p.right)}
    raise InvalidInputError(f"not a point: {p!r}")


def point_from_obj(obj: Any, path: str = "point") -> Point:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{path}: expected an object")
    kind = _expect_str(obj, "kind", path)
    if kind in ("euclidean", "hyperboloid"):
        _reject_unknown(obj, {"kind", "coords"}, path)
        coords = obj.get("coords")
        if not isinstance(coords, list) or not all(isinstance(c, (int, float)) for c in coords):
            raise InstanceFormatError(f"{path}.coords: expected a list of numbers")
        if not all(_finite(c) for c in coords):
            raise InstanceFormatError(f"{path}.coords: expected finite numbers")
        if kind == "hyperboloid":
            if len(coords) != 3:
                raise InstanceFormatError(f"{path}.coords: hyperboloid points have 3 coordinates")
            return hyperboloid(*coords)
        return euclidean(*coords)
    if kind == "tree":
        _reject_unknown(obj, {"kind", "edge", "offset"}, path)
        edge = obj.get("edge")
        offset = obj.get("offset")
        if not isinstance(edge, int) or isinstance(edge, bool):
            raise InstanceFormatError(f"{path}.edge: expected an integer edge index")
        if not isinstance(offset, (int, float)) or not _finite(offset):
            raise InstanceFormatError(f"{path}.offset: expected a finite number")
        return TreePoint(edge, float(offset))
    if kind == "product":
        _reject_unknown(obj, {"kind", "left", "right"}, path)
        return ProductPoint(
            point_from_obj(obj.get("left"), path + ".left"),
            point_from_obj(obj.get("right"), path + ".right"),
        )
    raise InstanceFormatError(f"{path}.kind: unknown point kind {kind!r}")


def point_in_space(space: BicombedSpace, obj: Any, path: str) -> Point:
    """``point_from_obj``, then ``space.validate_point``; errors name ``path``."""
    p = point_from_obj(obj, path)
    _at(path, space.validate_point, p)
    return p


# ---------------------------------------------------------------------------
# File round trip
# ---------------------------------------------------------------------------

def instance_to_obj(inst: InstanceFile) -> dict:
    return {
        "format": inst.format,
        "space": inst.space,
        "seed_points": [point_to_obj(p) for p in inst.seed_points],
        "params": to_obj(inst.params),
    }


def to_obj(value: Any, skip: tuple[str, ...] = ()) -> Any:
    """Report form of a result: a point as ``point_to_obj``, a dataclass as
    its fields in declaration order less ``skip``, a tuple as a list, each
    converted recursively; any other value unchanged (numpy scalars are left
    to ``dumps_canonical``)."""
    if isinstance(value, Point):  # points are dataclasses too, tagged by kind
        return point_to_obj(value)
    if is_dataclass(value):
        return {f.name: to_obj(getattr(value, f.name))
                for f in fields(value) if f.name not in skip}
    if isinstance(value, tuple):
        return [to_obj(v) for v in value]
    return value


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON-serializable: {type(o).__name__}")


def dumps_canonical(obj: dict) -> str:
    """Deterministic text form: fixed key order from construction, two-space
    indentation, shortest round-trip float repr, trailing newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False, default=_json_default) + "\n"


def save_instance(inst: InstanceFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(instance_to_obj(inst)))


def instance_from_obj(obj: Any) -> InstanceFile:
    if not isinstance(obj, dict):
        raise InstanceFormatError("top level: expected an object")
    _reject_unknown(obj, {"format", "space", "seed_points", "params"}, "top level")
    fmt = obj.get("format")
    if fmt != FORMAT_VERSION:
        raise InstanceFormatError(f"format: expected {FORMAT_VERSION}, got {fmt!r}")
    space_desc = obj.get("space")
    if not isinstance(space_desc, dict):
        raise InstanceFormatError("space: expected an object")
    space = build_space(space_desc)
    raw_pts = obj.get("seed_points")
    if not isinstance(raw_pts, list) or not raw_pts:
        raise InstanceFormatError("seed_points: expected a non-empty list")
    pts = tuple(point_in_space(space, p, f"seed_points[{i}]") for i, p in enumerate(raw_pts))
    raw_params = obj.get("params")
    if not isinstance(raw_params, dict):
        raise InstanceFormatError("params: expected an object")
    param_fields = fields(InstanceParams)
    _reject_unknown(raw_params, {f.name for f in param_fields}, "params")
    kwargs = {}
    for f in param_fields:
        k = f.name
        if k not in raw_params:
            raise InstanceFormatError(f"params.{k}: missing")
        v = raw_params[k]
        if f.type == "int":
            if not isinstance(v, int) or isinstance(v, bool):
                raise InstanceFormatError(f"params.{k}: expected an integer")
        elif not isinstance(v, (int, float)) or isinstance(v, bool) or not _finite(v):
            raise InstanceFormatError(f"params.{k}: expected a finite number")
        kwargs[k] = v
    params = InstanceParams(**kwargs)
    if params.eps <= 0 or params.hit_eps <= 0:
        raise InstanceFormatError("params.eps: resolutions must be positive")
    if params.delta < params.hit_eps:
        raise InstanceFormatError("params.delta: must be >= params.hit_eps")
    if params.face_tol <= 0:
        raise InstanceFormatError("params.face_tol: must be positive")
    if params.t_grid < 3:
        raise InstanceFormatError("params.t_grid: must be >= 3")
    if params.segment_samples < 2:
        raise InstanceFormatError("params.segment_samples: must be >= 2")
    if params.max_rounds < 1:
        raise InstanceFormatError("params.max_rounds: must be >= 1")
    if params.rng_seed < 0:
        raise InstanceFormatError("params.rng_seed: must be non-negative")
    if params.pass_factor <= 0:
        raise InstanceFormatError("params.pass_factor: must be positive")
    return InstanceFile(space=space_desc, seed_points=pts, params=params)


def load_instance(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return instance_from_obj(obj)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _default_params(eps: float, seed_pts: list[Point], space: BicombedSpace,
                    rng_seed: int = 0) -> InstanceParams:
    radii = ExtremalParams.defaults(PointNet.build(space, seed_pts, eps))
    return InstanceParams(
        eps=eps, hit_eps=eps, delta=radii.delta, face_tol=radii.face_tol, rng_seed=rng_seed
    )


def generate_instance(kind: str, *, step: float = 0.05, eps: float | None = None,
                      leaves: int = 3, n: int = 20, dim: int = 3, p: float = math.inf,
                      radius: float = 0.5, side: float = 1.0,
                      rng_seed: int = 0) -> InstanceFile:
    """Deterministic instance of one of the built-in kinds."""
    for name, value in (("step", step), ("eps", eps), ("side", side), ("radius", radius),
                        ("leaves", leaves), ("n", n), ("dim", dim)):
        if value is not None and not value > 0:
            raise InvalidInputError(f"{name} must be positive, got {value}")
    # past a side of about 8.3, cosh^2 - sinh^2 cancels in float and the
    # hyp_triangle vertices leave the hyperboloid's 1e-9 tolerance
    if side > 8.0:
        raise InvalidInputError(f"side must be at most 8.0, got {side}")
    if rng_seed < 0:
        raise InvalidInputError(f"rng_seed must be non-negative, got {rng_seed}")
    if kind == "square":
        space = make_lp_space(NormedSpaceSpec(2, 2.0))
        pts = [euclidean(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        e = eps if eps is not None else step
    elif kind == "cube":
        space = make_lp_space(NormedSpaceSpec(3, 2.0))
        k = round(1.0 / step)
        axis = [round(i * step, 12) for i in range(k + 1)]
        pts = [euclidean(x, y, z) for x in axis for y in axis for z in axis]
        # resolution chosen so the raster itself is already segment-closed
        e = eps if eps is not None else 2.5 * step
        # flat faces have no chord sag, so the corner-exact radii below the
        # raster step beat the smooth-boundary default here
        params = InstanceParams(
            eps=e, hit_eps=0.4 * step, delta=0.8 * step, face_tol=0.1 * step,
            rng_seed=rng_seed,
        )
        return InstanceFile(space=space_to_dict(space), seed_points=tuple(pts), params=params)
    elif kind == "simplex":
        space = make_lp_space(NormedSpaceSpec(2, 2.0))
        pts = [euclidean(0, 0), euclidean(1, 0), euclidean(0, 1)]
        e = eps if eps is not None else 0.1
    elif kind == "lp_ball":
        space = make_lp_space(NormedSpaceSpec(2, p))
        if math.isinf(p):
            pts = [euclidean(a, b) for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
        elif p == 1.0:
            pts = [euclidean(1, 0), euclidean(0, 1), euclidean(-1, 0), euclidean(0, -1)]
        else:
            count = 48
            pts = []
            for i in range(count):
                th = 2 * math.pi * i / count
                v = (math.cos(th), math.sin(th))
                nrm = (abs(v[0]) ** p + abs(v[1]) ** p) ** (1 / p)
                pts.append(euclidean(v[0] / nrm, v[1] / nrm))
        e = eps if eps is not None else 0.2
    elif kind == "disk":
        space = make_lp_space(NormedSpaceSpec(2, 2.0))
        e = eps if eps is not None else 0.1
        count = max(8, math.ceil(2 * math.pi * radius / (e / 2)))
        pts = [
            euclidean(radius * math.cos(2 * math.pi * i / count),
                      radius * math.sin(2 * math.pi * i / count))
            for i in range(count)
        ]
    elif kind == "hyp_triangle":
        space = make_hyperbolic_plane()
        c, s = math.cosh(side), math.sinh(side)
        costh = (c * c - c) / (s * s)
        sinth = math.sqrt(max(0.0, 1 - costh * costh))
        pts = [hyperboloid(1, 0, 0), hyperboloid(c, s, 0),
               hyperboloid(c, s * costh, s * sinth)]
        e = eps if eps is not None else 0.1
    elif kind == "tree_leaves":
        names = [f"l{i}" for i in range(leaves)]
        space = make_metric_tree(
            MetricTreeSpec(tuple(["c"] + names), tuple(("c", nm, 1.0) for nm in names))
        )
        pts = [space.node_point(nm) for nm in names]
        e = eps if eps is not None else 0.05
    elif kind == "product_demo":
        seg = make_lp_space(NormedSpaceSpec(1, 2.0))
        space = make_product(ProductSpaceSpec(seg, seg))
        pts = [ProductPoint(euclidean(a), euclidean(b)) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        e = eps if eps is not None else 0.1
    elif kind == "random_points":
        space = make_lp_space(NormedSpaceSpec(dim, 2.0))
        rng = np.random.default_rng(rng_seed)
        pts = [euclidean(*[float(v) for v in rng.uniform(0, 1, dim)]) for _ in range(n)]
        e = eps if eps is not None else 0.1
    else:
        raise InvalidInputError(f"unknown instance kind {kind!r}; choose from {GEN_KINDS}")

    params = _default_params(e, pts, space, rng_seed=rng_seed)
    return InstanceFile(space=space_to_dict(space), seed_points=tuple(pts), params=params)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _expect_str(obj: dict, key: str, path: str) -> str:
    v = obj.get(key)
    if not isinstance(v, str):
        raise InstanceFormatError(f"{path}.{key}: expected a string")
    return v


def _finite(v: int | float) -> bool:
    """math.isfinite, and False for an integer beyond the float range."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _expect_int(obj: dict, key: str, path: str) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InstanceFormatError(f"{path}.{key}: expected an integer")
    return v


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise InstanceFormatError(f"{path}: unknown field(s) {sorted(extra)}")
