"""Spans around calls into the lab's public functions, recorded from outside.

``Tracer.install`` replaces each wrapped function or method with a wrapper
that records a span (id, parent id, name, space kind, start, end, counts) in
memory; ``uninstall`` puts the originals back.  Nothing under ``src/`` is
edited: functions are swapped in every lab module that holds a reference to
them, methods on the classes that define them.

``layer_metrics`` turns the spans into the per-layer metrics the benchmark
reports: self times (a span's duration minus the time its child spans
cover), phase times of the Krein-Milman pipeline, and work counters.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

KINDS = ("lp", "hyperbolic", "tree", "product")

#: (module, function name, span name) for free functions of the lab
FUNCTIONS = (
    ("instances", "generate_instance", "instances.generate_instance"),
    ("instances", "load_instance", "instances.load_instance"),
    ("convexity", "hull_closure", "convexity.hull_closure"),
    ("convexity", "hausdorff", "convexity.hausdorff"),
    ("convexity", "directed_excess", "convexity.directed_excess"),
    ("convexity", "check_convex_functional", "convexity.check_convex_functional"),
    ("extremal", "extremal_points", "extremal.extremal_points"),
    ("extremal", "is_extremal_set", "extremal.is_extremal_set"),
    ("extremal", "is_extremal_point", "extremal.is_extremal_point"),
    ("extremal", "minimal_extremal_descent", "extremal.minimal_extremal_descent"),
    ("extremal", "argmax_face", "extremal.argmax_face"),
    ("km_verify", "verify_krein_milman", "km_verify.verify_krein_milman"),
    ("km_verify", "run_paper_checks", "km_verify.run_paper_checks"),
    ("space_core", "check_axioms", "space_core.check_axioms"),
)

#: space methods wrapped on whichever class defines them
SPACE_METHODS = ("dist_matrix", "min_dist", "make_index", "segment_batch",
                 "chord_dists", "points_from_packed")

NEAREST = ("min_dist", "index.min_dist")


class Tracer:
    def __init__(self, lab):
        self.lab = lab  # namespace with the lab modules as attributes
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._undo: list[tuple] = []
        ms = lab.model_spaces
        self._kind_of = {ms.LpSpace: "lp", ms.HyperbolicPlane: "hyperbolic",
                         ms.TreeSpace: "tree", ms.ProductSpace: "product"}

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, name: str):
        """Install the wrappers and record everything below one root span."""
        self.install()
        try:
            sid = self._open(name, None)
            try:
                yield
            finally:
                self._close(sid)
        finally:
            self.uninstall()

    def _open(self, name, kind):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, kind, time.perf_counter(), None, None])
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][2] if self.stack else None

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        lab = self.lab
        modules = [getattr(lab, m) for m in ("cli", "convexity", "extremal", "instances",
                                             "km_verify", "model_spaces", "space_core")]
        for mod_name, fn_name, span_name in FUNCTIONS:
            orig = getattr(getattr(lab, mod_name), fn_name)
            wrapped = self._wrap_function(orig, span_name)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)
        # report serialisation inside the CLI pipelines only (gen writes
        # instance files through the same function from another module)
        self._set(lab.cli, "dumps_canonical",
                  self._wrap_function(lab.cli.dumps_canonical, "cli.report_write"))
        pn = lab.convexity.PointNet
        self._set(pn, "build", staticmethod(
            self._wrap_function(pn.build, "convexity.pointnet_build")))
        ms, sc = lab.model_spaces, lab.space_core
        for cls in (sc.BicombedSpace, ms.LpSpace, ms.HyperbolicPlane, ms.TreeSpace,
                    ms.ProductSpace):
            for meth in SPACE_METHODS:
                if meth in vars(cls):
                    self._set(cls, meth, self._wrap_method(vars(cls)[meth], meth))
        # index objects answering nearest queries themselves; the linear-scan
        # index delegates to the space's min_dist, which is wrapped already
        self._set(ms._KDTreeIndex, "min_dist",
                  self._wrap_index(vars(ms._KDTreeIndex)["min_dist"], "lp"))
        self._set(ms._ProductJointIndex, "min_dist",
                  self._wrap_index(vars(ms._ProductJointIndex)["min_dist"], "product"))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(name, None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer.spans[sid][6] = _function_counts(name, args, out)
            return out

        return wrapper

    def _wrap_method(self, fn, meth):
        tracer = self

        def wrapper(space, *args, **kwargs):
            kind = tracer._kind_of.get(type(space))
            nested = meth == "min_dist" and tracer.parent_name() in NEAREST
            sid = tracer._open(meth, kind)
            try:
                out = fn(space, *args, **kwargs)
            finally:
                tracer._close(sid)
            if not nested:
                tracer.spans[sid][6] = _method_counts(space, meth, args)
            return out

        return wrapper

    def _wrap_index(self, fn, kind):
        tracer = self

        def wrapper(index, queries):
            nested = tracer.parent_name() in NEAREST
            sid = tracer._open("index.min_dist", kind)
            try:
                out = fn(index, queries)
            finally:
                tracer._close(sid)
            if not nested:
                tracer.spans[sid][6] = {"queries": len(out)}
            return out

        return wrapper

    def dump(self, path) -> None:
        """Write the spans as JSON: one [id, parent, name, kind, start, end,
        counts] list per span, times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        rows = [[s[0], s[1], s[2], s[3], s[4] - t0, s[5] - t0, s[6]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "kind", "start_s", "end_s", "counts"],
                       "spans": rows}, fh)


def _function_counts(name, args, out):
    if len(args) < 2:
        return None  # every counted function takes its input second
    if name == "convexity.hull_closure":
        seed = args[1]
        return {"rounds": out.rounds, "inserted": len(out.net) - len(seed)}
    if name == "extremal.extremal_points":
        return {"survivors": len(out.points)}
    if name == "space_core.check_axioms":
        return {"quadruples": len(args[1])}
    return None


def _method_counts(space, meth, args):
    if len(args) < {"dist_matrix": 2, "min_dist": 1, "segment_batch": 4,
                    "chord_dists": 5}.get(meth, 0):
        return None  # called with keywords; leave the call uncounted
    if meth == "dist_matrix":
        return {"entries": space.packed_len(args[0]) * space.packed_len(args[1])}
    if meth == "min_dist":
        return {"queries": space.packed_len(args[0])}
    if meth == "segment_batch":
        return {"pairs": len(args[1]), "samples": len(args[1]) * len(args[3])}
    if meth == "chord_dists":
        return {"pairs": len(args[1]),
                "entries": len(args[1]) * len(args[3]) * space.packed_len(args[4])}
    return None


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[5] - s[4]
    return out


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics per measured round, from spans of `rounds` traced
    rounds (under "bench.round") and one traced set-up (under "bench.setup")."""
    selfs = self_times(spans)
    in_setup = [False] * len(spans)
    for s in spans:
        in_setup[s[0]] = s[2] == "bench.setup" or (s[1] >= 0 and in_setup[s[1]])

    total: dict[str, float] = defaultdict(float)

    def add(key, value):
        total[key] += value

    for s, self_t in zip(spans, selfs):
        sid, parent, name, kind, t0, t1, counts = s
        counts = counts or {}
        dur = t1 - t0
        pname = spans[parent][2] if parent >= 0 else None
        scale = 1.0 if in_setup[sid] else 1.0 / rounds
        if kind is not None:
            base = f"model_spaces.{kind}."
            if name == "dist_matrix":
                add(base + "dist_matrix_s", self_t * scale)
                add(base + "dist_entries", counts.get("entries", 0) * scale)
            elif name in NEAREST:
                add(base + "nearest_s", self_t * scale)
                add(base + "nearest_queries", counts.get("queries", 0) * scale)
            elif name == "make_index":
                add(base + "make_index_s", self_t * scale)
            elif name == "segment_batch":
                add(base + "segment_batch_s", self_t * scale)
                add(base + "segment_samples", counts.get("samples", 0) * scale)
                if pname == "convexity.hull_closure":
                    add("convexity.hull_pairs", counts.get("pairs", 0) * scale)
                    add("convexity.hull_queries", counts.get("samples", 0) * scale)
            elif name == "chord_dists":
                add(base + "chord_dists_s", self_t * scale)
                add(base + "chord_entries", counts.get("entries", 0) * scale)
                if pname == "extremal.extremal_points":
                    add("extremal.chord_pairs", counts.get("pairs", 0) * scale)
                elif pname == "extremal.is_extremal_set":
                    add("extremal.set_chord_pairs", counts.get("pairs", 0) * scale)
            elif name == "points_from_packed":
                add(base + "points_from_packed_s", self_t * scale)
            continue
        if pname == "km_verify.verify_krein_milman":
            phase = {"extremal.extremal_points": "km_verify.extremal_s",
                     "convexity.hull_closure": "km_verify.hull_of_extremal_s",
                     "convexity.hausdorff": "km_verify.hausdorff_s",
                     "convexity.directed_excess": "km_verify.hausdorff_s"}.get(name)
            if phase:
                add(phase, dur * scale)
        simple = {
            "km_verify.run_paper_checks": ("km_verify.run_paper_checks_s", dur),
            "convexity.hull_closure": ("convexity.hull_closure_s", self_t),
            "convexity.pointnet_build": ("convexity.pointnet_build_s", self_t),
            "convexity.check_convex_functional": ("convexity.check_convex_functional_s", self_t),
            "convexity.hausdorff": ("convexity.hausdorff_s", self_t),
            "convexity.directed_excess": ("convexity.hausdorff_s", self_t),
            "extremal.extremal_points": ("extremal.extremal_points_s", self_t),
            "extremal.is_extremal_set": ("extremal.is_extremal_set_s", self_t),
            "extremal.is_extremal_point": ("extremal.is_extremal_point_s", self_t),
            "extremal.minimal_extremal_descent": ("extremal.descent_s", self_t),
            "extremal.argmax_face": ("extremal.argmax_face_s", self_t),
            "space_core.check_axioms": ("space_core.check_axioms_s", self_t),
            "instances.generate_instance": ("instances.generate_s", self_t),
            "cli.report_write": ("cli.report_write_s", self_t),
        }.get(name)
        if simple:
            add(simple[0], simple[1] * scale)
        if name == "convexity.hull_closure":
            add("convexity.hull_rounds", counts.get("rounds", 0) * scale)
            add("convexity.hull_inserted", counts.get("inserted", 0) * scale)
        elif name == "extremal.extremal_points":
            add("extremal.survivors", counts.get("survivors", 0) * scale)
        elif name == "space_core.check_axioms":
            add("space_core.quadruples_checked", counts.get("quadruples", 0) * scale)

    queries = total.get("convexity.hull_queries", 0.0)
    total["convexity.hull_insert_ratio"] = (
        total.get("convexity.hull_inserted", 0.0) / queries if queries else 0.0)
    round_self = sum(t for s, t in zip(spans, selfs) if not in_setup[s[0]])
    total["trace.self_time_sum_s"] = round_self / rounds
    total["trace.spans"] = float(len(spans))
    return dict(total)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [
        ("km_verify.extremal_s", "s"), ("km_verify.hull_of_extremal_s", "s"),
        ("km_verify.hausdorff_s", "s"), ("km_verify.run_paper_checks_s", "s"),
        ("convexity.hull_closure_s", "s"), ("convexity.hull_rounds", "count"),
        ("convexity.hull_pairs", "count"), ("convexity.hull_queries", "count"),
        ("convexity.hull_inserted", "count"), ("convexity.hull_insert_ratio", "ratio"),
        ("convexity.pointnet_build_s", "s"), ("convexity.check_convex_functional_s", "s"),
        ("convexity.hausdorff_s", "s"),
        ("extremal.extremal_points_s", "s"), ("extremal.survivors", "count"),
        ("extremal.chord_pairs", "count"), ("extremal.is_extremal_set_s", "s"),
        ("extremal.set_chord_pairs", "count"), ("extremal.is_extremal_point_s", "s"),
        ("extremal.descent_s", "s"), ("extremal.argmax_face_s", "s"),
    ]
    for k in KINDS:
        base = f"model_spaces.{k}."
        names += [(base + "dist_matrix_s", "s"), (base + "dist_entries", "count"),
                  (base + "nearest_s", "s"), (base + "nearest_queries", "count"),
                  (base + "make_index_s", "s"), (base + "segment_batch_s", "s"),
                  (base + "segment_samples", "count"), (base + "chord_dists_s", "s"),
                  (base + "chord_entries", "count"), (base + "points_from_packed_s", "s")]
    names += [
        ("space_core.check_axioms_s", "s"), ("space_core.quadruples_checked", "count"),
        ("instances.generate_s", "s"), ("cli.report_write_s", "s"),
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
        ("trace.self_time_sum_s", "s"), ("trace.spans", "count"),
    ]
    return names
