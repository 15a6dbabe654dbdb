"""The benchmark's trace hooks (``perfbench/spans.py``) over the lab.

``perfbench/run.py --trace 1`` wraps lab functions and space methods from
outside, by name, and counts kernel work with ``space.packed_len``.  A
refactor of the lab can break that without any other test noticing, so this
module loads ``spans.py`` (read only) and runs its ``Tracer`` over small
hull closures.
"""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

from bicombing_lab import (
    NormedSpaceSpec,
    PointNet,
    ProductPoint,
    ProductSpaceSpec,
    cli,
    convexity,
    euclidean,
    extremal,
    instances,
    km_verify,
    make_lp_space,
    make_product,
    model_spaces,
    space_core,
    star_tree,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lab():
    return types.SimpleNamespace(cli=cli, convexity=convexity, extremal=extremal,
                                 instances=instances, km_verify=km_verify,
                                 model_spaces=model_spaces, space_core=space_core)


def _owners(lab):
    """Every module and class whose attributes the tracer may replace."""
    ms = lab.model_spaces
    return [*vars(lab).values(), lab.convexity.PointNet, lab.space_core.BicombedSpace,
            ms.LpSpace, ms.HyperbolicPlane, ms.TreeSpace, ms.ProductSpace,
            ms._KDTreeIndex, ms._ProductJointIndex]


def test_tracer_counts_nearest_queries_and_uninstalls():
    spans_mod, lab = _load_spans(), _lab()
    before = [(owner, dict(vars(owner))) for owner in _owners(lab)]
    line = make_lp_space(NormedSpaceSpec(1, 2.0))
    square = make_product(ProductSpaceSpec(line, line))
    square_seed = [ProductPoint(euclidean(a), euclidean(b)) for a in (0.0, 1.0) for b in (0.0, 1.0)]
    plane = make_lp_space(NormedSpaceSpec(2, 2.0))
    plane_seed = [euclidean(0.0, 0.0), euclidean(1.0, 0.0), euclidean(0.0, 1.0)]
    tree = star_tree(3)
    tree_seed = [tree.point_on_edge(e, 1.0) for e in range(3)]

    product_nearest = vars(model_spaces._ProductJointIndex)["min_dist"]
    tracer = spans_mod.Tracer(lab)
    with tracer.recording("test"):
        assert vars(model_spaces._ProductJointIndex)["min_dist"] is not product_nearest
        # through the module: the tracer swaps the lab modules' references
        lab.convexity.hull_closure(square, PointNet.build(square, square_seed, 0.25))
        lab.convexity.hull_closure(plane, PointNet.build(plane, plane_seed, 0.25))
        lab.convexity.hull_closure(tree, PointNet.build(tree, tree_seed, 0.25))
        P = tree.pack(tree_seed)
        tree.dist_matrix(P, P[:2])
        tree.min_dist(P, P[:2])

    counted = {}
    for _, _, name, kind, _, _, counts in tracer.spans:
        if counts:
            counted.setdefault((name, kind), []).append(counts)
    assert counted[("convexity.hull_closure", None)]
    for key, field in [(("index.min_dist", "product"), "queries"),
                       (("min_dist", "tree"), "queries"),
                       (("dist_matrix", "tree"), "entries"),
                       (("segment_batch", "product"), "samples"),
                       (("segment_batch", "tree"), "samples")]:
        assert key in counted, key
        assert sum(c[field] for c in counted[key]) > 0, key
    # make_index is defined on the base class only, and its spans still
    # carry the kind of the space they index
    kinds = {(name, kind) for _, _, name, kind, *_ in tracer.spans}
    assert {("make_index", "lp"), ("make_index", "product")} <= kinds
    # counted in rows, not in packed array entries
    assert [s[6] for s in tracer.spans[-2:]] == [{"entries": 6}, {"queries": 3}]
    metrics = spans_mod.layer_metrics(tracer.spans, rounds=1)
    assert metrics["model_spaces.product.nearest_queries"] > 0
    assert metrics["model_spaces.tree.nearest_queries"] > 0

    for owner, attrs in before:
        assert vars(owner).keys() == attrs.keys(), owner
        assert all(vars(owner)[k] is v for k, v in attrs.items()), owner
