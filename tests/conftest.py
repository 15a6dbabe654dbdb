"""Shared fixtures: standard spaces and nets, built once per session."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bicombing_lab import (
    ExtremalParams,
    MetricTreeSpec,
    NormedSpaceSpec,
    PointNet,
    ProductPoint,
    ProductSpaceSpec,
    euclidean,
    hull_closure,
    hyperboloid,
    make_hyperbolic_plane,
    make_lp_space,
    make_metric_tree,
    make_product,
    star_tree,
)


@pytest.fixture(scope="session")
def plane():
    return make_lp_space(NormedSpaceSpec(2, 2.0))


@pytest.fixture(scope="session")
def space3d():
    return make_lp_space(NormedSpaceSpec(3, 2.0))


@pytest.fixture(scope="session")
def hplane():
    return make_hyperbolic_plane()


@pytest.fixture(scope="session")
def star3():
    return star_tree(3)


@pytest.fixture(scope="session")
def path_tree():
    return make_metric_tree(
        MetricTreeSpec(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 2.0)))
    )


#: caterpillar: spine s0-s1-s2-s3 with six legs, non-dyadic lengths, about
#: half the edges stored head-first; the legs' free ends are its leaves
CATERPILLAR_NODES = ("s0", "s1", "s2", "s3", "a0", "b0", "a1", "a2", "b2", "a3")
CATERPILLAR_EDGES = (
    ("s0", "s1", 0.7), ("s2", "s1", 0.55), ("s2", "s3", 0.8),
    ("a0", "s0", 0.42), ("s0", "b0", 0.6), ("s1", "a1", 0.35),
    ("a2", "s2", 0.65), ("s2", "b2", 0.4), ("a3", "s3", 0.5),
)


@pytest.fixture(scope="session")
def caterpillar():
    return make_metric_tree(MetricTreeSpec(CATERPILLAR_NODES, CATERPILLAR_EDGES))


@pytest.fixture(scope="session")
def random_tree():
    """Seeded random recursive tree on 1000 nodes: node i hangs off a uniformly
    drawn earlier node by an edge of non-dyadic length (a uniform draw over 3),
    stored head-first about half the time."""
    rng = np.random.default_rng(1000)
    names = [f"v{i}" for i in range(1000)]
    edges = []
    for i in range(1, len(names)):
        parent = names[int(rng.integers(0, i))]
        w = float(rng.uniform(0.1, 1.0)) / 3.0
        edges.append((parent, names[i], w) if rng.random() < 0.5 else (names[i], parent, w))
    return make_metric_tree(MetricTreeSpec(tuple(names), tuple(edges)))


@pytest.fixture(scope="session")
def square_grid(plane):
    """Unit-square rasterization at step 0.05 with matching net resolution."""
    xs = [round(k * 0.05, 10) for k in range(21)]
    return PointNet.build(plane, [euclidean(x, y) for x in xs for y in xs], 0.05)


@pytest.fixture(scope="session")
def segment_grid(plane):
    xs = [round(k * 0.05, 10) for k in range(21)]
    return PointNet.build(plane, [euclidean(x, 0.0) for x in xs], 0.05)


@pytest.fixture(scope="session")
def grid_params():
    """Exactness-tuned detection parameters for step-0.05 grids: the exclusion
    radius sits below the grid step so opposite neighbours form refuting
    chords, and the hit radius sits below the corner clearance delta/sqrt(2)."""
    return ExtremalParams(eps=0.02, delta=0.04, t_grid=7, face_tol=0.0125)


def hyp_triangle_vertices(side: float = 1.0):
    c, s = math.cosh(side), math.sinh(side)
    costh = (c * c - c) / (s * s)
    sinth = math.sqrt(max(0.0, 1.0 - costh * costh))
    return [hyperboloid(1, 0, 0), hyperboloid(c, s, 0), hyperboloid(c, s * costh, s * sinth)]


@pytest.fixture(scope="session")
def hyp_triangle_hull(hplane):
    verts = hyp_triangle_vertices()
    seed = PointNet.build(hplane, verts, 0.1)
    res = hull_closure(hplane, seed)
    assert res.converged
    return res.net, verts


@pytest.fixture(scope="session")
def hyp_params():
    """Exactness-tuned parameters for the side-1 triangle hull at eps 0.1
    (vertex gaps are 0.0625, so the exclusion radius fits below them)."""
    return ExtremalParams(eps=0.025, delta=0.05, t_grid=7, face_tol=0.00625)


@pytest.fixture(scope="session")
def star_hulls():
    """Closed-up star trees keyed by leaf count, with their leaf point lists."""
    out = {}
    for k in (2, 3, 5):
        t = star_tree(k)
        leaves = [t.node_point(f"l{i}") for i in range(k)]
        res = hull_closure(t, PointNet.build(t, leaves, 0.05))
        assert res.converged
        out[k] = (t, res.net, leaves)
    return out


@pytest.fixture(scope="session")
def tree_params():
    """Exactness-tuned parameters for star hulls at eps 0.05 (leaf gaps are
    0.03125; on a tree any chord between points beyond delta stays beyond
    delta, so leaves are safe for every delta >= eps)."""
    return ExtremalParams(eps=0.015, delta=0.025, t_grid=7, face_tol=0.00375)


@pytest.fixture(scope="session")
def product_space():
    seg = make_lp_space(NormedSpaceSpec(1, 2.0))
    return make_product(ProductSpaceSpec(seg, seg))


@pytest.fixture(scope="session")
def product_corners():
    return [ProductPoint(euclidean(a), euclidean(b)) for a in (0.0, 1.0) for b in (0.0, 1.0)]
