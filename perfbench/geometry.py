"""Distance and segment formulas written apart from the lab's own kernels.

The checkers in ``checks.py`` judge the lab's outputs with these formulas
only, so a fault in a lab kernel cannot hide itself:

- l^2: coordinate norms and straight lines;
- hyperbolic plane: arccosh of the Minkowski pairing, and segments through
  the exponential map at the first endpoint;
- metric trees: points are re-expressed as (child node, weighted depth) on a
  tree rooted by this module's own walk, distances come from the parent
  walk to the meeting point, and segments walk that same path;
- l^2 products: hypot of the factor distances, segments factor by factor.

Each geometry converts report JSON point objects with ``from_objs`` and
offers ``dist`` (pairwise matrix), ``min_dist`` (row minima, in blocks) and
``segment`` (one point per row pair at its own parameter).
"""

from __future__ import annotations

import numpy as np

_BLOCK_ENTRIES = 2_000_000


class _Geometry:
    def take(self, A, rows):
        return A[rows]

    def size(self, A) -> int:
        return len(A)

    def min_dist(self, A, B) -> np.ndarray:
        """Row minima of dist(A, B), computed in row blocks."""
        na, nb = self.size(A), self.size(B)
        rows = max(1, _BLOCK_ENTRIES // max(nb, 1))
        out = np.empty(na)
        for lo in range(0, na, rows):
            sl = np.arange(lo, min(lo + rows, na))
            out[sl] = self.dist(self.take(A, sl), B).min(axis=1)
        return out


class Euclidean(_Geometry):
    def __init__(self, dim: int):
        self.dim = dim

    def from_objs(self, objs) -> np.ndarray:
        return np.array([o["coords"] for o in objs], dtype=float).reshape(len(objs), self.dim)

    def dist(self, A, B) -> np.ndarray:
        return np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)

    def segment(self, A, B, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)[:, None]
        return A + t * (B - A)


class Hyperbolic(_Geometry):
    _SIGNS = np.array([-1.0, 1.0, 1.0])

    def from_objs(self, objs) -> np.ndarray:
        return np.array([o["coords"] for o in objs], dtype=float).reshape(len(objs), 3)

    def pairing(self, A, B) -> np.ndarray:
        return (A * self._SIGNS) @ B.T

    def dist(self, A, B) -> np.ndarray:
        return np.arccosh(np.maximum(1.0, -self.pairing(A, B)))

    def segment(self, A, B, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        c = -np.einsum("ij,ij->i", A * self._SIGNS, B)  # cosh d
        d = np.arccosh(np.maximum(1.0, c))
        U = B - c[:, None] * A  # tangent at A pointing to B, Minkowski norm sinh d
        un = np.sqrt(np.maximum(np.einsum("ij,ij->i", U * self._SIGNS, U), 0.0))
        safe = np.where(un > 0, un, 1.0)
        out = np.cosh(t * d)[:, None] * A + (np.sinh(t * d) / safe)[:, None] * U
        out[un == 0] = A[un == 0]
        return out

    def klein(self, A) -> np.ndarray:
        return A[:, 1:] / A[:, :1]


class Tree(_Geometry):
    """Metric tree rooted at its first node.  A point is stored as the child
    node of the edge it lies on and its weighted depth from the root."""

    def __init__(self, nodes, edges):
        self.n = len(nodes)
        idx = {name: i for i, name in enumerate(nodes)}
        self.edges = [(idx[u], idx[v], float(w)) for u, v, w in edges]
        adj = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.parent = [-1] * self.n
        self.depth = np.zeros(self.n)
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt, w in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    self.parent[nxt] = cur
                    self.depth[nxt] = self.depth[cur] + w
                    stack.append(nxt)
        # anc[x, y]: y lies on the walk from x up to the root (x included)
        self.anc = np.zeros((self.n, self.n), dtype=bool)
        for x in range(self.n):
            y = x
            while y != -1:
                self.anc[x, y] = True
                y = self.parent[y]

    def from_objs(self, objs):
        child = np.empty(len(objs), dtype=np.int64)
        wd = np.empty(len(objs))
        for k, o in enumerate(objs):
            u, v, w = self.edges[o["edge"]]
            if self.parent[v] == u:
                child[k], wd[k] = v, self.depth[u] + o["offset"]
            else:
                child[k], wd[k] = u, self.depth[v] + (w - o["offset"])
        return child, wd

    def dist(self, A, B) -> np.ndarray:
        ca, wa = A
        cb, wb = B
        common = self.anc[ca][:, None, :] & self.anc[cb][None, :, :]
        meet = np.where(common, self.depth[None, None, :], -np.inf).max(axis=2)
        # the walks from a and b meet at their lowest common node, unless one
        # point hangs below the other's edge (then the upper point is the
        # meeting point) or both lie on one edge
        b_below_a = self.anc[cb][:, ca].T
        a_below_b = self.anc[ca][:, cb]
        meet = np.where(b_below_a, wa[:, None], meet)
        meet = np.where(a_below_b, wb[None, :], meet)
        same = ca[:, None] == cb[None, :]
        meet = np.where(same, np.minimum(wa[:, None], wb[None, :]), meet)
        return wa[:, None] + wb[None, :] - 2.0 * meet

    def _locate(self, node: int, target: float):
        """Point at weighted depth target on the walk from node up to the root."""
        while self.parent[node] != -1 and self.depth[self.parent[node]] > target:
            node = self.parent[node]
        return node, target

    def segment(self, A, B, t):
        """Walk up from the first point to the meeting point, then down."""
        ca, wa = A
        cb, wb = B
        out_c = np.empty(len(ca), dtype=np.int64)
        out_w = np.empty(len(ca))
        for k in range(len(ca)):
            a, b, x, y = int(ca[k]), int(cb[k]), float(wa[k]), float(wb[k])
            meet = (x + y - self.dist((ca[k:k + 1], wa[k:k + 1]),
                                      (cb[k:k + 1], wb[k:k + 1]))[0, 0]) / 2.0
            s = float(t[k]) * (x + y - 2.0 * meet)
            up = x - meet
            if s <= up:
                out_c[k], out_w[k] = self._locate(a, x - s)
            else:
                out_c[k], out_w[k] = self._locate(b, meet + (s - up))
        return out_c, out_w

    def take(self, A, rows):
        return A[0][rows], A[1][rows]

    def size(self, A) -> int:
        return len(A[0])


class Product(_Geometry):
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def from_objs(self, objs):
        return (self.left.from_objs([o["left"] for o in objs]),
                self.right.from_objs([o["right"] for o in objs]))

    def dist(self, A, B) -> np.ndarray:
        return np.hypot(self.left.dist(A[0], B[0]), self.right.dist(A[1], B[1]))

    def segment(self, A, B, t):
        return self.left.segment(A[0], B[0], t), self.right.segment(A[1], B[1], t)

    def take(self, A, rows):
        return self.left.take(A[0], rows), self.right.take(A[1], rows)

    def size(self, A) -> int:
        return self.left.size(A[0])


def geometry_for(desc: dict):
    """Geometry for a space description as written in instance files."""
    kind = desc["kind"]
    if kind == "lp":
        if desc["p"] != 2.0:
            raise ValueError(f"independent formulas cover l^2 only, got p={desc['p']}")
        return Euclidean(desc["dim"])
    if kind == "hyperbolic":
        return Hyperbolic()
    if kind == "tree":
        return Tree(desc["nodes"], desc["edges"])
    if kind == "product":
        return Product(geometry_for(desc["left"]), geometry_for(desc["right"]))
    raise ValueError(f"unknown space kind {kind!r}")
