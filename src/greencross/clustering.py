"""Cluster trees over degree-of-freedom index sets and admissibility block trees.

A cluster tree recursively halves a permutation of the DOF indices; every node
carries an axis-parallel box containing the supports of its basis functions.
The block tree pairs clusters and classifies each pair as admissible (far
field, compressible), inadmissible leaf (near field, dense), or subdivided.
"""

import math

import numpy as np

from .errors import ConfigError
from .geometry import control_points


class BoundingBox:
    """Axis-parallel box given by componentwise lower/upper corners.

    The diameter is computed once, here: block tree construction asks for
    it twice per admissibility test.
    """

    __slots__ = ("lower", "upper", "_diameter")

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != (3,) or self.upper.shape != (3,):
            raise ConfigError("bounding box corners must be 3-vectors")
        if np.any(self.lower > self.upper):
            raise ConfigError("bounding box has lower > upper")
        self._diameter = float(np.linalg.norm(self.upper - self.lower))

    def diameter(self):
        return self._diameter

    def distance(self, other):
        # componentwise gap; zero for overlapping or touching boxes. The
        # norm as np.linalg.norm computes it, without its per-call checks
        gap = np.maximum(0.0, np.maximum(self.lower - other.upper,
                                         other.lower - self.upper))
        return math.sqrt(gap @ gap)

    def __repr__(self):
        return "BoundingBox(%s, %s)" % (self.lower.tolist(), self.upper.tolist())


def admissible(tau, sigma, eta):
    """max{diam(tau), diam(sigma)} <= 2*eta*dist(tau, sigma)."""
    if eta <= 0:
        raise ConfigError("eta must be positive, got %r" % (eta,))
    d = max(tau.diameter(), sigma.diameter())
    return d <= 2.0 * eta * tau.distance(sigma)


class ClusterTree:
    """Node of a binary cluster tree.

    The tree owns a global permutation ``perm`` of the DOF indices; each node
    covers the contiguous slice ``perm[start:stop]``.  ``box`` contains the
    supports of all basis functions of the node, not just their reference
    points.  ``index`` is the preorder number of the node.
    """

    __slots__ = ("perm", "start", "stop", "box", "children", "index")

    def __init__(self, perm, start, stop, box, children, index):
        self.perm = perm
        self.start = start
        self.stop = stop
        self.box = box
        self.children = children
        self.index = index

    @property
    def size(self):
        return self.stop - self.start

    @property
    def indices(self):
        """DOF indices of this node (view into the global permutation)."""
        return self.perm[self.start:self.stop]

    def is_leaf(self):
        return not self.children

    def nodes(self):
        """All nodes in preorder."""
        out = [self]
        for c in self.children:
            out.extend(c.nodes())
        return out

    def leaves(self):
        if self.is_leaf():
            return [self]
        return [l for c in self.children for l in c.leaves()]

    def __repr__(self):
        return "ClusterTree(#%d, %d dofs, %s)" % (
            self.index, self.size, "leaf" if self.is_leaf() else "2 children")


def _support_boxes(mesh, basis_kind):
    """Per-DOF reference points and support bounds.

    Returns (points, lo, hi): reference point, componentwise support lower and
    upper bounds, each of shape (n, 3).  For the constant basis the support of
    DOF i is triangle i; for the linear basis it is the star of vertex i.
    Curved triangles are bounded through their Bezier control points.
    """
    ctrl = control_points(mesh)          # (nt, k, 3)
    tri_lo = ctrl.min(axis=1)
    tri_hi = ctrl.max(axis=1)
    if basis_kind == "constant":
        return mesh.centroids(), tri_lo, tri_hi
    stars = mesh.vertex_stars()
    counts = np.array([len(s) for s in stars])
    if np.any(counts == 0):
        raise ConfigError("mesh has isolated vertices")
    adj = np.concatenate(stars)
    starts = np.concatenate(([0], np.cumsum(counts)))
    lo = np.minimum.reduceat(tri_lo[adj], starts[:-1], axis=0)
    hi = np.maximum.reduceat(tri_hi[adj], starts[:-1], axis=0)
    return mesh.vertices.copy(), lo, hi


def build_cluster_tree(mesh, basis_kind="constant", leaf_size=32):
    """Binary cluster tree over the DOFs of ``mesh``.

    Splits along the longest axis of the node's support box at the positional
    median of the DOF reference points.  DOFs are triangles for the constant
    basis and vertices for the linear basis.
    """
    if basis_kind not in ("constant", "linear"):
        raise ConfigError("unknown basis kind %r" % (basis_kind,))
    if leaf_size < 1:
        raise ConfigError("leaf_size must be >= 1")
    points, lo, hi = _support_boxes(mesh, basis_kind)
    n = points.shape[0]
    perm = np.arange(n)
    counter = [0]

    def rec(start, stop):
        idx = perm[start:stop]
        box = BoundingBox(lo[idx].min(axis=0), hi[idx].max(axis=0))
        node_index = counter[0]
        counter[0] += 1
        if stop - start <= leaf_size:
            return ClusterTree(perm, start, stop, box, (), node_index)
        axis = int(np.argmax(box.upper - box.lower))
        order = np.argsort(points[idx, axis], kind="stable")
        perm[start:stop] = idx[order]
        mid = start + (stop - start) // 2
        left = rec(start, mid)
        right = rec(mid, stop)
        return ClusterTree(perm, start, stop, box, (left, right), node_index)

    return rec(0, n)


ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"
SUBDIVIDED = "subdivided"


class BlockTree:
    """Node of the block tree over pairs (row cluster, column cluster)."""

    __slots__ = ("row", "col", "state", "children")

    def __init__(self, row, col, state, children):
        self.row = row
        self.col = col
        self.state = state
        self.children = children

    def is_leaf(self):
        return self.state != SUBDIVIDED

    def leaves(self):
        if self.is_leaf():
            return [self]
        return [l for c in self.children for l in c.leaves()]

    def admissible_leaves(self):
        return [b for b in self.leaves() if b.state == ADMISSIBLE]

    def inadmissible_leaves(self):
        return [b for b in self.leaves() if b.state == INADMISSIBLE]

    def __repr__(self):
        return "BlockTree(row #%d x col #%d, %s)" % (
            self.row.index, self.col.index, self.state)


def build_block_tree(root, eta=1.0):
    """Recursive block partition of the tree's index set with itself.

    Admissible pairs become far-field leaves.  If both clusters are leaves the
    pair is a near-field leaf; otherwise the pair is subdivided, splitting
    only the cluster(s) that have children.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive, got %r" % (eta,))

    def rec(r, c):
        if admissible(r.box, c.box, eta):
            return BlockTree(r, c, ADMISSIBLE, ())
        rs = r.children if r.children else (r,)
        cs = c.children if c.children else (c,)
        if rs == (r,) and cs == (c,):
            return BlockTree(r, c, INADMISSIBLE, ())
        kids = tuple(rec(rc, cc) for rc in rs for cc in cs)
        return BlockTree(r, c, SUBDIVIDED, kids)

    return rec(root, root)
