"""Green cross approximation: interpolation bases and compressed operators.

The Green quadrature factor of a cluster is thin (2k columns), so cross
approximation with full pivoting is affordable.  Its pivot rows serve as
algebraic interpolation points: an admissible block is then reproduced from
exact matrix entries at those rows instead of from the quadrature surrogate,
which repairs most of the quadrature error.  Running the construction
bottom-up through the children's pivot rows yields nested bases with small
transfer matrices, i.e. an H2-matrix.

Three compressed representations are built here:

* ``build_green``    - per-block low-rank factors A B^T straight from the
                       box quadrature (the baseline),
* ``build_flat_gca`` - per-cluster interpolation, coupling rows x full
                       column sets (non-nested),
* ``build_h2``       - nested bases, pivot x pivot couplings.

The two non-nested ones are both :class:`BlockLowRank` operators.
"""

from collections import namedtuple

import numpy as np

from . import assembly, h2
from .batchexec import DEFAULT_CAPACITY
from .clustering import ADMISSIBLE
from .errors import ConfigError, StateError
from .quadrature import DISJOINT, green_box_rule

__all__ = [
    "Interpolation", "aca_interpolation", "BasisNode", "ClusterBasis",
    "build_cluster_basis", "expand_basis", "CouplingBlock", "NearfieldBlock",
    "H2Matrix", "build_h2", "BlockLowRank", "build_green", "build_flat_gca",
]


Interpolation = namedtuple("Interpolation", "pivots v")


def aca_interpolation(a, eps, max_rank=None):
    """Cross approximation of a thin matrix with full pivoting.

    Repeatedly removes the rank-one cross through the largest residual entry
    and records its row.  Stops once the residual Frobenius norm drops below
    ``eps`` times the input norm or ``max_rank`` crosses are taken (default:
    the column count).

    Returns an :class:`Interpolation` whose matrix ``v`` satisfies
    ``v[pivots] == identity`` exactly and ``v @ a[pivots]`` reproduces the
    rank-r cross approximation of ``a``.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    n, w = a.shape
    limit = min(n, w if max_rank is None else int(max_rank))
    norm = np.linalg.norm(a)
    r = a.copy()
    pivots = []
    crosses = []
    while len(pivots) < limit and np.linalg.norm(r) > eps * norm:
        i, j = np.unravel_index(np.argmax(np.abs(r)), r.shape)
        piv = r[i, j]
        if piv == 0.0:
            break
        u = r[:, j] / piv
        r -= np.outer(u, r[i, :])
        pivots.append(int(i))
        crosses.append(u)
    rank = len(pivots)
    pivots = np.asarray(pivots, dtype=np.intp)
    if rank == 0:
        return Interpolation(pivots, np.zeros((n, 0)))
    # Residuals vanish on earlier pivot rows, so the cross columns restricted
    # to the pivot rows form a unit lower triangular matrix and
    # v = U (U|pivots)^-1 interpolates: v|pivots = I, v A|pivots = sum u l^T.
    u_mat = np.stack(crosses, axis=1)
    v = np.linalg.solve(u_mat[pivots].T, u_mat.T).T
    v[pivots] = np.eye(rank)
    return Interpolation(pivots, v)


class _Rows:
    """Stand-in cluster: explicit dof rows considered under a given box."""

    __slots__ = ("indices", "box")

    def __init__(self, indices, box):
        self.indices = indices
        self.box = box


class BasisNode:
    """Per-cluster content of a nested basis.

    Leaves carry the interpolation matrix ``v`` (cluster size x rank);
    internal nodes carry nothing themselves, but each non-root node holds the
    ``transfer`` matrix (own rank x parent rank) its parent assigned to it.
    ``pivots`` are global dof indices.
    """

    __slots__ = ("cluster", "pivots", "v", "transfer", "children")

    def __init__(self, cluster, pivots, v, children):
        self.cluster = cluster
        self.pivots = pivots
        self.v = v
        self.transfer = None
        self.children = children

    @property
    def rank(self):
        return len(self.pivots)

    def nodes(self):
        out = [self]
        for c in self.children:
            out.extend(c.nodes())
        return out

    def __repr__(self):
        return "BasisNode(#%d, rank %d)" % (self.cluster.index, self.rank)


class ClusterBasis:
    """Nested interpolation basis over a cluster tree.

    Usually a single tree of basis nodes, but when built with ``marks`` the
    unneeded top of the cluster tree carries no basis content and ``roots``
    holds the maximal materialized nodes (a forest).
    """

    def __init__(self, roots, by_index):
        self.roots = roots
        self._by_index = by_index

    @property
    def root(self):
        if len(self.roots) != 1:
            raise ConfigError("basis is a forest, not a single tree")
        return self.roots[0]

    def node(self, cluster):
        return self._by_index[cluster.index]

    def nodes(self):
        return [bn for r in self.roots for bn in r.nodes()]


def coupling_marks(btree):
    """Cluster indices appearing in admissible leaves, per side.

    Returns (row marks, col marks); passing these to build_cluster_basis
    skips basis content that no coupling block would ever consume.
    """
    rows, cols = set(), set()
    for leaf in btree.admissible_leaves():
        rows.add(leaf.row.index)
        cols.add(leaf.col.index)
    return rows, cols


def build_cluster_basis(tree, mesh, basis, m, delta_factor=0.5, eps=1e-4,
                        side="row", orders=(3, 5), marks=None):
    """Nested interpolation basis, built bottom-up over ``tree``.

    Each leaf interpolates its Green quadrature factor (box rule of order m,
    boundary pushed out by ``delta_factor`` times the box diameter).
    Internal nodes rebuild the factor only at the union of the children's
    pivot rows, with the node's own box; splitting the resulting
    interpolation matrix along the children gives the transfer matrices.

    ``side`` picks the row or column role of the factorization.  The
    collocation basis (point evaluation rows) exists only on the row side.

    ``marks`` (a set of cluster indices, see :func:`coupling_marks`)
    restricts the build to clusters that actually feed a coupling block:
    a node is materialized iff itself or an ancestor is marked.  Clusters
    above every mark keep no basis content; they only appear densely in the
    nearfield, so transfer matrices there would be dead storage.
    """
    if side not in ("row", "col"):
        raise ConfigError("side must be 'row' or 'col', got %r" % (side,))

    def factor(node, rows):
        rule = green_box_rule(node.box, delta_factor * node.box.diameter(), m)
        stub = _Rows(rows, node.box)
        if side == "row":
            return assembly.green_row_factor(stub, rule, mesh, basis, orders)
        return assembly.green_col_factor((stub, stub), rule, mesh, basis,
                                         orders)

    by_index = {}
    roots = []

    def build(node):
        if node.is_leaf():
            rows = np.asarray(node.indices)
            interp = aca_interpolation(factor(node, rows), eps)
            bn = BasisNode(node, rows[interp.pivots], interp.v, ())
        else:
            kids = tuple(build(c) for c in node.children)
            rows = np.concatenate([k.pivots for k in kids])
            interp = aca_interpolation(factor(node, rows), eps)
            split = np.cumsum([k.rank for k in kids])[:-1]
            for k, e in zip(kids, np.split(interp.v, split, axis=0)):
                k.transfer = e
            bn = BasisNode(node, rows[interp.pivots], None, kids)
        by_index[node.index] = bn
        return bn

    def walk(node):
        # descend past unmarked territory; build wherever a mark covers us
        if marks is None or node.index in marks:
            roots.append(build(node))
            return
        for c in node.children:
            walk(c)

    walk(tree)
    return ClusterBasis(roots, by_index)


def expand_basis(node):
    """Dense cluster-size x rank matrix realized by the nested basis."""
    if not node.children:
        return node.v
    return np.vstack([expand_basis(c) @ c.transfer for c in node.children])


CouplingBlock = namedtuple("CouplingBlock", "row col values")
NearfieldBlock = namedtuple("NearfieldBlock", "row col values")


class H2Matrix:
    """Compressed operator: nested bases plus coupling/nearfield blocks.

    ``coupling`` holds exact matrix entries at pivot rows x pivot columns for
    every admissible block-tree leaf, ``nearfield`` the dense inadmissible
    leaves.  Block row/col fields reference cluster tree nodes; vectors in
    tree ordering address them through start/stop slices.  The constructor
    packs blocks and bases for the matvec (``h2.pack``); block values and
    basis matrices become views into the packed arrays.
    """

    def __init__(self, row_tree, col_tree, row_basis, col_basis, coupling,
                 nearfield, exec_stats=None):
        self.row_tree = row_tree
        self.col_tree = col_tree
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.coupling = coupling
        self.nearfield = nearfield
        self.exec_stats = exec_stats
        self.packed = h2.pack(self)

    @property
    def shape(self):
        return (self.row_tree.size, self.col_tree.size)

    def __repr__(self):
        return "H2Matrix(%dx%d, %d coupling, %d nearfield)" % (
            self.shape + (len(self.coupling), len(self.nearfield)))


def _make_executor(kind, mesh, basis, disc, orders, capacity, threads):
    if disc == "galerkin":
        ex = assembly.make_galerkin_executor(kind, mesh, basis, orders,
                                             capacity, threads)

        def enqueue(rows, cols, bid, case=None):
            assembly.enqueue_galerkin_tasks(ex, mesh, basis, rows, cols, bid,
                                            case)
    elif disc == "collocation":
        if basis != "linear":
            raise ConfigError("collocation rows pair with the linear basis")
        ex = assembly.make_collocation_executor(kind, mesh, orders, capacity,
                                                threads)

        def enqueue(rows, cols, bid, case=None):
            assembly.enqueue_collocation_tasks(ex, mesh, rows, cols, bid,
                                               case)
    else:
        raise ConfigError("unknown discretization %r" % (disc,))
    return ex, enqueue


def _far_case(leaf):
    """Singularity case of every entry pair of an admissible leaf.

    Cluster boxes contain the supports of their basis functions, so boxes at
    positive distance share no vertex and every triangle pair (or point and
    triangle) of the block is disjoint, the regular case 0 of both
    discretizations. The executor trusts this and skips classification, so
    the invariant is checked here.
    """
    if not leaf.row.box.distance(leaf.col.box) > 0.0:
        raise StateError("admissible block #%d x #%d: cluster boxes touch"
                         % (leaf.row.index, leaf.col.index))
    return DISJOINT


def build_h2(btree, row_basis, col_basis, mesh, kind="slp", basis="constant",
             disc="galerkin", orders=(3, 5), capacity=DEFAULT_CAPACITY,
             threads=None):
    """Assemble the H2-matrix over a block tree and two nested bases.

    Admissible leaves get exact entries at pivot rows x pivot columns, all
    from disjoint pairs (see :func:`_far_case`); inadmissible leaves get
    dense blocks, classified pair by pair.  Every entry request is routed
    through one batch executor, so results do not depend on capacity or
    thread count.
    """
    ex, enqueue = _make_executor(kind, mesh, basis, disc, orders, capacity,
                                 threads)
    plan = []
    with ex:
        for leaf in btree.leaves():
            if leaf.state == ADMISSIBLE:
                rows = row_basis.node(leaf.row).pivots
                cols = col_basis.node(leaf.col).pivots
                case = _far_case(leaf)
            else:
                rows = leaf.row.indices
                cols = leaf.col.indices
                case = None
            bid = ex.register_block(len(rows), len(cols))
            enqueue(rows, cols, bid, case)
            plan.append((leaf, bid))
        mats = ex.finalize()
    coupling = [CouplingBlock(leaf.row, leaf.col, mats[bid])
                for leaf, bid in plan if leaf.state == ADMISSIBLE]
    nearfield = [NearfieldBlock(leaf.row, leaf.col, mats[bid])
                 for leaf, bid in plan if leaf.state != ADMISSIBLE]
    return H2Matrix(btree.row, btree.col, row_basis, col_basis, coupling,
                    nearfield, ex.stats())


def _tree_split(perm, x, n_out):
    xt = np.asarray(x, dtype=np.float64)[perm]
    return xt, np.zeros(n_out)


def _unpermute(perm, yt):
    y = np.empty_like(yt)
    y[perm] = yt
    return y


class BlockLowRank:
    """Block low-rank operator with a dense nearfield, for the baselines.

    Every admissible block is a product L R: the left factor L belongs to
    the row cluster and is shared by all blocks of that row, the right
    factor R is the block's own. The Green-only baseline has L = A and
    R = B^T, flat GCA the interpolation matrix L = V and the exact entries
    R = S at the pivot rows and all block columns.
    """

    def __init__(self, row_root, col_root, left, blocks, nearfield):
        self.row_root = row_root
        self.col_root = col_root
        self.left = left                # row cluster index -> L
        self.blocks = blocks            # (row, col, R) triples
        self._near, self.nearfield = h2.nearfield_rows(nearfield)

    @property
    def shape(self):
        return (self.row_root.size, self.col_root.size)

    def matvec(self, x):
        xt, yt = _tree_split(self.col_root.perm, x, self.shape[0])
        for row, col, r in self.blocks:
            yt[row.start:row.stop] += self.left[row.index] @ (
                r @ xt[col.start:col.stop])
        self._near.add_mvm(xt, yt)
        return _unpermute(self.row_root.perm, yt)

    def rmatvec(self, y):
        yt, xt = _tree_split(self.row_root.perm, y, self.shape[1])
        for row, col, r in self.blocks:
            xt[col.start:col.stop] += r.T @ (
                self.left[row.index].T @ yt[row.start:row.stop])
        self._near.add_mvm_t(yt, xt)
        return _unpermute(self.col_root.perm, xt)

    def apply(self, x, trans=False):
        return self.rmatvec(x) if trans else self.matvec(x)

    def storage(self):
        """Byte counts at 8 bytes per real."""
        left = sum(8 * a.size for a in self.left.values())
        right = sum(8 * r.size for _, _, r in self.blocks)
        nearfield = sum(8 * blk.values.size for blk in self.nearfield)
        return {"left": left, "right": right, "nearfield": nearfield,
                "total": left + right + nearfield}


def build_green(btree, mesh, kind="slp", basis="constant", disc="galerkin",
                m=4, delta_factor=0.5, orders=(3, 5),
                capacity=DEFAULT_CAPACITY, threads=None):
    """Green-only compression: rank-2k quadrature factors per admissible
    block, dense nearfield."""
    row_basis = "collocation" if disc == "collocation" else basis
    ex, enqueue = _make_executor(kind, mesh, basis, disc, orders, capacity,
                                 threads)
    factors = {}
    rules = {}
    blocks = []
    plan = []
    with ex:
        for leaf in btree.leaves():
            if leaf.state == ADMISSIBLE:
                tau, sigma = leaf.row, leaf.col
                if tau.index not in factors:
                    rule = green_box_rule(tau.box,
                                          delta_factor * tau.box.diameter(), m)
                    rules[tau.index] = rule
                    factors[tau.index] = assembly.green_row_factor(
                        tau, rule, mesh, row_basis, orders)
                b = assembly.green_col_factor((tau, sigma), rules[tau.index],
                                              mesh, basis, orders)
                blocks.append((tau, sigma, b.T))
            else:
                bid = ex.register_block(leaf.row.size, leaf.col.size)
                enqueue(leaf.row.indices, leaf.col.indices, bid)
                plan.append((leaf, bid))
        mats = ex.finalize()
    nearfield = [NearfieldBlock(leaf.row, leaf.col, mats[bid])
                 for leaf, bid in plan]
    return BlockLowRank(btree.row, btree.col, factors, blocks, nearfield)


def build_flat_gca(btree, mesh, kind="slp", basis="constant",
                   disc="galerkin", m=4, delta_factor=0.5, eps=1e-4,
                   orders=(3, 5), capacity=DEFAULT_CAPACITY, threads=None):
    """Non-nested cross approximation over the block tree.

    Every cluster appearing as the row of an admissible leaf interpolates
    its full Green factor once; the block then stores exact entries at the
    pivot rows and all of the block's columns.
    """
    row_basis = "collocation" if disc == "collocation" else basis
    ex, enqueue = _make_executor(kind, mesh, basis, disc, orders, capacity,
                                 threads)
    pivots = {}
    bases = {}
    plan = []
    with ex:
        for leaf in btree.leaves():
            if leaf.state == ADMISSIBLE:
                tau = leaf.row
                if tau.index not in bases:
                    rule = green_box_rule(tau.box,
                                          delta_factor * tau.box.diameter(), m)
                    a = assembly.green_row_factor(tau, rule, mesh, row_basis,
                                                  orders)
                    interp = aca_interpolation(a, eps)
                    pivots[tau.index] = np.asarray(tau.indices)[interp.pivots]
                    bases[tau.index] = interp.v
                rows = pivots[tau.index]
                cols = leaf.col.indices
                case = _far_case(leaf)
            else:
                rows = leaf.row.indices
                cols = leaf.col.indices
                case = None
            bid = ex.register_block(len(rows), len(cols))
            enqueue(rows, cols, bid, case)
            plan.append((leaf, bid))
        mats = ex.finalize()
    # copies: views would keep the executor's buffer, and with it the
    # nearfield values already packed, alive
    blocks = [(leaf.row, leaf.col, mats[bid].copy())
              for leaf, bid in plan if leaf.state == ADMISSIBLE]
    nearfield = [NearfieldBlock(leaf.row, leaf.col, mats[bid])
                 for leaf, bid in plan if leaf.state != ADMISSIBLE]
    return BlockLowRank(btree.row, btree.col, bases, blocks, nearfield)
