"""Green cross approximation: interpolation bases and compressed operators.

The Green quadrature factor of a cluster is thin (2k columns), so cross
approximation with full pivoting is affordable.  Its pivot rows serve as
algebraic interpolation points: an admissible block is then reproduced from
exact matrix entries at those rows instead of from the quadrature surrogate,
which repairs most of the quadrature error.  Running the construction
bottom-up through the children's pivot rows yields nested bases with small
transfer matrices, i.e. an H2-matrix.

Three compressed representations are built here, all of one kind, an
:class:`H2Matrix` that ``h2`` applies and measures: a row basis, a column
basis, a coupling matrix per admissible block and a dense nearfield.

* ``build_green``    - per-block low-rank factors A B^T straight from the
                       box quadrature (the baseline): a flat row basis of
                       the factors A, identity columns, couplings B^T,
* ``build_flat_gca`` - per-cluster interpolation over a flat row basis,
                       couplings at pivot rows x full column sets
                       (non-nested),
* ``build_h2``       - nested bases, pivot x pivot couplings.

Bases are built a tree level at a time, each level in a few stacked array
operations.  Every builder lays its operator out first and assembles each
block in place.
"""

from collections import namedtuple

import numpy as np

from . import assembly, h2
from .batchexec import DEFAULT_CAPACITY
from .errors import ConfigError, SizeLimitError, StateError
from .quadrature import DISJOINT, green_box_rule

__all__ = [
    "Interpolation", "aca_interpolation", "BasisNode", "ClusterBasis",
    "build_cluster_basis", "CouplingBlock", "NearfieldBlock",
    "H2Matrix", "build_h2", "build_green", "build_flat_gca",
]


Interpolation = namedtuple("Interpolation", "pivots v")

# blocks whose B^T the Green baseline evaluates per call: about 2 MiB at
# plane L4 (leaf 16, 2k = 108)
_FACTOR_BLOCKS = 64

# memory budget of the packed blocks of one compressed build, V's and K's
# together: 1 GiB is the plane L6 constant solve's 614 MiB (V + K, default
# flags) with room, and refuses an L7 build before any integral
PACK_BYTES = 1 << 30


def check_pack_bytes(nbytes, what="its blocks"):
    """Refuse a compressed build whose ``what`` take ``nbytes`` over
    PACK_BYTES (exit 3)."""
    if nbytes > PACK_BYTES:
        raise SizeLimitError(
            "compressed build refused: %s take %d MiB, over the %d MiB "
            "budget" % (what, nbytes >> 20, PACK_BYTES >> 20))


def aca_interpolation(a, eps):
    """Cross approximation of a thin matrix with full pivoting.

    Repeatedly removes the rank-one cross through the largest residual entry
    and records its row.  Stops once the residual Frobenius norm drops below
    ``eps`` times the input norm or as many crosses are taken as the matrix
    has rows or columns.

    Returns an :class:`Interpolation` whose matrix ``v`` satisfies
    ``v[pivots] == identity`` exactly and ``v @ a[pivots]`` reproduces the
    rank-r cross approximation of ``a``.

    Given a list of matrices with one column count, makes their
    interpolations together, one array operation per pivot step over a
    stack padded with zero rows: each takes the pivots it takes alone,
    unless its residual norm, summed in another order, meets the stopping
    test within rounding.
    """
    if isinstance(a, np.ndarray) and a.ndim == 2:
        return aca_interpolation([a], eps)[0]
    if not len(a):
        return []

    def norms(x):  # the Frobenius norm of each matrix of a stack
        flat = x.reshape(len(x), 1, -1)
        return np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0])

    sizes = [len(x) for x in a]
    r = np.zeros((len(a), max(sizes), a[0].shape[1]))
    for x, rx in zip(a, r):
        rx[:len(x)] = x
    n, rows, w = r.shape
    limit = min(rows, w)
    stop = eps * norms(r)
    crosses = np.zeros((n, limit, rows))
    pivots = np.zeros((n, limit), dtype=np.intp)
    rank = np.zeros(n, dtype=np.intp)
    live = np.arange(n)  # the matrices r still holds
    scratch = np.empty_like(r)
    for step in range(limit):
        # the first entry of largest magnitude: the first maximum or the
        # first minimum, whichever is larger in magnitude or comes first
        flat, at = r.reshape(len(live), -1), np.arange(len(live))
        hi, lo = flat.argmax(axis=1), flat.argmin(axis=1)
        top, bottom = np.abs(flat[at, hi]), np.abs(flat[at, lo])
        best = np.where(top == bottom, np.minimum(hi, lo),
                        np.where(top > bottom, hi, lo))
        go = (norms(r) > stop[live]) & (flat[at, best] != 0.0)
        if not go.all():
            r, live, best = r[go], live[go], best[go]
        if not len(live):
            break
        at, (i, j) = np.arange(len(live)), np.divmod(best, w)
        u = r[at, :, j] / r[at, i, j][:, None]
        r -= np.einsum("ni,nj->nij", u, r[at, i, :],
                       out=scratch[:len(live)])
        crosses[live, step], pivots[live, step] = u, i
        rank[live] += 1
    # Residuals vanish on earlier pivot rows, so the cross columns restricted
    # to the pivot rows form a unit lower triangular matrix and
    # v = U (U|pivots)^-1 interpolates: v|pivots = I, v A|pivots = sum u l^T.
    out = []
    for k, (size, rk) in enumerate(zip(sizes, rank)):
        u, piv = crosses[k, :rk, :size], pivots[k, :rk].copy()
        v = np.linalg.solve(u[:, piv], u).T
        v[piv] = np.eye(rk)
        out.append(Interpolation(piv, v))
    return out


class BasisNode:
    """Per-cluster content of a cluster basis.

    Leaves carry the matrix ``v`` (cluster size x rank); internal nodes
    carry nothing themselves, but each non-root node holds the
    ``transfer`` matrix (own rank x parent rank) its parent assigned to it.
    The rank is read off ``v`` where there is one, else off ``pivots``,
    the global dof indices of the interpolation rows; a Green factor (see
    :func:`build_green`) has none.  An ``identity`` node is a childless
    node whose matrix is I and whose pivots are its indices in tree order,
    marked where it is made: ``h2.pack`` gives it its tree range as its
    slots and stores no matrix for it.  A cluster leaf's keeps as ``v`` a
    read-only identity that its basis shares among leaves of its size;
    the identity columns of the baselines, which can span half the tree,
    keep none.
    """

    __slots__ = ("cluster", "pivots", "v", "transfer", "children",
                 "identity")

    def __init__(self, cluster, pivots, v, children, identity=False):
        self.cluster = cluster
        self.pivots = pivots
        self.v = v
        self.transfer = None
        self.children = children
        self.identity = identity

    @property
    def rank(self):
        return len(self.pivots) if self.v is None else self.v.shape[1]

    def nodes(self):
        out = [self]
        for c in self.children:
            out.extend(c.nodes())
        return out

    def __repr__(self):
        return "BasisNode(#%d, rank %d)" % (self.cluster.index, self.rank)


class ClusterBasis:
    """Cluster basis: a forest of basis nodes over a cluster tree.

    A nested basis is usually a single tree, but when built with ``marks``
    the unneeded top of the cluster tree carries no basis content and
    ``roots`` holds the maximal materialized nodes.  The baselines' bases
    are flat: childless roots only, whose clusters may nest (see
    :func:`build_flat_gca`).
    """

    def __init__(self, roots):
        self.roots = roots
        self._by_index = {bn.cluster.index: bn for bn in self.nodes()}

    def node(self, cluster):
        return self._by_index[cluster.index]

    def nodes(self):
        return [bn for r in self.roots for bn in r.nodes()]


def _box_rules(clusters, m, delta_factor):
    """The Green box rules of the clusters' boxes as one rule of several
    boxes (see ``quadrature.green_box_rule``)."""
    lower = np.array([c.box.lower for c in clusters]).reshape(-1, 3)
    upper = np.array([c.box.upper for c in clusters]).reshape(-1, 3)
    diam = np.array([c.box.diameter() for c in clusters])
    return green_box_rule((lower, upper), delta_factor * diam, m)


def _interpolations(clusters, rows, mesh, basis, m, delta_factor, eps,
                    orders, kind=None):
    """Cross approximations of the clusters' Green factors at the given
    rows, all made together: row factors, or with ``kind`` column factors
    of that kernel (see ``assembly.green_row_factor``)."""
    segments = [(r, c.box) for c, r in zip(clusters, rows)]
    rule = _box_rules(clusters, m, delta_factor)
    if kind is None:
        a = assembly.green_row_factor(segments, rule, mesh, basis, orders)
    else:
        a = assembly.green_col_factor(segments, rule, mesh, basis, orders,
                                      kind)
    return aca_interpolation(
        np.split(a, np.cumsum([len(r) for r in rows])[:-1]), eps)


def _interpolate(cluster, interp, eyes):
    """Childless basis node of ``cluster`` from the interpolation of its
    factor at its indices, its pivots in the order the cross approximation
    chose them.  A cluster leaf whose interpolation takes every row is
    full rank, an identity node: ``pivots = cluster.indices`` in tree
    order, ``v`` the read-only identity of its size in ``eyes``, one per
    basis.  An internal cluster's factor (a flat basis node) keeps its
    matrix even at full rank, since its tree range also holds its
    descendants' nearfield rows.
    """
    rows = np.asarray(cluster.indices)
    if len(interp.pivots) < len(rows) or not cluster.is_leaf():
        return BasisNode(cluster, rows[interp.pivots], interp.v, ())
    if len(rows) not in eyes:
        eyes[len(rows)] = np.eye(len(rows))
        eyes[len(rows)].flags.writeable = False
    return BasisNode(cluster, rows.copy(), eyes[len(rows)], (), identity=True)


def _identity_columns(btree):
    """Flat basis of identity nodes over the column clusters of the
    admissible leaves: a block's coupling then spans all its columns."""
    return ClusterBasis([
        BasisNode(c, np.asarray(c.indices), None, (), identity=True)
        for c in dict.fromkeys(b.col for b in btree.admissible_leaves())])


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
                        side="row", orders=(3, 5), marks=None, kind="slp"):
    """Nested interpolation basis, built bottom-up over ``tree``.

    Each leaf interpolates its Green quadrature factor (box rule of order m,
    boundary pushed out by ``delta_factor`` times the box diameter).
    Internal nodes rebuild the factor only at the union of the children's
    pivot rows, with the node's own box; splitting the resulting
    interpolation matrix along the children gives the transfer matrices.

    The nodes are built level by level, by height (0 for a leaf, else 1 +
    the largest of the children's), a level in a few large batches: box
    rules scaled and shifted from one, factors from one stacked kernel
    evaluation, cross approximations made together (see
    :func:`aca_interpolation`).  Each node takes the pivots it would take
    alone, except at exact ties and where its stopping test, summed in
    another order, changes within rounding.

    A full-rank leaf is an identity node (see :func:`_interpolate`), which
    ``h2.pack`` applies as I.  A parent's factor takes each child's rows
    in the order of the child's pivots, tree order for an identity leaf
    and the cross approximation's order otherwise, so each child's
    transfer is its rows of the parent's interpolation matrix as they
    come.

    ``side`` picks the row or column role of the factorization.  A
    Galerkin B is A with its halves swapped and scaled by -1/d_tau and
    1/d_tau, so it spans A; full pivoting, by magnitude and relative norm,
    picks the same pivots on both sides and V the same to rounding, and a
    symmetric build uses one basis for both.  The collocation basis (point
    evaluation rows) exists only on the row side, which serves the
    double layer too; ``kind`` "dlp" builds its column basis.

    ``marks`` (a set of cluster indices, see :func:`coupling_marks`)
    restricts the build to clusters that actually feed a coupling block:
    a node is materialized iff itself or an ancestor is marked.  Clusters
    above every mark keep no basis content; they only appear densely in the
    nearfield, so transfer matrices there would be dead storage.
    """
    if side not in ("row", "col"):
        raise ConfigError("side must be 'row' or 'col', got %r" % (side,))
    if kind not in ("slp", "dlp") or (side, kind) == ("row", "dlp"):
        raise ConfigError("no %s basis for kernel %r" % (side, kind))
    col_kind = kind if side == "col" else None
    # the maximal marked clusters: in preorder, each not inside the last
    roots = []
    for c in tree.nodes():
        if ((marks is None or c.index in marks)
                and (not roots or c.start >= roots[-1].stop)):
            roots.append(c)
    # cluster index -> its node, whose pivots are its rows of its parent's
    # factor
    built, eyes = {}, {}
    todo = [c for r in roots for c in r.nodes()]
    while todo:  # the clusters of one height: all children built
        ready = [all(k.index in built for k in c.children) for c in todo]
        level = [c for c, go in zip(todo, ready) if go]
        todo = [c for c, go in zip(todo, ready) if not go]
        rows = [np.asarray(c.indices) if c.is_leaf() else
                np.concatenate([built[k.index].pivots for k in c.children])
                for c in level]
        for c, r, interp in zip(level, rows, _interpolations(
                level, rows, mesh, basis, m, delta_factor, eps, orders,
                col_kind)):
            if c.is_leaf():
                built[c.index] = _interpolate(c, interp, eyes)
                continue
            kids = tuple(built[k.index] for k in c.children)
            split = np.cumsum([len(k.pivots) for k in kids])[:-1]
            for k, e in zip(kids, np.split(interp.v, split, axis=0)):
                k.transfer = e
            built[c.index] = BasisNode(c, r[interp.pivots], None, kids)
    return ClusterBasis([built[c.index] for c in roots])


CouplingBlock = namedtuple("CouplingBlock", "row col values")
NearfieldBlock = namedtuple("NearfieldBlock", "row col values")


class H2Matrix:
    """Compressed operator: cluster bases plus coupling/nearfield blocks.

    ``coupling`` holds a matrix for every admissible block-tree leaf (exact
    entries at pivot rows x pivot columns, or the Green baseline's B^T,
    see :func:`build_green`), ``nearfield`` the dense inadmissible
    leaves.  Block row/col fields reference cluster tree nodes; vectors in
    tree ordering address them through start/stop slices.  ``packed`` is
    the layout of ``h2.pack``, made before assembly: block values and basis
    matrices are views into its arrays.  ``dlp`` is the double-layer
    operator a build made alongside (see :func:`build_h2`), or None.
    """

    def __init__(self, row_tree, col_tree, row_basis, col_basis, coupling,
                 nearfield, packed, exec_stats=None, dlp=None):
        self.row_tree = row_tree
        self.col_tree = col_tree
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.coupling = coupling
        self.nearfield = nearfield
        self.exec_stats = exec_stats
        self.packed = packed
        self.dlp = dlp

    @property
    def shape(self):
        return (self.row_tree.size, self.col_tree.size)

    def __repr__(self):
        return "H2Matrix(%dx%d, %d coupling, %d nearfield)" % (
            self.shape + (len(self.coupling), len(self.nearfield)))


def _tables(mesh, kind, side):
    """The joined element tables of one side of a build's blocks, which
    ``side`` names as (key, indices) each, one per distinct key from one
    ``assembly.element_tables`` call, and each block's table id."""
    ids, lists = {}, []
    for key, indices in side:
        if key not in ids:
            ids[key] = len(lists)
            lists.append(indices)
    return (assembly.element_tables(mesh, kind, lists),
            [ids[key] for key, _ in side])


def _far_cases(rows, cols):
    """Singularity case of every entry pair of the admissible blocks
    rows[k] x cols[k], one per block.

    Cluster boxes contain the supports of their basis functions, so boxes at
    positive distance share no vertex and every triangle pair (or point and
    triangle) of the block is disjoint, the regular case 0 of both
    discretizations. The executor trusts this and skips classification, so
    the invariant is checked here, for all blocks in one array operation.
    """
    def corners(clusters):
        return (np.array([c.box.lower for c in clusters]).reshape(-1, 3),
                np.array([c.box.upper for c in clusters]).reshape(-1, 3))

    (rlo, rhi), (clo, chi) = corners(rows), corners(cols)
    gap = np.maximum(0.0, np.maximum(rlo - chi, clo - rhi))
    touch = np.flatnonzero(~(np.linalg.norm(gap, axis=1) > 0.0))
    if len(touch):
        k = touch[0]
        raise StateError("admissible block #%d x #%d: cluster boxes touch"
                         % (rows[k].index, cols[k].index))
    return np.full(len(rows), DISJOINT)


def _mirrored(leaves):
    """Of the leaves of a symmetric block tree, the indices of those with
    row cluster <= column cluster, which are evaluated, and (leaf, partner)
    for the others; every leaf needs a partner in its state."""
    at = {(b.row.index, b.col.index, b.state): k for k, b in enumerate(leaves)}
    partner = [at.get((b.col.index, b.row.index, b.state)) for b in leaves]
    if None in partner:
        b = leaves[partner.index(None)]
        raise StateError("block tree is not symmetric: leaf #%d x #%d has "
                         "no %s partner" % (b.row.index, b.col.index, b.state))
    lower = np.array([b.row.index > b.col.index for b in leaves], dtype=bool)
    return (np.flatnonzero(~lower),
            [(k, partner[k]) for k in np.flatnonzero(lower)])


def build_h2(btree, row_basis, col_basis, mesh, kind="slp", basis="constant",
             disc="galerkin", orders=(3, 5), capacity=DEFAULT_CAPACITY,
             threads=None, dlp_basis=None):
    """Assemble the H2-matrix over a block tree and two cluster bases.

    Laid out first (``h2.pack``), admissible leaves get exact entries at
    pivot rows x pivot columns in place, all from disjoint pairs (see
    :func:`_far_cases`), inadmissible leaves dense blocks, classified pair
    by pair.  Every entry request is routed through one batch executor,
    which integrates each unordered triangle pair once (see
    ``batchexec``), so results do not depend on capacity or thread count.

    A constant-basis slp Galerkin build with one basis is symmetric,
    bitwise so under the executor's mirror.  It evaluates only the leaves
    with row cluster <= column cluster and writes every other leaf as its
    partner's transpose.  A diagonal leaf goes whole to the executor,
    whose mirror evaluates each of its unordered pairs once and writes
    both triangles.  Other builds evaluate every leaf whole.

    Given ``dlp_basis``, a dlp column basis, an slp build also assembles
    the dlp operator K, returned as the matrix's ``dlp``, in the same
    executor pass: exact couplings at the row x dlp column pivots, the
    same nearfield leaves, K's whole (its lower pairs through the adjoint
    double layer), each pair evaluated once for the kernels it needs.
    V's blocks stay bitwise the same, and V asks for the single layer on
    the pairs it alone would.

    The tables of all blocks come joined (see ``assembly.element_tables``),
    one call per side, and all blocks go to the executor in one call.

    The bases may be flat (see :func:`build_flat_gca`).  A row node
    without pivots (a Green factor, see :func:`build_green`) has no exact
    entries: its couplings are left zero, for the caller to fill.
    """
    if dlp_basis is not None and kind != "slp":
        raise ConfigError("a dlp column basis goes with an slp build")
    far, near = btree.admissible_leaves(), btree.inadmissible_leaves()
    leaves = far + near
    evaluate, mirrored = np.arange(len(leaves)), []
    if ((kind, basis, disc) == ("slp", "constant", "galerkin")
            and row_basis is col_basis):
        evaluate, mirrored = _mirrored(leaves)
    evaluate = [k for k in evaluate if k >= len(far)
                or row_basis.node(far[k].row).pivots is not None]
    shape = (btree.row.size, btree.col.size)
    col_bases = [col_basis] + ([] if dlp_basis is None else [dlp_basis])
    layouts = [h2.pack(row_basis, col_bases[0], far, near, shape)]
    layouts += [h2.pack(row_basis, cb, far, near, shape, layouts[0][0].row)
                for cb in col_bases[1:]]
    check_pack_bytes(sum(p.blocks.data.nbytes for p, *_ in layouts))
    # every leaf's place in each operator, offset -1 where V does not
    # evaluate it (its mirrored leaves, couplings without pivots)
    place = np.full((len(leaves), len(layouts), 4), -1)
    place[evaluate, 0] = layouts[0][3][evaluate]
    for j, (*_, places) in enumerate(layouts[1:], 1):
        place[:, j] = places
    # an admissible leaf is one block per operator, at that operator's
    # column pivots; an inadmissible leaf one block for all operators
    owner, blocks = np.nonzero(place[:len(far), :, 0].T >= 0)
    blocks = np.r_[blocks, len(far) + np.flatnonzero(
        (place[len(far):, :, 0] >= 0).any(axis=1))]
    places = place[blocks]
    places[:len(owner)][np.arange(len(layouts)) != owner[:, None]] = -1
    owner = np.r_[owner, np.zeros(len(blocks) - len(owner), dtype=int)]
    cases = np.r_[_far_cases([b.row for b in far], [b.col for b in far]),
                  np.full(len(near), -1)]

    def side(nested, k, cluster):
        # index lists keyed ("p", basis, cluster) for a basis node's pivots
        # and ("c", cluster) for a cluster's indices
        if k < len(far):
            return (("p", id(nested), cluster.index),
                    nested.node(cluster).pivots)
        return ("c", cluster.index), cluster.indices

    ex, kinds = assembly.make_executor(
        (kind, "dlp")[:len(layouts)], mesh, basis, disc,
        [p.blocks.data for p, *_ in layouts], orders, capacity, threads)
    rows, row_ids = _tables(mesh, kinds[0],
                            [side(row_basis, k, leaves[k].row)
                             for k in blocks])
    cols, col_ids = _tables(mesh, kinds[1],
                            [side(col_bases[j], k, leaves[k].col)
                             for k, j in zip(blocks, owner)])
    ex.enqueue_blocks(rows, cols, row_ids, col_ids, places, cases[blocks])
    ex.finalize()
    views = layouts[0][1] + layouts[0][2]
    for k, p in mirrored:
        views[k][...] = views[p].T
    ops = [H2Matrix(btree.row, btree.col, row_basis, cb,
                    [CouplingBlock(leaf.row, leaf.col, view)
                     for leaf, view in zip(far, far_views)],
                    [NearfieldBlock(leaf.row, leaf.col, view)
                     for leaf, view in zip(near, near_views)],
                    packed, ex.stats())
           for cb, (packed, far_views, near_views, _) in zip(col_bases,
                                                             layouts)]
    ops[0].dlp = ops[1] if len(ops) > 1 else None
    return ops[0]


def build_green(btree, mesh, kind="slp", basis="constant", disc="galerkin",
                m=4, delta_factor=0.5, orders=(3, 5),
                capacity=DEFAULT_CAPACITY, threads=None):
    """Green-only compression: rank-2k quadrature factors A B^T per
    admissible block, dense nearfield.

    An :class:`H2Matrix` over a flat row basis of the factors A, one per
    row cluster, and identity columns: each coupling is its block's B^T.
    Each factor is a stacked evaluation: A of all row clusters at once,
    B^T of _FACTOR_BLOCKS consecutive blocks at a time.
    """
    row_kind = "collocation" if disc == "collocation" else basis
    taus = list(dict.fromkeys(b.row for b in btree.admissible_leaves()))
    a = assembly.green_row_factor([(c.indices, c.box) for c in taus],
                                  _box_rules(taus, m, delta_factor), mesh,
                                  row_kind, orders)
    a = np.split(a, np.cumsum([c.size for c in taus])[:-1])
    rows = ClusterBasis([BasisNode(c, None, f, ()) for c, f in zip(taus, a)])
    hm = build_h2(btree, rows, _identity_columns(btree), mesh, kind, basis,
                  disc, orders, capacity, threads)
    for first in range(0, len(hm.coupling), _FACTOR_BLOCKS):
        part = hm.coupling[first:first + _FACTOR_BLOCKS]
        b = assembly.green_col_factor(
            [(blk.col.indices, blk.row.box) for blk in part],
            _box_rules([blk.row for blk in part], m, delta_factor), mesh,
            basis, orders)
        for blk, bt in zip(part, np.split(b, np.cumsum(
                [blk.col.size for blk in part])[:-1])):
            blk.values[...] = bt.T
    return hm


def build_flat_gca(btree, mesh, kind="slp", basis="constant",
                   disc="galerkin", m=4, delta_factor=0.5, eps=1e-4,
                   orders=(3, 5), capacity=DEFAULT_CAPACITY, threads=None):
    """Non-nested cross approximation over the block tree.

    Every row cluster of an admissible leaf interpolates its full Green
    factor once, a childless node of a flat row basis (a full-rank cluster
    leaf is an identity node, see :func:`_interpolate`), together with the
    clusters of about its size (see :func:`build_cluster_basis`).  Over
    identity columns,
    :func:`build_h2` then stores each block's exact entries at the pivot
    rows and all of its columns.
    """
    row_kind = "collocation" if disc == "collocation" else basis
    taus = list(dict.fromkeys(b.row for b in btree.admissible_leaves()))
    nodes, eyes, sizes = {}, {}, {}
    for c in taus:  # batches of clusters within a factor 2 in size
        sizes.setdefault(c.size.bit_length(), []).append(c)
    for level in sizes.values():
        rows = [np.asarray(c.indices) for c in level]
        for c, interp in zip(level, _interpolations(
                level, rows, mesh, row_kind, m, delta_factor, eps, orders)):
            nodes[c.index] = _interpolate(c, interp, eyes)
    rows = ClusterBasis([nodes[c.index] for c in taus])
    return build_h2(btree, rows, _identity_columns(btree), mesh, kind, basis,
                    disc, orders, capacity, threads)
