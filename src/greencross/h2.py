"""Applying H2-matrices: matvec, storage accounting, norm estimation, CG.

The three methods of ``gca`` (Green-only, flat GCA, GCA-H2) build one kind
of operator, ``gca.H2Matrix``: a row and a column cluster basis, coupling
blocks and a dense nearfield.  The nested GCA-H2 bases are trees with
transfer matrices; the baselines' bases are flat forests of childless
nodes over a row cluster each, with identity nodes for columns, so the
functions here apply and measure all three.

Vectors cross the API boundary in external dof ordering; the permutation
into cluster-tree ordering happens once per product.  The matvec follows
the usual phases: forward transform up the column basis, couplings and
dense nearfield blocks, backward transform down the row basis.

Every phase runs on a packed layout that :func:`pack` builds once per
operator, before ``gca.build_h2`` assembles each block in place in it:

* Each side numbers the coefficients of all its basis nodes in one vector
  z = [x_tree; c].  Its first n entries are the tree-ordered vector; the
  other nodes follow level by level from the roots.  An identity node (a
  full-rank leaf, see ``gca.build_cluster_basis``, or a baseline's column)
  has V = I, so its slots are its own tree range: the transforms skip it,
  and its parent's transfer reads and writes the tree part directly.  The
  other leaves' matrices are stacked by shape, transfers by level and
  shape, and each stack is applied with one batched ``np.matmul``.  The
  children's contributions to their parents are summed by one
  ``np.bincount`` per level, in a fixed order: stack by stack, tree order
  within a stack.  A symmetric Galerkin operator has one basis for both
  sides, and so one pack, which H x and H^T y both read.
* Couplings and nearfield blocks share one set of block rows, keyed by
  output slots in the row side's z: a coupling between two identity
  leaves is laid out like a nearfield block.  The blocks of one block row
  sit side by side in one contiguous matrix, with a gather index into the
  column side's z.  Block rows cover disjoint outputs, so H x writes each
  block row's gemv straight into its slice of a fresh vector.  H^T y writes
  the transposed products of all block rows back to back and sums them
  into the output with one ``np.bincount``, in block-row order.

The operator's block values and basis matrices are views into these arrays,
so nothing is stored or copied twice.  A product depends only on the
operator and the vector, never on earlier calls, and keeps no state on the
operator.  Against a block-by-block evaluation it differs at rounding
level, since the coupling, nearfield and transposed sums add in another
order.
"""

from collections import namedtuple

import numpy as np

from .errors import ConfigError, StateError

__all__ = ["mvm", "mvm_t", "as_operator", "pack", "Packed",
           "storage_report", "operator_norm", "spectral_error_estimate",
           "cg_solve", "cgnr_solve", "CGResult"]


def _grouped(items, key):
    """Items grouped by ``key(item)``, groups and members in order of first
    appearance."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return list(groups.values())


def _slot_matrix(offsets, width):
    return np.asarray(offsets, dtype=np.intp)[:, None] + np.arange(width)


class _BasisPack:
    """Coefficient layout and stacked matrices of one cluster basis.

    The vector z = [x_tree; c] has length ``size``: ``n`` tree entries, then
    the coefficients of every node but the identity nodes, the forest
    roots first, each level contiguous, in tree order.  ``offset`` maps a
    cluster index to the first slot of its node in z; an identity node's
    slots are its tree range.  Building the pack rebinds every other leaf's
    ``v`` and every ``transfer`` to a view into its stack, and refuses a
    stack of leaves whose tree rows overlap (nested clusters of one size).
    """

    def __init__(self, basis, n):
        levels = []
        frontier = [(bn, None) for bn in basis.roots]
        while frontier:
            levels.append(frontier)
            frontier = [(c, bn) for bn, _ in frontier for c in bn.children]
        self.n = n
        self.offset = {}
        bounds = []
        size = n
        for level in levels:
            lo = size
            for bn, _ in level:
                if bn.identity:
                    if not np.array_equal(bn.pivots, bn.cluster.indices):
                        raise StateError("identity node #%d: pivots not in "
                                         "tree order" % bn.cluster.index)
                    self.offset[bn.cluster.index] = bn.cluster.start
                else:
                    self.offset[bn.cluster.index] = size
                    size += bn.rank
            bounds.append((lo, size))
        self.size = size

        self.leaves = []
        leaves = [bn for level in levels for bn, _ in level
                  if not bn.children and not bn.identity]
        for group in _grouped(leaves, lambda bn: bn.v.shape):
            starts = np.array([bn.cluster.start for bn in group])
            # a stack adds into its tree rows with one fancy-index +=,
            # which keeps only one of two updates of a shared row
            if np.any(np.diff(np.sort(starts)) < group[0].v.shape[0]):
                raise StateError("basis leaves of shape %s share tree rows"
                                 % (group[0].v.shape,))
            stack = np.stack([bn.v for bn in group])
            for bn, v in zip(group, stack):
                bn.v = v
            rows = _slot_matrix(starts, stack.shape[1])
            slots = _slot_matrix([self.offset[bn.cluster.index]
                                  for bn in group], stack.shape[2])
            self.leaves.append((rows, slots, stack))

        # (parent range lo, hi, bincount targets, [(kids, parents, stack)])
        self.levels = []
        for d in range(1, len(levels)):
            groups = []
            for group in _grouped(levels[d], lambda e: e[0].transfer.shape):
                stack = np.stack([bn.transfer for bn, _ in group])
                for (bn, _), t in zip(group, stack):
                    bn.transfer = t
                kids = _slot_matrix([self.offset[bn.cluster.index]
                                     for bn, _ in group], stack.shape[1])
                parents = _slot_matrix([self.offset[p.cluster.index]
                                        for _, p in group], stack.shape[2])
                groups.append((kids, parents, stack))
            lo, hi = bounds[d - 1]
            targets = np.concatenate([p.ravel() for _, p, _ in groups]) - lo
            self.levels.append((lo, hi, targets, groups))

    def slots(self, bn):
        """Slot range (start, stop) of basis node ``bn`` in z."""
        start = self.offset[bn.cluster.index]
        return start, start + bn.rank

    def forward(self, xt):
        """z = [xt; V^T xt of every node], xt in tree ordering."""
        z = np.zeros(self.size)
        z[:self.n] = xt
        for rows, slots, v in self.leaves:
            z[slots] = np.matmul(xt[rows][:, None, :], v)[:, 0, :]
        for lo, hi, targets, groups in reversed(self.levels):
            parts = [np.matmul(z[kids][:, None, :], t).ravel()
                     for kids, _, t in groups]
            z[lo:hi] += np.bincount(targets, np.concatenate(parts),
                                    minlength=hi - lo)
        return z

    def backward(self, z):
        """z[:n] += V z[n:], the tree part in tree ordering; overwrites the
        coefficients on the way down."""
        for _, _, _, groups in self.levels:
            for kids, parents, t in groups:
                z[kids] += np.matmul(t, z[parents][:, :, None])[:, :, 0]
        for rows, slots, v in self.leaves:
            z[rows] += np.matmul(v, z[slots][:, :, None])[:, :, 0]


class _BlockRows:
    """Blocks laid out by block row over one zeroed buffer ``data``.

    ``blocks`` lists (start, stop, cols): a block covers the outputs
    start:stop and the inputs listed in ``cols``.  Blocks with the same
    output range form one block row (in order of first appearance), side
    by side in the order given; block rows fill ``data`` back to back.
    ``rows`` lists (start, stop, matrix, lo, hi): the block row ``matrix``
    maps the inputs ``gather[lo:hi]`` to the outputs start:stop.  Output
    ranges must be pairwise disjoint (checked here), since M x writes each
    block row's product straight into its slice.  ``views`` holds the
    blocks' values as views into ``data``, in input order, and ``places``
    their places in it: one row (offset, row stride, rows, columns) per
    block.
    """

    def __init__(self, blocks):
        self.data = np.zeros(sum((stop - start) * len(cols)
                                 for start, stop, cols in blocks))
        self.views = [None] * len(blocks)
        self.places = np.zeros((len(blocks), 4), dtype=np.int64)
        self.rows = []
        gather = []
        used = width = 0
        for members in _grouped(range(len(blocks)), lambda i: blocks[i][:2]):
            start, stop = blocks[members[0]][:2]
            w = sum(len(blocks[i][2]) for i in members)
            mat = self.data[used:used + (stop - start) * w].reshape(
                stop - start, w)
            col = 0
            for i in members:
                cols = blocks[i][2]
                self.views[i] = mat[:, col:col + len(cols)]
                self.places[i] = used + col, w, stop - start, len(cols)
                gather.append(cols)
                col += len(cols)
            self.rows.append((start, stop, mat, width, width + w))
            used += mat.size
            width += w
        self.gather = np.concatenate([np.zeros(0, dtype=np.intp)] + gather)
        spans = sorted((start, stop) for start, stop, *_ in self.rows
                       if stop > start)
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            if start < stop:
                raise StateError("block rows overlap at output %d" % start)

    def mvm(self, x, n):
        """M x, a vector of length ``n``."""
        y = np.zeros(n)
        xg = x[self.gather]
        for start, stop, mat, lo, hi in self.rows:
            np.dot(mat, xg[lo:hi], out=y[start:stop])
        return y

    def mvm_t(self, y, n):
        """M^T y, a vector of length ``n``."""
        parts = np.empty(len(self.gather))
        for start, stop, mat, lo, hi in self.rows:
            np.dot(mat.T, y[start:stop], out=parts[lo:hi])
        return np.bincount(self.gather, parts, minlength=n)


Packed = namedtuple("Packed", "row col blocks")


def pack(row_basis, col_basis, coupling, nearfield, shape, row=None):
    """Packed layout of an H2-matrix for :func:`mvm` and :func:`mvm_t`.

    ``coupling`` and ``nearfield`` list blocks with (row, col) clusters,
    as block-tree leaves do; ``shape`` is the operator's (rows, cols).
    Stacks both bases, rebinding their nodes' matrices to views into the
    stacks, and lays all blocks out by output slots over one zeroed buffer
    ``blocks.data``; one basis for both sides (``row_basis is
    col_basis``) is stacked once, in one pack.  ``row``, the ``row`` pack
    of another operator over ``row_basis``, is shared instead of stacking
    that basis again.  Returns the
    :class:`Packed` layout, the coupling and the nearfield values as views
    into that buffer, in input order, and the places in it of all blocks
    (see :class:`_BlockRows`), couplings first.
    """
    if row is None:
        row = _BasisPack(row_basis, shape[0])
    col = row if col_basis is row_basis else _BasisPack(col_basis, shape[1])
    blocks = _BlockRows(
        [row.slots(row_basis.node(b.row))
         + (np.arange(*col.slots(col_basis.node(b.col))),) for b in coupling]
        + [(b.row.start, b.row.stop, np.arange(b.col.start, b.col.stop))
           for b in nearfield])
    return (Packed(row, col, blocks), blocks.views[:len(coupling)],
            blocks.views[len(coupling):], blocks.places)


def _check_dim(x, n):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ConfigError("vector of length %d, operator wants %d"
                          % (x.size, n))
    return x


def mvm(h, x):
    """y = H x with H an H2-matrix, external ordering in and out."""
    p = h.packed
    nr, nc = h.shape
    x = _check_dim(x, nc)
    z = p.blocks.mvm(p.col.forward(x[h.col_tree.perm]), p.row.size)
    p.row.backward(z)
    y = np.empty(nr)
    y[h.row_tree.perm] = z[:nr]
    return y


def mvm_t(h, x):
    """y = H^T x: the mirror image of :func:`mvm`."""
    p = h.packed
    nr, nc = h.shape
    x = _check_dim(x, nr)
    z = p.blocks.mvm_t(p.row.forward(x[h.row_tree.perm]), p.col.size)
    p.col.backward(z)
    y = np.empty(nc)
    y[h.col_tree.perm] = z[:nc]
    return y


def as_operator(h):
    """Closure apply(x, trans=False) wrapping mvm/mvm_t."""
    def apply(x, trans=False):
        return mvm_t(h, x) if trans else mvm(h, x)
    return apply


def storage_report(h):
    """Byte counts per category, 8 bytes per real.

    Accepts an H2-matrix or a plain dimension; a dimension reports just the
    dense reference 8 n^2.  Matrix reports exclude index/tree overhead from
    the total and list the pivot index bytes separately.  Identity nodes
    store no matrix, so ``leaf_bases`` leaves them out.  A basis shared by
    both sides is counted once.
    """
    if isinstance(h, (int, np.integer)):
        n = int(h)
        return {"dense": 8 * n * n, "total": 8 * n * n}
    leaf_bases = transfers = index_bytes = 0
    for basis in {id(b): b for b in (h.row_basis, h.col_basis)}.values():
        for bn in basis.nodes():
            if bn.pivots is not None:
                index_bytes += 8 * len(bn.pivots)
            if not bn.children and not bn.identity:
                leaf_bases += 8 * bn.v.size
            if bn.transfer is not None:
                transfers += 8 * bn.transfer.size
    couplings = sum(8 * blk.values.size for blk in h.coupling)
    nearfield = sum(8 * blk.values.size for blk in h.nearfield)
    nr, nc = h.shape
    return {"leaf_bases": leaf_bases, "transfers": transfers,
            "couplings": couplings, "nearfield": nearfield,
            "total": leaf_bases + transfers + couplings + nearfield,
            "index_bytes": index_bytes, "dense": 8 * nr * nc}


def operator_norm(apply, n, iters=100, seed=0):
    """Power iteration estimate of ||A||_2 for a closure ``apply(x,
    trans=False)`` of A and its transpose on vectors of length n: z <-
    A^T (A z), ``iters`` steps from a normal start vector drawn with
    ``seed``, so the estimate is deterministic."""
    if iters < 1:
        raise ConfigError("iters must be positive")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    nz = np.linalg.norm(z)
    if nz == 0.0:
        z = np.random.default_rng(seed + 1).standard_normal(n)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            raise ConfigError("degenerate start vector")
    z = z / nz
    est = 0.0
    for _ in range(iters):
        w = apply(z)
        est = np.linalg.norm(w)
        if est == 0.0:
            return 0.0
        z = apply(w, True)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return est
        z = z / nz
    return est


def spectral_error_estimate(apply_ref, apply_approx, n, iters=100, seed=0):
    """Power iteration estimate of ||ref - approx||_2 and its ratio to
    ||ref||_2.

    Both closures take (x, trans=False) and must implement the transpose;
    the iteration runs z <- E^T (E z) on the difference.  The reference norm
    is estimated by the same iteration with the same seed (see
    :func:`operator_norm`), which makes the returned ratio deterministic.
    """
    abs_err = operator_norm(
        lambda u, trans=False: apply_ref(u, trans) - apply_approx(u, trans),
        n, iters, seed)
    ref = operator_norm(apply_ref, n, iters, seed)
    if ref == 0.0:
        return abs_err, 0.0 if abs_err == 0.0 else np.inf
    return abs_err, abs_err / ref


CGResult = namedtuple("CGResult", "x residuals converged")


def cg_solve(apply, b, tol=1e-8, max_iter=500):
    """Conjugate gradients for a symmetric positive definite closure.

    Returns the iterate, the history of absolute residual 2-norms (from the
    recurrence), and whether ||b - A x|| <= tol ||b|| was reached.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    nb = np.sqrt(float(b @ b))
    hist = [np.sqrt(rs)]
    if nb == 0.0:
        return CGResult(x, np.asarray(hist), True)
    for _ in range(max_iter):
        if hist[-1] <= tol * nb:
            break
        ap = apply(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        hist.append(np.sqrt(rs_new))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return CGResult(x, np.asarray(hist), bool(hist[-1] <= tol * nb))


def cgnr_solve(apply, b, tol=1e-8, max_iter=500):
    """CG on the normal equations for a nonsymmetric closure with transpose.

    The history tracks the true residual ||b - A x||, and convergence is
    declared against it, not against the normal-equation residual.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    r = b.copy()
    s = apply(r, True)
    p = s.copy()
    ss = float(s @ s)
    nb = np.sqrt(float(b @ b))
    hist = [np.sqrt(float(r @ r))]
    if nb == 0.0:
        return CGResult(x, np.asarray(hist), True)
    for _ in range(max_iter):
        if hist[-1] <= tol * nb or ss == 0.0:
            break
        q = apply(p)
        denom = float(q @ q)
        if denom == 0.0:
            break
        alpha = ss / denom
        x = x + alpha * p
        r = r - alpha * q
        hist.append(np.sqrt(float(r @ r)))
        s = apply(r, True)
        ss_new = float(s @ s)
        p = s + (ss_new / ss) * p
        ss = ss_new
    return CGResult(x, np.asarray(hist), bool(hist[-1] <= tol * nb))
