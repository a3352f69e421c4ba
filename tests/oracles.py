"""Pointwise reference implementations the tests compare the program with.

Each evaluates one point, one pair, one basis node or one block at a time,
the plain way: a chart at one reference point, one triangle pair's
classification, a cluster basis built node by node, one nested basis
expanded to its dense matrix, an operator applied block by block. The
program itself works on batches.
"""
import math
from collections import namedtuple

import numpy as np

from greencross import assembly, gca
from greencross import quadrature as quad
from greencross.errors import GeometryError
from greencross.geometry import chart_pack, shape_functions, shape_gradients

ChartSample = namedtuple("ChartSample", "point normal gramian")
SingularityCase = namedtuple("SingularityCase", "kind row_perm col_perm")


def chart_eval(mesh, triangle, xhat):
    """Point, unnormalized normal and Gramian of one triangle's chart at
    xhat in t-hat.

    The normal is the quadratic interpolation of the normals at the six
    chart nodes; the chart is quadratic, so its two partials are linear,
    the cross product is quadratic and the interpolation is exact.
    """
    xhat = np.asarray(xhat, dtype=np.float64)
    x, y = float(xhat[0]), float(xhat[1])
    if x < -1e-12 or y < -1e-12 or x + y > 1.0 + 1e-12:
        raise GeometryError("point (%g, %g) outside the reference triangle"
                            % (x, y))
    pack = chart_pack(mesh)
    n6 = shape_functions(xhat)
    normal = n6 @ pack.normals[triangle]
    return ChartSample(n6 @ pack.nodes[triangle], normal,
                       float(np.linalg.norm(normal)))


def chart_partials(mesh, triangle, xhat):
    """Partial derivatives of one triangle's chart at xhat."""
    nodes = chart_pack(mesh).nodes[triangle]
    grads = shape_gradients(np.asarray(xhat, dtype=np.float64))
    return grads[..., 0] @ nodes, grads[..., 1] @ nodes


def surface_area(mesh, quad_order=4):
    """Integral of the Gramian over all charts."""
    pts, wts = quad.triangle_gauss(quad_order)
    pack = chart_pack(mesh)
    if not pack.curved:
        return float(wts.sum() * pack.gram.sum())
    normals = np.einsum("ma,tac->tmc", shape_functions(pts), pack.normals)
    return float((np.linalg.norm(normals, axis=2) @ wts).sum())


def classify_pair(t, s):
    """Classification of one triangle pair; see quadrature.classify_pairs."""
    kind, rp, cp = quad.classify_pairs(np.asarray(t).reshape(1, 3),
                                       np.asarray(s).reshape(1, 3))
    return SingularityCase(quad.KIND_NAMES[kind[0]],
                           tuple(quad.PERMS3[rp[0]].tolist()),
                           tuple(quad.PERMS3[cp[0]].tolist()))


def fsum_block(kind, mesh, basis, disc, rows, cols, orders=(3, 5)):
    """Dense rows x cols block of ``disc`` (as assembly's
    assemble_galerkin_block and assemble_collocation_block give it), each
    entry the exactly rounded sum (``math.fsum``) of its contributions:
    the pair evaluator's values of every (row element, column element)
    pair of the block's tables. A Galerkin pair (t, s) with t > s reads,
    as the executor does, the mirror kernel's value of (s, t),
    transposed."""
    galerkin = disc == "galerkin"
    tables = (basis, basis) if galerkin else ("collocation", basis)
    (te, ts, _), (se, ss, _) = (assembly.element_tables(mesh, k, [ix])
                                for k, ix in zip(tables, (rows, cols)))
    i, j = np.divmod(np.arange(len(te) * len(se)), len(se))
    t, s = te[i], se[j]
    mirror = {"slp": "slp", "dlp": "adlp"}[kind] if galerkin else kind
    kinds = tuple(dict.fromkeys((kind, mirror)))
    ev = assembly.pair_evaluator(kinds, mesh, tables, *orders)
    up = (t <= s) | (not galerkin)
    lo, hi = np.where(up, t, s), np.where(up, s, t)
    case = (assembly.galerkin_classify if galerkin
            else assembly.collocation_classify)(mesh)(lo, hi)
    values = np.empty((len(t), ts.shape[1], ss.shape[1]))
    for c in np.unique(case):
        sel = np.flatnonzero(case == c)
        v = ev(int(c), lo[sel], hi[sel])
        values[sel] = v[:, 0]
        if galerkin:
            down = ~up[sel]
            values[sel[down]] = v[down, -1].transpose(0, 2, 1)
    rs, cs = ts[i][:, :, None], ss[j][:, None, :]
    used = np.broadcast_to((rs >= 0) & (cs >= 0), values.shape)
    target = (rs * len(cols) + cs)[used]
    order = np.argsort(target, kind="stable")
    target, parts = target[order], values[used][order]
    out = np.zeros(len(rows) * len(cols))
    bounds = np.flatnonzero(np.diff(target)) + 1
    for k, part in zip(target[np.r_[0, bounds]], np.split(parts, bounds)):
        out[k] = math.fsum(part)
    return out.reshape(len(rows), len(cols))


def aca_reference(a, eps):
    """gca.aca_interpolation of one matrix, one pivot at a time."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    n, w = a.shape
    limit = min(n, w)
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
        return gca.Interpolation(pivots, np.zeros((n, 0)))
    u_mat = np.stack(crosses, axis=1)
    v = np.linalg.solve(u_mat[pivots].T, u_mat.T).T
    v[pivots] = np.eye(rank)
    return gca.Interpolation(pivots, v)


def one_box(rule):
    """The rule of one box (``quadrature.green_box_rule`` of a box) as a
    rule of a list of one box, the form the Green factors take."""
    return rule._replace(points=rule.points[None],
                         weights=rule.weights[None])


def _node_factor(cluster, rows, mesh, basis, m, delta_factor, orders, side,
                 kind):
    """One cluster's Green factor at the given rows, under its own rule."""
    rule = one_box(quad.green_box_rule(
        cluster.box, delta_factor * cluster.box.diameter(), m))
    segment = [(rows, cluster.box)]
    if side == "row":
        return assembly.green_row_factor(segment, rule, mesh, basis, orders)
    return assembly.green_col_factor(segment, rule, mesh, basis, orders,
                                     kind)


def cluster_basis(tree, mesh, basis, m, delta_factor=0.5, eps=1e-4,
                  side="row", orders=(3, 5), marks=None, kind="slp"):
    """gca.build_cluster_basis node by node, recursively: one box rule, one
    factor and one cross approximation per node."""
    eyes = {}

    def build(node):
        if node.is_leaf():
            a = _node_factor(node, np.asarray(node.indices), mesh, basis, m,
                             delta_factor, orders, side, kind)
            return gca._interpolate(node, aca_reference(a, eps), eyes)
        kids = tuple(build(c) for c in node.children)
        rows = np.concatenate([k.pivots for k in kids])
        interp = aca_reference(_node_factor(node, rows, mesh, basis, m,
                                            delta_factor, orders, side, kind),
                               eps)
        split = np.cumsum([len(k.pivots) for k in kids])[:-1]
        for k, e in zip(kids, np.split(interp.v, split, axis=0)):
            k.transfer = e
        return gca.BasisNode(node, rows[interp.pivots], None, kids)

    def walk(node):
        if marks is None or node.index in marks:
            return [build(node)]
        return [bn for c in node.children for bn in walk(c)]

    return gca.ClusterBasis(walk(tree))


def flat_basis(btree, mesh, basis, m, delta_factor=0.5, eps=1e-4,
               orders=(3, 5)):
    """The row basis of gca.build_flat_gca, cluster by cluster."""
    eyes, nodes = {}, {}
    for leaf in btree.admissible_leaves():
        tau = leaf.row
        if tau.index not in nodes:
            a = _node_factor(tau, np.asarray(tau.indices), mesh, basis, m,
                             delta_factor, orders, "row", "slp")
            nodes[tau.index] = gca._interpolate(tau, aca_reference(a, eps),
                                                eyes)
    return gca.ClusterBasis(list(nodes.values()))


def expand_basis(node):
    """Dense cluster-size x rank matrix realized by a nested basis node."""
    if not node.children:
        return node.v
    return np.vstack([expand_basis(c) @ c.transfer for c in node.children])


def _forward(basis, xt):
    """Coefficients of every node of ``basis``: V^T xt (an identity node
    takes its tree range as it is)."""
    hat = {}

    def rec(bn):
        cl = bn.cluster
        if bn.identity:
            hat[cl.index] = xt[cl.start:cl.stop].copy()
        elif not bn.children:
            hat[cl.index] = bn.v.T @ xt[cl.start:cl.stop]
        else:
            hat[cl.index] = sum(c.transfer.T @ rec(c) for c in bn.children)
        return hat[cl.index]

    for root in basis.roots:
        rec(root)
    return hat


def _backward(basis, hat, yt):
    """yt += V hat over every node of ``basis``."""
    def rec(bn):
        cl = bn.cluster
        if bn.identity:
            yt[cl.start:cl.stop] += hat[cl.index]
        elif not bn.children:
            yt[cl.start:cl.stop] += bn.v @ hat[cl.index]
        for c in bn.children:
            hat[c.cluster.index] += c.transfer @ hat[cl.index]
            rec(c)

    for root in basis.roots:
        rec(root)


def blockwise_mvm(h, x, trans=False):
    """y = H x (H^T x if ``trans``) for a gca.H2Matrix, one block at a
    time, as the matvec was before the packed layout."""
    out_tree, in_tree = h.row_tree, h.col_tree
    out_basis, in_basis = h.row_basis, h.col_basis
    if trans:
        out_tree, in_tree = in_tree, out_tree
        out_basis, in_basis = in_basis, out_basis
    xt = x[in_tree.perm]
    xhat = _forward(in_basis, xt)
    yhat = {bn.cluster.index: np.zeros(bn.rank) for bn in out_basis.nodes()}
    for blk in h.coupling:
        if trans:
            yhat[blk.col.index] += blk.values.T @ xhat[blk.row.index]
        else:
            yhat[blk.row.index] += blk.values @ xhat[blk.col.index]
    yt = np.zeros(out_tree.size)
    _backward(out_basis, yhat, yt)
    for blk in h.nearfield:
        if trans:
            yt[blk.col.start:blk.col.stop] += (
                blk.values.T @ xt[blk.row.start:blk.row.stop])
        else:
            yt[blk.row.start:blk.row.stop] += (
                blk.values @ xt[blk.col.start:blk.col.stop])
    y = np.empty(out_tree.size)
    y[out_tree.perm] = yt
    return y
