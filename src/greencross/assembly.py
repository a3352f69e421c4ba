"""Kernel evaluation, dense block assembly, and Green quadrature factors.

A Galerkin block is a batch of triangle-pair integrals: the triangle tables
of the row and column index sets yield one quadrature task per pair, whose
3x3 (or 1x1) local values are scattered into the block. Tasks flow through
the batch executor, which groups them by singularity case and fixes the
reduction order, so assembly is bitwise reproducible for any capacity and
thread count.

The pair evaluator takes a whole case-homogeneous batch at a time, in chunks
of a fixed number of quadrature points. Disjoint pairs, the bulk of the
work, read per-triangle tables of the regular rule (points, Gram-weighted
weights, basis factors, normals) built once per evaluator; vertex, edge and
identical pairs interpolate the two charts at the regularized rule's points
in coordinate-major (b, M) arrays. Neither path calls BLAS, so the value of
a pair does not depend on the rest of its chunk.

The Green factors A_tau, B_sigma sample the kernel at points of the box
boundary rule; all their integrands are regular, so plain triangle Gauss
rules apply.
"""

from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import quadrature as quad
from .batchexec import DEFAULT_CAPACITY, BatchExecutor
from .errors import ConfigError, GeometryError
from .geometry import chart_pack, shape_functions

FOUR_PI = 4.0 * np.pi

# chunk size (in quadrature points) for the batched evaluators, small enough
# for a chunk's temporaries to stay in cache; per-task values must not depend
# on batch boundaries, so the chunk is a fixed function of the rule, never of
# the capacity
_POINT_BUDGET = 1 << 15

DenseBlock = namedtuple("DenseBlock", "rows cols values")
TriangleTable = namedtuple("TriangleTable", "rows")


def _bary(pts):
    return np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)


def triangle_table(indices, mesh, basis="linear"):
    """Merge the per-vertex triangle rows of the requested indices.

    Each output row is (triangle, slot0, slot1, slot2); slot p holds the
    1-based position of vertex p of the triangle inside ``indices``, or 0
    when that vertex was not requested. Rows are sorted by triangle index,
    each triangle appearing exactly once. Built by merging one presorted
    run per index, combining rows with equal triangle keys slotwise.
    """
    if basis != "linear":
        raise ConfigError("triangle tables index vertex DOFs (linear basis)")
    indices = np.asarray(indices)
    if len(np.unique(indices)) != len(indices):
        raise ConfigError("duplicate indices in triangle_table")
    stars = mesh.vertex_stars()
    tris = mesh.triangles
    runs = []
    for pos, v in enumerate(indices, start=1):
        run = []
        for t in stars[v]:
            row = [int(t), 0, 0, 0]
            row[1 + int(np.argmax(tris[t] == v))] = pos
            run.append(row)
        runs.append(run)
    if not runs:
        return TriangleTable(np.zeros((0, 4), dtype=np.int64))
    while len(runs) > 1:
        merged = []
        for i in range(0, len(runs) - 1, 2):
            merged.append(_merge_runs(runs[i], runs[i + 1]))
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return TriangleTable(np.array(runs[0], dtype=np.int64))


def _merge_runs(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] < b[j][0]:
            out.append(a[i])
            i += 1
        elif b[j][0] < a[i][0]:
            out.append(b[j])
            j += 1
        else:
            ra, rb = a[i], b[j]
            out.append([ra[0], max(ra[1], rb[1]), max(ra[2], rb[2]),
                        max(ra[3], rb[3])])
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _norm3(v, axis=-1):
    """Euclidean length of 3-vectors stored along ``axis``."""
    x, y, z = np.moveaxis(v, axis, 0)
    return np.sqrt(x ** 2 + y ** 2 + z ** 2)


def _coordinate_major(a):
    """(nt, 6, 3) chart node values as one (3, nt, 6) array."""
    return np.ascontiguousarray(np.moveaxis(a, 2, 0))


def _chart_points(coords, tris, perm, n6t):
    """Quadratic interpolation of chart node values, coordinate-major.

    coords is a (3, nt, 6) array, n6t the (6, M) shape functions of a rule;
    the nodes of each listed triangle are read in the order ORDER6 of its
    permutation id. Returns a (3, b, M) array. An einsum reduction over the
    six nodes, not BLAS, so each point is independent of the batch.
    """
    nodes = coords[:, tris[:, None], quad.ORDER6[perm]].reshape(-1, 6)
    return np.einsum("ba,am->bm", nodes, n6t).reshape(3, len(tris), -1)


def _chunks(n, points):
    """Slices of consecutive tasks holding at most _POINT_BUDGET points."""
    step = max(1, _POINT_BUDGET // points)
    return [slice(s, min(n, s + step)) for s in range(0, n, step)]


_SingularRule = namedtuple("_SingularRule", "n6x n6y wb")


@lru_cache(maxsize=None)
def _singular_rule(case, q_sing, basis):
    """Shape functions (6, M) of both sides and the weights as a
    (width, width, M) array, times the barycentric factors of the linear
    basis."""
    rule = quad.sauter_rule(quad.KIND_NAMES[case], q_sing)
    if basis == "constant":
        wb = rule.w[None, None, :]
    else:
        wb = np.einsum("m,ma,mb->abm", rule.w, _bary(rule.x), _bary(rule.y))
    return _SingularRule(shape_functions(rule.x).T.copy(),
                         shape_functions(rule.y).T.copy(), wb)


_FarTables = namedtuple("_FarTables", "x wr wc n")


def _far_tables(pack, nodes, normals, q_reg, linear, dlp):
    """Per-triangle regular-rule data for disjoint pairs, built once.

    x holds the M rule points of every triangle, coordinate-major (3, nt, M).
    Row weights wr are the Gram-weighted weights times, for the linear
    basis, the barycentric factors: (nt, width, M). The column weights wc
    are the same for slp; dlp leaves out the column Gramian, which the
    unnormalized interpolated normals n (3, nt, M) carry.
    """
    pts, wts = quad.triangle_gauss(q_reg)
    n6t = shape_functions(pts).T.copy()
    nt = len(pack.nodes)
    tris, ident = np.arange(nt), np.zeros(nt, dtype=np.int64)
    x = _chart_points(nodes, tris, ident, n6t)
    nrm = _chart_points(normals, tris, ident, n6t)
    if pack.curved:
        gram = _norm3(nrm, axis=0)
    else:
        gram = pack.gram[:, None]
    gw = gram * wts
    cw = np.broadcast_to(wts, gw.shape) if dlp else gw
    slots = _bary(pts).T if linear else np.ones((1, len(wts)))
    return _FarTables(x, gw[:, None, :] * slots, cw[:, None, :] * slots,
                      nrm if dlp else None)


def galerkin_classify(mesh):
    tris = mesh.triangles

    def classify(rows, cols):
        return quad.classify_pairs(tris[rows], tris[cols])

    return classify


def galerkin_pair_evaluator(kind, mesh, basis, q_reg, q_sing):
    """Batched pair-integral evaluator for the executor.

    Disjoint pairs read the per-triangle tables of :func:`_far_tables`, so
    no chart is interpolated per pair: the value is the sum over the M*M
    point pairs of wr_a wc_b K(x_a, y_b). Singular pairs interpolate both
    charts at the pair rule's points, coordinate-major.

    Returns values in the canonical (permuted) local ordering; the stored
    chart node and normal values are gathered through the same permutation,
    which reproduces the physical point and normal fields exactly, so no
    orientation correction is needed for odd permutations.
    """
    if kind not in ("slp", "dlp"):
        raise ConfigError("unknown kernel kind %r" % (kind,))
    if basis not in ("constant", "linear"):
        raise ConfigError("unknown basis %r" % (basis,))
    pack = chart_pack(mesh)
    width = 1 if basis == "constant" else 3
    dlp = kind == "dlp"
    nodes = _coordinate_major(pack.nodes)
    normals = _coordinate_major(pack.normals)
    far = _far_tables(pack, nodes, normals, q_reg, basis == "linear", dlp)

    def evaluate(case, rows, cols, px, py):
        out = np.empty((len(rows), width, width))
        if case == quad.DISJOINT:
            for sl in _chunks(len(rows), far.x.shape[-1] ** 2):
                _disjoint_chunk(out[sl], rows[sl], cols[sl])
        else:
            rule = _singular_rule(int(case), q_sing, basis)
            for sl in _chunks(len(rows), rule.n6x.shape[1]):
                _singular_chunk(out[sl], rows[sl], cols[sl], px[sl], py[sl],
                                rule)
        return out

    def _disjoint_chunk(out, rows, cols):
        # point pairs (a, b) of each triangle pair on the two trailing axes
        d = (far.x.take(rows, axis=1)[..., :, None]
             - far.x.take(cols, axis=1)[..., None, :])
        r2 = np.sum(d * d, axis=0)
        if dlp:
            ny = far.n.take(cols, axis=1)[..., None, :]
            kern = np.sum(d * ny, axis=0) / (r2 * np.sqrt(r2))
        else:
            kern = 1.0 / np.sqrt(r2)
        wr = far.wr.take(rows, axis=0)[..., :, None]
        wc = far.wc.take(cols, axis=0)[..., None, :]
        b = len(rows)
        for c in range(width):
            kc = kern * wc[:, c]
            for a in range(width):
                # one contiguous M*M sum per pair
                out[:, a, c] = np.sum((kc * wr[:, a]).reshape(b, -1),
                                      axis=1) / FOUR_PI

    def _singular_chunk(out, rows, cols, px, py, rule):
        d = (_chart_points(nodes, rows, px, rule.n6x)
             - _chart_points(nodes, cols, py, rule.n6y))
        r2 = np.sum(d * d, axis=0)
        r = np.sqrt(r2)
        if pack.curved:
            gx = _norm3(_chart_points(normals, rows, px, rule.n6x), axis=0)
        else:
            gx = pack.gram[rows][:, None]
        if dlp:
            ny = _chart_points(normals, cols, py, rule.n6y)
            # |n_y| carries the column Gramian, so only gx multiplies here
            kg = np.sum(d * ny, axis=0) / (FOUR_PI * r2 * r) * gx
        else:
            if pack.curved:
                gy = _norm3(_chart_points(normals, cols, py, rule.n6y), axis=0)
            else:
                gy = pack.gram[cols][:, None]
            kg = gx * gy / (FOUR_PI * r)
        for a in range(width):
            for c in range(width):
                out[:, a, c] = np.sum(kg * rule.wb[a, c], axis=1)

    return evaluate


def collocation_classify(mesh):
    tris = mesh.triangles

    def classify(rows, cols):
        hit = tris[cols] == rows[:, None]
        case = hit.any(axis=1).astype(np.int64)
        py = np.argmax(hit, axis=1)  # rotation putting the point's vertex first
        return case, np.zeros(len(rows), dtype=np.int64), py

    return classify


def collocation_evaluator(kind, mesh, q_reg, q_sing):
    """Single-integral evaluator: rows are surface points, columns the
    linear basis. Case 0 is a regular triangle rule, case 1 the vertex
    Duffy rule with the singular vertex rotated to local slot 0."""
    if kind not in ("slp", "dlp"):
        raise ConfigError("unknown kernel kind %r" % (kind,))
    pack = chart_pack(mesh)
    verts = np.ascontiguousarray(mesh.vertices.T)
    nodes = _coordinate_major(pack.nodes)
    normals = _coordinate_major(pack.normals)
    dlp = kind == "dlp"
    rules = []
    for pts, wts in (quad.triangle_gauss(q_reg), quad.duffy_rule(0, q_sing)):
        n6t = shape_functions(pts).T.copy()
        wb = wts[None, :] * _bary(pts).T  # (3, M)
        rules.append((n6t, wb))

    def evaluate(case, rows, cols, px, py):
        n6t, wb = rules[int(case)]
        out = np.empty((len(rows), 1, 3))
        for sl in _chunks(len(rows), n6t.shape[1]):
            _eval_chunk(out[sl], rows[sl], cols[sl], py[sl], n6t, wb)
        return out

    def _eval_chunk(out, rows, cols, py, n6t, wb):
        d = verts[:, rows, None] - _chart_points(nodes, cols, py, n6t)
        r2 = np.sum(d * d, axis=0)
        r = np.sqrt(r2)
        if dlp:
            ny = _chart_points(normals, cols, py, n6t)
            kg = np.sum(d * ny, axis=0) / (FOUR_PI * r2 * r)
        else:
            if pack.curved:
                gy = _norm3(_chart_points(normals, cols, py, n6t), axis=0)
            else:
                gy = pack.gram[cols][:, None]
            kg = gy / (FOUR_PI * r)
        for c in range(3):
            out[:, 0, c] = np.sum(kg * wb[c][None, :], axis=1)

    return evaluate


def _constant_rows(indices):
    """Sorted (triangle, 0-based position) arrays for a constant-basis list."""
    indices = np.asarray(indices)
    if len(np.unique(indices)) != len(indices):
        raise ConfigError("duplicate indices")
    order = np.argsort(indices, kind="stable")
    return indices[order], order


def enqueue_galerkin_tasks(ex, mesh, basis, rows, cols, block_id, case=None):
    """All triangle pairs of the row/col tables, in table order.

    ``case`` is passed on to the executor: the singularity case every pair
    is known to have, or None to classify each pair.
    """
    if basis == "constant":
        tri_r, pos_r = _constant_rows(rows)
        tri_c, pos_c = _constant_rows(cols)
        rslots = pos_r[:, None]
        cslots = pos_c[:, None]
    else:
        tr = triangle_table(rows, mesh).rows
        tc = triangle_table(cols, mesh).rows
        tri_r, rslots = tr[:, 0], tr[:, 1:] - 1
        tri_c, cslots = tc[:, 0], tc[:, 1:] - 1
    nr, nc = len(tri_r), len(tri_c)
    if nr == 0 or nc == 0:
        return
    ex.enqueue_many(np.repeat(tri_r, nc), np.tile(tri_c, nr), block_id,
                    np.repeat(rslots, nc, axis=0), np.tile(cslots, (nr, 1)),
                    case)


def make_galerkin_executor(kind, mesh, basis, orders=(3, 5),
                           capacity=DEFAULT_CAPACITY, threads=None):
    q_reg, q_sing = orders
    width = 1 if basis == "constant" else 3
    return BatchExecutor(
        galerkin_classify(mesh),
        galerkin_pair_evaluator(kind, mesh, basis, q_reg, q_sing),
        num_cases=4, row_width=width, col_width=width,
        permute_rows=(basis == "linear"), permute_cols=(basis == "linear"),
        capacity=capacity, threads=threads)


def make_collocation_executor(kind, mesh, orders=(3, 5),
                              capacity=DEFAULT_CAPACITY, threads=None):
    q_reg, q_sing = orders
    return BatchExecutor(
        collocation_classify(mesh),
        collocation_evaluator(kind, mesh, q_reg, q_sing),
        num_cases=2, row_width=1, col_width=3,
        permute_rows=False, permute_cols=True,
        capacity=capacity, threads=threads)


def assemble_galerkin_block(kind, mesh, basis, rows, cols, orders=(3, 5),
                            capacity=DEFAULT_CAPACITY, threads=None):
    """Dense Galerkin block of the slp/dlp operator on the given index lists."""
    with make_galerkin_executor(kind, mesh, basis, orders, capacity,
                                threads) as ex:
        bid = ex.register_block(len(rows), len(cols))
        enqueue_galerkin_tasks(ex, mesh, basis, rows, cols, bid)
        values = ex.finalize()[bid]
    return DenseBlock(np.asarray(rows), np.asarray(cols), values)


def enqueue_collocation_tasks(ex, mesh, rows, cols, block_id, case=None):
    """All (point, triangle) tasks for collocation rows, in table order;
    ``case`` as for :func:`enqueue_galerkin_tasks`."""
    tc = triangle_table(cols, mesh).rows
    tri_c, cslots = tc[:, 0], tc[:, 1:] - 1
    rows = np.asarray(rows)
    nr, nc = len(rows), len(tri_c)
    if nr == 0 or nc == 0:
        return
    ex.enqueue_many(np.repeat(rows, nc), np.tile(tri_c, nr), block_id,
                    np.repeat(np.arange(nr), nc)[:, None],
                    np.tile(cslots, (nr, 1)), case)


def assemble_collocation_block(kind, mesh, basis, rows, cols, orders=(3, 5),
                               capacity=DEFAULT_CAPACITY, threads=None):
    """Collocation block: single surface integrals g(x_i, .) phi_j."""
    if basis != "linear":
        raise ConfigError("collocation rows pair with the linear basis")
    with make_collocation_executor(kind, mesh, orders, capacity,
                                   threads) as ex:
        bid = ex.register_block(len(rows), len(cols))
        enqueue_collocation_tasks(ex, mesh, rows, cols, bid)
        values = ex.finalize()[bid]
    return DenseBlock(np.asarray(rows), np.asarray(cols), values)


def _touch_guard(r):
    if r.size and float(r.min()) <= 1e-12:
        raise GeometryError("expansion point touches the surface; "
                            "enlarge delta or the cluster box")


def _surface_quadrature(mesh, tris, q):
    """Points and gram-weighted weights on the listed charts: (T,M,3), (T,M)."""
    pts, wts = quad.triangle_gauss(q)
    pack = chart_pack(mesh)
    n6 = shape_functions(pts)
    xq = np.einsum("ma,tac->tmc", n6, pack.nodes[tris])
    if pack.curved:
        gram = _norm3(np.einsum("ma,tac->tmc", n6, pack.normals[tris]))
    else:
        gram = np.repeat(pack.gram[tris][:, None], len(wts), axis=1)
    return xq, gram * wts[None, :]


def _green_kernels(xq, z, nz):
    """g(x, z_nu) and <x - z_nu, n_nu>/(4 pi r^3) for all points and columns."""
    d = xq[:, :, None, :] - z[None, None, :, :]
    r = _norm3(d)
    _touch_guard(r)
    g = 1.0 / (FOUR_PI * r)
    h = np.einsum("tmkc,kc->tmk", d, nz) / (FOUR_PI * r ** 3)
    return g, h


def _basis_integrals(mesh, indices, basis, q, z, nz):
    """Integrals of g(., z_nu) phi_i and dg/dn_z(., z_nu) phi_i, shape (n, k)."""
    indices = np.asarray(indices)
    k = len(z)
    if basis == "constant":
        xq, gw = _surface_quadrature(mesh, indices, q)
        g, h = _green_kernels(xq, z, nz)
        return np.einsum("tm,tmk->tk", gw, g), np.einsum("tm,tmk->tk", gw, h)
    table = triangle_table(indices, mesh).rows
    tris = table[:, 0]
    xq, gw = _surface_quadrature(mesh, tris, q)
    g, h = _green_kernels(xq, z, nz)
    pts, _ = quad.triangle_gauss(q)
    n3 = _bary(pts)  # (M, 3)
    ig = np.zeros((len(indices), k))
    ih = np.zeros((len(indices), k))
    vg = np.einsum("ma,tm,tmk->tak", n3, gw, g)
    vh = np.einsum("ma,tm,tmk->tak", n3, gw, h)
    for a in range(3):
        slot = table[:, 1 + a] - 1
        ok = slot >= 0
        np.add.at(ig, slot[ok], vg[ok, a])
        np.add.at(ih, slot[ok], vh[ok, a])
    return ig, ih


def green_row_factor(cluster, rule, mesh, basis, orders=(3, 5)):
    """Row factor A: columns nu carry sqrt(w_nu) g-moments, columns nu+k the
    -d_tau sqrt(w_nu) normal-derivative moments, d_tau = diam of the cluster
    box. Collocation rows are plain point evaluations."""
    z, wz, nz, k = rule.points, rule.weights, rule.normals, rule.k
    sq = np.sqrt(wz)
    d_tau = cluster.box.diameter()
    if basis == "collocation":
        x = mesh.vertices[np.asarray(cluster.indices)]
        d = x[:, None, :] - z[None, :, :]
        r = _norm3(d)
        _touch_guard(r)
        g = 1.0 / (FOUR_PI * r)
        h = np.einsum("nkc,kc->nk", d, nz) / (FOUR_PI * r ** 3)
    else:
        g, h = _basis_integrals(mesh, cluster.indices, basis, orders[0], z, nz)
    a = np.empty((g.shape[0], 2 * k))
    a[:, :k] = sq[None, :] * g
    a[:, k:] = -d_tau * sq[None, :] * h
    return a


def green_col_factor(pair, rule, mesh, basis, orders=(3, 5)):
    """Column factor B for the pair (tau, sigma), using tau's rule and d_tau;
    A @ B.T approximates the block on tau x sigma."""
    tau, sigma = pair
    if basis == "collocation":
        raise ConfigError("column factors integrate a Galerkin basis")
    z, wz, nz, k = rule.points, rule.weights, rule.normals, rule.k
    sq = np.sqrt(wz)
    d_tau = tau.box.diameter()
    g, h = _basis_integrals(mesh, sigma.indices, basis, orders[0], z, nz)
    b = np.empty((g.shape[0], 2 * k))
    b[:, :k] = sq[None, :] * h
    b[:, k:] = sq[None, :] / d_tau * g
    return b


def triangle_areas(mesh, q=3):
    pts, wts = quad.triangle_gauss(q)
    pack = chart_pack(mesh)
    if pack.curved:
        n6 = shape_functions(pts)
        gram = _norm3(np.einsum("ma,tac->tmc", n6, pack.normals))
        return gram @ wts
    return pack.gram * wts.sum()


def mass_block(mesh, basis, rows, cols, order=3):
    """Identity-term Galerkin block: entries of the surface L2 product."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    values = np.zeros((len(rows), len(cols)))
    if basis == "constant":
        areas = triangle_areas(mesh, order)
        hit = rows[:, None] == cols[None, :]
        i, j = np.nonzero(hit)
        values[i, j] = areas[rows[i]]
        return DenseBlock(rows, cols, values)
    tr = triangle_table(rows, mesh).rows
    tc = triangle_table(cols, mesh).rows
    common, ir, ic = np.intersect1d(tr[:, 0], tc[:, 0], return_indices=True)
    if len(common) == 0:
        return DenseBlock(rows, cols, values)
    pts, wts = quad.triangle_gauss(order)
    _, gw = _surface_quadrature(mesh, common, order)
    n3 = _bary(pts)
    local = np.einsum("tm,ma,mb->tab", gw, n3, n3)
    rslots = tr[ir, 1:] - 1
    cslots = tc[ic, 1:] - 1
    for a in range(3):
        for b in range(3):
            ok = (rslots[:, a] >= 0) & (cslots[:, b] >= 0)
            if ok.any():
                np.add.at(values, (rslots[ok, a], cslots[ok, b]), local[ok, a, b])
    return DenseBlock(rows, cols, values)
