"""Kernel evaluation, dense block assembly, and Green quadrature factors.

A Galerkin block is the product of two triangle tables: every triangle
touching a row DOF paired with every triangle touching a column DOF, each
pair's 3x3 (or 1x1) local matrix scattered to the block positions of the
pair's DOFs. :func:`element_tables` gives the executor's one table form,
(elements, slots, start), of many index lists at once: a build makes one
table per distinct list (a basis node's pivots, a cluster's indices),
all in one call per side, and shares each among all blocks that list it;
:func:`make_executor` makes the executor of a discretization and names
the table kinds of its rows and columns.
Blocks record these products with the batch executor, which integrates a
triangle pair shared by several blocks, or by (t, s) and (s, t), once and
scatters it to all of them. Pairs of unknown case are classified by
:func:`galerkin_classify`, which looks each pair up among the mesh's
vertex-sharing pairs (a sorted key array from the vertex stars) and
counts the shared vertices of only those; every other pair is disjoint.
Each entry sums in the executor's fixed order, by ascending smaller
triangle of the pair first. So assembly is bitwise reproducible for any
capacity and thread count, and a block equals the same rows and columns
of any larger block. A collocation block is the product of its row
points and its column triangle table, classified by
:func:`collocation_classify`.

One evaluator, :func:`pair_evaluator`, serves both: a collocation row is
the one-point case of a row element, a point of weight 1. It owns a
pair's local vertex order: it rotates a singular pair for its rule and
returns values in each element's own slots. It computes the single
layer, the double layer or both, so one executor pass assembles V and
K; for triangle rows also the adjoint double layer, which K's lower
pairs read.

Every regular surface integral reads one rule, :func:`surface_rule`: an
order-q triangle rule's points, unnormalized normals and Gramians on any
listed charts, coordinate-major. The evaluator's disjoint-pair tables
take the symmetric rule (``quadrature.symmetric_rule``: 1, 3 or 7 points
for q_reg 1, 2, 3); the Green factors, the mass matrices, the curved
surface areas and the solution error of the command line keep the
collapsed rule (``quadrature.triangle_gauss``, q^2 points).

The pair evaluator takes a whole case-homogeneous batch at a time, in chunks
of a fixed number of quadrature points. Disjoint pairs, the bulk of the
work, read per-element tables of the regular rule (points, Gram-weighted
weights, basis factors, normals) built once per evaluator and side;
vertex, edge and identical pairs interpolate the two charts at the
distinct points of each side of the regularized rule, then gather them to
the rule's M points in coordinate-major (b, M) arrays. On a plane mesh
the rule keeps only its points at radial coordinate 1, q_sing times
fewer, with the radial sum in per-kernel weights (see
:func:`_singular_rule`). The linear basis contracts with stacked matmuls,
small products per pair: a disjoint pair's Mr x Mc kernel matrix between
the row and column slot weights, a singular pair's M kernel values with
the (M, 9) or (M, 3) slot weights. The constant basis sums with numpy
reductions and calls no BLAS. Either way the value of a pair depends on
its own data only, never on the rest of its chunk.

The Green factors A_tau, B_sigma sample the kernel at points of the box
boundary rule; all their integrands are regular, so the surface rule
applies; the double layer reuses A_tau.
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
# the capacity. At 2^15 a worker's chunk temporaries (about 3 MB for the
# constant far field) outgrew glibc's trim threshold, so its heap was handed
# back and faulted in again every chunk: 650k minor faults in the plane L4
# constant build_h2, against 1k at 2^14.
_POINT_BUDGET = 1 << 14

DenseBlock = namedtuple("DenseBlock", "rows cols values")
TriangleTable = namedtuple("TriangleTable", "rows")


def _bary(pts):
    return np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)


def element_tables(mesh, kind, lists):
    """Element tables of index lists for the executor, joined in one pass:
    (elements, slots, start), list k's table at rows start[k]:start[k + 1].

    ``kind`` "constant": the listed triangles in ascending order, each with
    its 0-based position in its list (one stable sort by list and index).
    "linear": every triangle touching a listed vertex, in ascending order,
    with the 0-based positions of its three vertices, -1 for a vertex not
    listed; built from the concatenated vertex stars of all lists, keyed
    by (list, triangle), so every (triangle, slot) of a list is written at
    most once. "collocation" (rows of a collocation block): the listed
    points in order, each with its position. A list must not repeat an
    index.
    """
    lists = [np.asarray(ix, dtype=np.int64).reshape(-1) for ix in lists]
    sizes = np.array([len(ix) for ix in lists], dtype=np.int64)
    flat = np.concatenate([np.zeros(0, dtype=np.int64)] + lists)
    owner = np.repeat(np.arange(len(lists)), sizes)
    pos = np.arange(len(flat)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    start = np.r_[0, np.cumsum(sizes)]
    if kind == "collocation":
        return flat, pos[:, None], start
    key = owner * (int(flat.max()) + 1 if len(flat) else 1) + flat
    order = np.argsort(key, kind="stable")
    if np.any(key[order[1:]] == key[order[:-1]]):
        raise ConfigError("duplicate indices in an index list")
    if kind == "constant":
        return flat[order], pos[order, None], start
    stars = mesh.vertex_stars()
    counts = np.array([len(stars[v]) for v in flat], dtype=np.int64)
    tris = np.concatenate([np.zeros(0, dtype=np.int64)]
                          + [stars[v] for v in flat])
    slot = np.argmax(mesh.triangles[tris] == np.repeat(flat, counts)[:, None],
                     axis=1)
    nt = len(mesh.triangles)
    keys, inv = np.unique(np.repeat(owner, counts) * nt + tris,
                          return_inverse=True)
    slots = np.full((len(keys), 3), -1, dtype=np.int64)
    slots[inv, slot] = np.repeat(pos, counts)
    return (keys % nt, slots,
            np.searchsorted(keys, np.arange(len(lists) + 1) * nt))


def triangle_table(indices, mesh):
    """Triangle rows of the requested vertex indices.

    Each output row is (triangle, slot0, slot1, slot2); slot p holds the
    1-based position of vertex p of the triangle inside ``indices``, or 0
    when that vertex was not requested. Rows are sorted by triangle index,
    each triangle appearing exactly once: the linear element table of the
    one list (see :func:`element_tables`).
    """
    elements, slots, _ = element_tables(mesh, "linear", [indices])
    return TriangleTable(np.c_[elements, slots + 1])


def _norm3(v, axis=-1):
    """Euclidean length of 3-vectors stored along ``axis``."""
    x, y, z = np.moveaxis(v, axis, 0)
    return np.sqrt(x ** 2 + y ** 2 + z ** 2)


def _coordinate_major(a):
    """An (a, b, 3) array, such as chart node values (nt, 6, 3), as one
    (3, a, b) array."""
    return np.ascontiguousarray(np.moveaxis(a, 2, 0))


def _chart_points(coords, tris, perm, n6t):
    """Quadratic interpolation of chart node values, coordinate-major.

    coords is a (3, nt, 6) array, n6t the (6, M) shape functions at M points;
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


_SingularRule = namedtuple("_SingularRule", "n6x ix n6y iy w")

# on a plane chart x - y = xi (J_t f_x - J_s f_y) along a singular rule's
# radial variable xi, and each kernel is homogeneous in x - y: k(xi d) =
# xi^-p k(d), of this degree p (adlp reads the dlp weights)
_DEGREE = {"slp": 1, "dlp": 2}


@lru_cache(maxsize=None)
def _singular_rule(case, q_sing, tables, curved):
    """The regularized rule of a singular case for the (row, column)
    table kinds ``tables``, ready to interpolate.

    Curved charts take the whole rule (``quadrature.sauter_rule``), with
    one weight array for both kernels. Plane (affine) charts take its
    points at xi = 1 only (``quadrature.radial_rule``), q_sing times fewer,
    and each kernel its own weights: the radial sum is done here, once per
    rule, by the kernel's homogeneity (see _DEGREE), as w_p(eta) = sum
    over xi of w xi^-p times the slot factors. That is the same sum
    regrouped, so values move at rounding level only. A point row (vertex
    case only) is the column chart's (0, 0), against the whole Duffy rule
    ``quadrature.duffy_rule(0, q_sing)`` on both geometries.

    Each side's M points repeat heavily, so a side keeps the shape
    functions (6, U) at its U distinct points, n6x or n6y, and the index
    (M,) of every rule point among them, ix or iy. At q_sing 4, U of M
    per side is 56 of 512 for the curved vertex rule, 501 and 513 of
    1,280 for the edge rule and 800 of 1,536 for the identical rule; 20
    of 128, 114 and 98 of 320 and 204 of 384 for the plane rules. The
    weights w map each kernel ("slp", "dlp") to (M,) for the constant
    basis; for the linear basis they carry the barycentric factors, (M, 9)
    with column 3 a + c for the slots (a, c), and (M, 3) for a point row.
    Every array is read-only: the cache shares them among threads.
    """
    if tables[0] == "collocation":
        y, wy = quad.duffy_rule(0, q_sing)
        x, w = np.zeros_like(y), wy[:, None] * _bary(y)
    else:
        x, y, w = quad.sauter_rule(quad.KIND_NAMES[case], q_sing)
        w = w.copy() if tables[0] == "constant" else np.einsum(
            "m,ma,mb->mab", w, _bary(x), _bary(y)).reshape(-1, 9)
    if curved or tables[0] == "collocation":
        w = dict.fromkeys(_DEGREE, w)
    else:
        x, y, xi = quad.radial_rule(quad.KIND_NAMES[case], q_sing)
        # each subdomain's points run xi-major: sum over the xi axis
        lead = w.reshape((-1, q_sing, q_sing ** 3) + w.shape[1:])
        w = {k: np.einsum("si...,i->s...", lead, xi ** -p)
             .reshape((len(x),) + w.shape[1:]) for k, p in _DEGREE.items()}
    sides = []
    for pts in (x, y):
        distinct, index = np.unique(pts, axis=0, return_inverse=True)
        sides += [shape_functions(distinct).T.copy(), index.reshape(-1)]
    for a in (*sides, *w.values()):
        a.flags.writeable = False
    return _SingularRule(*sides, w)


SurfaceRule = namedtuple("SurfaceRule", "x n gram pts wts")


def surface_rule(mesh, q, tris=None, rule=quad.triangle_gauss):
    """The order-q triangle rule ``rule(q)`` on the listed charts (default:
    all), gathering only those. The evaluator's disjoint-pair tables take
    ``quadrature.symmetric_rule`` (1, 3 or 7 points for q 1, 2, 3; the
    collapsed rule for q >= 4); the Green factors, the mass matrices, the
    areas and the solution error keep the collapsed rule
    ``quadrature.triangle_gauss``, q*q points.

    x and n are the T charts' M points and unnormalized normals,
    coordinate-major (3, T, M); gram (T, M) the Gramians, |n| on curved
    charts and the plane charts' constant ones; pts (M, 2) and wts (M,)
    the reference points and weights.  The charts are interpolated by one
    einsum reduction over the six nodes of a contiguous (3 T, 6) gather,
    so a chart's values do not depend on which other charts are listed.
    """
    pts, wts = rule(q)
    pack = chart_pack(mesh)
    tris = np.arange(mesh.nt) if tris is None else np.asarray(tris)
    n6t = shape_functions(pts).T.copy()
    x, n = (np.einsum("ba,am->bm", np.moveaxis(a[tris], 2, 0).reshape(-1, 6),
                      n6t).reshape(3, len(tris), -1)
            for a in (pack.nodes, pack.normals))
    gram = (_norm3(n, axis=0) if pack.curved
            else np.repeat(pack.gram[tris][:, None], len(wts), axis=1))
    return SurfaceRule(x, n, gram, pts, wts)


_FarTables = namedtuple("_FarTables", "x n gram plain")


def _kinds(kinds, known=("slp", "dlp")):
    """One kernel name or several, distinct and ``known``, as a tuple."""
    kinds = (kinds,) if isinstance(kinds, str) else tuple(kinds)
    if not kinds or len(set(kinds)) < len(kinds) or set(kinds) - set(known):
        raise ConfigError("unknown kernel kinds %r" % (kinds,))
    return kinds


def _far_tables(mesh, q_reg, kind):
    """One side's regular-rule data for disjoint pairs, per element of a
    table of ``kind``, built once from :func:`surface_rule` with the
    symmetric rule ``quadrature.symmetric_rule(q_reg)``: 1, 3 or 7 points
    for q_reg 1, 2, 3, the collapsed rule's q_reg^2 for q_reg >= 4. The
    Green factors, the mass matrices and the solution error keep the
    collapsed rule.

    x holds the M rule points of every triangle, coordinate-major (3, nt,
    M), n their unnormalized normals; gram and plain are the Gram-weighted
    and the plain weights (nt, width, M), times the barycentric factors for
    the linear basis. A collocation row is its vertex, one point of weight
    1 (nv, 1, 1), with no normal.
    """
    if kind == "collocation":
        one = np.ones((mesh.nv, 1, 1))
        return _FarTables(mesh.vertices.T[:, :, None], None, one, one)
    rule = surface_rule(mesh, q_reg, rule=quad.symmetric_rule)
    gw = rule.gram * rule.wts
    slots = (_bary(rule.pts).T if kind == "linear"
             else np.ones((1, len(rule.wts))))
    plain = np.broadcast_to(rule.wts, gw.shape)[:, None, :] * slots
    return _FarTables(rule.x, rule.n, gw[:, None, :] * slots, plain)


def galerkin_classify(mesh):
    """Pair classifier for the executor: the case of each pair.

    Only pairs that share a vertex are compared vertex by vertex; every
    other pair is disjoint. The vertex-sharing pairs are kept as one sorted
    array of keys row * nt + col, every ordered pair of triangles in a
    vertex star: O(n) keys for a mesh of bounded valence, against which a
    batch of pairs is tested with one ``searchsorted``.
    """
    tris = mesh.triangles
    nt = len(tris)
    shared = np.unique(np.concatenate(
        [(st[:, None] * nt + st).ravel() for st in mesh.vertex_stars()]))

    def classify(rows, cols):
        key = rows * nt + cols
        at = np.minimum(np.searchsorted(shared, key), len(shared) - 1)
        hit = np.flatnonzero(shared[at] == key)
        case = np.full(len(rows), quad.DISJOINT, dtype=np.int64)
        if len(hit):
            # the case code counts the shared vertices
            case[hit] = (tris[rows[hit], :, None]
                         == tris[cols[hit], None, :]).any(axis=2).sum(axis=1)
        return case

    return classify


def pair_evaluator(kinds, mesh, tables, q_reg, q_sing):
    """Batched pair-integral evaluator for the executor, of one kernel
    ("slp", "dlp", "adlp") or a tuple of them, for the (row, column) table
    kinds ``tables``: ("constant", "constant") or ("linear", "linear") for
    triangle pairs, ("collocation", "linear") for a point and a triangle.
    A point row is the one-point case of a row element: weight 1, Gramian
    1 and no normal, so no "adlp".

    ``evaluate(case, rows, cols, kernels=None)`` returns, for the pairs
    (rows[i], cols[i]), all of singularity case ``case``, the kernels at
    these positions in ``kinds`` (default: all), shape (npairs,
    len(kernels), row width, column width): entry [i, j, a, b] pairs slot
    a of rows[i] and slot b of cols[i], each in its element's own vertex
    order. Kernels share each pair's points, differences, distances and
    Gramians; every value is bitwise the one-kernel value. "adlp", the
    adjoint double layer -(x - y).n_x / (4 pi r^3), at (s, t), transposed,
    is the dlp value at (t, s): to rounding for disjoint, vertex and
    identical pairs, to quadrature accuracy for edge pairs, whose rule is
    not swap-symmetric.

    Disjoint pairs read each side's tables of :func:`_far_tables`, so
    no chart is interpolated per pair: the value is the sum over the
    Mr*Mc point pairs of wr_a wc_b K(x_a, y_b). Singular pairs interpolate
    both charts at the distinct points of :func:`_singular_rule`,
    coordinate-major, and gather them to the rule's points, and each
    kernel sums with its own weights of the rule: on a curved mesh the
    whole regularized rule, the same weights for all; on a plane mesh
    (chosen by ``chart_pack``, no option) its points at xi = 1, the radial
    variable summed into the weights of each kernel's homogeneity degree.

    Vertex order, known here only: a singular batch classifies its own
    pairs (``quadrature.classify_pairs``) and reads both charts' nodes and
    normals through the permutations that put the shared vertices first,
    as the regularized rules need; a point row reads the column chart,
    rotated to start at the point's vertex, at (0, 0). That reproduces the
    physical point and normal fields exactly, so odd permutations need no
    orientation correction; linear values then go back to each triangle's
    own order. A pair is evaluated as given, in either orientation.
    """
    if tables not in (("constant", "constant"), ("linear", "linear"),
                      ("collocation", "linear")):
        raise ConfigError("unknown table kinds %r" % (tables,))
    points = tables[0] == "collocation"
    kinds = _kinds(kinds, ("slp", "dlp") + ("adlp",) * (not points))
    pack = chart_pack(mesh)
    rw, cw = (3 if k == "linear" else 1 for k in tables)
    tris = mesh.triangles
    nodes = _coordinate_major(pack.nodes)
    normals = _coordinate_major(pack.normals)
    col = _far_tables(mesh, q_reg, tables[1])
    row = _far_tables(mesh, q_reg, tables[0]) if points else col
    # a double layer weights its normal's side plainly: the unnormalized
    # normal carries that side's Gramian
    weights = {"slp": (row.gram, col.gram), "dlp": (row.gram, col.plain),
               "adlp": (row.plain, col.gram)}

    def evaluate(case, rows, cols, kernels=None):
        kernels = list(range(len(kinds)) if kernels is None else kernels)
        out = np.empty((len(rows), len(kernels), rw, cw))
        # the single layer last: the singular chunk scales r in place for
        # it, after the double layers have divided by r^3
        todo = sorted(enumerate(kernels), key=lambda jk: kinds[jk[1]] == "slp")
        if case == quad.DISJOINT:
            for sl in _chunks(len(rows), row.x.shape[-1] * col.x.shape[-1]):
                _disjoint_chunk(out[sl], rows[sl], cols[sl], todo)
            return out
        if points:
            # the point reads the column chart, rotated to start at it
            px = py = np.argmax(tris[cols] == rows[:, None], axis=1)
            rows = cols
        else:
            _, px, py = quad.classify_pairs(tris[rows], tris[cols])
        rule = _singular_rule(int(case), q_sing, tables, pack.curved)
        for sl in _chunks(len(rows), len(rule.ix)):
            _singular_chunk(out[sl], rows[sl], cols[sl], px[sl], py[sl],
                            rule, todo)
        # from the rule's vertex order back to each triangle's own
        if rw > 1:
            out = np.take_along_axis(
                out, quad.INV_PERMS3[px][:, None, :, None], axis=2)
        if cw > 1:
            out = np.take_along_axis(
                out, quad.INV_PERMS3[py][:, None, None, :], axis=3)
        return out

    def _disjoint_chunk(out, rows, cols, todo):
        # point pairs (a, b) of each pair on the two trailing axes
        d = (row.x.take(rows, axis=1)[..., :, None]
             - col.x.take(cols, axis=1)[..., None, :])
        r2 = np.sum(d * d, axis=0)
        r = np.sqrt(r2)
        for j, k in todo:
            kind = kinds[k]
            if kind == "dlp":
                ny = col.n.take(cols, axis=1)[..., None, :]
                kern = np.sum(d * ny, axis=0) / (r2 * r)
            elif kind == "adlp":
                nx = row.n.take(rows, axis=1)[..., :, None]
                kern = -np.sum(d * nx, axis=0) / (r2 * r)
            else:
                kern = 1.0 / r
            wr, wc = (a.take(idx, axis=0)
                      for a, idx in zip(weights[kind], (rows, cols)))
            if rw * cw > 1:
                # the slots of a pair: its kernel matrix between the row
                # and the column weights, two small products per pair
                out[:, j] = wr @ kern @ wc.transpose(0, 2, 1) / FOUR_PI
            else:
                # one contiguous Mr*Mc sum per pair
                out[:, j, 0, 0] = np.sum(
                    (kern * wc[:, 0, None, :]
                     * wr[:, 0, :, None]).reshape(len(rows), -1),
                    axis=1) / FOUR_PI

    def _singular_chunk(out, rows, cols, px, py, rule, todo):
        # charts interpolated at each side's distinct points, gathered to
        # the M rule points; the (3, b, M) temporaries are reused in place
        d = _chart_points(nodes, rows, px, rule.n6x).take(rule.ix, axis=2)
        d -= _chart_points(nodes, cols, py, rule.n6y).take(rule.iy, axis=2)
        asked = {kinds[k] for _, k in todo}
        # per side, x (rows, adlp's) and y (cols, dlp's): the Gramians at
        # the rule points and, before d is squared in place, the double
        # layer's numerator, both from the normals at the distinct points;
        # a point row has Gramian 1
        gram, num = ({"x": 1.0} if points else {}), {}
        for side, kind, tri, perm, n6, at, sign in (
                ("x", "adlp", rows, px, rule.n6x, rule.ix, -1.0),
                ("y", "dlp", cols, py, rule.n6y, rule.iy, 1.0)):
            own = side not in gram
            if kind in asked or (own and pack.curved):
                n = _chart_points(normals, tri, perm, n6)
            if own:
                gram[side] = (_norm3(n, axis=0).take(at, axis=1)
                              if pack.curved else pack.gram[tri][:, None])
            if kind in asked:
                kg = n.take(at, axis=2)
                kg *= d
                num[kind] = sign * np.sum(kg, axis=0)
        d *= d
        r2 = np.sum(d, axis=0)
        r = np.sqrt(r2)
        if num:
            r2 *= FOUR_PI
            r2 *= r
        for j, k in todo:
            kind = kinds[k]
            if kind == "slp":
                r *= FOUR_PI
                kg = np.divide(gram["x"] * gram["y"], r, out=r)
            else:
                # |n| carries its own side's Gramian, so only the other
                # side's multiplies
                kg = num[kind]
                kg /= r2
                kg *= gram["x" if kind == "dlp" else "y"]
            w = rule.w["slp" if kind == "slp" else "dlp"]
            if rw * cw > 1:
                # the slot weights of a pair in one small product per pair
                out[:, j] = np.matmul(kg[:, None, :], w).reshape(-1, rw, cw)
            else:
                kg *= w
                out[:, j, 0, 0] = np.sum(kg, axis=1)

    return evaluate


def collocation_classify(mesh):
    """Pair classifier for the executor: case 1 where the row point is a
    vertex of the column triangle, else 0."""
    tris = mesh.triangles

    def classify(rows, cols):
        return (tris[cols] == rows[:, None]).any(axis=1).astype(np.int64)

    return classify


def make_executor(kind, mesh, basis, disc, out, orders=(3, 5),
                  capacity=DEFAULT_CAPACITY, threads=None):
    """The executor of one kernel or a tuple of them, with one buffer each,
    for the ``disc`` ("galerkin", "collocation") of ``basis``, and the row
    and column kinds of its element tables (see :func:`element_tables`).
    A Galerkin executor's evaluator also computes each kernel's mirror,
    which its lower halves read (see ``batchexec``); collocation has no
    lower halves. A mirror value equals the kernel's own to rounding for
    disjoint, vertex and identical pairs, whose rules are swap-symmetric,
    and to quadrature accuracy for edge pairs. No result depends on that:
    the executor evaluates each unordered pair once, as (smaller element,
    larger element)."""
    kinds = own = _kinds(kind)
    mirror = None
    if disc == "galerkin":
        # a kernel's mirror: its value at (s, t), transposed, is the
        # kernel's at (t, s)
        twin = {"slp": "slp", "dlp": "adlp"}
        kinds = own + tuple(twin[k] for k in own if twin[k] not in own)
        mirror = [kinds.index(twin[k]) for k in own]
        tables, classify, cases = (basis, basis), galerkin_classify, 4
    elif disc == "collocation":
        tables, classify, cases = (disc, basis), collocation_classify, 2
    else:
        raise ConfigError("unknown discretization %r" % (disc,))
    evaluate = pair_evaluator(kinds, mesh, tables, *orders)
    return (BatchExecutor(classify(mesh), evaluate, out, cases, capacity,
                          threads, mirror), tables)


def _assemble(kind, mesh, basis, disc, rows, cols, orders, capacity,
              threads):
    """The rows x cols block of ``disc``, from one executor."""
    values = np.zeros((len(rows), len(cols)))
    ex, kinds = make_executor(kind, mesh, basis, disc, values, orders,
                              capacity, threads)
    (tri_r, rslots, _), (tri_c, cslots, _) = (
        element_tables(mesh, k, [idx]) for k, idx in zip(kinds, (rows, cols)))
    ex.enqueue_many(tri_r, tri_c, values, rslots, cslots)
    ex.finalize()
    return DenseBlock(np.asarray(rows), np.asarray(cols), values)


def assemble_galerkin_block(kind, mesh, basis, rows, cols, orders=(3, 5),
                            capacity=DEFAULT_CAPACITY, threads=None):
    """Dense Galerkin block of the slp/dlp operator on the given index lists."""
    return _assemble(kind, mesh, basis, "galerkin", rows, cols, orders,
                     capacity, threads)


def assemble_collocation_block(kind, mesh, basis, rows, cols, orders=(3, 5),
                               capacity=DEFAULT_CAPACITY, threads=None):
    """Collocation block: single surface integrals g(x_i, .) phi_j."""
    return _assemble(kind, mesh, basis, "collocation", rows, cols, orders,
                     capacity, threads)


def _touch_guard(r):
    if r.size and float(r.min()) <= 1e-12:
        raise GeometryError("expansion point touches the surface; "
                            "enlarge delta or the cluster box")


def _green_kernels(x, z, nz, nx=None):
    """g(x, z_nu) and dg/dn_z(x, z_nu) = <x - z_nu, n_nu>/(4 pi r^3) for the
    points x (3, T, M) of each triangle and the rule points z (T, K, 3) of
    its box; given the unnormalized surface normals nx (3, T, M) at the
    points, their derivatives along nx instead: dg/dn_x and d2g/dn_x dn_z.
    Worked out coordinate-major, (3, T, M, K), every sum over the three
    coordinates in order; the box normals nz are axis-parallel, so sums
    with them are exact in any order."""
    d = x[:, :, :, None] - _coordinate_major(z)[:, :, None, :]
    r = _norm3(d, axis=0)
    _touch_guard(r)
    dz = d[0] * nz[:, 0] + d[1] * nz[:, 1] + d[2] * nz[:, 2]
    if nx is None:
        return 1.0 / (FOUR_PI * r), dz / (FOUR_PI * r ** 3)
    nx = nx[..., None]
    dx = d[0] * nx[0] + d[1] * nx[1] + d[2] * nx[2]
    return (-dx / (FOUR_PI * r ** 3),
            (nx[0] * nz[:, 0] + nx[1] * nz[:, 1] + nx[2] * nz[:, 2]
             - 3.0 * dx * dz / r ** 2) / (FOUR_PI * r ** 3))


def _green_factor(segments, rule, mesh, basis, q, kind, row):
    """Row factors (``row``) or ``kind`` column factors of the (indices,
    box) segments under a rule of one box per segment, stacked by rows;
    evaluated in chunks of whole segments of about _POINT_BUDGET kernel
    points, so each row's values depend on its own segment only."""
    k = rule.k
    rows = [np.asarray(ix, dtype=np.int64) for ix, _ in segments]
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    diam = np.array([box.diameter() for _, box in segments])[:, None]
    sq = np.sqrt(rule.weights)
    pts, wts = quad.triangle_gauss(q)
    per_row = k * (1 if basis == "collocation" else len(wts))
    chunk = np.cumsum(sizes * per_row) // _POINT_BUDGET
    edges = np.r_[np.flatnonzero(np.diff(np.r_[-1, chunk])), len(sizes)]
    first = np.cumsum(np.r_[0, sizes])
    out = np.empty((first[-1], 2 * k))
    for s0, s1 in zip(edges[:-1], edges[1:]):
        seg = np.repeat(np.arange(s0, s1), sizes[s0:s1])
        tris, tseg = np.concatenate(rows[s0:s1]), seg
        if basis == "linear":
            tris, slots, start = element_tables(mesh, "linear", rows[s0:s1])
            tseg = np.repeat(np.arange(s0, s1), np.diff(start))
        if basis == "collocation":  # each row one point, of weight 1
            xq, gw = mesh.vertices.T[:, tris, None], np.ones((len(tris), 1))
        else:
            surf = surface_rule(mesh, q, tris)
            xq, gw = surf.x, surf.gram * surf.wts
        if kind == "dlp":
            # the unnormalized normals carry the Gramian
            g, h = _green_kernels(xq, rule.points[tseg], rule.normals,
                                  surf.n)
            gw = np.broadcast_to(wts, gw.shape)
        else:
            g, h = _green_kernels(xq, rule.points[tseg], rule.normals)
        if basis != "linear":
            g = np.einsum("tm,tmk->tk", gw, g)
            h = np.einsum("tm,tmk->tk", gw, h)
        else:  # each vertex row sums its triangles' slot values
            n3 = _bary(pts)  # (M, 3)
            vg = np.einsum("ma,tm,tmk->tak", n3, gw, g)
            vh = np.einsum("ma,tm,tmk->tak", n3, gw, h)
            g, h = np.zeros((len(seg), k)), np.zeros((len(seg), k))
            at = first[tseg] - first[s0]
            for a in range(3):
                ok = slots[:, a] >= 0
                np.add.at(g, at[ok] + slots[ok, a], vg[ok, a])
                np.add.at(h, at[ok] + slots[ok, a], vh[ok, a])
        part = out[first[s0]:first[s1]]
        if row:
            part[:, :k] = sq[seg] * g
            part[:, k:] = -diam[seg] * sq[seg] * h
        else:
            part[:, :k] = sq[seg] * h
            part[:, k:] = sq[seg] / diam[seg] * g
    return out


def green_row_factor(segments, rule, mesh, basis, orders=(3, 5)):
    """Row factors A of the (indices, box) segments under a rule of one box
    per segment (see ``quadrature.green_box_rule``), stacked by rows, each
    bitwise as alone: columns nu carry sqrt(w_nu) g-moments, columns nu+k
    the -d_tau sqrt(w_nu) normal-derivative moments, d_tau = diam of the
    box. Collocation rows are plain point evaluations."""
    return _green_factor(segments, rule, mesh, basis, orders[0], "slp",
                         True)


def green_col_factor(segments, rule, mesh, basis, orders=(3, 5),
                     kind="slp"):
    """Column factors B of the (sigma's indices, tau's box) segments, using
    tau's rule and d_tau, stacked as :func:`green_row_factor` stacks them;
    A @ B.T approximates the block on tau x sigma of the ``kind`` kernel:
    the dlp factor is the slp one differentiated along n_y."""
    if basis == "collocation":
        raise ConfigError("column factors integrate a Galerkin basis")
    return _green_factor(segments, rule, mesh, basis, orders[0], kind,
                         False)


def triangle_areas(mesh, q=3):
    pack = chart_pack(mesh)
    if pack.curved:
        rule = surface_rule(mesh, q)
        return rule.gram @ rule.wts
    # one product per chart: a sum over the rule's repeated Gramians
    # would round differently
    return pack.gram * quad.triangle_gauss(q)[1].sum()


def _local_mass(mesh, tris, order):
    """Linear-basis mass matrices (T, 3, 3) of the listed triangles."""
    rule = surface_rule(mesh, order, tris)
    n3 = _bary(rule.pts)
    return np.einsum("tm,ma,mb->tab", rule.gram * rule.wts, n3, n3)


def mass_apply(mesh, basis, v, order=3):
    """M v for the surface L2 product, as a sum over triangles."""
    if basis == "constant":
        return triangle_areas(mesh, order) * v
    tris = mesh.triangles
    local = _local_mass(mesh, np.arange(mesh.nt), order)
    return np.bincount(tris.ravel(), np.einsum("tab,tb->ta", local, v[tris])
                       .ravel(), minlength=mesh.nv)


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
    local = _local_mass(mesh, common, order)
    rslots = tr[ir, 1:] - 1
    cslots = tc[ic, 1:] - 1
    for a in range(3):
        for b in range(3):
            ok = (rslots[:, a] >= 0) & (cslots[:, b] >= 0)
            if ok.any():
                np.add.at(values, (rslots[ok, a], cslots[ok, b]), local[ok, a, b])
    return DenseBlock(rows, cols, values)
