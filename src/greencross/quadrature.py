"""Quadrature rules.

1D Gauss-Legendre, collapsed-tensor triangle rules, the symmetric triangle
rules of the disjoint pair integrals, Duffy rules for vertex singularities,
the box-boundary rule feeding the separable kernel expansion, and the four
regularized tensor rules for singular triangle pairs (identical / shared
edge / shared vertex / disjoint).
"""

from collections import namedtuple
from functools import lru_cache

import numpy as np

Rule1D = namedtuple("Rule1D", "points weights")
GreenRule = namedtuple("GreenRule", "points weights normals k")
PairRule = namedtuple("PairRule", "x y w")


def _read_only(rule):
    """``rule``, its arrays marked read-only: a cache shares them."""
    for a in rule:
        a.flags.writeable = False
    return rule


# a pair's case code is the number of vertices its triangles share
DISJOINT, VERTEX, EDGE, IDENTICAL = 0, 1, 2, 3
KIND_NAMES = ("disjoint", "vertex", "edge", "identical")
KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}

# vertex permutations of the reference triangle; rotations first, then the
# odd permutations (an aligned shared edge needs one when the two triangles
# are consistently oriented)
PERMS3 = np.array(
    [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [2, 1, 0], [1, 0, 2]],
    dtype=np.int64,
)
INV_PERMS3 = np.array([np.argsort(p) for p in PERMS3])

# chart-node reordering induced by each vertex permutation: slot a < 3 maps
# to vertex perm[a], slot 3+j to the midpoint of edge (perm[j], perm[j+1])
_MID_OF_PAIR = {(0, 1): 3, (1, 2): 4, (2, 0): 5}
_MID_OF_PAIR.update({(b, a): m for (a, b), m in list(_MID_OF_PAIR.items())})
ORDER6 = np.array(
    [
        [p[0], p[1], p[2],
         _MID_OF_PAIR[(p[0], p[1])],
         _MID_OF_PAIR[(p[1], p[2])],
         _MID_OF_PAIR[(p[2], p[0])]]
        for p in PERMS3.tolist()
    ],
    dtype=np.int64,
)


@lru_cache(maxsize=None)
def gauss_legendre(m):
    """m-point Gauss-Legendre rule on [-1, 1]."""
    if not 1 <= m <= 32:
        raise ValueError("Gauss order %r outside [1, 32]" % (m,))
    return _read_only(Rule1D(*np.polynomial.legendre.leggauss(m)))


@lru_cache(maxsize=None)
def _gauss01(m):
    rule = gauss_legendre(m)
    return _read_only((0.5 * (rule.points + 1.0), 0.5 * rule.weights))


@lru_cache(maxsize=None)
def triangle_gauss(q):
    """Collapsed tensor rule on t-hat with q*q nodes.

    (x, y) = (s (1 - t), s t) maps the unit square onto the triangle with
    Jacobian s; nodes cluster toward the vertex (0, 0). Read-only arrays.
    """
    s, ws = _gauss01(q)
    t, wt = _gauss01(q)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    ww = np.outer(ws, wt)
    pts = np.column_stack([(ss * (1.0 - tt)).ravel(), (ss * tt).ravel()])
    return _read_only((pts, (ww * ss).ravel()))


_R15 = np.sqrt(15.0)
# orbits (a, weight) of the symmetric rules: a = 1/3 is the centroid, any
# other a the three rotations of the barycentric point (1 - 2a, a, a)
_SYMMETRIC_ORBITS = {
    1: ((1.0 / 3.0, 0.5),),
    2: ((1.0 / 6.0, 1.0 / 6.0),),
    3: ((1.0 / 3.0, 9.0 / 80.0),
        ((6.0 - _R15) / 21.0, (155.0 - _R15) / 2400.0),
        ((6.0 + _R15) / 21.0, (155.0 + _R15) / 2400.0)),
}


@lru_cache(maxsize=None)
def symmetric_rule(q):
    """Symmetric rule on t-hat of the disjoint pair integrals, read-only.

    q 1 is the centroid (degree 1), q 2 the 3-point rule (degree 2, Strang
    & Fix 1973), q 3 Radon's 7-point rule (degree 5, Radon 1948): 1, 3 and
    7 points of positive weight inside t-hat, weights summing to 1/2. For
    q >= 4 it is :func:`triangle_gauss`, q*q points."""
    if q not in _SYMMETRIC_ORBITS:
        return triangle_gauss(q)
    pts, wts = [], []
    for a, w in _SYMMETRIC_ORBITS[q]:
        if a == 1.0 / 3.0:
            orbit = [(a, a)]
        else:
            b = 1.0 - 2.0 * a
            orbit = [(a, a), (b, a), (a, b)]
        pts += orbit
        wts += [w] * len(orbit)
    return _read_only((np.array(pts), np.array(wts)))


# barycentric rotations sending the clustered vertex (0,0) of the base rule
# to vertex v: new coordinates as functions of (x, y, l0)
def duffy_rule(singular_vertex, q):
    """Duffy-transformed rule on t-hat clustering nodes at the given vertex."""
    if singular_vertex not in (0, 1, 2):
        raise ValueError("vertex index must be 0, 1 or 2")
    pts, wts = triangle_gauss(q)
    if singular_vertex == 0:
        return pts, wts
    x, y = pts[:, 0], pts[:, 1]
    l0 = 1.0 - x - y
    if singular_vertex == 1:
        return np.column_stack([l0, x]), wts
    return np.column_stack([y, l0]), wts


def green_box_rule(box, delta, m):
    """Tensor Gauss rule on the boundary of the box enlarged by delta.

    Returns 6 m^2 points with outward normals; weights sum to the area of
    the enlarged box boundary.  Corners (lower, upper) of shape (N, 3)
    and N deltas give the rules of N boxes, the Gauss nodes scaled and
    shifted to each: points (N, 6 m^2, 3) and weights (N, 6 m^2), bitwise
    those of each box alone, and the normals (6 m^2, 3) they share."""
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta <= 0.0):
        raise ValueError("delta must be positive")
    lower, upper = (box.lower, box.upper) if hasattr(box, "lower") else box
    lo = np.asarray(lower, dtype=np.float64) - delta[..., None]
    hi = np.asarray(upper, dtype=np.float64) + delta[..., None]
    g, w = _gauss01(m)
    points, weights, normals = [], [], []
    for axis in range(3):
        b, c = [a for a in range(3) if a != axis]
        pb = lo[..., b, None] + (hi[..., b, None] - lo[..., b, None]) * g
        pc = lo[..., c, None] + (hi[..., c, None] - lo[..., c, None]) * g
        face_w = (np.outer(w, w).ravel() * (hi[..., b, None] - lo[..., b, None])
                  * (hi[..., c, None] - lo[..., c, None]))
        for side, coord in ((0, lo[..., axis]), (1, hi[..., axis])):
            z = np.empty(lo.shape[:-1] + (m * m, 3))
            z[..., axis] = coord[..., None]
            z[..., b] = np.repeat(pb, m, axis=-1)
            z[..., c] = np.tile(pc, m)
            n = np.zeros((m * m, 3))
            n[:, axis] = -1.0 if side == 0 else 1.0
            points.append(z)
            weights.append(face_w)
            normals.append(n)
    points = np.concatenate(points, axis=-2)
    return GreenRule(points, np.concatenate(weights, axis=-1),
                     np.concatenate(normals), points.shape[-2])


def classify_pairs(row_tris, col_tris):
    """Vectorized singularity classification of triangle pairs.

    row_tris, col_tris: (B, 3) arrays of global vertex indices.
    Returns (kind, row_perm_id, col_perm_id) arrays; permutation ids index
    PERMS3 / ORDER6. The permutations bring shared vertices to the leading
    slots with matching order on both sides.
    """
    row_tris = np.asarray(row_tris)
    col_tris = np.asarray(col_tris)
    B = len(row_tris)
    eq = row_tris[:, :, None] == col_tris[:, None, :]  # (B, 3, 3)
    row_hit = eq.any(axis=2)
    col_hit = eq.any(axis=1)
    kind = row_hit.sum(axis=1)
    rperm = np.zeros(B, dtype=np.int64)
    cperm = np.zeros(B, dtype=np.int64)

    mask = kind == VERTEX
    if mask.any():
        # rotation moving the shared vertex to slot 0 on both sides
        rperm[mask] = np.argmax(row_hit[mask], axis=1)
        cperm[mask] = np.argmax(col_hit[mask], axis=1)

    mask = kind == EDGE
    if mask.any():
        bits = (row_hit[mask, 0] * 1 + row_hit[mask, 1] * 2 + row_hit[mask, 2] * 4)
        # {0,1} -> rotation 0, {1,2} -> rotation 1, {0,2} -> rotation 2
        rot = np.where(bits == 3, 0, np.where(bits == 6, 1, 2))
        rperm[mask] = rot
        idx = np.nonzero(mask)[0]
        g0 = row_tris[idx, PERMS3[rot, 0]]
        g1 = row_tris[idx, PERMS3[rot, 1]]
        c0 = np.argmax(col_tris[idx] == g0[:, None], axis=1)
        c1 = np.argmax(col_tris[idx] == g1[:, None], axis=1)
        c2 = 3 - c0 - c1
        cperm[mask] = _perm_id_table()[c0, c1, c2]
    return kind, rperm, cperm


@lru_cache(maxsize=1)
def _perm_id_table():
    table = np.zeros((3, 3, 3), dtype=np.int64)
    for i, p in enumerate(PERMS3.tolist()):
        table[p[0], p[1], p[2]] = i
    return table


def _grid4(q):
    g, w = _gauss01(q)
    xi, e1, e2, e3 = np.meshgrid(g, g, g, g, indexing="ij")
    w4 = np.einsum("i,j,k,l->ijkl", w, w, w, w)
    return (xi.ravel(), e1.ravel(), e2.ravel(), e3.ravel(), w4.ravel())


def _to_simplex(r1, r2):
    return np.column_stack([r1 - r2, r2])


# relative-coordinate matrices of the identical case; each yields a
# symmetric pair of subdomains, six in total
_IDENTICAL_MATS = (
    ((1, 0, 0, 0), (1, -1, 1, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    ((1, 0, 0, 0), (0, 1, -1, 1), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 0, -1), (0, 0, 1, -1)),
)


def _regularized(code, xi, e1, e2, e3, w4):
    """Points and weights of the singular rule of case ``code`` at the
    coordinates (xi, e1, e2, e3) of the unit 4-cube, weights w4 there."""
    xs, ys, ws = [], [], []

    def add(rx1, rx2, ry1, ry2, jac):
        xs.append(_to_simplex(rx1, rx2))
        ys.append(_to_simplex(ry1, ry2))
        ws.append(w4 * jac)

    if code == IDENTICAL:
        jac = xi**3 * e1**2 * e2
        wv = (xi, xi * e1, xi * e1 * e2, xi * e1 * e2 * e3)
        for mat in _IDENTICAL_MATS:
            z = [sum(mat[r][c] * wv[c] for c in range(4) if mat[r][c])
                 for r in range(4)]
            add(z[0], z[1], z[0] - z[2], z[1] - z[3], jac)
            add(z[0] - z[2], z[1] - z[3], z[0], z[1], jac)
    elif code == VERTEX:
        jac = xi**3 * e2
        add(xi, xi * e1, xi * e2, xi * e2 * e3, jac)
        add(xi * e2, xi * e2 * e3, xi, xi * e1, jac)
    elif code == EDGE:
        jac_a = xi**3 * e1**2
        jac_b = xi**3 * e1**2 * e2
        specs = (
            ((xi, -xi * e1 * e2, xi * e1 * (1.0 - e2), xi * e1 * e3), jac_a),
            ((xi, -xi * e1 * e2 * e3, xi * e1 * e2 * (1.0 - e3), xi * e1), jac_b),
            ((xi * (1.0 - e1 * e2), xi * e1 * e2, xi * e1 * e2 * e3,
              xi * e1 * (1.0 - e2)), jac_b),
            ((xi * (1.0 - e1 * e2 * e3), xi * e1 * e2 * e3, xi * e1,
              xi * e1 * e2 * (1.0 - e3)), jac_b),
            ((xi * (1.0 - e1 * e2 * e3), xi * e1 * e2 * e3, xi * e1 * e2,
              xi * e1 * (1.0 - e2 * e3)), jac_b),
        )
        for (w0, w1, w2, w3), jac in specs:
            add(w0, w3, w0 + w1, w2, jac)
    else:
        raise ValueError("unknown singularity kind %r" % (code,))
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(ws)


@lru_cache(maxsize=None)
def sauter_rule(kind, q):
    """Regularized tensor rule on t-hat x t-hat for one singularity case.

    kind is a KIND_NAMES entry or its code. Node counts are 6 q^4 / 5 q^4 /
    2 q^4 for identical / edge / vertex. The disjoint rule is the tensor
    product of :func:`symmetric_rule` with itself, the rule of the
    evaluator's disjoint pairs: 1, 9 or 49 point pairs for q 1, 2, 3, q^4
    for q >= 4 (the collapsed rule's); the Green factors, the mass
    matrices and the solution error keep the collapsed rule
    :func:`triangle_gauss`. Points
    are given in simplex coordinates; the construction works in the
    'relative' coordinates 0 <= r2 <= r1 <= 1 and shears the result, which
    leaves the weights untouched.

    A singular rule is S subdomains (6 / 5 / 2) of q^4 points each, in
    order; a subdomain's points run radial-major: q^3 points eta for each
    Gauss node xi in turn. Both sides' points are xi f(eta), with f(eta)
    the point at xi = 1 (see :func:`radial_rule`): every subdomain is
    centred at the shared vertex (0, 0). A weight is the Gauss weight of
    xi times xi^3 times a factor of eta.
    """
    if q < 1:
        raise ValueError("quadrature order must be positive")
    code = KIND_CODES[kind] if isinstance(kind, str) else int(kind)
    if code == DISJOINT:
        pts, wts = symmetric_rule(q)
        return _read_only(PairRule(np.repeat(pts, len(pts), axis=0),
                                   np.tile(pts, (len(pts), 1)),
                                   np.outer(wts, wts).ravel()))
    return _read_only(PairRule(*_regularized(code, *_grid4(q))))


RadialRule = namedtuple("RadialRule", "x y xi")


@lru_cache(maxsize=None)
def radial_rule(kind, q):
    """The points of the singular rule ``sauter_rule(kind, q)`` at xi = 1,
    from the rule's own formulas: x and y (S q^3, 2), subdomain-major, and
    the radial Gauss nodes xi (q,). Point (s q + i) q^3 + m of the full
    rule is xi[i] x[s q^3 + m] (see :func:`sauter_rule`), and the same of
    y. The arrays are read-only: the cache shares them.
    """
    code = KIND_CODES[kind] if isinstance(kind, str) else int(kind)
    if code == DISJOINT or q < 1:
        raise ValueError("no radial rule of kind %r, order %r" % (kind, q))
    # the grid is xi-major: its first q^3 points hold every eta
    _, e1, e2, e3, _ = _grid4(q)
    m = q ** 3
    x, y, _ = _regularized(code, np.ones(m), e1[:m], e2[:m], e3[:m], 1.0)
    return _read_only(RadialRule(x, y, _gauss01(q)[0].copy()))
