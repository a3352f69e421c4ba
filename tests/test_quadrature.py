import numpy as np
import pytest

from greencross import quadrature as quad
from oracles import classify_pair
from pairsets import T1, fixed_pairs, pair_integral

LN_SILVER = np.log(1.0 + np.sqrt(2.0))

# frozen coplanar pair-integral oracles for the 1/(4 pi r) kernel; inner
# integral analytic (in-plane Newtonian potential), outer by refinement
PAIR_ORACLES = {
    "identical": (T1, 7.98214469042526e-02),
    "edge": (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.4, -0.8, 0.0]]),
             2.8659934531e-02),
    "vertex": (np.array([[0.0, 0.0, 0.0], [-1.0, -0.2, 0.0],
                         [-0.5, -1.0, 0.0]]),
               1.6892968088e-02),
    "disjoint": (T1 + np.array([2.0, 0.5, 0.0]), 9.6850829651e-03),
}


def test_triangle_gauss_weight_sum():
    for q in (1, 2, 4, 7):
        pts, wts = quad.triangle_gauss(q)
        assert len(wts) == q * q
        assert abs(wts.sum() - 0.5) < 1e-14
        assert np.all(pts >= -1e-15)
        assert np.all(pts.sum(axis=1) <= 1.0 + 1e-14)


def test_triangle_gauss_polynomial_exactness():
    # int over t-hat of x^a y^b = a! b! / (a+b+2)!
    from math import factorial
    pts, wts = quad.triangle_gauss(4)
    for a in range(4):
        for b in range(4 - a):
            exact = (factorial(a) * factorial(b)) / factorial(a + b + 2)
            got = wts @ (pts[:, 0] ** a * pts[:, 1] ** b)
            assert abs(got - exact) < 1e-14


@pytest.mark.parametrize("q,degree", [(1, 1), (2, 2), (3, 5)])
def test_symmetric_rule_polynomial_exactness(q, degree):
    """The 1-, 3- and 7-point rules integrate every monomial x^a y^b of
    degree at most 1, 2 and 5 over t-hat, a! b! / (a+b+2)!, to 1e-15
    relative."""
    from math import factorial
    pts, wts = quad.symmetric_rule(q)
    assert len(wts) == {1: 1, 2: 3, 3: 7}[q]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = (factorial(a) * factorial(b)) / factorial(a + b + 2)
            got = wts @ (pts[:, 0] ** a * pts[:, 1] ** b)
            assert abs(got - exact) <= 1e-15 * exact


@pytest.mark.parametrize("q", [1, 2, 3])
def test_symmetric_rule_weights_points_and_cache(q):
    """Positive weights summing to 1/2 at points inside t-hat, in cached
    read-only arrays."""
    pts, wts = quad.symmetric_rule(q)
    assert pts.shape == (len(wts), 2)
    assert np.all(wts > 0.0)
    assert abs(wts.sum() - 0.5) <= 1e-15
    assert np.all(pts > 0.0) and np.all(pts.sum(axis=1) < 1.0)
    assert all(a is b for a, b in zip((pts, wts), quad.symmetric_rule(q)))
    for a in (pts, wts):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_symmetric_rule_is_the_collapsed_rule_from_order_4():
    for q in (4, 5, 8, 9):
        assert all(a is b for a, b in zip(quad.symmetric_rule(q),
                                          quad.triangle_gauss(q)))
    for q in (0, 33):
        with pytest.raises(ValueError):
            quad.symmetric_rule(q)


@pytest.mark.parametrize("vertex,target", [
    (1, LN_SILVER),
    (2, LN_SILVER),
    (0, np.sqrt(2.0) * LN_SILVER),
])
def test_duffy_reference_integral(vertex, target):
    pts, wts = quad.duffy_rule(vertex, 12)
    v = np.zeros((3, 2))
    v[1, 0] = 1.0
    v[2, 1] = 1.0
    r = np.linalg.norm(pts - v[vertex], axis=1)
    got = wts @ (1.0 / r)
    assert abs(got - target) / target < 1e-6


def test_duffy_convergence_monotone():
    target = LN_SILVER
    errs = []
    for q in (2, 4, 6, 8, 10):
        pts, wts = quad.duffy_rule(1, q)
        r = np.linalg.norm(pts - np.array([1.0, 0.0]), axis=1)
        errs.append(abs(wts @ (1.0 / r) - target))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_duffy_nodes_inside_reference_triangle():
    for vertex in (0, 1, 2):
        pts, wts = quad.duffy_rule(vertex, 5)
        assert np.all(pts >= -1e-14)
        assert np.all(pts.sum(axis=1) <= 1.0 + 1e-14)
        assert abs(wts.sum() - 0.5) < 1e-14


@pytest.mark.parametrize("kind,subdomains", [
    ("identical", 6), ("edge", 5), ("vertex", 2), ("disjoint", 1),
])
def test_sauter_rule_sizes(kind, subdomains):
    """q^4 points per subdomain of a singular rule; the disjoint rule is
    the symmetric rule's tensor square, 9 and 49 points at q 2 and 3."""
    for q in (2, 3):
        rule = quad.sauter_rule(kind, q)
        points = (len(quad.symmetric_rule(q)[1]) ** 2 if kind == "disjoint"
                  else q ** 4)
        assert len(rule.w) == subdomains * points
        assert rule.x.shape == (len(rule.w), 2)
        assert rule.y.shape == (len(rule.w), 2)
        # measure of t-hat x t-hat
        assert abs(rule.w.sum() - 0.25) < 1e-13


@pytest.mark.parametrize("kind,subdomains", [
    ("identical", 6), ("edge", 5), ("vertex", 2),
])
def test_sauter_rule_is_radial(kind, subdomains):
    """The layout the plane singular rules rest on: each subdomain's q^4
    points run xi-major, the point at the Gauss node xi_i is xi_i f with f
    the radial rule's point at xi = 1, every subdomain centred at the
    shared vertex (0, 0); every weight over xi_i^3 and the Gauss weight
    of xi_i depends on eta only. The radial rule has S q^3 points, and
    its cached arrays refuse writes."""
    for q in range(2, 6):
        full = quad.sauter_rule(kind, q)
        rad = quad.radial_rule(kind, q)
        n = q ** 3
        assert rad.x.shape == rad.y.shape == (subdomains * n, 2)
        assert np.array_equal(rad.xi, np.sort(rad.xi))
        xi = rad.xi[:, None, None]
        for side, f in ((full.x, rad.x), (full.y, rad.y)):
            want = xi * f.reshape(subdomains, 1, n, 2)
            assert np.abs(side.reshape(subdomains, q, n, 2) - want).max() \
                <= 1e-15
        radial = 0.5 * quad.gauss_legendre(q).weights * rad.xi ** 3
        w = full.w.reshape(subdomains, q, n) / radial[:, None]
        assert np.abs(w - w[:, :1]).max() <= 1e-15 * np.abs(w).max()
        for a in rad:
            with pytest.raises(ValueError, match="read-only"):
                np.multiply(a, 1, out=a)


@pytest.mark.parametrize("rule", [
    lambda: quad.gauss_legendre(4), lambda: quad._gauss01(4),
    lambda: quad.triangle_gauss(4), lambda: quad.sauter_rule("identical", 3),
    lambda: quad.sauter_rule("edge", 3), lambda: quad.sauter_rule("vertex", 3),
    lambda: quad.sauter_rule("disjoint", 3), lambda: quad.radial_rule("edge", 3),
], ids=["gauss_legendre", "gauss01", "triangle_gauss", "sauter-identical",
        "sauter-edge", "sauter-vertex", "sauter-disjoint", "radial"])
def test_cached_rules_are_read_only(rule):
    """Every array a cached rule hands out refuses writes, so no caller can
    change it for the later ones; the cache returns the same arrays."""
    arrays = rule()
    assert all(a is b for a, b in zip(arrays, rule()))
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(a, 1, out=a)
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


@pytest.mark.parametrize("kind", ["identical", "edge", "vertex", "disjoint"])
def test_sauter_frozen_oracles(kind):
    t2, target = PAIR_ORACLES[kind]
    got = pair_integral(kind, 8, T1, t2)
    # measured q=8 errors: 1.1e-7 / 1.8e-9 / 1.5e-9 / 2.4e-14
    assert abs(got - target) / target < 5e-6


@pytest.mark.parametrize("kind", ["identical", "edge", "vertex", "disjoint"])
def test_sauter_self_convergence_fixed_set(kind):
    for t1, t2 in fixed_pairs(kind):
        vals = {q: pair_integral(kind, q, t1, t2) for q in range(4, 10)}
        scale = abs(vals[8])
        assert abs(vals[9] - vals[8]) <= 1e-6 * scale
        diffs = [abs(vals[q + 1] - vals[q]) for q in range(4, 9)]
        # monotone decrease until the converged floor, where even/odd
        # oscillation at the 1e-8 level takes over
        for a, b in zip(diffs, diffs[1:]):
            assert b < a or max(a, b) <= 1e-6 * scale


@pytest.mark.parametrize("kind", ["edge", "vertex", "disjoint"])
def test_pair_integral_swap_invariance(kind):
    for t1, t2 in fixed_pairs(kind, count=5):
        a = pair_integral(kind, 8, t1, t2)
        b = pair_integral(kind, 8, t2, t1)
        assert abs(a - b) / abs(a) < 1e-7


def test_classify_pair_cases():
    assert classify_pair((0, 1, 2), (0, 1, 2)).kind == "identical"
    assert classify_pair((0, 1, 2), (2, 1, 5)).kind == "edge"
    assert classify_pair((0, 1, 2), (3, 4, 2)).kind == "vertex"
    assert classify_pair((0, 1, 2), (3, 4, 5)).kind == "disjoint"


def test_classify_pair_aligns_shared_vertices():
    shared = {"identical": 3, "edge": 2, "vertex": 1, "disjoint": 0}
    rng = np.random.default_rng(3)
    pool = [(0, 1, 2), (2, 1, 5), (3, 4, 2), (3, 4, 5), (1, 2, 6), (0, 5, 6)]
    for t in pool:
        for s in pool:
            case = classify_pair(t, s)
            k = shared[case.kind]
            tp = np.asarray(t)[list(case.row_perm)]
            sp = np.asarray(s)[list(case.col_perm)]
            assert np.array_equal(tp[:k], sp[:k])
            assert set(tp) == set(t) and set(sp) == set(s)


def test_classify_pairs_matches_scalar():
    rng = np.random.default_rng(11)
    pool = np.array([(0, 1, 2), (2, 1, 5), (3, 4, 2), (3, 4, 5), (1, 2, 6),
                     (0, 5, 6), (7, 8, 9)])
    rows = pool[rng.integers(0, len(pool), size=30)]
    cols = pool[rng.integers(0, len(pool), size=30)]
    kinds, row_perms, col_perms = quad.classify_pairs(rows, cols)
    for i in range(len(rows)):
        case = classify_pair(tuple(rows[i]), tuple(cols[i]))
        assert quad.KIND_NAMES[kinds[i]] == case.kind
        assert tuple(quad.PERMS3[row_perms[i]].tolist()) == case.row_perm
        assert tuple(quad.PERMS3[col_perms[i]].tolist()) == case.col_perm


def test_green_box_rule_geometry():
    box = (np.zeros(3), np.ones(3))
    for m in (2, 4):
        rule = quad.green_box_rule(box, 0.5, m)
        assert rule.k == 6 * m * m
        assert len(rule.points) == 6 * m * m
        # enlarged box has side 2: boundary area 24
        assert abs(rule.weights.sum() - 24.0) < 1e-12
        assert np.allclose(np.linalg.norm(rule.normals, axis=1), 1.0)
        center = np.full(3, 0.5)
        out = np.einsum("kc,kc->k", rule.points - center, rule.normals)
        assert np.all(out > 0)


def test_green_box_rule_rejects_bad_delta():
    with pytest.raises(ValueError):
        quad.green_box_rule((np.zeros(3), np.ones(3)), 0.0, 3)


def test_green_box_rule_of_several_boxes_matches_each_box():
    """Rules of several boxes at once are bitwise the rules of each box
    alone: points and weights per box, the normals shared."""
    rng = np.random.default_rng(5)
    lower = rng.standard_normal((7, 3))
    upper = lower + rng.random((7, 3))
    delta = 0.5 * np.linalg.norm(upper - lower, axis=1)
    for m in (1, 3):
        rules = quad.green_box_rule((lower, upper), delta, m)
        assert rules.points.shape == (7, rules.k, 3)
        assert rules.weights.shape == (7, rules.k)
        for n in range(7):
            one = quad.green_box_rule((lower[n], upper[n]), delta[n], m)
            assert one.k == rules.k == 6 * m * m
            assert np.array_equal(one.points, rules.points[n])
            assert np.array_equal(one.weights, rules.weights[n])
            assert np.array_equal(one.normals, rules.normals)
    with pytest.raises(ValueError):
        quad.green_box_rule((lower, upper), np.r_[delta[:-1], 0.0], 2)
