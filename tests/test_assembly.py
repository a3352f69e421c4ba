from types import SimpleNamespace

import numpy as np
import pytest

from greencross import assembly
from greencross import quadrature as quad
from greencross.clustering import (BoundingBox, build_block_tree,
                                   build_cluster_tree)
from greencross.errors import ConfigError
from greencross.geometry import build_sphere_mesh, chart_eval, to_curved
from greencross.quadrature import green_box_rule

FOUR_PI = 4.0 * np.pi


class _Conn:
    """Connectivity-only mesh stand-in for triangle table tests."""

    def __init__(self, triangles):
        self.triangles = np.asarray(triangles)

    def vertex_stars(self):
        nv = int(self.triangles.max()) + 1
        return [np.nonzero((self.triangles == v).any(axis=1))[0]
                for v in range(nv)]


def test_triangle_table_worked_example():
    conn = _Conn([[0, 1, 2], [1, 2, 4], [3, 0, 2],
                  [5, 4, 1], [0, 6, 3], [6, 5, 0]])
    table = assembly.triangle_table([0, 5, 3], conn)
    expected = np.array([
        [0, 1, 0, 0],
        [2, 3, 1, 0],
        [3, 2, 0, 0],
        [4, 1, 0, 3],
        [5, 0, 2, 1],
    ])
    assert np.array_equal(table.rows, expected)


def test_triangle_table_random_sets(sphere3):
    rng = np.random.default_rng(5)
    tris = sphere3.triangles
    for _ in range(20):
        k = int(rng.integers(1, 40))
        idx = rng.choice(sphere3.nv, size=k, replace=False)
        rows = assembly.triangle_table(idx, sphere3).rows
        pos = {int(v): p + 1 for p, v in enumerate(idx)}
        expected = []
        for t in range(sphere3.nt):
            slots = [pos.get(int(v), 0) for v in tris[t]]
            if any(slots):
                expected.append([t] + slots)
        assert np.array_equal(rows, np.array(expected))
        assert np.array_equal(rows[:, 0], np.sort(rows[:, 0]))


def test_triangle_table_rejects_bad_input(sphere2):
    with pytest.raises(ConfigError):
        assembly.triangle_table([1, 1, 2], sphere2)
    with pytest.raises(ConfigError):
        assembly.triangle_table([0, 1], sphere2, basis="constant")


def test_slp_galerkin_symmetric(dense_slp3):
    asym = np.linalg.norm(dense_slp3 - dense_slp3.T)
    assert asym / np.linalg.norm(dense_slp3) < 1e-13


def test_slp_galerkin_positive_definite(dense_slp3):
    # smallest Ritz values stay positive for the single-layer operator
    w = np.linalg.eigvalsh(dense_slp3)
    assert w.min() > 0


def test_mass_constant_is_area_diagonal(sphere2):
    dofs = np.arange(sphere2.nt)
    m = assembly.mass_block(sphere2, "constant", dofs, dofs).values
    areas = assembly.triangle_areas(sphere2)
    assert np.array_equal(m, np.diag(np.diag(m)))
    assert np.allclose(np.diag(m), areas, rtol=1e-14)


def test_mass_linear_partition_of_unity(sphere2):
    dofs = np.arange(sphere2.nv)
    m = assembly.mass_block(sphere2, "linear", dofs, dofs).values
    from greencross.geometry import surface_area
    assert abs(m.sum() - surface_area(sphere2)) < 1e-12 * m.sum()
    assert np.linalg.norm(m - m.T) < 1e-14 * np.linalg.norm(m)


@pytest.mark.parametrize("level,bound", [(2, 2e-5), (3, 5e-6)])
def test_interior_gauss_identity_galerkin(level, bound):
    """(M/2 + K) 1 = 0 for the double-layer operator on a closed surface."""
    mesh = to_curved(build_sphere_mesh(level), project_to_unit_sphere=True)
    nv = mesh.base.nv
    dofs = np.arange(nv)
    k = assembly.assemble_galerkin_block("dlp", mesh, "linear", dofs, dofs,
                                         (3, 5)).values
    m = assembly.mass_block(mesh, "linear", dofs, dofs).values
    one = np.ones(nv)
    r = (0.5 * m + k) @ one
    assert np.linalg.norm(r) / np.linalg.norm(m @ one) < bound


def test_interior_gauss_identity_collocation():
    """Row sums of the collocation double-layer matrix approach -1/2."""
    residuals = []
    for level in (2, 3):
        mesh = to_curved(build_sphere_mesh(level), project_to_unit_sphere=True)
        dofs = np.arange(mesh.base.nv)
        k = assembly.assemble_collocation_block("dlp", mesh, "linear", dofs,
                                                dofs, (3, 5)).values
        residuals.append(np.abs(k.sum(axis=1) + 0.5).max())
    assert residuals[0] < 1e-2
    assert residuals[1] < 2e-3
    assert residuals[1] < residuals[0]


def test_collocation_requires_linear_basis(sphere2):
    with pytest.raises(ConfigError):
        assembly.assemble_collocation_block("slp", sphere2, "constant",
                                            [0], [0])


def _best_separated_block(mesh):
    tree = build_cluster_tree(mesh, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    adm = btree.admissible_leaves()
    ratios = [b.row.box.distance(b.col.box)
              / max(b.row.box.diameter(), b.col.box.diameter()) for b in adm]
    return adm[int(np.argmax(ratios))]


def test_green_factor_convergence(sphere3, dense_slp3):
    blk = _best_separated_block(sphere3)
    g = dense_slp3[np.ix_(blk.row.indices, blk.col.indices)]
    ng = np.linalg.norm(g)
    rels = []
    for m in range(2, 7):
        rule = green_box_rule(blk.row.box, 0.5 * blk.row.box.diameter(), m)
        a = assembly.green_row_factor(blk.row, rule, sphere3, "constant")
        b = assembly.green_col_factor((blk.row, blk.col), rule, sphere3,
                                      "constant")
        assert a.shape == (blk.row.size, 2 * rule.k)
        assert b.shape == (blk.col.size, 2 * rule.k)
        rels.append(np.linalg.norm(a @ b.T - g) / ng)
    assert all(y < x for x, y in zip(rels, rels[1:]))
    assert rels[3] <= 5e-3  # m = 5


def test_green_representation_identity_pointwise():
    """Quadrature of the representation formula reproduces the kernel for
    x inside the box and y well outside the enlarged box."""
    box = BoundingBox(np.zeros(3), np.ones(3))
    xs = np.array([[0.3, 0.4, 0.5], [0.5, 0.5, 0.5],
                   [0.7, 0.3, 0.6], [0.35, 0.65, 0.45]])
    ys = np.array([[8.0, 7.0, 6.0], [-6.0, 8.0, -5.0]])
    worst = {}
    for m in (4, 6, 8):
        rule = green_box_rule(box, 0.5 * box.diameter(), m)
        z, w, n = rule.points, rule.weights, rule.normals
        errs = []
        for x in xs:
            for y in ys:
                gxz = 1.0 / (FOUR_PI * np.linalg.norm(x - z, axis=1))
                ryz = np.linalg.norm(y - z, axis=1)
                dgzy = np.einsum("kc,kc->k", y - z, n) / (FOUR_PI * ryz ** 3)
                rxz = np.linalg.norm(x - z, axis=1)
                dgxz = np.einsum("kc,kc->k", x - z, n) / (FOUR_PI * rxz ** 3)
                gzy = 1.0 / (FOUR_PI * ryz)
                approx = w @ (gxz * dgzy - dgxz * gzy)
                exact = 1.0 / (FOUR_PI * np.linalg.norm(x - y))
                errs.append(abs(approx - exact) / exact)
        worst[m] = max(errs)
    assert worst[8] < worst[6] < worst[4]
    assert worst[6] <= 2e-4
    assert worst[8] <= 1e-5


def test_green_factor_scaling_invariance(sphere3):
    """d_tau cancels in A B^T: rescaling the row box leaves the product."""
    blk = _best_separated_block(sphere3)
    rule = green_box_rule(blk.row.box, 0.5 * blk.row.box.diameter(), 3)
    prods = []
    for scale in (1.0, 7.5):
        center = 0.5 * (blk.row.box.lower + blk.row.box.upper)
        half = 0.5 * scale * (blk.row.box.upper - blk.row.box.lower)
        stub = SimpleNamespace(box=BoundingBox(center - half, center + half),
                               indices=blk.row.indices)
        a = assembly.green_row_factor(stub, rule, sphere3, "constant")
        b = assembly.green_col_factor((stub, blk.col), rule, sphere3,
                                      "constant")
        prods.append(a @ b.T)
    diff = np.linalg.norm(prods[0] - prods[1]) / np.linalg.norm(prods[0])
    assert diff < 1e-13


def test_green_col_factor_rejects_collocation(sphere3):
    blk = _best_separated_block(sphere3)
    rule = green_box_rule(blk.row.box, 0.5 * blk.row.box.diameter(), 2)
    with pytest.raises(ConfigError):
        assembly.green_col_factor((blk.row, blk.col), rule, sphere3,
                                  "collocation")


def test_collocation_green_row_factor(sphere3):
    """Collocation rows of A are plain point evaluations of the kernel."""
    tree = build_cluster_tree(sphere3, "linear", leaf_size=16)
    leaf = tree.leaves()[0]
    rule = green_box_rule(leaf.box, 0.5 * leaf.box.diameter(), 3)
    a = assembly.green_row_factor(leaf, rule, sphere3, "collocation")
    x = sphere3.vertices[leaf.indices]
    r = np.linalg.norm(x[:, None, :] - rule.points[None, :, :], axis=2)
    expected = np.sqrt(rule.weights)[None, :] / (FOUR_PI * r)
    assert np.allclose(a[:, :rule.k], expected, rtol=1e-13)


def test_dense_block_subset_consistency(sphere3, dense_slp3):
    rng = np.random.default_rng(17)
    rows = rng.choice(sphere3.nt, size=23, replace=False)
    cols = rng.choice(sphere3.nt, size=31, replace=False)
    blk = assembly.assemble_galerkin_block("slp", sphere3, "constant",
                                           rows, cols, (3, 5)).values
    assert np.array_equal(blk, dense_slp3[np.ix_(rows, cols)])
    # the other evaluator paths, with small batches over two workers
    curved = to_curved(build_sphere_mesh(2), project_to_unit_sphere=True)
    for basis, kind in (("linear", "slp"), ("linear", "dlp"),
                        ("constant", "dlp")):
        n = curved.nt if basis == "constant" else curved.nv
        dofs = np.arange(n)
        dense = assembly.assemble_galerkin_block(kind, curved, basis, dofs,
                                                 dofs, (3, 5)).values
        rows = rng.choice(n, size=23, replace=False)
        cols = rng.choice(n, size=31, replace=False)
        blk = assembly.assemble_galerkin_block(kind, curved, basis, rows,
                                               cols, (3, 5), capacity=7,
                                               threads=2).values
        assert np.array_equal(blk, dense[np.ix_(rows, cols)])


_VARIANTS = [(g, b, k) for g in ("plane", "curved")
             for b in ("constant", "linear") for k in ("slp", "dlp")]


def _mesh(geometry, level):
    mesh = build_sphere_mesh(level)
    if geometry == "curved":
        mesh = to_curved(mesh, project_to_unit_sphere=True)
    return mesh


def _pairs_by_case(mesh, per_case, seed=3):
    """Up to per_case triangle pairs of each singularity case, with their
    classification."""
    t, s = np.meshgrid(np.arange(mesh.nt), np.arange(mesh.nt), indexing="ij")
    t, s = t.ravel(), s.ravel()
    case, px, py = quad.classify_pairs(mesh.triangles[t], mesh.triangles[s])
    rng = np.random.default_rng(seed)
    out = {}
    for c in range(4):
        pick = rng.permutation(np.nonzero(case == c)[0])[:per_case]
        out[c] = (t[pick], s[pick], px[pick], py[pick])
    return out


@pytest.mark.parametrize("geometry,basis,kind", _VARIANTS)
def test_pair_values_independent_of_chunking(monkeypatch, geometry, basis,
                                             kind):
    """Per-pair values are bitwise equal for any point budget and any
    order or grouping of the pairs in a batch."""
    mesh = _mesh(geometry, 2)
    ev = assembly.galerkin_pair_evaluator(kind, mesh, basis, 2, 3)
    for case, (t, s, px, py) in _pairs_by_case(mesh, 40).items():
        ref = ev(case, t, s, px, py)
        rev = slice(None, None, -1)
        for budget in (1, 37, 1000):
            monkeypatch.setattr(assembly, "_POINT_BUDGET", budget)
            assert np.array_equal(ev(case, t, s, px, py), ref)
            assert np.array_equal(ev(case, t[rev], s[rev], px[rev],
                                     py[rev]), ref[rev])
        monkeypatch.undo()
        one = ev(case, t[:1], s[:1], px[:1], py[:1])
        assert np.array_equal(one, ref[:1])


def _reference_pair(mesh, kind, basis, rule, t, s, p, q):
    """Pair integral summed point by point from geometry.chart_eval, plus
    the rounding scale: the same sum with the kernel replaced by the bound
    |d| |n_y| / (4 pi r^3) for dlp, where <d, n_y> may cancel to noise.

    The canonical local point xi of a permuted chart is the original chart
    at the barycentric coordinates reordered by PERMS3."""
    def physical(tri, perm, xhat):
        lam = np.empty(3)
        lam[quad.PERMS3[perm]] = [1.0 - xhat[0] - xhat[1], xhat[0], xhat[1]]
        return chart_eval(mesh, tri, lam[1:])

    width = 1 if basis == "constant" else 3
    val = np.zeros((width, width))
    mag = np.zeros((width, width))
    for xh, yh, w in zip(rule.x, rule.y, rule.w):
        cx, cy = physical(t, p, xh), physical(s, q, yh)
        d = cx.point - cy.point
        r = np.linalg.norm(d)
        if kind == "slp":
            f = bound = cx.gramian * cy.gramian / (FOUR_PI * r)
        else:
            f = cx.gramian * (d @ cy.normal) / (FOUR_PI * r ** 3)
            bound = cx.gramian * cy.gramian / (FOUR_PI * r ** 2)
        if basis == "constant":
            phi_x = phi_y = np.ones(1)
        else:
            phi_x = np.array([1.0 - xh[0] - xh[1], xh[0], xh[1]])
            phi_y = np.array([1.0 - yh[0] - yh[1], yh[0], yh[1]])
        phi = np.outer(phi_x, phi_y)
        val += w * f * phi
        mag += w * bound * phi
    return val, mag


@pytest.mark.parametrize("geometry,basis,kind", _VARIANTS)
def test_pair_values_match_chart_reference(geometry, basis, kind):
    """Disjoint (table-driven) and singular (interpolated) pair values agree
    with a point-by-point sum over chart_eval to 1e-13 of the integral of
    the kernel's magnitude."""
    mesh = _mesh(geometry, 2)
    q_reg, q_sing = 2, 2
    ev = assembly.galerkin_pair_evaluator(kind, mesh, basis, q_reg, q_sing)
    for case, (t, s, px, py) in _pairs_by_case(mesh, 2).items():
        rule = quad.sauter_rule(quad.KIND_NAMES[case],
                                q_reg if case == quad.DISJOINT else q_sing)
        got = ev(case, t, s, px, py)
        for i in range(len(t)):
            ref, mag = _reference_pair(mesh, kind, basis, rule, t[i], s[i],
                                       px[i], py[i])
            assert np.abs(got[i] - ref).max() <= 1e-13 * mag.max()
