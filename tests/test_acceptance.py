"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single pass/fail line with the measured quantities, then
asserts. Heavier shared setups live in module fixtures so the file runs in
one short sitting on a desk machine.
"""
import time

import numpy as np
import pytest

from greencross import assembly, cli, gca, h2
from greencross import quadrature as quad
from greencross.clustering import build_block_tree, build_cluster_tree
from greencross.geometry import build_sphere_mesh, to_curved

from oracles import expand_basis, surface_area
from pairsets import fixed_pairs, pair_integral


def _line(num, ok, detail):
    print("criterion %2d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


def _dense_op(a):
    def apply(x, trans=False):
        return a.T @ x if trans else a @ x
    return apply


def _build(mesh, tree, btree, m, eps, orders, basis="constant",
           disc="galerkin", capacity=4096, threads=None):
    """H2 build with its bases; a Galerkin build has one basis for both
    sides, as cli.build_h2_operator builds it."""
    rm, cm = gca.coupling_marks(btree)
    if disc == "galerkin":
        rb = cb = gca.build_cluster_basis(tree, mesh, basis, m, 0.5, eps,
                                          "row", orders, rm | cm)
    else:
        rb = gca.build_cluster_basis(tree, mesh, "collocation", m, 0.5, eps,
                                     "row", orders, rm)
        cb = gca.build_cluster_basis(tree, mesh, basis, m, 0.5, eps, "col",
                                     orders, cm)
    hm = gca.build_h2(btree, rb, cb, mesh, "slp", basis, disc, orders,
                      capacity=capacity, threads=threads)
    return hm, rb, cb


def test_criterion_01_dense_storage_anchor():
    rep = h2.storage_report(32768)
    ok = rep["dense"] == 8 * 32768 ** 2 == 8192 * 2 ** 20
    _line(1, ok, "dense(32768) = %d bytes = %d MiB"
          % (rep["dense"], rep["dense"] // 2 ** 20))


def test_criterion_02_all_inadmissible_bitwise():
    mesh = build_sphere_mesh(1)
    dofs = np.arange(mesh.nt)
    dense = assembly.assemble_galerkin_block("slp", mesh, "constant", dofs,
                                             dofs, (3, 5)).values
    tree = build_cluster_tree(mesh, "constant", leaf_size=32)
    btree = build_block_tree(tree, eta=1.0)
    assert len(btree.admissible_leaves()) == 0
    hm, _, _ = _build(mesh, tree, btree, 2, 1e-4, (3, 5))
    rng = np.random.default_rng(0)
    ok = True
    for x in rng.standard_normal((20, mesh.nt)):
        ok = ok and np.array_equal(h2.mvm(hm, x), dense @ x)
        ok = ok and np.array_equal(h2.mvm_t(hm, x), dense.T @ x)
    _line(2, ok, "20 matvec pairs bitwise-equal on the all-nearfield tree")


@pytest.fixture(scope="module")
def crit3(sphere3, dense_slp3):
    """Level-3 m-sweep shared by criteria 3 and 5."""
    tree = build_cluster_tree(sphere3, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    dop = _dense_op(dense_slp3)
    errs = {}
    bases = {}
    for m in (2, 3, 4, 5):
        hm, rb, cb = _build(sphere3, tree, btree, m, 1e-5, (3, 5))
        errs[m] = h2.spectral_error_estimate(dop, h2.as_operator(hm),
                                             sphere3.nt)[1]
        bases[m] = (rb, cb)
    return errs, bases


def test_criterion_03_gca_h2_accuracy(crit3):
    errs, _ = crit3
    floor = 1e-12
    ok = errs[4] <= 1e-3
    for m in (2, 3, 4):
        step_ok = (errs[m + 1] <= errs[m] / 3.0
                   or max(errs[m], errs[m + 1]) <= floor)
        ok = ok and step_ok
    _line(3, ok, "rel err m=2..5: " + " ".join("%.2e" % errs[m]
                                               for m in (2, 3, 4, 5))
          + " (exact couplings floor)")


def test_criterion_04_method_ordering(sphere3, dense_slp3):
    tree = build_cluster_tree(sphere3, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    dop = _dense_op(dense_slp3)
    n = sphere3.nt
    hm, _, _ = _build(sphere3, tree, btree, 2, 1e-3, (3, 5))
    h2_err = h2.spectral_error_estimate(dop, h2.as_operator(hm), n)[1]
    h2_bytes = h2.storage_report(hm)["total"]
    fl = gca.build_flat_gca(btree, sphere3, "slp", "constant", "galerkin",
                            m=2, delta_factor=0.5, eps=1e-3, orders=(3, 5))
    fl_err = h2.spectral_error_estimate(dop, h2.as_operator(fl), n)[1]
    fl_bytes = h2.storage_report(fl)["total"]
    gr = gca.build_green(btree, sphere3, "slp", "constant", "galerkin",
                         m=2, delta_factor=0.5, orders=(3, 5))
    gr_err = h2.spectral_error_estimate(dop, h2.as_operator(gr), n)[1]
    ratio = h2_err / fl_err
    ok = (1.0 / 3.0 <= ratio <= 3.0
          and h2_err <= gr_err / 10.0 and fl_err <= gr_err / 10.0
          and h2_bytes < fl_bytes < 8 * n * n)
    _line(4, ok, "err h2/gca/green %.2e/%.2e/%.2e, bytes %d < %d < %d"
          % (h2_err, fl_err, gr_err, h2_bytes, fl_bytes, 8 * n * n))


def test_criterion_05_interpolation_invariants(crit3):
    _, bases = crit3
    ok = True
    checked = 0
    for m, (rb, cb) in bases.items():
        two_k = 12 * m * m
        for basis in (rb, cb):
            for bn in basis.nodes():
                v = expand_basis(bn)
                idx = np.asarray(bn.cluster.indices)
                pos = np.array([int(np.nonzero(idx == p)[0][0])
                                for p in bn.pivots], dtype=int)
                ok = ok and bn.rank <= min(bn.cluster.size, two_k)
                if bn.rank:
                    ok = ok and np.max(np.abs(v[pos] - np.eye(bn.rank))) \
                        <= 1e-13
                if bn.children:
                    kids = set()
                    for c in bn.children:
                        kids.update(int(p) for p in c.pivots)
                    ok = ok and set(int(p) for p in bn.pivots) <= kids
                checked += 1
    _line(5, ok, "%d basis nodes: V|pivots = I, rank bound, nested pivots"
          % checked)


def test_criterion_06_triangle_table():
    class Conn:
        def __init__(self, triangles):
            self.triangles = np.asarray(triangles)

        def vertex_stars(self):
            nv = int(self.triangles.max()) + 1
            return [np.nonzero((self.triangles == v).any(axis=1))[0]
                    for v in range(nv)]

    conn = Conn([[0, 1, 2], [1, 2, 4], [3, 0, 2],
                 [5, 4, 1], [0, 6, 3], [6, 5, 0]])
    table = assembly.triangle_table([0, 5, 3], conn)
    expected = np.array([[0, 1, 0, 0], [2, 3, 1, 0], [3, 2, 0, 0],
                         [4, 1, 0, 3], [5, 0, 2, 1]])
    ok = np.array_equal(table.rows, expected)

    mesh = build_sphere_mesh(4)
    tris = mesh.triangles
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = int(rng.integers(1, 60))
        idx = rng.choice(mesh.nv, size=k, replace=False)
        rows = assembly.triangle_table(idx, mesh).rows
        pos = {int(v): p + 1 for p, v in enumerate(idx)}
        expected = [[t] + [pos.get(int(v), 0) for v in tris[t]]
                    for t in range(mesh.nt)
                    if any(int(v) in pos for v in tris[t])]
        ok = ok and np.array_equal(rows, np.array(expected))
    _line(6, ok, "worked example exact; 100 random level-4 sets match the "
          "brute-force union")


def test_criterion_07_quadrature_oracles():
    pts, wts = quad.duffy_rule(1, 12)
    target = np.log(1.0 + np.sqrt(2.0))
    r = np.linalg.norm(pts - np.array([1.0, 0.0]), axis=1)
    duffy_rel = abs(wts @ (1.0 / r) - target) / target
    ok = duffy_rel <= 1e-6
    worst = {}
    for kind in ("identical", "edge", "vertex", "disjoint"):
        rels = []
        for t1, t2 in fixed_pairs(kind):
            i8 = pair_integral(kind, 8, t1, t2)
            i9 = pair_integral(kind, 9, t1, t2)
            rels.append(abs(i9 - i8) / abs(i8))
        worst[kind] = max(rels)
        ok = ok and worst[kind] <= 1e-6
    _line(7, ok, "duffy rel %.2e at q=12; sauter q8->9 worst "
          % duffy_rel
          + " ".join("%s %.1e" % kv for kv in worst.items()))


def test_criterion_08_curved_area():
    rels = {}
    for level in (2, 3, 4, 5):
        mesh = to_curved(build_sphere_mesh(level),
                         project_to_unit_sphere=True)
        rels[level] = abs(surface_area(mesh) - 4.0 * np.pi) / (4.0 * np.pi)
    ratios = [rels[l] / rels[l + 1] for l in (2, 3, 4)]
    ok = rels[4] <= 1e-5 and all(r >= 4.0 for r in ratios)
    _line(8, ok, "rel area err L2..L5: "
          + " ".join("%.2e" % rels[l] for l in (2, 3, 4, 5))
          + "; ratios " + " ".join("%.1f" % r for r in ratios))


def _solve_variant(mesh, basis, geometry_name, level):
    cfg = cli.ExperimentConfig(
        level=level, geometry=geometry_name, basis=basis, disc="galerkin",
        eta=1.0, m=3, delta_factor=0.5, eps=1e-5, leaf_size=16,
        q_reg=2, q_sing=4, lam=0.5, source=(2.5, 0.0, 0.0), seed=0)
    n = cli.dof_count(mesh, basis)
    v_h = cli.point_source(cli.dof_points(mesh, basis), np.asarray(cfg.source))
    hm, _, _ = cli.build_h2_operator(mesh, cfg, dlp=True)
    b = cli.dirichlet_rhs(hm, mesh, cfg, v_h)
    res = h2.cg_solve(h2.as_operator(hm), b, tol=1e-8, max_iter=n)
    assert res.converged
    return cli.solution_l2_error(mesh, basis, res.x, np.asarray(cfg.source))


@pytest.fixture(scope="module")
def solve_errors():
    errs = {"constant/plane": [], "linear/plane": [], "linear/curved": []}
    for level in (2, 3, 4):
        plane = build_sphere_mesh(level)
        curved = to_curved(plane, project_to_unit_sphere=True)
        errs["constant/plane"].append(
            _solve_variant(plane, "constant", "plane", level))
        errs["linear/plane"].append(
            _solve_variant(plane, "linear", "plane", level))
        errs["linear/curved"].append(
            _solve_variant(curved, "linear", "curved", level))
    return errs


def test_criterion_09_dirichlet_solve(solve_errors):
    errs = solve_errors
    ok = all(e[0] > e[1] > e[2] for e in errs.values())
    ok = ok and errs["linear/curved"][1] < errs["linear/plane"][1]
    ok = ok and errs["linear/curved"][2] < errs["linear/plane"][2]

    # collocation vs Galerkin setup at the same level-3 curved config
    mesh = to_curved(build_sphere_mesh(3), project_to_unit_sphere=True)
    times = {}
    for disc in ("galerkin", "collocation"):
        cfg = cli.ExperimentConfig(
            level=3, geometry="curved", basis="linear", disc=disc,
            eta=1.0, m=3, delta_factor=0.5, eps=1e-5, leaf_size=16,
            q_reg=2, q_sing=4, lam=0.5, source=(2.5, 0.0, 0.0), seed=0)
        t0 = time.perf_counter()
        cli.build_h2_operator(mesh, cfg)
        times[disc] = time.perf_counter() - t0
    speedup = times["galerkin"] / times["collocation"]
    ok = ok and speedup >= 3.0

    detail = "; ".join("%s %.3e/%.3e/%.3e" % ((k,) + tuple(v))
                       for k, v in errs.items())
    _line(9, ok, detail + "; collocation setup %.1fx faster" % speedup)


def test_criterion_10_executor_determinism(sphere3):
    def blocks(capacity, threads):
        tree = build_cluster_tree(sphere3, "constant", leaf_size=16)
        btree = build_block_tree(tree, eta=1.0)
        hm, _, _ = _build(sphere3, tree, btree, 2, 1e-3, (2, 4),
                          capacity=capacity, threads=threads)
        coup = {(b.row.index, b.col.index): b.values for b in hm.coupling}
        near = {(b.row.index, b.col.index): b.values for b in hm.nearfield}
        return coup, near

    ref = blocks(4096, 1)
    assert len(ref[0]) > 0 and len(ref[1]) > 0
    ok = True
    for capacity, threads in ((1, 1), (10 ** 6, 1), (4096, 4)):
        coup, near = blocks(capacity, threads)
        for refd, got in ((ref[0], coup), (ref[1], near)):
            ok = ok and refd.keys() == got.keys()
            ok = ok and all(np.array_equal(refd[key], got[key])
                            for key in refd)
    _line(10, ok, "capacity {1, 4096, 1e6} x threads {1, 4}: coupling and "
          "nearfield blocks bitwise-identical")


def test_criterion_11_setup_scaling():
    per_dof = {}
    sizes = {}
    wall = 0.0
    for level in (3, 4, 5, 6):
        t0 = time.perf_counter()
        mesh = build_sphere_mesh(level)
        tree = build_cluster_tree(mesh, "constant", leaf_size=16)
        btree = build_block_tree(tree, eta=1.0)
        _build(mesh, tree, btree, 3, 1e-4, (2, 4))
        dt = time.perf_counter() - t0
        wall += dt
        sizes[level] = mesh.nt
        per_dof[level] = dt / mesh.nt
    # log-linear setup: per-dof cost at most c log n with c anchored at the
    # smallest run (slack 2 absorbs timing noise)
    c = 2.0 * per_dof[3] / np.log(sizes[3])
    ok = all(per_dof[l] <= c * np.log(sizes[l]) for l in (4, 5, 6))
    ok = ok and wall < 1800.0
    _line(11, ok, "per-dof setup ms: "
          + " ".join("L%d %.2f" % (l, per_dof[l] * 1e3) for l in per_dof)
          + "; bound %.2f ms at L6, wall %.0fs"
          % (c * np.log(sizes[6]) * 1e3, wall))
