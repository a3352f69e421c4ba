import threading

import numpy as np
import pytest

from greencross import assembly, gca, h2
from greencross.clustering import (ADMISSIBLE, BlockTree, build_block_tree,
                                   build_cluster_tree)
from greencross.errors import ConfigError, StateError
from greencross.gca import (aca_interpolation, build_cluster_basis,
                            build_flat_gca, build_green, build_h2,
                            coupling_marks, expand_basis)
from greencross.geometry import build_sphere_mesh


def _dense_op(a):
    def apply(x, trans=False):
        return a.T @ x if trans else a @ x
    return apply


def test_aca_identity_matrix():
    interp = aca_interpolation(np.eye(8), 1e-12)
    assert interp.v.shape == (8, 8)
    assert len(interp.pivots) == 8
    assert np.allclose(interp.v @ np.eye(8)[interp.pivots], np.eye(8),
                       atol=1e-14)


def test_aca_rank_one():
    u = np.arange(1.0, 7.0)
    w = np.array([2.0, -1.0, 0.5])
    interp = aca_interpolation(np.outer(u, w), 1e-12)
    assert len(interp.pivots) == 1
    assert interp.pivots[0] == 5  # largest entry row
    rebuilt = interp.v @ np.outer(u, w)[interp.pivots]
    assert np.allclose(rebuilt, np.outer(u, w), atol=1e-14)


def test_aca_random_thin_matrix():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 24))
    interp = aca_interpolation(a, 1e-6)
    assert len(interp.pivots) == 24
    assert np.linalg.norm(a - interp.v @ a[interp.pivots]) \
        <= 1e-6 * np.linalg.norm(a)
    assert np.array_equal(interp.v[interp.pivots], np.eye(24))
    assert len(np.unique(interp.pivots)) == 24


def test_aca_zero_matrix():
    interp = aca_interpolation(np.zeros((10, 4)), 1e-8)
    assert len(interp.pivots) == 0
    assert interp.v.shape == (10, 0)


def test_aca_truncates_decaying_spectrum():
    rng = np.random.default_rng(1)
    q1, _ = np.linalg.qr(rng.standard_normal((60, 20)))
    q2, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    s = 10.0 ** -np.arange(20.0)
    a = q1 @ np.diag(s) @ q2.T
    interp = aca_interpolation(a, 1e-3)
    assert 0 < len(interp.pivots) < 20
    assert np.linalg.norm(a - interp.v @ a[interp.pivots]) \
        <= 1e-3 * np.linalg.norm(a)


def test_aca_max_rank_cap():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((50, 10))
    interp = aca_interpolation(a, 1e-14, max_rank=4)
    assert len(interp.pivots) == 4


@pytest.fixture(scope="module")
def l3_setup(sphere3):
    tree = build_cluster_tree(sphere3, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    return tree, btree


@pytest.fixture(scope="module")
def dense_op3(dense_slp3):
    return _dense_op(dense_slp3)


def test_coupling_marks(l3_setup):
    _, btree = l3_setup
    rows, cols = coupling_marks(btree)
    adm = btree.admissible_leaves()
    assert rows == {b.row.index for b in adm}
    assert cols == {b.col.index for b in adm}


def test_basis_invariants(sphere3, l3_setup):
    tree, btree = l3_setup
    marks, _ = coupling_marks(btree)
    m = 2
    basis = build_cluster_basis(tree, sphere3, "constant", m, 0.5, 1e-4,
                                "row", (3, 5), marks)
    assert any(bn.cluster.index in marks for bn in basis.nodes())
    for bn in basis.nodes():
        assert bn.rank <= min(bn.cluster.size, 12 * m * m)
        idx = np.asarray(bn.cluster.indices)
        v = expand_basis(bn)
        pos = np.array([int(np.nonzero(idx == p)[0][0]) for p in bn.pivots])
        assert np.array_equal(v[pos], np.eye(bn.rank))
        if bn.children:
            child_pivots = set()
            for c in bn.children:
                child_pivots.update(int(p) for p in c.pivots)
            assert set(int(p) for p in bn.pivots) <= child_pivots
            for c in bn.children:
                assert c.transfer.shape == (c.rank, bn.rank)
    # every admissible row cluster has basis content available
    for b in btree.admissible_leaves():
        assert basis.node(b.row) is not None


def test_basis_side_validation(sphere2):
    tree = build_cluster_tree(sphere2, "constant", leaf_size=16)
    with pytest.raises(ConfigError):
        build_cluster_basis(tree, sphere2, "constant", 2, side="diag")
    with pytest.raises(ConfigError):
        build_cluster_basis(tree, sphere2, "collocation", 2, side="col")


def _build_h2(mesh, tree, btree, m, eps, orders, basis="constant",
              disc="galerkin"):
    rm, cm = coupling_marks(btree)
    row_kind = "collocation" if disc == "collocation" else basis
    rb = build_cluster_basis(tree, mesh, row_kind, m, 0.5, eps, "row",
                             orders, rm)
    cb = build_cluster_basis(tree, mesh, basis, m, 0.5, eps, "col",
                             orders, cm)
    return build_h2(btree, rb, cb, mesh, "slp", basis, disc, orders)


def test_single_leaf_tree_reproduces_dense_bitwise():
    mesh = build_sphere_mesh(1)
    dofs = np.arange(mesh.nt)
    dense = assembly.assemble_galerkin_block("slp", mesh, "constant", dofs,
                                             dofs, (3, 5)).values
    tree = build_cluster_tree(mesh, "constant", leaf_size=32)
    btree = build_block_tree(tree, eta=1.0)
    assert btree.is_leaf()
    hm = _build_h2(mesh, tree, btree, 2, 1e-4, (3, 5))
    assert len(hm.coupling) == 0 and len(hm.nearfield) == 1
    rng = np.random.default_rng(0)
    for x in rng.standard_normal((20, mesh.nt)):
        assert np.array_equal(h2.mvm(hm, x), dense @ x)
        assert np.array_equal(h2.mvm_t(hm, x), dense.T @ x)


def test_h2_error_tracks_aca_tolerance(sphere3, l3_setup, dense_op3):
    tree, btree = l3_setup
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        hm = _build_h2(sphere3, tree, btree, 3, eps, (3, 5))
        errs.append(h2.spectral_error_estimate(dense_op3,
                                               h2.as_operator(hm),
                                               sphere3.nt)[1])
    assert errs[0] > errs[1] > errs[2]
    assert 5e-5 <= errs[1] <= 5e-4
    assert 5e-7 <= errs[2] <= 2e-5


def test_h2_quadrature_order_trend(sphere3):
    """One Green order step drops the error to the exact-coupling floor."""
    dofs = np.arange(sphere3.nt)
    dense = assembly.assemble_galerkin_block("slp", sphere3, "constant",
                                             dofs, dofs, (2, 4)).values
    dop = _dense_op(dense)
    tree = build_cluster_tree(sphere3, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=2.0)
    errs = []
    for m in (1, 2):
        hm = _build_h2(sphere3, tree, btree, m, 1e-12, (2, 4))
        errs.append(h2.spectral_error_estimate(dop, h2.as_operator(hm),
                                               sphere3.nt)[1])
    assert 5e-4 <= errs[0] <= 1e-2
    assert errs[1] <= errs[0] / 3 or errs[1] <= 1e-12


def test_h2_exec_stats(sphere3, l3_setup):
    tree, btree = l3_setup
    hm = _build_h2(sphere3, tree, btree, 2, 1e-3, (3, 5))
    stats = hm.exec_stats
    assert [s["case"] for s in stats] == [0, 1, 2, 3]
    assert all(s["tasks"] > 0 for s in stats)
    assert all(s["batches"] >= 1 for s in stats)
    # constant basis: one task per dense entry, nearfield and couplings
    entries = sum(blk.values.size for blk in hm.nearfield) \
        + sum(blk.values.size for blk in hm.coupling)
    assert sum(s["tasks"] for s in stats) == entries


def test_green_and_flat_gca(sphere3, l3_setup, dense_op3):
    _, btree = l3_setup
    n = sphere3.nt
    gr = build_green(btree, sphere3, "slp", "constant", "galerkin",
                     m=2, delta_factor=0.5, orders=(3, 5))
    green_err = h2.spectral_error_estimate(dense_op3, gr.apply, n)[1]
    fl = build_flat_gca(btree, sphere3, "slp", "constant", "galerkin",
                        m=2, delta_factor=0.5, eps=1e-3, orders=(3, 5))
    flat_err = h2.spectral_error_estimate(dense_op3, fl.apply, n)[1]
    # Green-only quadrature error dwarfs the cross-interpolated version
    assert 1e-2 <= green_err <= 2e-1
    assert 5e-5 <= flat_err <= 5e-4
    assert green_err >= 10 * flat_err

    gs = gr.storage()
    assert gs["total"] == gs["factors"] + gs["nearfield"]
    fs = fl.storage()
    assert fs["total"] == fs["bases"] + fs["couplings"] + fs["nearfield"]
    assert fs["total"] < gs["total"]

    rng = np.random.default_rng(3)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    assert abs(y @ gr.matvec(x) - x @ gr.rmatvec(y)) \
        <= 1e-12 * abs(y @ gr.matvec(x))


def test_h2_beats_flat_gca_storage(sphere3, l3_setup):
    tree, btree = l3_setup
    hm = _build_h2(sphere3, tree, btree, 2, 1e-3, (3, 5))
    rep = h2.storage_report(hm)
    fl = build_flat_gca(btree, sphere3, "slp", "constant", "galerkin",
                        m=2, delta_factor=0.5, eps=1e-3, orders=(3, 5))
    assert rep["total"] < fl.storage()["total"] < rep["dense"]


def test_collocation_h2(sphere3):
    dofs = np.arange(sphere3.nv)
    dense = assembly.assemble_collocation_block("slp", sphere3, "linear",
                                                dofs, dofs, (3, 5)).values
    dop = _dense_op(dense)
    tree = build_cluster_tree(sphere3, "linear", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    hm = _build_h2(sphere3, tree, btree, 2, 1e-3, (3, 5), basis="linear",
                   disc="collocation")
    assert len(hm.coupling) > 0
    err = h2.spectral_error_estimate(dop, h2.as_operator(hm), sphere3.nv)[1]
    assert err <= 1e-4


def test_admissible_leaf_over_touching_clusters_refused(sphere2):
    """Coupling blocks skip pair classification, so an admissible leaf whose
    cluster boxes touch (here: two sibling clusters) must be refused."""
    tree = build_cluster_tree(sphere2, "constant", leaf_size=16)
    left, right = tree.children
    assert left.box.distance(right.box) == 0.0
    btree = BlockTree(left, right, ADMISSIBLE, ())
    rb = build_cluster_basis(tree, sphere2, "constant", 2, side="row")
    cb = build_cluster_basis(tree, sphere2, "constant", 2, side="col")
    baseline = threading.active_count()
    with pytest.raises(StateError):
        build_h2(btree, rb, cb, sphere2, threads=2)
    with pytest.raises(StateError):
        build_flat_gca(btree, sphere2, m=2, threads=2)
    assert threading.active_count() == baseline
