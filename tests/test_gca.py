import hashlib
import threading

import numpy as np
import pytest

from greencross import assembly, cli, gca, h2
from greencross import quadrature as quad
from greencross.clustering import (ADMISSIBLE, INADMISSIBLE, SUBDIVIDED,
                                   BlockTree, build_block_tree,
                                   build_cluster_tree)
from greencross.errors import ConfigError, SizeLimitError, StateError
from greencross.gca import (aca_interpolation, build_cluster_basis,
                            build_flat_gca, build_green, build_h2,
                            coupling_marks)
from greencross.geometry import build_sphere_mesh, to_curved
from oracles import (aca_reference, blockwise_mvm, cluster_basis,
                     expand_basis, flat_basis)


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


def test_aca_of_several_matrices_matches_each_alone():
    """Interpolations made together, over a zero-padded stack, take each
    matrix's pivots one at a time would take, with V|pivots = I exactly
    and V equal to rounding: row counts that differ, a zero matrix and a
    full-rank one."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((40, 12)))
    mats = [rng.standard_normal((n, 12)) for n in (5, 30, 12)]
    mats += [np.zeros((9, 12)), q * 10.0 ** -np.arange(12.0),
             np.outer(np.arange(1.0, 8.0), rng.standard_normal(12))]
    got = aca_interpolation(mats, 1e-6)
    assert len(got) == len(mats)
    for a, interp in zip(mats, got):
        ref = aca_reference(a, 1e-6)
        assert np.array_equal(interp.pivots, ref.pivots)
        assert interp.v.shape == ref.v.shape == (len(a), len(ref.pivots))
        assert np.array_equal(interp.v[interp.pivots],
                              np.eye(len(ref.pivots)))
        assert np.allclose(interp.v, ref.v, rtol=0, atol=1e-12)
    assert aca_interpolation([], 1e-6) == []


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


def _same_basis(got, ref):
    """Node by node: the same clusters, pivots and identity marks,
    V|pivots = I exactly, and V and the transfers within 1e-10 relative."""
    assert ([bn.cluster.index for bn in got.nodes()]
            == [bn.cluster.index for bn in ref.nodes()])
    for g, r in zip(got.nodes(), ref.nodes()):
        assert np.array_equal(g.pivots, r.pivots)
        assert g.identity == r.identity
        idx = np.asarray(g.cluster.indices)
        order = np.argsort(idx)
        pos = order[np.searchsorted(idx[order], g.pivots)]
        assert np.array_equal(expand_basis(g)[pos], np.eye(g.rank))
        for a, b in ((g.v, r.v), (g.transfer, r.transfer)):
            assert (a is None) == (b is None)
            if a is not None and a.size:
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


@pytest.fixture(scope="module", params=["plane", "curved"])
def basis_meshes(request):
    meshes = [build_sphere_mesh(level) for level in (2, 3, 4)]
    if request.param == "curved":
        meshes = [to_curved(mesh, project_to_unit_sphere=True)
                  for mesh in meshes]
    return meshes


@pytest.mark.parametrize("basis", ["constant", "linear"])
def test_level_batched_bases_match_node_by_node(basis_meshes, basis):
    """Row (constant, linear, collocation), column (slp, dlp) and flat bases
    built level by level equal the node-by-node reference: whole trees at
    L2 and L3, the coupling-marked parts at L4 (flat bases at L2 and L3
    only, whose builds assemble the operator too)."""
    for mesh, leaf in zip(basis_meshes, (6, 6, 16)):
        tree = build_cluster_tree(mesh, basis, leaf_size=leaf)
        btree = build_block_tree(tree, eta=1.0)
        rm, cm = coupling_marks(btree)
        marks = (None, None) if leaf < 16 else (rm | cm, cm)
        specs = [(basis, "row", "slp", marks[0]), (basis, "col", "slp",
                                                   marks[1]),
                 (basis, "col", "dlp", marks[1])]
        if basis == "linear":
            specs.append(("collocation", "row", "slp", marks[0]))
        for kind_b, side, kind, mk in specs:
            args = (tree, mesh, kind_b, 3, 0.5, 1e-4, side, (2, 4), mk, kind)
            _same_basis(build_cluster_basis(*args), cluster_basis(*args))
        if leaf == 16:
            continue
        row_kind = "constant" if basis == "constant" else "collocation"
        flat = build_flat_gca(btree, mesh, basis=basis,
                              disc="galerkin" if basis == "constant"
                              else "collocation", m=3, eps=1e-4,
                              orders=(2, 4))
        _same_basis(flat.row_basis, flat_basis(btree, mesh, row_kind, 3,
                                               0.5, 1e-4, (2, 4)))


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
    # constant basis: one task per distinct unordered pair of the entries
    # of the nearfield and the couplings, (t, s) and (s, t) together
    pairs = np.unique(np.concatenate([
        _unordered(rows, cols, sphere3.nt)
        for rows, cols, _ in _leaf_blocks(hm).values()]))
    assert sum(s["tasks"] for s in stats) == len(pairs) == 102592


def test_green_and_flat_gca(sphere3, l3_setup, dense_op3):
    _, btree = l3_setup
    n = sphere3.nt
    gr = build_green(btree, sphere3, "slp", "constant", "galerkin",
                     m=2, delta_factor=0.5, orders=(3, 5))
    green_err = h2.spectral_error_estimate(dense_op3, h2.as_operator(gr),
                                           n)[1]
    fl = build_flat_gca(btree, sphere3, "slp", "constant", "galerkin",
                        m=2, delta_factor=0.5, eps=1e-3, orders=(3, 5))
    flat_err = h2.spectral_error_estimate(dense_op3, h2.as_operator(fl),
                                          n)[1]
    # Green-only quadrature error dwarfs the cross-interpolated version
    assert 1e-2 <= green_err <= 2e-1
    assert 5e-5 <= flat_err <= 5e-4
    assert green_err >= 10 * flat_err

    parts = ("leaf_bases", "transfers", "couplings", "nearfield")
    gs = h2.storage_report(gr)
    assert gs["total"] == sum(gs[k] for k in parts)
    fs = h2.storage_report(fl)
    assert fs["total"] == sum(fs[k] for k in parts)
    assert fs["total"] < gs["total"]

    rng = np.random.default_rng(3)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    assert abs(y @ h2.mvm(gr, x) - x @ h2.mvm_t(gr, y)) \
        <= 1e-12 * abs(y @ h2.mvm(gr, x))


@pytest.fixture(scope="module",
                params=["constant-galerkin-l3", "curved-collocation-l3"])
def low_rank_ops(request, sphere3):
    """Green and flat GCA operators, with couplings on both sides."""
    if request.param == "constant-galerkin-l3":
        mesh, basis, disc = sphere3, "constant", "galerkin"
        tree = build_cluster_tree(mesh, basis, leaf_size=16)
        btree = build_block_tree(tree, eta=1.0)
    else:
        mesh = to_curved(build_sphere_mesh(3))
        basis, disc = "linear", "collocation"
        tree = build_cluster_tree(mesh, basis, leaf_size=8)
        btree = build_block_tree(tree, eta=2.0)
    return [build(btree, mesh, "slp", basis, disc, m=2, orders=(3, 5))
            for build in (build_green, build_flat_gca)]


def test_low_rank_products_match_blockwise_reference(low_rank_ops):
    # the packed sums add in another order; 1e-14 relative as for h2.mvm
    rng = np.random.default_rng(14)
    for op in low_rank_ops:
        assert len(op.coupling) > 0 and len(op.nearfield) > 0
        n_rows, n_cols = op.shape
        for _ in range(3):
            x = rng.standard_normal(n_cols)
            y = rng.standard_normal(n_rows)
            ref = blockwise_mvm(op, x)
            ref_t = blockwise_mvm(op, y, trans=True)
            assert np.linalg.norm(h2.mvm(op, x) - ref) \
                <= 1e-14 * np.linalg.norm(ref)
            assert np.linalg.norm(h2.mvm_t(op, y) - ref_t) \
                <= 1e-14 * np.linalg.norm(ref_t)


def test_low_rank_blocks_are_views_into_the_packed_arrays(low_rank_ops):
    for op in low_rank_ops:
        p = op.packed
        data = p.blocks.data
        assert all(np.shares_memory(blk.values, data)
                   for blk in op.coupling + op.nearfield)
        stacks = [v for _, _, v in p.row.leaves]
        assert all(any(np.shares_memory(bn.v, s) for s in stacks)
                   for bn in op.row_basis.nodes() if not bn.identity)
        # flat bases: childless rows, identity columns over the tree vector
        assert all(not bn.children for bn in op.row_basis.nodes())
        assert all(bn.identity for bn in op.col_basis.nodes())
        assert p.col.size == op.shape[1]
        st = h2.storage_report(op)
        assert st["couplings"] + st["nearfield"] == 8 * data.size
        assert st["couplings"] == sum(8 * blk.values.size
                                      for blk in op.coupling)
        assert st["nearfield"] == sum(8 * blk.values.size
                                      for blk in op.nearfield)
        assert st["leaf_bases"] == sum(8 * s.size for s in stacks)
        assert st["transfers"] == 0


def test_flat_gca_full_rank_leaves_store_no_matrix(sphere3):
    """A full-rank cluster leaf of flat GCA is an identity node: pivots in
    tree order, the shared identity, no stacked matrix and no storage.
    Full-rank factors of internal clusters keep their matrix."""
    tree = build_cluster_tree(sphere3, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    fl = build_flat_gca(btree, sphere3, "slp", "constant", "galerkin",
                        m=3, delta_factor=0.5, eps=1e-4, orders=(3, 5))
    nodes = fl.row_basis.nodes()
    eyes = [bn for bn in nodes if bn.identity]
    assert len(eyes) > 0
    stacks = [v for _, _, v in fl.packed.row.leaves]
    for bn in eyes:
        assert bn.cluster.is_leaf() and bn.rank == bn.cluster.size
        assert np.array_equal(bn.pivots, bn.cluster.indices)
        assert np.array_equal(bn.v, np.eye(bn.rank))
        assert not bn.v.flags.writeable
        assert not any(np.shares_memory(bn.v, s) for s in stacks)
        assert fl.packed.row.slots(bn) == (bn.cluster.start,
                                           bn.cluster.stop)
    assert not any(bn.identity for bn in nodes if not bn.cluster.is_leaf())
    rep = h2.storage_report(fl)
    assert rep["leaf_bases"] == sum(8 * bn.v.size for bn in nodes
                                    if not bn.identity)
    x = np.random.default_rng(17).standard_normal(sphere3.nt)
    ref = blockwise_mvm(fl, x)
    assert np.linalg.norm(h2.mvm(fl, x) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_square_green_factor_is_applied_as_itself(sphere2):
    """A row factor as wide as its cluster is not I unless it is marked
    so: products use the matrix, and storage counts it."""
    tree = build_cluster_tree(sphere2, "constant", leaf_size=8)
    btree = build_block_tree(tree, eta=1.0)
    rng = np.random.default_rng(15)
    rows = gca.ClusterBasis([
        gca.BasisNode(c, None, rng.standard_normal((c.size, c.size)), ())
        for c in dict.fromkeys(b.row for b in btree.admissible_leaves())])
    op = build_h2(btree, rows, gca._identity_columns(btree), sphere2,
                  threads=1)
    assert len(op.coupling) > 0
    # rows without pivots take no exact entries: couplings left zero
    assert all(not blk.values.any() for blk in op.coupling)
    for blk in op.coupling:
        blk.values[...] = rng.standard_normal(blk.values.shape)
    assert not any(bn.identity for bn in rows.nodes())
    x = rng.standard_normal(sphere2.nt)
    for trans, product in ((False, h2.mvm), (True, h2.mvm_t)):
        ref = blockwise_mvm(op, x, trans)
        assert np.linalg.norm(product(op, x) - ref) \
            <= 1e-13 * np.linalg.norm(ref)
    assert h2.storage_report(op)["leaf_bases"] == sum(
        8 * bn.cluster.size ** 2 for bn in rows.nodes())


def test_h2_beats_flat_gca_storage(sphere3, l3_setup):
    tree, btree = l3_setup
    hm = _build_h2(sphere3, tree, btree, 2, 1e-3, (3, 5))
    rep = h2.storage_report(hm)
    fl = build_flat_gca(btree, sphere3, "slp", "constant", "galerkin",
                        m=2, delta_factor=0.5, eps=1e-3, orders=(3, 5))
    assert rep["total"] < h2.storage_report(fl)["total"] < rep["dense"]


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


@pytest.fixture(scope="module")
def linear_l3():
    """Plane L3 linear Galerkin with couplings: orders (2, 4), m = 2."""
    mesh = build_sphere_mesh(3)
    tree = build_cluster_tree(mesh, "linear", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    rm, cm = coupling_marks(btree)
    rb = build_cluster_basis(tree, mesh, "linear", 2, 0.5, 1e-4, "row",
                             (2, 4), rm)
    cb = build_cluster_basis(tree, mesh, "linear", 2, 0.5, 1e-4, "col",
                             (2, 4), cm)

    def build(capacity=4096, threads=None):
        return build_h2(btree, rb, cb, mesh, "slp", "linear", "galerkin",
                        (2, 4), capacity=capacity, threads=threads)

    return mesh, rb, cb, build, build()


def test_linear_h2_blocks_independent_of_capacity_and_threads(linear_l3):
    *_, build, ref = linear_l3
    assert len(ref.coupling) > 0
    for capacity in (1, 7, 10 ** 6):
        for threads in (1, 4):
            hm = build(capacity, threads)
            for blocks, got in ((ref.coupling, hm.coupling),
                                (ref.nearfield, hm.nearfield)):
                assert [(b.row.index, b.col.index) for b in blocks] == \
                    [(b.row.index, b.col.index) for b in got]
                assert all(np.array_equal(a.values, b.values)
                           for a, b in zip(blocks, got))


def test_linear_h2_blocks_match_dense_assembly(linear_l3):
    """Every coupling and nearfield block holds, bitwise, the Galerkin
    block of its rows and columns assembled on its own."""
    mesh, rb, cb, _, hm = linear_l3
    assert len(hm.coupling) > 0
    for blk in hm.coupling:
        rows, cols = rb.node(blk.row).pivots, cb.node(blk.col).pivots
        ref = assembly.assemble_galerkin_block("slp", mesh, "linear", rows,
                                               cols, (2, 4)).values
        assert np.array_equal(blk.values, ref)
    for blk in hm.nearfield:
        ref = assembly.assemble_galerkin_block(
            "slp", mesh, "linear", blk.row.indices, blk.col.indices,
            (2, 4)).values
        assert np.array_equal(blk.values, ref)


def _unordered(t, s, nt):
    """Keys lo * nt + hi of the pairs of t x s, lo <= hi, once each."""
    return np.unique(np.minimum.outer(t, s) * nt + np.maximum.outer(t, s))


def test_linear_build_evaluates_each_pair_once(monkeypatch):
    """Triangle pairs shared by several blocks, in either orientation, are
    integrated once, as (t, s) with t <= s, and exactly the vertex-sharing
    ones among them are classified."""
    mesh = to_curved(build_sphere_mesh(3), project_to_unit_sphere=True)
    seen = []
    classified = []
    real = assembly.pair_evaluator
    real_classify = quad.classify_pairs

    def classify_spy(row_tris, col_tris):
        classified.append((row_tris, col_tris))
        return real_classify(row_tris, col_tris)

    def spy(*args):
        evaluate = real(*args)

        def spied(case, rows, cols, kernels=None):
            seen.append(rows * mesh.nt + cols)
            return evaluate(case, rows, cols, kernels)

        return spied

    monkeypatch.setattr(assembly, "pair_evaluator", spy)
    monkeypatch.setattr(quad, "classify_pairs", classify_spy)
    tree = build_cluster_tree(mesh, "linear", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    hm = _build_h2(mesh, tree, btree, 3, 1e-4, (2, 4), basis="linear")
    evaluated = np.concatenate(seen)
    assert len(np.unique(evaluated)) == len(evaluated)
    assert np.all(evaluated // mesh.nt <= evaluated % mesh.nt)

    needed = []
    for leaf in btree.leaves():
        if leaf.state == ADMISSIBLE:
            rows = hm.row_basis.node(leaf.row).pivots
            cols = hm.col_basis.node(leaf.col).pivots
        else:
            rows, cols = leaf.row.indices, leaf.col.indices
        t = assembly.triangle_table(rows, mesh).rows[:, 0]
        s = assembly.triangle_table(cols, mesh).rows[:, 0]
        needed.append(_unordered(t, s, mesh.nt))
    needed = np.unique(np.concatenate(needed))
    assert np.array_equal(np.sort(evaluated), needed)
    tasks = sum(st["tasks"] for st in hm.exec_stats)
    assert tasks == len(evaluated) <= 1.1 * len(needed)

    # classified pairs, as triangle indices: every vertex-sharing pair of
    # the build, once each, and no other pair
    tris = mesh.triangles
    code = (tris[:, 0] * mesh.nv + tris[:, 1]) * mesh.nv + tris[:, 2]
    order = np.argsort(code)

    def index(rows):
        c = (rows[:, 0] * mesh.nv + rows[:, 1]) * mesh.nv + rows[:, 2]
        return order[np.searchsorted(code[order], c)]

    got = np.concatenate([index(r) * mesh.nt + index(c)
                          for r, c in classified])
    t, s = np.divmod(needed, mesh.nt)
    sharing = (tris[t][:, :, None] == tris[s][:, None, :]).any(axis=(1, 2))
    assert len(np.unique(got)) == len(got)
    assert np.array_equal(np.sort(got), needed[sharing])


def _config(basis):
    return cli.ExperimentConfig(
        level=3, geometry="plane", basis=basis, disc="galerkin", eta=1.0, m=2,
        delta_factor=0.5, eps=1e-4, leaf_size=16, q_reg=2, q_sing=4, lam=0.5,
        source=(1.2, 0.0, 0.0), seed=0)


def _tasks(hm):
    return sum(st["tasks"] for st in hm.exec_stats)


def _leaf_blocks(hm):
    """(row index, col index) -> (row dofs, col dofs, values) of every
    coupling (at pivots) and nearfield block."""
    out = {}
    for blk in hm.coupling:
        out[blk.row.index, blk.col.index] = (
            hm.row_basis.node(blk.row).pivots,
            hm.col_basis.node(blk.col).pivots, blk.values)
    for blk in hm.nearfield:
        out[blk.row.index, blk.col.index] = (blk.row.indices,
                                             blk.col.indices, blk.values)
    return out


@pytest.fixture(scope="module")
def mirror_l3(sphere3):
    """Plane L3 constant slp Galerkin through cli.build_h2_operator."""
    def build(capacity=4096, threads=None, kind="slp"):
        return cli.build_h2_operator(sphere3, _config("constant"), kind=kind,
                                     capacity=capacity, threads=threads)[0]

    return build, build()


def test_mirror_build_shares_one_basis(mirror_l3):
    _, hm = mirror_l3
    assert hm.row_basis is hm.col_basis
    assert hm.packed.row is hm.packed.col


def test_mirrored_leaves_are_transposes_and_dense_blocks(sphere3, mirror_l3):
    """Every leaf below the diagonal is bitwise its partner's transpose and
    bitwise the Galerkin block of its rows and columns."""
    _, hm = mirror_l3
    blocks = _leaf_blocks(hm)
    coupling = {(b.row.index, b.col.index) for b in hm.coupling}
    lower = [key for key in blocks if key[0] > key[1]]
    assert any(key in coupling for key in lower)
    for r, c in lower:
        rows, cols, values = blocks[r, c]
        assert np.array_equal(values, blocks[c, r][2].T)
        ref = assembly.assemble_galerkin_block("slp", sphere3, "constant",
                                               rows, cols, (2, 4)).values
        assert np.array_equal(values, ref)


def test_mirror_build_evaluates_upper_leaves_only(mirror_l3):
    """Leaves above the diagonal whole, diagonal leaves whole with their
    (t, s) and (s, t) deduped by the executor: each unordered triangle
    pair once."""
    _, hm = mirror_l3
    blocks = _leaf_blocks(hm)
    upper = sum(v.size for (r, c), (_, _, v) in blocks.items() if r < c)
    upper += sum(len(v) * (len(v) + 1) // 2
                 for (r, c), (_, _, v) in blocks.items() if r == c)
    assert _tasks(hm) == upper < sum(v.size for _, _, v in blocks.values())


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the fingerprint was taken with numpy 2.4.6")
def test_diagonal_leaves_evaluated_once_keep_blocks():
    """Plane L4 constant V alone (orders (2,4), m 3, eps 1e-4, leaf 16):
    the executor evaluates each unordered pair of a diagonal leaf once,
    which cuts the singular pairs to these counts, and every block keeps
    its pinned bits (sha256 prefix, numpy 2.4.6, x86_64; re-pinned when
    the plane singular rules took the radial sum, a rounding-level
    change, and when disjoint pairs took the symmetric 3-point rule, a
    quadrature-level one: entries moved by at most 2.6e-4 of the
    largest; and when the edge rule lost its mirrored copy: by at most
    4.0e-7)."""
    cfg = _solve_config(4, "plane", "constant")
    hm = cli.build_h2_operator(build_sphere_mesh(4), cfg)[0]
    tasks = {st["case"]: st["tasks"] for st in hm.exec_stats}
    assert [tasks[c] for c in (quad.VERTEX, quad.EDGE, quad.IDENTICAL)] \
        == [9192, 3072, 2048]
    digest = hashlib.sha256(hm.packed.blocks.data.tobytes()).hexdigest()
    assert digest[:16] == "155205bb705c0df5"
    for blk in hm.nearfield:
        if blk.row.index == blk.col.index:
            assert np.array_equal(blk.values, blk.values.T)


def test_mirror_blocks_independent_of_capacity_and_threads(mirror_l3):
    build, ref = mirror_l3
    want = _leaf_blocks(ref)
    for capacity in (7, 10 ** 6):
        for threads in (1, 4):
            got = _leaf_blocks(build(capacity, threads))
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k][2], want[k][2]) for k in want)


def test_other_builds_evaluate_every_entry(sphere3, l3_setup, mirror_l3):
    """Two bases, and the dlp kernel with one: every leaf evaluated whole,
    each unordered triangle pair of the leaves' entries once, (t, s) and
    (s, t) together."""
    build, _ = mirror_l3
    tree, btree = l3_setup
    two = _build_h2(sphere3, tree, btree, 2, 1e-4, (2, 4))
    dlp = build(kind="dlp")
    assert two.row_basis is not two.col_basis
    assert dlp.row_basis is dlp.col_basis
    for hm in (two, dlp):
        blocks = _leaf_blocks(hm).values()
        pairs = np.unique(np.concatenate([
            _unordered(rows, cols, sphere3.nt) for rows, cols, _ in blocks]))
        assert _tasks(hm) == len(pairs) < sum(v.size for _, _, v in blocks)
    assert _tasks(two) == 125760


def test_linear_one_basis_build_evaluates_every_pair(sphere3):
    """The linear basis keeps its path with one basis: every leaf is
    evaluated whole, and each distinct unordered triangle pair of all
    leaves once, (t, s) and (s, t) together."""
    hm = cli.build_h2_operator(sphere3, _config("linear"))[0]
    assert hm.row_basis is hm.col_basis and len(hm.coupling) > 0
    needed = []
    for rows, cols, _ in _leaf_blocks(hm).values():
        t = assembly.triangle_table(rows, sphere3).rows[:, 0]
        s = assembly.triangle_table(cols, sphere3).rows[:, 0]
        needed.append(_unordered(t, s, sphere3.nt))
    assert _tasks(hm) == len(np.unique(np.concatenate(needed)))


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the fingerprints were taken with numpy 2.4.6")
def test_dense_and_baselines_ask_each_pair_once(sphere3, l3_setup,
                                                monkeypatch):
    """Plane L3 constant, orders (2,4): the dense oracle, the Green
    baseline and flat GCA ask the evaluator for each unordered triangle
    pair of their entries once, and keep their bits (sha256 prefixes,
    numpy 2.4.6, x86_64, re-pinned when disjoint pairs took the symmetric
    3-point rule: they moved by at most 2.4e-4, 5.1e-6 and 2.4e-4 of their
    largest entries, and when the edge rule lost its mirrored copy: by at
    most 4.1e-7, 8.5e-9 and 4.1e-7); the dense block is bitwise
    symmetric."""
    nt, dofs = sphere3.nt, np.arange(sphere3.nt)
    real = assembly.pair_evaluator
    seen = []

    def spy(kinds, *args):
        evaluate = real(kinds, *args)

        def spied(case, rows, cols, kernels=None):
            seen.append(rows * nt + cols)
            return evaluate(case, rows, cols, kernels)

        return spied

    def asked(build):
        seen.clear()
        return build(), np.sort(np.concatenate(seen))

    def pairs(blocks):
        return np.unique(np.concatenate(
            [_unordered(rows, cols, nt) for rows, cols in blocks]))

    monkeypatch.setattr(assembly, "pair_evaluator", spy)
    _, btree = l3_setup
    dense, keys = asked(lambda: assembly.assemble_galerkin_block(
        "slp", sphere3, "constant", dofs, dofs, (2, 4)).values)
    assert len(keys) == nt * (nt + 1) // 2 == 131328
    assert np.array_equal(keys, pairs([(dofs, dofs)]))
    assert np.array_equal(dense, dense.T)
    green, keys = asked(lambda: build_green(btree, sphere3, m=2,
                                            orders=(2, 4)))
    assert np.array_equal(keys, pairs([(b.row.indices, b.col.indices)
                                       for b in green.nearfield]))
    flat, keys = asked(lambda: build_flat_gca(btree, sphere3, m=2, eps=1e-4,
                                              orders=(2, 4)))
    assert np.array_equal(keys, pairs([(rows, cols) for rows, cols, _
                                       in _leaf_blocks(flat).values()]))
    assert [hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (
        dense, green.packed.blocks.data, flat.packed.blocks.data)] == [
        "fcb6db04f276af69", "e75ad502e62d5bc6", "688e44fa318b36ed"]


def test_asymmetric_one_tree_block_tree_refused(sphere2):
    """The mirror needs every leaf's partner: a one-tree block tree without
    the leaf (right, left) is refused before any evaluation."""
    tree = build_cluster_tree(sphere2, "constant", leaf_size=16)
    left, right = tree.children
    btree = BlockTree(tree, tree, SUBDIVIDED, tuple(
        BlockTree(r, c, INADMISSIBLE, ())
        for r, c in ((left, left), (left, right), (right, right))))
    basis = build_cluster_basis(tree, sphere2, "constant", 2)
    baseline = threading.active_count()
    with pytest.raises(StateError, match="not symmetric"):
        build_h2(btree, basis, basis, sphere2, threads=2)
    assert threading.active_count() == baseline


# the double-layer operator built alongside V (cli.build_h2_operator with
# dlp=True)

def _curved(level):
    return to_curved(build_sphere_mesh(level), project_to_unit_sphere=True)


def _solve_config(level, geometry, basis, eps=1e-4, orders=(2, 4), m=3,
                  disc="galerkin"):
    return cli.ExperimentConfig(
        level=level, geometry=geometry, basis=basis, disc=disc, eta=1.0, m=m,
        delta_factor=0.5, eps=eps, leaf_size=16, q_reg=orders[0],
        q_sing=orders[1], lam=0.5, source=(1.2, 0.0, 0.0), seed=0)


@pytest.mark.parametrize("disc", ["galerkin", "collocation"])
def test_fused_build_all_nearfield_is_dense_dlp(disc):
    """At curved L3 linear no leaf is admissible: the build's K is bitwise
    the dense double-layer matrix, and V bitwise a build without K."""
    mesh = _curved(3)
    cfg = _solve_config(3, "curved", "linear", disc=disc)
    hm = cli.build_h2_operator(mesh, cfg, dlp=True)[0]
    k = hm.dlp
    assert len(hm.coupling) == len(k.coupling) == 0
    dense = cli.assemble_dense("dlp", mesh, cfg)
    for blk in k.nearfield:
        assert np.array_equal(
            blk.values, dense[np.ix_(blk.row.indices, blk.col.indices)])
    alone = cli.build_h2_operator(mesh, cfg)[0]
    assert alone.dlp is None
    assert np.array_equal(hm.packed.blocks.data, alone.packed.blocks.data)
    assert _tasks(hm) == _tasks(alone)


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the fingerprint was taken with numpy 2.4.6")
def test_fused_build_keeps_seed_v_bits():
    """V of the curved L3 linear Galerkin solve, built with K, keeps its
    pinned bits (sha256 prefix, numpy 2.4.6, x86_64; re-pinned when the
    executor read lower pairs through their mirror, a rounding-level
    change, see test_assembly.py's
    test_mirror_kernels_agree_with_direct_values, and again when entries
    summed in task order: V moved by at most 1.9e-16 of its largest
    entry, see test_dense_blocks_agree_with_exactly_rounded_sums; and when
    disjoint pairs took the symmetric 3-point rule, at quadrature level:
    V moved by at most 7.2e-4 of its largest entry; and when the edge rule
    lost its mirrored copy: by at most 3.2e-7)."""
    hm = cli.build_h2_operator(_curved(3), _solve_config(3, "curved",
                                                         "linear"),
                               dlp=True)[0]
    digest = hashlib.sha256(hm.packed.blocks.data.tobytes()).hexdigest()
    assert digest[:16] == "1f1523701af248ca"


def test_build_with_nearfield_in_budget_refused_once_laid_out(sphere3,
                                                               monkeypatch):
    """A budget that the nearfield leaves fit but the packed blocks do not
    passes the check before the bases; the build is refused once its
    blocks are laid out, before any pair integral is evaluated."""
    real, bases = gca.build_cluster_basis, []

    def basis(*args, **kwargs):
        bases.append(real(*args, **kwargs))
        return bases[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("pair evaluator built")

    cfg = _solve_config(3, "plane", "constant")
    _, btree = cli.build_trees(sphere3, cfg)
    near = 8 * sum(b.row.size * b.col.size
                   for b in btree.inadmissible_leaves())
    assert btree.admissible_leaves()
    monkeypatch.setattr(gca, "build_cluster_basis", basis)
    monkeypatch.setattr(assembly, "pair_evaluator", refuse)
    monkeypatch.setattr(gca, "PACK_BYTES", near)
    with pytest.raises(SizeLimitError, match="its blocks take"):
        cli.build_h2_operator(sphere3, cfg, btree=btree)
    assert len(bases) == 1


def test_solve_build_integrates_each_unordered_pair_once():
    """The curved L3 linear V + K build (all nearfield, 512 triangles)
    evaluates each of the 512 * 513 / 2 unordered triangle pairs once,
    for all the kernels it needs: 131,328 pairs, not 512^2."""
    hm = cli.build_h2_operator(_curved(3), _solve_config(3, "curved",
                                                         "linear"),
                               dlp=True)[0]
    assert [st["tasks"] for st in hm.exec_stats] == [127768, 2280, 768, 512]


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="the fingerprint was taken with numpy 2.4.6")
def test_fused_collocation_build_keeps_seed_bits():
    """Collocation has no lower half: V and K of the curved L3 collocation
    solve keep their pinned bits (sha256 prefixes, numpy 2.4.6, x86_64),
    at the default capacity and at capacity 7 on one thread. Re-pinned
    when a point row became the one-point case of the pair evaluator, a
    matmul over the slots in place of per-slot sums: V and K moved by at
    most 2.2e-16 of their largest entries (see test_assembly.py's
    test_collocation_*_values_match_*_reference); again when entries
    summed in task order, by at most 2.2e-16 (see
    test_dense_blocks_agree_with_exactly_rounded_sums); and when disjoint
    pairs took the symmetric 3-point rule, at quadrature level, by at
    most 2.5e-3 and 2.7e-3 (see test_assembly.py's
    test_collocation_disjoint_values_match_chart_reference)."""
    cfg = _solve_config(3, "curved", "linear", disc="collocation")
    for capacity, threads in ((4096, None), (7, 1)):
        hm = cli.build_h2_operator(_curved(3), cfg, capacity=capacity,
                                   threads=threads, dlp=True)[0]
        assert [hashlib.sha256(op.packed.blocks.data.tobytes())
                .hexdigest()[:16] for op in (hm, hm.dlp)] \
            == ["d8b1861536997f1e", "2d0adcd9065c7d3b"]


@pytest.fixture(scope="module")
def dense_dlp():
    """Dense dlp matrices of the meshes the compressed K is checked on."""
    cache = {}

    def get(level, geometry, basis):
        key = level, geometry, basis
        if key not in cache:
            mesh = _curved(level) if geometry == "curved" \
                else build_sphere_mesh(level)
            cache[key] = mesh, cli.assemble_dense(
                "dlp", mesh, _solve_config(level, geometry, basis))
        return cache[key]

    return get


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
@pytest.mark.parametrize("level,geometry,basis", [
    (3, "plane", "constant"), (4, "curved", "linear")])
def test_compressed_dlp_error_tracks_eps(dense_dlp, level, geometry, basis,
                                         eps):
    mesh, dense = dense_dlp(level, geometry, basis)
    hm = cli.build_h2_operator(
        mesh, _solve_config(level, geometry, basis, eps), dlp=True)[0]
    assert len(hm.dlp.coupling) > 0
    assert hm.dlp.row_basis is hm.row_basis
    assert hm.dlp.col_basis is not hm.col_basis
    err = h2.spectral_error_estimate(_dense_op(dense), h2.as_operator(hm.dlp),
                                     dense.shape[1])[1]
    assert err <= 10 * eps


def test_fused_blocks_independent_of_capacity_and_threads(sphere3):
    """Plane L3 constant: V's upper leaves, mirrored, and K's every leaf
    in one pass, bitwise the same over capacity x threads."""
    cfg = _config("constant")

    def blocks(capacity, threads):
        hm = cli.build_h2_operator(sphere3, cfg, capacity=capacity,
                                   threads=threads, dlp=True)[0]
        return hm.packed.blocks.data, hm.dlp.packed.blocks.data

    ref = blocks(4096, 2)
    alone = cli.build_h2_operator(sphere3, cfg)[0]
    assert np.array_equal(ref[0], alone.packed.blocks.data)
    for capacity in (7, 10 ** 6):
        for threads in (1, 4):
            got = blocks(capacity, threads)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_fused_build_asks_slp_on_v_alone_pairs(sphere3, monkeypatch):
    """A fused plane L3 constant build asks the evaluator for the single
    layer on exactly the pairs a V-alone build asks for, each unordered
    pair of V's upper and diagonal leaves once; K's other pairs are dlp
    only."""
    real = assembly.pair_evaluator

    def asked(dlp):
        seen = []

        def spy(kinds, *args):
            evaluate = real(kinds, *args)
            slp = ((kinds,) if isinstance(kinds, str) else kinds).index("slp")

            def spied(case, rows, cols, kernels=None):
                if kernels is None or slp in kernels:
                    seen.append(rows * sphere3.nt + cols)
                return evaluate(case, rows, cols, kernels)

            return spied

        monkeypatch.setattr(assembly, "pair_evaluator", spy)
        cli.build_h2_operator(sphere3, _solve_config(3, "plane", "constant"),
                              dlp=dlp)
        return np.sort(np.concatenate(seen))

    fused = asked(True)
    assert len(fused) == 125760
    assert np.array_equal(fused, asked(False))


@pytest.mark.parametrize("level,bound", [(2, 2e-5), (3, 5e-6)])
def test_interior_gauss_identity_compressed(level, bound):
    """(M/2 + K) 1 = 0 with the K of the fused build and M summed over
    triangles, as solve forms its right-hand side (lambda 1/2, v = 1)."""
    mesh = _curved(level)
    cfg = _solve_config(level, "curved", "linear", orders=(3, 5))
    hm = cli.build_h2_operator(mesh, cfg, dlp=True)[0]
    one = np.ones(mesh.nv)
    r = cli.dirichlet_rhs(hm, mesh, cfg, one)
    assert hm.dlp is None
    m1 = assembly.mass_apply(mesh, "linear", one)
    assert np.linalg.norm(r) / np.linalg.norm(m1) < bound


def test_dlp_basis_needs_slp_build_and_column_side(sphere2):
    tree = build_cluster_tree(sphere2, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    with pytest.raises(ConfigError):
        build_cluster_basis(tree, sphere2, "constant", 2, kind="dlp")
    with pytest.raises(ConfigError):
        build_cluster_basis(tree, sphere2, "constant", 2, side="col",
                            kind="hyp")
    basis = build_cluster_basis(tree, sphere2, "constant", 2)
    dlp = build_cluster_basis(tree, sphere2, "constant", 2, side="col",
                              kind="dlp")
    with pytest.raises(ConfigError):
        build_h2(btree, basis, basis, sphere2, kind="dlp", dlp_basis=dlp)
