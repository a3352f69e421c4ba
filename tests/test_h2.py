import sys
import threading

import numpy as np
import pytest

from greencross import gca, h2
from greencross.clustering import (ClusterTree, build_block_tree,
                                   build_cluster_tree)
from greencross.errors import ConfigError, StateError
from greencross.geometry import build_sphere_mesh, to_curved
from oracles import blockwise_mvm


@pytest.fixture(scope="module")
def h2_l3(sphere3):
    tree = build_cluster_tree(sphere3, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    rm, cm = gca.coupling_marks(btree)
    rb = gca.build_cluster_basis(tree, sphere3, "constant", 2, 0.5, 1e-3,
                                 "row", (3, 5), rm)
    cb = gca.build_cluster_basis(tree, sphere3, "constant", 2, 0.5, 1e-3,
                                 "col", (3, 5), cm)
    return gca.build_h2(btree, rb, cb, sphere3, "slp", "constant",
                        "galerkin", (3, 5))


def _linear_h2(mesh, leaf_size, eta, disc, marks):
    """Linear-basis operator at orders (2, 4); ``marks`` builds basis
    forests (coupling_marks), otherwise single trees."""
    tree = build_cluster_tree(mesh, "linear", leaf_size=leaf_size)
    btree = build_block_tree(tree, eta=eta)
    rm, cm = gca.coupling_marks(btree) if marks else (None, None)
    row_kind = "collocation" if disc == "collocation" else "linear"
    rb = gca.build_cluster_basis(tree, mesh, row_kind, 2, 0.5, 1e-3, "row",
                                 (2, 4), rm)
    cb = gca.build_cluster_basis(tree, mesh, "linear", 2, 0.5, 1e-3, "col",
                                 (2, 4), cm)
    return gca.build_h2(btree, rb, cb, mesh, "slp", "linear", disc, (2, 4))


@pytest.fixture(scope="module")
def operators(h2_l3, sphere3):
    """Basis forests and single trees, Galerkin and collocation (row basis
    unlike the column basis); the linear ones have full-rank leaves."""
    return {
        "constant-l3-forest": h2_l3,
        "curved-linear-l2": _linear_h2(to_curved(build_sphere_mesh(2)), 4,
                                       2.0, "galerkin", False),
        "curved-linear-l3": _linear_h2(to_curved(build_sphere_mesh(3)), 8,
                                       2.0, "galerkin", True),
        "collocation-l3": _linear_h2(sphere3, 8, 2.0, "collocation", False),
    }


@pytest.fixture(scope="module",
                params=["constant-l3-forest", "curved-linear-l2",
                        "curved-linear-l3", "collocation-l3"])
def operator(request, operators):
    return operators[request.param]


def _full_rank_leaf(bn):
    return not bn.children and bn.rank == bn.cluster.size


def test_packed_mvm_matches_blockwise_reference(operator):
    assert len(operator.coupling) > 0 and len(operator.nearfield) > 0
    # the packed sums add in another order; 1e-14 relative is about 50 ulps
    # of float64, well above the rounding of sums of a few hundred terms
    rng = np.random.default_rng(12)
    n_rows, n_cols = operator.shape
    for _ in range(3):
        x = rng.standard_normal(n_cols)
        y = rng.standard_normal(n_rows)
        ref = blockwise_mvm(operator, x)
        ref_t = blockwise_mvm(operator, y, trans=True)
        assert np.linalg.norm(h2.mvm(operator, x) - ref) \
            <= 1e-14 * np.linalg.norm(ref)
        assert np.linalg.norm(h2.mvm_t(operator, y) - ref_t) \
            <= 1e-14 * np.linalg.norm(ref_t)


def test_mvm_bits_independent_of_call_order(operator):
    rng = np.random.default_rng(13)
    n_rows, n_cols = operator.shape
    x = rng.standard_normal(n_cols)
    y = rng.standard_normal(n_rows)
    x0, y0 = x.copy(), y.copy()
    first = h2.mvm(operator, x)
    first_t = h2.mvm_t(operator, y)
    for _ in range(2):
        assert np.array_equal(h2.mvm_t(operator, y), first_t)
        assert np.array_equal(h2.mvm(operator, x), first)
    assert np.array_equal(x, x0) and np.array_equal(y, y0)


def _flat_positions(view, base):
    """Positions in the 1-D array ``base`` of the entries of 2-D ``view``."""
    item = base.itemsize
    first = (view.__array_interface__["data"][0]
             - base.__array_interface__["data"][0]) // item
    rows = np.arange(view.shape[0])[:, None] * (view.strides[0] // item)
    cols = np.arange(view.shape[1]) * (view.strides[1] // item)
    return (first + rows + cols).ravel()


def test_blocks_and_bases_are_views_into_the_packed_arrays(operator):
    p = operator.packed
    # the block rows the apply reads tile the buffer, back to back
    data = p.blocks.data
    mats = [mat for _, _, mat, _, _ in p.blocks.rows]
    assert data.size == sum(m.size for m in mats)
    assert np.array_equal(
        np.sort(np.concatenate([_flat_positions(m, data) for m in mats])),
        np.arange(data.size))
    # every buffer entry belongs to exactly one coupling or nearfield block
    owner = np.zeros(data.size, dtype=int)
    for kind, blocks in ((1, operator.coupling), (2, operator.nearfield)):
        for blk in blocks:
            pos = _flat_positions(blk.values, data)
            assert np.shares_memory(blk.values, data)
            assert np.all(owner[pos] == 0)
            owner[pos] = kind
    assert np.all(owner > 0)
    leaf_stacks = [v for side in (p.row, p.col) for _, _, v in side.leaves]
    transfer_stacks = [t for side in (p.row, p.col)
                       for _, _, _, groups in side.levels
                       for _, _, t in groups]
    for basis in (operator.row_basis, operator.col_basis):
        for bn in basis.nodes():
            if not bn.children:
                # full-rank leaves keep the shared identity, outside stacks
                assert any(np.shares_memory(bn.v, s) for s in leaf_stacks) \
                    != _full_rank_leaf(bn)
            if bn.transfer is not None:
                assert any(np.shares_memory(bn.transfer, s)
                           for s in transfer_stacks)
    # the packed arrays hold exactly what storage_report counts
    rep = h2.storage_report(operator)
    assert rep["couplings"] == 8 * np.count_nonzero(owner == 1) \
        == sum(8 * blk.values.size for blk in operator.coupling)
    assert rep["nearfield"] == 8 * np.count_nonzero(owner == 2) \
        == sum(8 * blk.values.size for blk in operator.nearfield)
    assert rep["leaf_bases"] == sum(8 * s.size for s in leaf_stacks)
    assert rep["transfers"] == sum(8 * s.size for s in transfer_stacks)


def test_full_rank_leaves_are_shared_identities(operators):
    found = 0
    for op in operators.values():
        p = op.packed
        stacks = [v for side in (p.row, p.col) for _, _, v in side.leaves]
        for basis in (op.row_basis, op.col_basis):
            eyes = {}
            for bn in filter(_full_rank_leaf, basis.nodes()):
                found += 1
                assert bn.identity
                assert np.array_equal(bn.pivots, bn.cluster.indices)
                assert np.array_equal(bn.v, np.eye(bn.rank))
                assert not bn.v.flags.writeable
                assert eyes.setdefault(bn.rank, bn.v) is bn.v
                assert not any(np.shares_memory(bn.v, s) for s in stacks)
    assert found > 0


def test_fixture_operators_cover_every_coupling_kind(operators):
    """Couplings between full-rank leaves (read and written in the tree
    vector) and coefficient nodes occur in all four combinations."""
    kinds = set()
    for op in operators.values():
        kinds.update((_full_rank_leaf(op.row_basis.node(blk.row)),
                      _full_rank_leaf(op.col_basis.node(blk.col)))
                     for blk in op.coupling)
    assert kinds == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_overlapping_block_rows_refused():
    col = np.zeros(1, dtype=np.intp)
    with pytest.raises(StateError):
        h2._BlockRows([(0, 2, col), (1, 3, col)])
    h2._BlockRows([(0, 2, col), (2, 4, col)])


def test_basis_stack_over_shared_tree_rows_refused(sphere2):
    """A stack is applied with one fancy-index +=, which would drop one of
    two updates of a shared tree row: two leaves of one shape over
    overlapping rows are refused, leaves of one shape over disjoint rows
    or of different shapes over nested rows are not."""
    tree = build_cluster_tree(sphere2, "constant", leaf_size=16)
    left, right = tree.children

    def basis(*clusters):
        return gca.ClusterBasis([gca.BasisNode(c, None, np.ones((c.size, 2)),
                                               ()) for c in clusters])

    shifted = ClusterTree(tree.perm, left.start + 1, left.stop + 1,
                          left.box, (), tree.size)
    with pytest.raises(StateError):
        h2._BasisPack(basis(left, shifted), tree.size)
    h2._BasisPack(basis(left, right), tree.size)
    h2._BasisPack(basis(tree, left), tree.size)


def test_concurrent_products_equal_serial_bits(operator):
    """Two threads applying one operator at once get the serial bits: a
    product keeps no per-call state on the operator."""
    rng = np.random.default_rng(16)
    n_rows, n_cols = operator.shape
    xs = rng.standard_normal((4, n_cols))
    ys = rng.standard_normal((4, n_rows))

    def products():
        return ([h2.mvm(operator, x) for x in xs]
                + [h2.mvm_t(operator, y) for y in ys])

    want = products()
    start = threading.Barrier(2)
    got = [[], []]

    def work(k):
        start.wait()
        for _ in range(25):
            got[k].append(products())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads inside every product
    try:
        workers = [threading.Thread(target=work, args=(k,))
                   for k in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for runs in got:
        assert len(runs) == 25
        for run in runs:
            assert all(np.array_equal(a, b) for a, b in zip(run, want))


def test_mvm_linearity(h2_l3):
    n = h2_l3.shape[0]
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((2, n))
    lhs = h2.mvm(h2_l3, 1.5 * x - 2.0 * y)
    rhs = 1.5 * h2.mvm(h2_l3, x) - 2.0 * h2.mvm(h2_l3, y)
    scale = np.linalg.norm(h2.mvm(h2_l3, x))
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


def test_mvm_adjoint_pairing(h2_l3):
    n = h2_l3.shape[0]
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = rng.standard_normal((2, n))
        a = y @ h2.mvm(h2_l3, x)
        b = x @ h2.mvm_t(h2_l3, y)
        assert abs(a - b) <= 1e-13 * abs(a)


def test_mvm_columns_match_dense(h2_l3, dense_slp3):
    n = h2_l3.shape[0]
    rng = np.random.default_rng(6)
    scale = np.linalg.norm(dense_slp3)
    for j in rng.integers(0, n, size=8):
        e = np.zeros(n)
        e[j] = 1.0
        col = h2.mvm(h2_l3, e)
        # eps=1e-3 interpolation: columns stay within the block tolerance
        assert np.linalg.norm(col - dense_slp3[:, j]) <= 1e-3 * scale


def test_as_operator_wraps_both_directions(h2_l3):
    op = h2.as_operator(h2_l3)
    n = h2_l3.shape[0]
    x = np.random.default_rng(7).standard_normal(n)
    assert np.array_equal(op(x), h2.mvm(h2_l3, x))
    assert np.array_equal(op(x, True), h2.mvm_t(h2_l3, x))


def test_mvm_rejects_bad_shape(h2_l3):
    with pytest.raises(ConfigError):
        h2.mvm(h2_l3, np.zeros(h2_l3.shape[1] + 1))


def test_storage_report_dense_reference():
    rep = h2.storage_report(32768)
    assert rep == {"dense": 8 * 32768 ** 2, "total": 8 * 32768 ** 2}
    assert rep["dense"] == 8192 * 2 ** 20


def test_storage_report_categories(h2_l3):
    rep = h2.storage_report(h2_l3)
    assert rep["total"] == (rep["leaf_bases"] + rep["transfers"]
                            + rep["couplings"] + rep["nearfield"])
    n = h2_l3.shape[0]
    assert rep["dense"] == 8 * n * n
    assert 0 < rep["total"] < rep["dense"]
    assert rep["index_bytes"] > 0
    direct = sum(8 * blk.values.size for blk in h2_l3.nearfield)
    assert rep["nearfield"] == direct


def test_spectral_error_estimate_diagonal():
    a = np.diag([3.0, 1.0, 0.5])
    b = np.diag([3.0, 1.0, 0.4])
    fa = lambda x, trans=False: a @ x
    fb = lambda x, trans=False: b @ x
    abs_err, rel = h2.spectral_error_estimate(fa, fb, 3, iters=200)
    assert abs(abs_err - 0.1) <= 1e-10
    assert abs(rel - 0.1 / 3.0) <= 1e-10
    abs0, rel0 = h2.spectral_error_estimate(fa, fa, 3)
    assert abs0 == 0.0 and rel0 == 0.0


def test_spectral_error_estimate_random():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((100, 100))
    e = rng.standard_normal((100, 100))
    e *= 1e-3 / np.linalg.norm(e, 2)
    b = a + e
    fa = lambda x, trans=False: a.T @ x if trans else a @ x
    fb = lambda x, trans=False: b.T @ x if trans else b @ x
    abs_err, rel = h2.spectral_error_estimate(fa, fb, 100, iters=300)
    exact = np.linalg.norm(a - b, 2)
    assert abs(abs_err - exact) <= 0.05 * exact
    assert abs_err <= exact * (1.0 + 1e-12)  # power iteration from below
    with pytest.raises(ConfigError):
        h2.spectral_error_estimate(fa, fb, 100, iters=0)


def test_operator_norm_is_the_estimate_reference():
    """operator_norm is the reference norm of spectral_error_estimate: the
    ratio is the error estimate over it, bitwise, as ``compress`` divides
    each method's error by the one reference norm it estimates."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((60, 60))
    b = a + 1e-3 * rng.standard_normal((60, 60))
    fa = lambda x, trans=False: a.T @ x if trans else a @ x
    fb = lambda x, trans=False: b.T @ x if trans else b @ x
    abs_err, rel = h2.spectral_error_estimate(fa, fb, 60, seed=5)
    ref = h2.operator_norm(fa, 60, seed=5)
    assert rel == abs_err / ref
    assert abs(ref - np.linalg.norm(a, 2)) <= 0.05 * ref
    with pytest.raises(ConfigError):
        h2.operator_norm(fa, 60, iters=0)


def test_cg_solve_spd():
    rng = np.random.default_rng(9)
    c = rng.standard_normal((50, 50))
    a = c @ c.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    res = h2.cg_solve(lambda x: a @ x, b, tol=1e-10)
    assert res.converged
    assert np.linalg.norm(b - a @ res.x) <= 1e-9 * np.linalg.norm(b)
    assert res.residuals[-1] <= 1e-10 * np.linalg.norm(b)
    assert res.residuals[0] == np.linalg.norm(b)


def test_cg_solve_iteration_cap():
    rng = np.random.default_rng(10)
    c = rng.standard_normal((40, 40))
    a = c @ c.T + 1e-3 * np.eye(40)
    b = rng.standard_normal(40)
    res = h2.cg_solve(lambda x: a @ x, b, tol=1e-14, max_iter=3)
    assert not res.converged
    assert len(res.residuals) <= 4


def test_cg_solve_zero_rhs():
    res = h2.cg_solve(lambda x: x, np.zeros(5))
    assert res.converged and np.all(res.x == 0.0)


def test_cgnr_solve_nonsymmetric():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 30)) + 6 * np.eye(30)
    b = rng.standard_normal(30)
    apply = lambda x, trans=False: a.T @ x if trans else a @ x
    res = h2.cgnr_solve(apply, b, tol=1e-10, max_iter=1000)
    assert res.converged
    # history tracks the true residual, not the normal-equation one
    assert abs(res.residuals[-1] - np.linalg.norm(b - a @ res.x)) \
        <= 1e-8 * np.linalg.norm(b)
    assert np.linalg.norm(b - a @ res.x) <= 1e-9 * np.linalg.norm(b)


@pytest.fixture(scope="module")
def one_and_two_bases(sphere3):
    """Plane L3 constant Galerkin built with one basis for both sides and
    with a separate column basis; also that column basis."""
    tree = build_cluster_tree(sphere3, "constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    rm, cm = gca.coupling_marks(btree)

    def basis(side, marks):
        return gca.build_cluster_basis(tree, sphere3, "constant", 2, 0.5,
                                       1e-4, side, (2, 4), marks)

    rb, cb = basis("row", rm | cm), basis("col", cm)
    other = basis("row", rm | cm)
    return [gca.build_h2(btree, b, c, sphere3, "slp", "constant",
                         "galerkin", (2, 4)) for b, c in ((rb, rb),
                                                          (other, cb))] + [cb]


def test_one_basis_operator_matches_two_basis(one_and_two_bases):
    one, two, _ = one_and_two_bases
    assert one.packed.row is one.packed.col
    rng = np.random.default_rng(21)
    for x in rng.standard_normal((3, one.shape[0])):
        for product in (h2.mvm, h2.mvm_t):
            ref = product(two, x)
            assert np.linalg.norm(product(one, x) - ref) \
                <= 1e-12 * np.linalg.norm(ref)


def test_one_basis_storage_counts_the_basis_once(one_and_two_bases):
    one, two, cb = one_and_two_bases
    col = sum(8 * bn.v.size for bn in cb.nodes()
              if not bn.children and not _full_rank_leaf(bn))
    col += sum(8 * bn.transfer.size for bn in cb.nodes()
               if bn.transfer is not None)
    assert col > 0
    assert h2.storage_report(one)["total"] \
        == h2.storage_report(two)["total"] - col
