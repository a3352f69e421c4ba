import numpy as np
import pytest

from greencross import clustering
from greencross.clustering import (BoundingBox, admissible, build_block_tree,
                                   build_cluster_tree)
from greencross.errors import ConfigError
from greencross.geometry import build_sphere_mesh, control_points


def test_bounding_box_basics():
    a = BoundingBox(np.zeros(3), np.ones(3))
    assert abs(a.diameter() - np.sqrt(3.0)) < 1e-15
    b = BoundingBox(np.array([2.0, 0.0, 0.0]), np.array([3.0, 1.0, 1.0]))
    assert abs(a.distance(b) - 1.0) < 1e-15
    touching = BoundingBox(np.array([1.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.0]))
    assert a.distance(touching) == 0.0
    pts = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]])
    box = BoundingBox(pts.min(axis=0), pts.max(axis=0))
    assert np.array_equal(box.lower, [0.0, -1.0, 0.5])
    assert np.array_equal(box.upper, [3.0, 1.0, 2.0])
    with pytest.raises(ConfigError):
        BoundingBox(np.ones(3), np.zeros(3))


def test_admissibility_condition():
    a = BoundingBox(np.zeros(3), np.ones(3))
    b = BoundingBox(np.array([5.0, 0.0, 0.0]), np.array([6.0, 1.0, 1.0]))
    # diam sqrt(3) ~ 1.732, dist 4: admissible already for small eta
    assert admissible(a, b, 1.0)
    assert not admissible(a, b, 0.2)
    assert not admissible(a, a, 10.0)
    with pytest.raises(ConfigError):
        admissible(a, b, 0.0)


@pytest.mark.parametrize("basis", ["constant", "linear"])
def test_cluster_tree_structure(sphere3, basis):
    tree = build_cluster_tree(sphere3, basis_kind=basis, leaf_size=16)
    n = sphere3.nt if basis == "constant" else sphere3.nv
    assert tree.start == 0 and tree.stop == n
    assert np.array_equal(np.sort(tree.perm), np.arange(n))

    nodes = tree.nodes()
    for pos, node in enumerate(nodes):
        assert node.index == pos
        if node.is_leaf():
            assert node.size <= 16
        else:
            left, right = node.children
            assert left.start == node.start
            assert left.stop == right.start
            assert right.stop == node.stop
            assert left.size > 0 and right.size > 0

    leaves = tree.leaves()
    spans = sorted((l.start, l.stop) for l in leaves)
    assert spans[0][0] == 0 and spans[-1][1] == n
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c


def test_cluster_boxes_contain_supports(sphere3):
    ctrl = control_points(sphere3)
    tree = build_cluster_tree(sphere3, basis_kind="constant", leaf_size=16)
    for node in tree.nodes():
        pts = ctrl[node.indices].reshape(-1, 3)
        assert np.all(pts >= node.box.lower - 1e-12)
        assert np.all(pts <= node.box.upper + 1e-12)

    stars = sphere3.vertex_stars()
    vtree = build_cluster_tree(sphere3, basis_kind="linear", leaf_size=16)
    for node in vtree.leaves():
        tris = np.concatenate([stars[i] for i in node.indices])
        pts = ctrl[tris].reshape(-1, 3)
        assert np.all(pts >= node.box.lower - 1e-12)
        assert np.all(pts <= node.box.upper + 1e-12)


def test_cluster_tree_config_errors(sphere2):
    with pytest.raises(ConfigError):
        build_cluster_tree(sphere2, basis_kind="cubic")
    with pytest.raises(ConfigError):
        build_cluster_tree(sphere2, leaf_size=0)


def test_block_tree_tiles_index_product(sphere3):
    tree = build_cluster_tree(sphere3, basis_kind="constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    n = sphere3.nt
    cover = np.zeros((n, n), dtype=np.int64)
    for leaf in btree.leaves():
        cover[leaf.row.start:leaf.row.stop, leaf.col.start:leaf.col.stop] += 1
    assert np.all(cover == 1)
    adm = len(btree.admissible_leaves())
    inadm = len(btree.inadmissible_leaves())
    assert adm > 0 and inadm > 0
    assert len(btree.leaves()) == adm + inadm


def test_block_tree_leaf_states(sphere3):
    tree = build_cluster_tree(sphere3, basis_kind="constant", leaf_size=16)
    btree = build_block_tree(tree, eta=1.0)
    for leaf in btree.admissible_leaves():
        assert admissible(leaf.row.box, leaf.col.box, 1.0)
    for leaf in btree.inadmissible_leaves():
        assert leaf.row.is_leaf() and leaf.col.is_leaf()
        assert not admissible(leaf.row.box, leaf.col.box, 1.0)


def test_block_tree_small_mesh_single_block():
    # 32 triangles fit in one leaf at the default leaf size
    tree = build_cluster_tree(build_sphere_mesh(1))
    btree = build_block_tree(tree)
    assert tree.is_leaf()
    assert btree.is_leaf()
    assert btree.state == clustering.INADMISSIBLE


def test_eta_controls_far_field(sphere3):
    tree = build_cluster_tree(sphere3, basis_kind="constant", leaf_size=16)
    loose = build_block_tree(tree, eta=2.0)
    tight = build_block_tree(tree, eta=0.5)
    assert len(loose.admissible_leaves()) > len(tight.admissible_leaves())
    assert len(loose.inadmissible_leaves()) < len(tight.inadmissible_leaves())
    with pytest.raises(ConfigError):
        build_block_tree(tree, eta=-1.0)
