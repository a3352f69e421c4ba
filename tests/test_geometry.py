import numpy as np
import pytest

from greencross import geometry
from greencross.errors import MeshFormatError, SizeLimitError
from greencross.geometry import (
    build_sphere_mesh, chart_pack, read_mesh, shape_functions, to_curved,
    write_mesh,
)
from oracles import chart_eval, chart_partials, surface_area

FOUR_PI = 4.0 * np.pi


def test_octahedron_counts():
    mesh = build_sphere_mesh(0)
    assert mesh.nv == 6
    assert mesh.nt == 8
    assert mesh.ne == 12


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_subdivision_counts(level):
    mesh = build_sphere_mesh(level)
    nt = 8 * 4 ** level
    assert mesh.nt == nt
    # closed genus-0 surface: V = F/2 + 2, E = 3F/2
    assert mesh.nv == nt // 2 + 2
    assert mesh.ne == 3 * nt // 2


def test_vertices_on_unit_sphere():
    mesh = build_sphere_mesh(3)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-14


def test_outward_orientation():
    mesh = build_sphere_mesh(2)
    v = mesh.vertices[mesh.triangles]
    normals = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    assert np.all(np.einsum("tc,tc->t", normals, mesh.centroids()) > 0)


def test_level_cap_guard():
    with pytest.raises(SizeLimitError):
        build_sphere_mesh(geometry.LEVEL_CAP + 1)


def test_to_curved_midpoints_on_sphere():
    mesh = build_sphere_mesh(2)
    curved = to_curved(mesh, project_to_unit_sphere=True)
    assert curved.midpoints.shape == (mesh.ne, 3)
    radii = np.linalg.norm(curved.midpoints, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-14


def test_to_curved_default_is_flat():
    mesh = build_sphere_mesh(1)
    curved = to_curved(mesh)
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                  + mesh.vertices[mesh.edges[:, 1]])
    assert np.array_equal(curved.midpoints, mids)


def test_chart_interpolates_nodes():
    mesh = to_curved(build_sphere_mesh(1), project_to_unit_sphere=True)
    # chart hits the three vertices and three midpoints at the chart nodes
    pts = np.array([chart_eval(mesh, 0, xh).point
                    for xh in geometry.CHART_NODES_REF])
    tri = mesh.triangles[0]
    assert np.allclose(pts[:3], mesh.vertices[tri], atol=1e-14)
    expect = mesh.midpoints[mesh.tri_edges[0]]
    assert np.allclose(pts[3:], expect, atol=1e-14)


def test_chart_normal_matches_partials():
    mesh = to_curved(build_sphere_mesh(1), project_to_unit_sphere=True)
    for xh in ((0.2, 0.3), (0.05, 0.9), (1 / 3, 1 / 3)):
        sample = chart_eval(mesh, 3, xh)
        du, dv = chart_partials(mesh, 3, xh)
        assert np.allclose(sample.normal, np.cross(du, dv), atol=1e-13)
        assert abs(sample.gramian - np.linalg.norm(np.cross(du, dv))) < 1e-13


def test_shape_functions_partition_of_unity():
    rng = np.random.default_rng(5)
    x = rng.random((40, 2)) * 0.5
    n6 = shape_functions(x)
    assert np.allclose(n6.sum(axis=1), 1.0, atol=1e-14)


def test_flat_chart_is_affine():
    mesh = build_sphere_mesh(1)
    v = mesh.vertices[mesh.triangles[2]]
    for x, y in ((0.25, 0.25), (0.1, 0.3), (0.5, 0.5)):
        pt = chart_eval(mesh, 2, (x, y)).point
        assert np.allclose(pt, (1 - x - y) * v[0] + x * v[1] + y * v[2],
                           atol=1e-14)


def test_plane_area_increases_toward_sphere():
    areas = [surface_area(build_sphere_mesh(lv)) for lv in range(4)]
    assert all(a < FOUR_PI for a in areas)
    assert all(b > a for a, b in zip(areas, areas[1:]))


def test_curved_area_level4():
    mesh = to_curved(build_sphere_mesh(4), project_to_unit_sphere=True)
    assert abs(surface_area(mesh) - FOUR_PI) / FOUR_PI < 1e-5


def test_curved_area_error_drops_per_level():
    errs = []
    for level in (2, 3, 4):
        mesh = to_curved(build_sphere_mesh(level),
                         project_to_unit_sphere=True)
        errs.append(abs(surface_area(mesh) - FOUR_PI))
    assert errs[0] / errs[1] >= 4.0
    assert errs[1] / errs[2] >= 4.0


def test_curved_mesh_shares_its_base_arrays(tmp_path, monkeypatch):
    """A curved mesh is a TriangleMesh holding its base's own topology
    arrays, from to_curved and from read_mesh: edges are derived once.
    The base stays a plane mesh with its own chart pack."""
    base = build_sphere_mesh(1)
    assert not chart_pack(base).curved
    curved = to_curved(base, project_to_unit_sphere=True)
    assert isinstance(curved, geometry.TriangleMesh)
    for name in ("vertices", "triangles", "edges", "tri_edges"):
        assert getattr(curved, name) is getattr(base, name)
    assert base.midpoints is None and not chart_pack(base).curved
    assert chart_pack(curved).curved
    path = tmp_path / "m.txt"
    write_mesh(curved, path)
    derived, plain = [], geometry._derive_edges

    def derive(triangles):
        derived.append(plain(triangles))
        return derived[-1]

    monkeypatch.setattr(geometry, "_derive_edges", derive)
    back = read_mesh(path)
    monkeypatch.undo()
    assert isinstance(back, geometry.TriangleMesh)
    assert len(derived) == 1
    assert back.edges is derived[0][0] and back.tri_edges is derived[0][1]
    assert np.array_equal(back.midpoints, curved.midpoints)


def test_mesh_roundtrip_plane(tmp_path):
    mesh = build_sphere_mesh(2)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert mesh.midpoints is None and back.midpoints is None
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_mesh_roundtrip_curved(tmp_path):
    mesh = to_curved(build_sphere_mesh(2), project_to_unit_sphere=True)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.midpoints is not None
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.midpoints, mesh.midpoints)


def test_curved_file_has_midpoint_lines(tmp_path):
    mesh = to_curved(build_sphere_mesh(1), project_to_unit_sphere=True)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    flat_lines = 1 + mesh.nv + mesh.nt + mesh.ne
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    assert len(lines) == flat_lines + mesh.ne


def test_read_mesh_reports_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 3\n0 0 0\n1 1 1\nnot a triangle\n")
    with pytest.raises(MeshFormatError):
        read_mesh(path)


def test_read_mesh_rejects_out_of_range_index(tmp_path):
    mesh = build_sphere_mesh(0)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    text = path.read_text().splitlines()
    text[7] = "0 2 99"  # first triangle line
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(MeshFormatError):
        read_mesh(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section", ["vertex", "midpoint"])
def test_read_mesh_refuses_non_finite_coordinates(tmp_path, section, value):
    """A vertex or midpoint coordinate that is not finite is refused at
    its line."""
    mesh = to_curved(build_sphere_mesh(1), project_to_unit_sphere=True)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    text = path.read_text().splitlines()
    # 1-based line: the fourth vertex, or the fifth midpoint
    line = 1 + 4 if section == "vertex" else 1 + mesh.nv + mesh.nt \
        + mesh.ne + 5
    fields = text[line - 1].split()
    fields[1] = value
    text[line - 1] = " ".join(fields)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(MeshFormatError, match="bad %s value" % section) as exc:
        read_mesh(path)
    assert exc.value.line == line


def test_read_mesh_refuses_unreadable_files(tmp_path):
    """A missing file, a directory and a file that is not UTF-8 text are
    MeshFormatErrors."""
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"6 8 12\n\xff\xfe 0 0\n")
    for path in (tmp_path / "missing.txt", tmp_path, binary):
        with pytest.raises(MeshFormatError, match="cannot read mesh file"):
            read_mesh(path)


def test_chart_pack_matches_chart_eval():
    mesh = to_curved(build_sphere_mesh(1), project_to_unit_sphere=True)
    pack = chart_pack(mesh)
    assert pack.curved
    xhat = np.array([[0.2, 0.3], [0.6, 0.1]])
    n6 = shape_functions(xhat)
    pts = np.einsum("ma,ac->mc", n6, pack.nodes[4])
    expect = np.array([chart_eval(mesh, 4, xh).point for xh in xhat])
    assert np.allclose(pts, expect, atol=1e-13)
