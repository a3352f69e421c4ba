"""Triangulated closed surfaces.

Plane meshes, quadratic curved triangles (vertices plus edge midpoints),
octahedron-based sphere meshes, chart packs for batched evaluation, and the
text file format.  A curved mesh is a :class:`TriangleMesh` with one
midpoint per edge: the topology (triangles, edges, vertex stars) is the
plane mesh's, and only :func:`chart_pack` reads the midpoints.
"""

import copy
import math

import numpy as np

from .errors import MeshFormatError, SizeLimitError

LEVEL_CAP = 8

# reference triangle t-hat = {x1, x2 >= 0, x1 + x2 <= 1}
# chart nodes: three vertices, then midpoints of edges (0,1), (1,2), (2,0)
CHART_NODES_REF = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]
)


class TriangleMesh:
    """Closed oriented surface mesh of plane or quadratic curved triangles.

    vertices : (nv, 3) float array
    triangles : (nt, 3) int array, counterclockwise seen from outside
    edges : (ne, 2) int array, derived, each row (a, b) with a < b
    tri_edges : (nt, 3) int array, edge index of (v0,v1), (v1,v2), (v2,v0)
    midpoints : (ne, 3) float array, one curved point per edge of
        ``edges``, or None on a plane mesh (see :func:`to_curved`); with
        the straight edge midpoints the quadratic chart degenerates to the
        plane chart exactly
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshFormatError("vertices must be an (nv, 3) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshFormatError("triangles must be an (nt, 3) array")
        _check_indices(self.triangles, len(self.vertices))
        _check_degenerate(self.vertices, self.triangles)
        self.edges, self.tri_edges = _derive_edges(self.triangles)
        self.midpoints = None
        self._stars = None
        self._pack = None

    @property
    def nv(self):
        return len(self.vertices)

    @property
    def nt(self):
        return len(self.triangles)

    @property
    def ne(self):
        return len(self.edges)

    def vertex_stars(self):
        """Per vertex, the sorted array of adjacent triangle indices."""
        if self._stars is None:
            order = np.argsort(self.triangles.ravel(), kind="stable")
            flat = order // 3
            verts = self.triangles.ravel()[order]
            bounds = np.searchsorted(verts, np.arange(self.nv + 1))
            self._stars = [flat[bounds[i]:bounds[i + 1]] for i in range(self.nv)]
        return self._stars

    def centroids(self):
        return self.vertices[self.triangles].mean(axis=1)


def _check_indices(triangles, nv):
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        raise MeshFormatError("triangle vertex index out of range")


def _check_degenerate(vertices, triangles):
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    e3 = p[:, 2] - p[:, 1]
    area2 = np.linalg.norm(np.cross(e1, e2), axis=1)
    longest = np.sqrt(
        np.maximum(
            (e1 * e1).sum(1), np.maximum((e2 * e2).sum(1), (e3 * e3).sum(1))
        )
    )
    bad = area2 < 2e-14 * longest * longest
    if bad.any():
        raise MeshFormatError("degenerate triangle %d" % int(np.nonzero(bad)[0][0]))


def _derive_edges(triangles):
    nt = len(triangles)
    directed = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    und = np.sort(directed, axis=1)
    edges, inverse, counts = np.unique(
        und, axis=0, return_inverse=True, return_counts=True
    )
    if (counts != 2).any():
        raise MeshFormatError("mesh is not a closed surface (open or non-manifold edge)")
    # consistent orientation: every directed edge occurs exactly once
    key = directed[:, 0] * (directed.max() + 1) + directed[:, 1]
    if len(np.unique(key)) != len(key):
        raise MeshFormatError("inconsistently oriented triangles share an edge")
    tri_edges = inverse.reshape(3, nt).T.copy()
    return edges, np.ascontiguousarray(tri_edges)


def build_sphere_mesh(level):
    """Octahedron refined by edge-midpoint subdivision, vertices on the unit
    sphere. Triangle count is 8 * 4**level."""
    if level < 0 or level > LEVEL_CAP:
        raise SizeLimitError("sphere level %r outside [0, %d]" % (level, LEVEL_CAP))
    vertices = [
        np.array([1.0, 0.0, 0.0]),
        np.array([-1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, -1.0, 0.0]),
        np.array([0.0, 0.0, 1.0]),
        np.array([0.0, 0.0, -1.0]),
    ]
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    for _ in range(level):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                v = vertices[i] + vertices[j]
                vertices.append(v / np.linalg.norm(v))
                cache[key] = len(vertices) - 1
            return cache[key]

        refined = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            refined += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = refined
    return TriangleMesh(np.array(vertices), np.array(faces))


def to_curved(mesh, project_to_unit_sphere=False):
    """Attach one midpoint per edge; optionally project them onto the unit
    sphere (straight midpoints otherwise, the affine case)."""
    mid = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    if project_to_unit_sphere:
        mid = mid / np.linalg.norm(mid, axis=1, keepdims=True)
    return _with_midpoints(mesh, mid)


def _with_midpoints(mesh, midpoints):
    """``mesh`` with one midpoint per edge, (ne, 3) float64; its validated
    topology arrays are shared, not derived again."""
    curved = copy.copy(mesh)
    curved.midpoints, curved._pack = midpoints, None
    return curved


def shape_functions(xhat):
    """Quadratic Lagrange basis on t-hat at points xhat (..., 2) -> (..., 6)."""
    xhat = np.asarray(xhat, dtype=np.float64)
    x, y = xhat[..., 0], xhat[..., 1]
    l0 = 1.0 - x - y
    out = np.empty(xhat.shape[:-1] + (6,))
    out[..., 0] = l0 * (2.0 * l0 - 1.0)
    out[..., 1] = x * (2.0 * x - 1.0)
    out[..., 2] = y * (2.0 * y - 1.0)
    out[..., 3] = 4.0 * l0 * x
    out[..., 4] = 4.0 * x * y
    out[..., 5] = 4.0 * y * l0
    return out


def shape_gradients(xhat):
    """Gradients of the quadratic Lagrange basis, shape (..., 6, 2)."""
    xhat = np.asarray(xhat, dtype=np.float64)
    x, y = xhat[..., 0], xhat[..., 1]
    l0 = 1.0 - x - y
    out = np.empty(xhat.shape[:-1] + (6, 2))
    out[..., 0, 0] = 1.0 - 4.0 * l0
    out[..., 0, 1] = 1.0 - 4.0 * l0
    out[..., 1, 0] = 4.0 * x - 1.0
    out[..., 1, 1] = 0.0
    out[..., 2, 0] = 0.0
    out[..., 2, 1] = 4.0 * y - 1.0
    out[..., 3, 0] = 4.0 * (l0 - x)
    out[..., 3, 1] = -4.0 * x
    out[..., 4, 0] = 4.0 * y
    out[..., 4, 1] = 4.0 * x
    out[..., 5, 0] = -4.0 * y
    out[..., 5, 1] = 4.0 * (l0 - y)
    return out


class ChartPack:
    """Per-triangle chart data for batched evaluation.

    nodes : (nt, 6, 3) chart nodes (vertices, then edge midpoints)
    normals : (nt, 6, 3) unnormalized normals at the six reference nodes
    gram : (nt,) constant Gramian for plane meshes, None for curved
    """

    __slots__ = ("nodes", "normals", "gram", "curved")

    def __init__(self, nodes, normals, gram, curved):
        self.nodes = nodes
        self.normals = normals
        self.gram = gram
        self.curved = curved


def chart_pack(mesh):
    """Build (and cache on the mesh) the ChartPack."""
    if mesh._pack is not None:
        return mesh._pack
    tris = mesh.triangles
    verts = mesh.vertices
    nodes = np.empty((len(tris), 6, 3))
    nodes[:, :3] = verts[tris]
    curved = mesh.midpoints is not None
    if curved:
        nodes[:, 3:] = mesh.midpoints[mesh.tri_edges]
    else:
        nodes[:, 3] = 0.5 * (nodes[:, 0] + nodes[:, 1])
        nodes[:, 4] = 0.5 * (nodes[:, 1] + nodes[:, 2])
        nodes[:, 5] = 0.5 * (nodes[:, 2] + nodes[:, 0])
    grads = shape_gradients(CHART_NODES_REF)  # (6, 6, 2)
    du = np.einsum("ma,tac->tmc", grads[:, :, 0], nodes)
    dv = np.einsum("ma,tac->tmc", grads[:, :, 1], nodes)
    normals = np.cross(du, dv)  # (nt, 6, 3)
    if curved:
        gram = None
    else:
        gram = np.linalg.norm(normals[:, 0], axis=1)
        normals = np.repeat(normals[:, :1], 6, axis=1)
    pack = ChartPack(np.ascontiguousarray(nodes), np.ascontiguousarray(normals),
                     gram, curved)
    mesh._pack = pack
    return pack


def control_points(mesh):
    """Bernstein control points of each (possibly curved) triangle chart,
    shape (nt, 6, 3).

    A quadratic patch lies in the convex hull of its control points
    {p_i, (4 m_ij - p_i - p_j) / 2}, so support bounding boxes taken over
    these are strict.
    """
    pack = chart_pack(mesh)
    nodes = pack.nodes
    ctrl = nodes.copy()
    ctrl[:, 3] = 0.5 * (4.0 * nodes[:, 3] - nodes[:, 0] - nodes[:, 1])
    ctrl[:, 4] = 0.5 * (4.0 * nodes[:, 4] - nodes[:, 1] - nodes[:, 2])
    ctrl[:, 5] = 0.5 * (4.0 * nodes[:, 5] - nodes[:, 2] - nodes[:, 0])
    return ctrl


def write_mesh(mesh, path):
    """Write the text format; curved meshes append one midpoint per edge."""
    lines = ["%d %d %d" % (mesh.nv, mesh.nt, mesh.ne)]
    for v in mesh.vertices:
        lines.append("%.17g %.17g %.17g" % (v[0], v[1], v[2]))
    for t in mesh.triangles:
        lines.append("%d %d %d" % (t[0], t[1], t[2]))
    for e in mesh.edges:
        lines.append("%d %d" % (e[0], e[1]))
    if mesh.midpoints is not None:
        for m in mesh.midpoints:
            lines.append("%.17g %.17g %.17g" % (m[0], m[1], m[2]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Read the text format into a TriangleMesh, curved if the file has
    midpoints. An unreadable file, and a value that is not a finite
    number, are MeshFormatErrors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except (OSError, UnicodeError) as exc:
        raise MeshFormatError("cannot read mesh file %s: %s"
                              % (path, exc)) from None
    rows = [(i + 1, line.split()) for i, line in enumerate(raw) if line.strip()]
    if not rows:
        raise MeshFormatError("empty mesh file", line=1)

    def take(n, what, conv, width):
        nonlocal cursor
        out = []
        for _ in range(n):
            if cursor >= len(rows):
                raise MeshFormatError("unexpected end of file in %s section" % what,
                                      line=rows[-1][0])
            lineno, tok = rows[cursor]
            cursor += 1
            if len(tok) != width:
                raise MeshFormatError("expected %d %s fields" % (width, what),
                                      line=lineno)
            try:
                out.append([conv(t) for t in tok])
            except ValueError:
                raise MeshFormatError("bad %s value" % what, line=lineno) from None
        return out

    lineno, header = rows[0]
    cursor = 1
    if len(header) != 3:
        raise MeshFormatError("header must be 'nv nt ne'", line=lineno)
    try:
        nv, nt, ne = (int(t) for t in header)
    except ValueError:
        raise MeshFormatError("header must be 'nv nt ne'", line=lineno) from None
    if min(nv, nt, ne) < 0:
        raise MeshFormatError("negative count in header", line=lineno)
    verts = take(nv, "vertex", _finite, 3)
    tris = take(nt, "triangle", int, 3)
    first_tri_line = rows[1 + nv][0] if nt else lineno
    for k, t in enumerate(tris):
        if min(t) < 0 or max(t) >= nv:
            raise MeshFormatError("triangle vertex index out of range",
                                  line=rows[1 + nv + k][0])
    edges = take(ne, "edge", int, 2)
    for k, e in enumerate(edges):
        if e[0] >= e[1] or e[0] < 0 or e[1] >= nv:
            raise MeshFormatError("edge endpoints must satisfy 0 <= a < b < nv",
                                  line=rows[1 + nv + nt + k][0])
    mids = None
    if cursor < len(rows):
        mids = take(ne, "midpoint", _finite, 3)
        if cursor < len(rows):
            raise MeshFormatError("trailing content after midpoint section",
                                  line=rows[cursor][0])
    try:
        mesh = TriangleMesh(np.array(verts).reshape(nv, 3),
                            np.array(tris, dtype=np.int64).reshape(nt, 3))
    except MeshFormatError as exc:
        raise MeshFormatError(str(exc), line=first_tri_line) from None
    if mesh.ne != ne:
        raise MeshFormatError("edge count %d does not match derived count %d"
                              % (ne, mesh.ne), line=lineno)
    file_edges = np.array(edges, dtype=np.int64).reshape(ne, 2)
    order = _match_edges(mesh.edges, file_edges, lineno)
    if mids is None:
        return mesh
    return _with_midpoints(mesh, np.array(mids).reshape(ne, 3)[order])


def _finite(text):
    """A coordinate of the text format: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("coordinate %r is not finite" % text)
    return value


def _match_edges(canonical, from_file, header_line):
    """Index of each canonical edge in the file's edge list."""
    lookup = {(int(a), int(b)): i for i, (a, b) in enumerate(from_file)}
    if len(lookup) != len(from_file):
        raise MeshFormatError("duplicate edge in edge section", line=header_line)
    order = np.empty(len(canonical), dtype=np.int64)
    for i, (a, b) in enumerate(canonical):
        j = lookup.get((int(a), int(b)))
        if j is None:
            raise MeshFormatError("edge section does not match triangle edges",
                                  line=header_line)
        order[i] = j
    return order
