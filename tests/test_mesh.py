import math

import numpy as np
import pytest

import naive_assembly as naive
from lcdroplet import (
    TriMesh,
    assemble_stiffness,
    audit_weak_acuteness,
    build_structured_mesh,
    count_components,
    mesh_size,
)
from lcdroplet.mesh import MeshError


def test_structured_mesh_counts():
    m = build_structured_mesh(2, 2)
    assert m.n_nodes == 9
    assert m.n_elements == 8
    assert len(m.boundary_nodes) == 8


def test_single_cell_mesh():
    m = build_structured_mesh(1, 1)
    assert m.n_nodes == 4
    assert m.n_elements == 2


def test_zero_cell_count_rejected():
    with pytest.raises(MeshError):
        build_structured_mesh(0, 4)


def test_degenerate_rectangle_rejected():
    with pytest.raises(MeshError):
        build_structured_mesh(2, 2, ((0.0, 0.0), (0.0, 1.0)))


@pytest.mark.parametrize(
    "nx,ny,rect,expected",
    [
        (64, 64, ((0.0, 0.0), (1.0, 1.0)), math.sqrt(2) / 64),
        (1, 1, ((0.0, 0.0), (1.0, 1.0)), math.sqrt(2)),
        (2, 2, ((0.0, 0.0), (2.0, 2.0)), math.sqrt(2)),
    ],
)
def test_mesh_size(nx, ny, rect, expected):
    assert mesh_size(build_structured_mesh(nx, ny, rect)) == pytest.approx(
        expected, rel=1e-14
    )


def test_right_isosceles_triangles():
    m = build_structured_mesh(3, 3)
    for tri in m.elements:
        pts = m.nodes[tri]
        edges = sorted(
            np.linalg.norm(pts[a] - pts[b]) for a, b in ((0, 1), (1, 2), (0, 2))
        )
        assert edges[0] == pytest.approx(edges[1], rel=1e-14)
        assert edges[2] == pytest.approx(edges[0] * math.sqrt(2), rel=1e-14)


def test_positive_orientation_enforced():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        TriMesh(nodes, np.array([[0, 2, 1]]), np.array([0, 1, 2]))


def test_repeated_vertex_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        TriMesh(nodes, np.array([[0, 1, 1]]), np.array([]))


def test_refinement_nesting():
    coarse = build_structured_mesh(3, 2)
    fine = build_structured_mesh(6, 4)
    fine_set = {tuple(np.round(p, 12)) for p in fine.nodes}
    for p in coarse.nodes:
        assert tuple(np.round(p, 12)) in fine_set


def test_stiffness_row_sums_vanish():
    m = build_structured_mesh(5, 7)
    K = assemble_stiffness(m)
    assert np.abs(K @ np.ones(m.n_nodes)).max() <= 1e-12


def test_structured_mesh_weakly_acute():
    m = build_structured_mesh(2, 2)
    report = audit_weak_acuteness(m, assemble_stiffness(m))
    assert report.is_weakly_acute
    # diagonal-neighbor pairs couple through two right angles: exact zero
    assert report.min_offdiag_kij == 0.0
    assert report.violating_pairs == []


def test_single_cell_weakly_acute():
    m = build_structured_mesh(1, 1)
    report = audit_weak_acuteness(m, assemble_stiffness(m))
    assert report.is_weakly_acute
    assert report.min_offdiag_kij >= 0.0


def obtuse_fixture():
    """Unit-square mesh plus the obtuse triangle (0,0), (1,0), (-2,1)."""
    base = build_structured_mesh(1, 1)
    nodes = np.vstack([base.nodes, [[-2.0, 1.0]]])
    # node 0 is (0,0) and node 2 is (1,0); obtuse corner at node 0
    elements = np.vstack([base.elements, [[0, 2, 4]]])
    return TriMesh(nodes, elements, base.boundary_nodes)


def test_obtuse_triangle_flagged():
    m = obtuse_fixture()
    report = audit_weak_acuteness(m, assemble_stiffness(m))
    assert not report.is_weakly_acute
    assert report.min_offdiag_kij < 0
    # hand assembly of that element: the pair opposite the obtuse corner
    # carries coupling k = -1
    bad = {(i, j): k for i, j, k in report.violating_pairs}
    assert (2, 4) in bad
    assert bad[(2, 4)] == pytest.approx(-1.0, rel=1e-12)


def test_audit_shape_mismatch():
    m = build_structured_mesh(2, 2)
    K = assemble_stiffness(build_structured_mesh(3, 3))
    with pytest.raises(MeshError):
        audit_weak_acuteness(m, K)


def test_nonconforming_mesh_rejected():
    # three triangles sharing one edge
    nodes = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [2.0, 1.0]]
    )
    elements = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
    with pytest.raises(MeshError):
        TriMesh(nodes, elements, np.array([]))


def test_mesh_vtk_export(tmp_path):
    from lcdroplet.vtkio import write_vtk

    m = build_structured_mesh(2, 3)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, m, title="bare mesh")
    text = path.read_text().split("\n")
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {m.n_nodes} double" in text
    assert f"CELLS {m.n_elements} {4 * m.n_elements}" in text
    idx = text.index(f"CELL_TYPES {m.n_elements}")
    assert set(text[idx + 1: idx + 1 + m.n_elements]) == {"5"}


def test_count_components():
    structured = build_structured_mesh(8, 8)
    for m in (structured, naive.shuffled(structured)):
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        two_blobs = ((x - 0.2) ** 2 + (y - 0.2) ** 2 < 0.02) | (
            (x - 0.8) ** 2 + (y - 0.8) ** 2 < 0.02
        )
        assert count_components(m, two_blobs) == 2
        assert count_components(m, np.zeros(m.n_nodes, dtype=bool)) == 0
        assert count_components(m, np.ones(m.n_nodes, dtype=bool)) == 1


def test_nonconforming_mesh_rejected_with_large_node_numbers():
    # the same three triangles on one edge, numbered above 2**16: a key
    # lo * n + hi that overflowed 32 bits, or collided, would miss it
    n = 70_005
    ids = np.array([70_000, 70_001, 70_002, 70_003, 70_004])
    nodes = np.zeros((n, 2))
    nodes[ids] = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [2.0, 1.0]]
    elements = ids[np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])]
    with pytest.raises(MeshError, match="shared by 3 elements"):
        TriMesh(nodes, elements, np.array([]))
    # two of them form a conforming mesh with one interior edge
    m = TriMesh(nodes, elements[:2], np.array([]))
    assert len(m.edges.lo) == 5
    assert m.edges.counts.max() == 2
    shared = np.flatnonzero(m.edges.counts == 2)[0]
    assert (m.edges.lo[shared], m.edges.hi[shared]) == (70_000, 70_001)


def test_vtk_matches_per_line_writer(tmp_path):
    from lcdroplet.vtkio import write_vtk

    def per_line(path, mesh, scalars, vectors, title):
        lines = ["# vtk DataFile Version 3.0", title, "ASCII",
                 "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_nodes} double"]
        lines += [f"{p[0]:.17g} {p[1]:.17g} 0" for p in mesh.nodes]
        ne = mesh.n_elements
        lines.append(f"CELLS {ne} {4 * ne}")
        lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in mesh.elements]
        lines.append(f"CELL_TYPES {ne}")
        lines += ["5"] * ne
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, values in scalars.items():
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines += [f"{v:.17g}" for v in values]
        for name, values in vectors.items():
            lines.append(f"VECTORS {name} double")
            lines += [f"{v[0]:.17g} {v[1]:.17g} 0" for v in values]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    m = build_structured_mesh(5, 3, ((-1.0, 0.0), (2.0, 1e-3)))
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(m.n_nodes) * 10.0 ** rng.integers(-300, 300, m.n_nodes)
    phi[:3] = [-0.0, 1.0, 1.0 / 3.0]
    theta = rng.uniform(0, 2 * np.pi, m.n_nodes)
    scalars = {"phase": phi, "orientation": np.linspace(-0.5, 1.0, m.n_nodes)}
    vectors = {"director": np.column_stack([np.cos(theta), np.sin(theta)])}
    write_vtk(tmp_path / "fast.vtk", m, scalars, vectors, title="t")
    per_line(tmp_path / "ref.vtk", m, scalars, vectors, "t")
    assert (tmp_path / "fast.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()
