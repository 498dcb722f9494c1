import math

import numpy as np
import pytest

import naive_assembly as naive
from lcdroplet import (
    TriMesh,
    assemble_stiffness,
    audit_weak_acuteness,
    build_operators,
    build_structured_mesh,
    count_components,
    mesh_size,
)
from lcdroplet import cli
from lcdroplet.mesh import MeshError
from vtk_reader import float_bits, read_vtk


def test_structured_mesh_counts():
    m = build_structured_mesh(2, 2)
    assert m.n_nodes == 9
    assert m.n_elements == 8
    assert len(m.boundary_nodes) == 8


@pytest.mark.parametrize("renumber", [False, True])
def test_boundary_is_the_rectangle_perimeter(renumber):
    (x0, y0), (x1, y1) = rect = ((-1.0, 0.0), (2.0, 0.5))
    m = build_structured_mesh(5, 3, rect)
    m = naive.shuffled(m) if renumber else m
    x, y = m.nodes.T
    perimeter = np.flatnonzero((x == x0) | (x == x1) | (y == y0) | (y == y1))
    assert perimeter.size == 16
    assert np.array_equal(m.boundary_nodes, perimeter)


def test_boundary_of_a_single_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(TriMesh(nodes, np.array([[0, 1, 2]])).boundary_nodes, [0, 1, 2])


def test_boundary_includes_the_rim_of_a_hole():
    m = build_structured_mesh(3, 3)
    # the middle cell (1, 1) has corner a = 1 * 4 + 1 and triangles 8 and 9
    holed = TriMesh(m.nodes, np.delete(m.elements, [8, 9], axis=0))
    corners = [5, 6, 9, 10]
    assert set(corners).isdisjoint(m.boundary_nodes)
    assert np.array_equal(holed.boundary_nodes, np.union1d(m.boundary_nodes, corners))


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
        TriMesh(nodes, np.array([[0, 2, 1]]))


def test_degenerate_element_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError, match="element 0 is degenerate"):
        TriMesh(nodes, np.array([[0, 1, 2]]))


def test_non_finite_node_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(MeshError, match="^node 2 has a non-finite coordinate$"):
        TriMesh(nodes, np.array([[0, 1, 2]]))
    # an infinite rectangle spaces its x coordinates as (0 * inf, inf, inf);
    # numpy's warning about 0 * inf is not the error under test
    with np.errstate(invalid="ignore"), \
            pytest.raises(MeshError, match="^node 0 has a non-finite coordinate$"):
        build_structured_mesh(2, 2, ((0.0, 0.0), (np.inf, 1.0)))


def test_unit_triangle_areas_and_gradients():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(nodes, np.array([[0, 1, 2]]))
    assert np.array_equal(mesh.areas, [0.5])
    assert np.array_equal(mesh.grads, [[[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]])


def test_repeated_vertex_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        TriMesh(nodes, np.array([[0, 1, 1]]))


@pytest.mark.parametrize(
    "corruption,message",
    [
        ("repeated", "element 17 has repeated vertices"),
        ("swapped", "element 17 is degenerate or negatively oriented"),
        ("out of range", "element vertex index out of range"),
    ],
)
def test_validation_names_the_corrupt_element(corruption, message):
    # element 17 of 40: a report of the first or the last element fails
    m = build_structured_mesh(5, 4)
    e = m.elements.copy()
    if corruption == "repeated":
        e[17, 2] = e[17, 0]
    elif corruption == "swapped":
        e[17, [1, 2]] = e[17, [2, 1]]
    else:
        e[17, 1] = m.n_nodes
    with pytest.raises(MeshError) as err:
        TriMesh(m.nodes, e)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "nodes,elements,message",
    [
        (np.zeros((3, 3)), [[0, 1, 2]], "nodes must have shape (n, 2)"),
        (np.zeros(6), [[0, 1, 2]], "nodes must have shape (n, 2)"),
        (np.eye(3, 2), [[0, 1, 2, 0]], "elements must have shape (n, 3)"),
        (np.eye(3, 2), [0, 1, 2], "elements must have shape (n, 3)"),
        (np.eye(3, 2), np.zeros((0, 3)), "mesh has no elements"),
    ],
    ids=["nodes 3 columns", "nodes flat", "elements 4 columns", "elements flat",
         "no elements"],
)
def test_misshapen_or_empty_mesh_rejected(nodes, elements, message):
    with pytest.raises(MeshError) as err:
        TriMesh(nodes, np.asarray(elements))
    assert str(err.value) == message


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


def test_mesh_build_and_audit_build_no_sum_operator():
    """One iteration of verify's acuteness sweep leaves the lazy sum
    operators and the boundary uncomputed; the operators' assembly builds
    those it uses."""
    m = build_structured_mesh(6, 5)
    audit_weak_acuteness(m)
    lazy = {"vertex_to_node", "edge_to_node", "pattern", "boundary_nodes"}
    assert not lazy & set(vars(m))
    build_operators(m)
    assert {"vertex_to_node", "pattern", "boundary_nodes"} <= set(vars(m))
    assert "block_to_slot" in vars(m.pattern)


def test_mesh_audit_output(capsys):
    assert cli.main(["mesh-audit", "--nx", "5", "--ny", "3"]) == 0
    assert capsys.readouterr().out == (
        "mesh 5x3: nodes=24 elements=30 h=0.38873\n"
        "weakly acute: True (min offdiagonal coupling 0.000e+00)\n"
    )


def test_structured_mesh_weakly_acute():
    m = build_structured_mesh(2, 2)
    report = audit_weak_acuteness(m)
    assert report.is_weakly_acute
    # diagonal-neighbor pairs couple through two right angles: exact zero
    assert report.min_offdiag_kij == 0.0
    assert report.violating_pairs == []


def test_single_cell_weakly_acute():
    m = build_structured_mesh(1, 1)
    report = audit_weak_acuteness(m)
    assert report.is_weakly_acute
    assert report.min_offdiag_kij >= 0.0


def obtuse_fixture():
    """Unit-square mesh plus the obtuse triangle (0,0), (1,0), (-2,1)."""
    base = build_structured_mesh(1, 1)
    nodes = np.vstack([base.nodes, [[-2.0, 1.0]]])
    # node 0 is (0,0) and node 2 is (1,0); obtuse corner at node 0
    elements = np.vstack([base.elements, [[0, 2, 4]]])
    return TriMesh(nodes, elements)


def test_obtuse_triangle_flagged():
    m = obtuse_fixture()
    report = audit_weak_acuteness(m)
    assert not report.is_weakly_acute
    assert report.min_offdiag_kij < 0
    # hand assembly of that element: the pair opposite the obtuse corner
    # carries coupling k = -1
    assert report.violating_pairs == [(2, 4, -1.0)]
    assert report.min_offdiag_kij == -1.0


def test_nonconforming_mesh_rejected():
    # three triangles sharing one edge
    nodes = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [2.0, 1.0]]
    )
    elements = np.array([[0, 1, 2], [0, 3, 1], [0, 1, 4]])
    with pytest.raises(MeshError):
        TriMesh(nodes, elements)


def test_mesh_vtk_reads_back(tmp_path):
    from lcdroplet.vtkio import write_vtk

    m = build_structured_mesh(2, 3)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, m, title="bare mesh")
    frame = read_vtk(path)
    assert frame.title == "bare mesh"
    assert frame.counts == {"POINTS": m.n_nodes, "CELLS": (m.n_elements, 4 * m.n_elements),
                            "CELL_TYPES": m.n_elements}
    assert float_bits(frame.points[:, :2]) == float_bits(m.nodes)
    assert float_bits(frame.points[:, 2]) == float_bits(np.zeros(m.n_nodes))
    assert np.array_equal(frame.cells, np.column_stack([np.full(m.n_elements, 3), m.elements]))
    assert np.array_equal(frame.cell_types, np.full(m.n_elements, 5))
    assert frame.scalars == {} and frame.vectors == {}


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
        TriMesh(nodes, elements)
    # two of them form a conforming mesh with one interior edge
    m = TriMesh(nodes, elements[:2])
    assert len(m.edges.lo) == 5
    assert m.edges.counts.max() == 2
    shared = np.flatnonzero(m.edges.counts == 2)[0]
    assert (m.edges.lo[shared], m.edges.hi[shared]) == (70_000, 70_001)


def _vtk_fields(m):
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(m.n_nodes) * 10.0 ** rng.integers(-300, 300, m.n_nodes)
    phi[:3] = [-0.0, 1.0, 1.0 / 3.0]
    theta = rng.uniform(0, 2 * np.pi, m.n_nodes)
    scalars = {"phase": phi, "orientation": np.linspace(-0.5, 1.0, m.n_nodes)}
    vectors = {"director": np.column_stack([np.cos(theta), np.sin(theta)])}
    return scalars, vectors


def test_vtk_fields_read_back_bit_for_bit(tmp_path):
    from lcdroplet.vtkio import write_vtk

    m = build_structured_mesh(5, 3, ((-1.0, 0.0), (2.0, 1e-3)))
    scalars, vectors = _vtk_fields(m)
    write_vtk(tmp_path / "f.vtk", m, scalars, vectors, title="t = 1/3")
    frame = read_vtk(tmp_path / "f.vtk")
    assert frame.title == "t = 1/3"
    assert frame.counts == {"POINTS": m.n_nodes, "CELLS": (m.n_elements, 4 * m.n_elements),
                            "CELL_TYPES": m.n_elements, "POINT_DATA": m.n_nodes}
    assert float_bits(frame.points[:, :2]) == float_bits(m.nodes)
    assert np.array_equal(frame.cells[:, 1:], m.elements)
    assert list(frame.scalars) == ["phase", "orientation"]
    for name, values in scalars.items():
        assert float_bits(frame.scalars[name]) == float_bits(values), name
    assert list(frame.vectors) == ["director"]
    assert float_bits(frame.vectors["director"][:, :2]) == float_bits(vectors["director"])
    assert float_bits(frame.vectors["director"][:, 2]) == float_bits(np.zeros(m.n_nodes))


@pytest.mark.parametrize("case, message", [
    ("short scalar", r"'phase' has shape \(11,\), but the mesh has 12 nodes, so it must be \(12,\)"),
    ("long scalar", r"'phase' has shape \(13,\), but the mesh has 12 nodes"),
    ("vector rows", r"'director' has shape \(11, 2\), but the mesh has 12 nodes, "
                    r"so it must be \(12, 2\)"),
    ("vector columns", r"'director' has shape \(12, 3\)"),
    ("title", r"title 'a\\nb' is not one line"),
])
def test_vtk_rejects_misshapen_field_or_title(tmp_path, case, message):
    from lcdroplet.vtkio import write_vtk

    m = build_structured_mesh(3, 2)
    scalars, vectors = _vtk_fields(m)
    title = "t"
    if case == "short scalar":
        scalars["phase"] = scalars["phase"][:-1]
    elif case == "long scalar":
        scalars["phase"] = np.append(scalars["phase"], 0.0)
    elif case == "vector rows":
        vectors["director"] = vectors["director"][:-1]
    elif case == "vector columns":
        vectors["director"] = np.column_stack([vectors["director"], np.zeros(m.n_nodes)])
    else:
        title = "a\nb"
    with pytest.raises(ValueError, match=message):
        write_vtk(tmp_path / "f.vtk", m, scalars, vectors, title=title)
    assert not (tmp_path / "f.vtk").exists()
