import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import naive_assembly as naive
from lcdroplet import (
    TriMesh,
    assemble_mass,
    assemble_stiffness,
    build_structured_mesh,
    element_gradients,
    interpolate,
)
from lcdroplet.assembly import (
    apply_dirichlet,
    build_operators,
    integrate_p1_function,
    element_geometry,
    squared_field_mass,
    tensor_stiffness,
    weighted_mass,
    weighted_stiffness,
)
from lcdroplet.mesh import MeshError


def unit_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return TriMesh(nodes, np.array([[0, 1, 2]]), np.array([0, 1, 2]))


def test_stiffness_constant_in_kernel():
    m = build_structured_mesh(3, 4)
    K = assemble_stiffness(m)
    c = 2.7 * np.ones(m.n_nodes)
    assert abs(c @ (K @ c)) <= 1e-12


def test_stiffness_linear_field_energy():
    m = build_structured_mesh(1, 1)
    K = assemble_stiffness(m)
    s = m.nodes[:, 0].copy()  # s = x has unit gradient energy on [0,1]^2
    assert s @ (K @ s) == pytest.approx(1.0, abs=1e-14)


def test_stiffness_interior_diagonal():
    m = build_structured_mesh(2, 2)
    K = assemble_stiffness(m).toarray()
    interior = [i for i in range(m.n_nodes) if i not in set(m.boundary_nodes)]
    assert len(interior) == 1
    assert K[interior[0], interior[0]] == pytest.approx(4.0, abs=1e-14)


def test_mass_total_is_area():
    m = build_structured_mesh(5, 3, ((0.0, 0.0), (2.0, 1.0)))
    assert assemble_mass(m).sum() == pytest.approx(2.0, rel=1e-14)


def test_element_mass_closed_form():
    m = unit_triangle()
    M = assemble_mass(m).toarray()
    ref = (0.5 / 12.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(M, ref, atol=1e-15)
    # cross-check one entry against quadrature of eta_0^2
    geom = element_geometry(m)
    qint = integrate_p1_function(m, geom, lambda v: v * v, np.eye(3)[0])
    assert qint == pytest.approx(ref[0, 0], rel=1e-14)


def test_mass_pairing_linear():
    m = build_structured_mesh(3, 3)
    M = assemble_mass(m)
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(m.n_nodes)
    rows = M @ np.ones(m.n_nodes)
    assert np.ones(m.n_nodes) @ (M @ phi) == pytest.approx(rows @ phi, rel=1e-13)


def test_lumped_mass_trace_and_constants():
    m = build_structured_mesh(6, 6)
    M = assemble_mass(m)
    ML = build_operators(m).lumped_diag
    assert ML.sum() == pytest.approx(1.0, rel=1e-13)
    ones = np.ones(m.n_nodes)
    assert np.allclose(ML, M @ ones, atol=1e-15)


def test_lumped_mass_interior_diagonal():
    nx = 4
    m = build_structured_mesh(nx, nx)
    ML = build_operators(m).lumped_diag
    h = 1.0 / nx
    interior = [i for i in range(m.n_nodes) if i not in set(m.boundary_nodes)]
    # six incident triangles of area h^2/2, vertex rule weight |T|/3
    assert ML[interior[0]] == pytest.approx(h * h, rel=1e-13)


def test_operators_symmetry():
    m = build_structured_mesh(5, 4)
    for A in (assemble_stiffness(m), assemble_mass(m)):
        diff = (A - A.T).toarray()
        assert np.abs(diff).max() <= 1e-14 * np.abs(A.toarray()).max()


@pytest.mark.parametrize(
    "fn,expected",
    [
        (lambda x, y: x, (1.0, 0.0)),
        (lambda x, y: np.full_like(x, 3.3), (0.0, 0.0)),
        (lambda x, y: x + 2 * y, (1.0, 2.0)),
    ],
)
def test_element_gradients_affine(fn, expected):
    m = build_structured_mesh(3, 3)
    vals = fn(m.nodes[:, 0], m.nodes[:, 1])
    g = element_gradients(m, np.asarray(vals, dtype=float))
    assert np.allclose(g, np.tile(expected, (m.n_elements, 1)), atol=1e-13)


def test_interpolate_tanh_profile():
    m = build_structured_mesh(4, 4)
    eps = 3.0 / 64.0
    f = lambda x, y: -np.tanh(
        (((x - 0.25) ** 2) / 0.02 + ((y - 0.25) ** 2) / 0.02 - 1.0) / (2 * eps)
    )
    field = interpolate(m, f)
    node = int(np.argmin(np.linalg.norm(m.nodes - [0.25, 0.25], axis=1)))
    assert m.nodes[node] == pytest.approx([0.25, 0.25])
    assert field.values[node] == pytest.approx(math.tanh(1.0 / (2 * eps)), rel=1e-14)


def test_interpolate_constant_and_product_rule():
    m = build_structured_mesh(3, 3)
    s = interpolate(m, lambda x, y: np.full_like(x, 0.75))
    assert np.all(s.values == 0.75)
    nvec = interpolate(m, lambda x, y: (np.cos(x), np.sin(x)), vector=True)
    prod = s.values[:, None] * nvec.values
    assert np.allclose(prod[:, 0], 0.75 * np.cos(m.nodes[:, 0]))


def test_stiffness_edge_identity_random(rng):
    m = build_structured_mesh(4, 4)
    ops = build_operators(m)
    for _ in range(20):
        s = rng.standard_normal(m.n_nodes)
        lhs = float(np.sum(ops.edge_k * (s[ops.edge_i] - s[ops.edge_j]) ** 2))
        assert lhs == pytest.approx(ops.grad_form(s, s), rel=1e-12)


def test_degenerate_element_reported():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh.__new__(TriMesh)
    object.__setattr__(mesh, "dim", 2)
    object.__setattr__(mesh, "nodes", nodes)
    object.__setattr__(mesh, "elements", np.array([[0, 1, 2]]))
    object.__setattr__(mesh, "boundary_nodes", np.array([], dtype=np.int64))
    with pytest.raises(MeshError, match="element 0"):
        element_geometry(mesh)


def test_apply_dirichlet_symmetric_elimination():
    m = build_structured_mesh(3, 3)
    K = assemble_stiffness(m)
    b = np.zeros(m.n_nodes)
    fixed = m.boundary_nodes
    vals = m.nodes[fixed, 0]  # boundary data of the harmonic function x
    A_ff, b_f, free = apply_dirichlet(K.tolil().tocsr(), b, fixed, vals, m.pattern)
    import scipy.sparse.linalg as spla

    x = np.empty(m.n_nodes)
    x[fixed] = vals
    x[free] = spla.spsolve(A_ff, b_f)
    assert np.allclose(x, m.nodes[:, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# fixed pattern: every operator against a naive COO assembly
# ---------------------------------------------------------------------------

@pytest.fixture(params=["structured", "shuffled"])
def pattern_mesh(request):
    m = build_structured_mesh(5, 4, ((0.0, 0.0), (1.0, 0.8)))
    return m if request.param == "structured" else naive.shuffled(m)


def test_pattern_is_adjacency_plus_diagonal(pattern_mesh):
    m = pattern_mesh
    ref = (naive.adjacency(m) + sp.eye(m.n_nodes, format="csr")).tocsr()
    ref.sort_indices()
    p = m.pattern
    assert np.array_equal(p.indptr, ref.indptr)
    assert np.array_equal(p.indices, ref.indices)
    assert np.array_equal(p.indices[p.diag], np.arange(m.n_nodes))
    assert np.array_equal(p.indices[p.upper], m.edges.hi)
    assert np.array_equal(p.indices[p.lower], m.edges.lo)
    # every operator stores the full pattern, exact zeros included
    K = assemble_stiffness(m)
    assert K.nnz == p.nnz and np.array_equal(K.indices, p.indices)
    assert np.any(K.data[p.upper] == 0.0)


def test_fixed_pattern_operators_match_coo_assembly(pattern_mesh, rng):
    m = pattern_mesh
    geom = element_geometry(m)
    w = rng.uniform(0.5, 2.0, m.n_elements)
    H = rng.standard_normal((m.n_elements, 2, 2))
    v = rng.standard_normal(m.n_nodes)
    pairs = [
        (assemble_stiffness(m), naive.stiffness(m)),
        (assemble_mass(m), naive.mass(m)),
        (weighted_stiffness(m, geom, w), naive.stiffness(m, w)),
        (weighted_mass(m, geom, w), naive.mass(m, w)),
        (tensor_stiffness(m, geom, H), naive.tensor_stiffness(m, H)),
        (squared_field_mass(m, geom, v), naive.squared_field_mass(m, v)),
    ]
    for A, R in pairs:
        assert np.array_equal(A.indptr, R.indptr) and np.array_equal(A.indices, R.indices)
        assert naive.relative_error(A, R) <= 1e-13


def test_operators_edges_match_stiffness(pattern_mesh):
    ops = build_operators(pattern_mesh)
    ei, ej, k = naive.edges(pattern_mesh)
    assert np.array_equal(ops.edge_i, ei) and np.array_equal(ops.edge_j, ej)
    assert np.abs(ops.edge_k - k).max() <= 1e-13 * np.abs(k).max()


def test_apply_dirichlet_pattern_map_matches_slicing(pattern_mesh, rng):
    m = pattern_mesh
    K = assemble_stiffness(m)
    b = rng.standard_normal(m.n_nodes)
    vals = rng.standard_normal(len(m.boundary_nodes))
    A_ff, b_f, free = apply_dirichlet(K, b, m.boundary_nodes, vals, m.pattern)
    ref = K[free][:, free]
    assert np.array_equal(A_ff.indptr, ref.indptr) and np.array_equal(A_ff.indices, ref.indices)
    assert np.array_equal(A_ff.data, ref.data)
    g = np.zeros(m.n_nodes)
    g[m.boundary_nodes] = vals
    assert np.allclose(b_f, (b - K @ g)[free], rtol=0, atol=1e-13)


def test_mmd_ordered_spd_solve_matches_spsolve(pattern_mesh, rng):
    from lcdroplet.solver import SchemeConfig, _solve_spd

    m = pattern_mesh
    A = assemble_stiffness(m) + 3.0 * assemble_mass(m)
    b = rng.standard_normal(m.n_nodes)
    ref = spla.spsolve(A.tocsc(), b)
    x, _ = _solve_spd(A, b, SchemeConfig(linear_solver="direct"), "s")
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
