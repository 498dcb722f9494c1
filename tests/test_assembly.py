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
)
from lcdroplet.assembly import (
    build_operators,
    integrate,
    quad_values,
    squared_field_mass,
    tensor_stiffness,
    weighted_mass,
)
from lcdroplet.verify import element_geometry


def unit_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return TriMesh(nodes, np.array([[0, 1, 2]]))


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
    qint = integrate(m, quad_values(m, np.eye(3)[0]) ** 2)
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
    ML = build_operators(m).mass_rows
    assert ML.sum() == pytest.approx(1.0, rel=1e-13)
    # the row sums are the vertex-rule weights: sum of |T|/3 at each node
    vertex = np.zeros(m.n_nodes)
    np.add.at(vertex, m.elements.ravel(), np.repeat(m.areas / 3.0, 3))
    assert np.allclose(ML, vertex, atol=1e-15)


def test_lumped_mass_interior_diagonal():
    nx = 4
    m = build_structured_mesh(nx, nx)
    ML = build_operators(m).mass_rows
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


def test_element_gradients_rejects_values_of_another_mesh():
    m = build_structured_mesh(3, 3)
    with pytest.raises(ValueError) as err:
        element_gradients(m, np.zeros(m.n_nodes + 1))
    assert str(err.value) == "expected 16 nodal values, got (17,)"


def test_stiffness_edge_identity_random(rng):
    m = build_structured_mesh(4, 4)
    ops = build_operators(m)
    lo, hi = m.edges.lo, m.edges.hi
    for _ in range(20):
        s = rng.standard_normal(m.n_nodes)
        lhs = float(np.sum(ops.mesh.edge_k * (s[lo] - s[hi]) ** 2))
        assert lhs == pytest.approx(float(s @ (ops.stiffness @ s)), rel=1e-12)


def test_constrained_solve_symmetric_elimination():
    from lcdroplet.solver import SchemeConfig, _constrained_solve

    m = build_structured_mesh(3, 3)
    K = assemble_stiffness(m)
    b = np.zeros(m.n_nodes)
    fixed = m.boundary_nodes
    vals = m.nodes[fixed, 0]  # boundary data of the harmonic function x
    x, _, _ = _constrained_solve(m, K, b, vals, SchemeConfig(linear_solver="direct"), "s")
    assert np.allclose(x, m.nodes[:, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# fixed pattern: every operator against a naive COO assembly
# ---------------------------------------------------------------------------

@pytest.fixture(params=["structured", "shuffled"])
def pattern_mesh(request):
    m = build_structured_mesh(5, 4, ((0.0, 0.0), (1.0, 0.8)))
    return m if request.param == "structured" else naive.shuffled(m)


def perturbed_mesh():
    """A 6x5 mesh with its interior nodes moved at random by up to 0.15 of a
    cell side per axis, which keeps every triangle positively oriented."""
    m = build_structured_mesh(6, 5)
    inner = np.setdiff1d(np.arange(m.n_nodes), m.boundary_nodes)
    nodes = m.nodes.copy()
    nodes[inner] += np.random.default_rng(4).uniform(-0.15, 0.15, (inner.size, 2)) / [6, 5]
    return TriMesh(nodes, m.elements)


@pytest.mark.parametrize("kind", ["structured", "shuffled", "perturbed"])
def test_sum_operators_add_as_the_bincounts_they_replace(kind, rng):
    """Each 0/1 sum operator gives the np.bincount it replaces bit for bit,
    for one vector and for columns, on the index arrays the code had."""
    m = build_structured_mesh(5, 4, ((0.0, 0.0), (1.0, 0.8)))
    m = {"structured": m, "shuffled": naive.shuffled(m), "perturbed": perturbed_mesh()}[kind]
    e, n, ne, p = m.elements, m.n_nodes, m.n_elements, m.pattern
    # the slot of each block entry (e[:, a], e[:, b]), read off the pattern
    slot_of = p.csr(np.arange(p.nnz, dtype=float))
    slots = np.asarray(slot_of[np.repeat(e, 3, axis=1).ravel(), np.tile(e, 3).ravel()]).astype(int)
    blocks = rng.standard_normal((9, ne))  # component-major: row 3a + b for entry (a, b)
    assert np.array_equal(p.block_to_slot @ blocks.ravel(),
                          np.bincount(slots.reshape(ne, 9).T.ravel(), blocks.ravel(),
                                      minlength=p.nnz))
    vertex, per_element = rng.standard_normal((ne, 3)), rng.standard_normal((ne, 4))
    assert np.array_equal(m.vertex_to_node @ vertex.ravel(),
                          np.bincount(e.ravel(), vertex.ravel(), minlength=n))
    by_element = m.vertex_to_node @ np.repeat(per_element, 3, axis=0)  # coupling_tensors
    for c in range(4):
        ref = np.bincount(e.ravel(), np.repeat(per_element[:, c], 3), minlength=n)
        assert np.array_equal(by_element[:, c], ref)
    edge = rng.standard_normal((m.edges.lo.size, 2))
    both = np.concatenate([m.edges.lo, m.edges.hi])
    assert np.array_equal(m.edge_to_node @ np.tile(edge[:, 0], 2),
                          np.bincount(both, np.tile(edge[:, 0], 2), minlength=n))
    signed = m.edge_to_node @ np.concatenate([edge, -edge])  # residual_director
    for c in range(2):
        w = edge[:, c]
        ref = np.bincount(both, np.concatenate([w, -w]), minlength=n)
        assert np.array_equal(signed[:, c], ref)


def assert_geometry_matches_nodes(m):
    areas, grads = element_geometry(m)
    assert m.grads.shape == (m.n_elements, 3, 2)
    assert np.abs(m.areas - areas).max() <= 1e-14 * np.abs(areas).max()
    assert np.abs(m.grads - grads).max() <= 1e-14 * np.abs(grads).max()


def test_geometry_matches_node_oracle(pattern_mesh):
    assert_geometry_matches_nodes(pattern_mesh)


def test_geometry_matches_node_oracle_perturbed():
    m = perturbed_mesh()
    assert len(np.unique(m.areas)) == m.n_elements  # no two elements alike
    assert_geometry_matches_nodes(m)


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
    w = rng.uniform(0.5, 2.0, m.n_elements)
    H = rng.standard_normal((m.n_elements, 2, 2))
    H = H + H.transpose(0, 2, 1)
    v = rng.standard_normal(m.n_nodes)
    pairs = [
        (assemble_stiffness(m), naive.stiffness(m)),
        (assemble_mass(m), naive.mass(m)),
        (tensor_stiffness(m, 1.0, 0.0, 1.0), naive.stiffness(m)),
        (tensor_stiffness(m, w, 0.0, w), naive.stiffness(m, w)),
        (weighted_mass(m, w), naive.mass(m, w)),
        (tensor_stiffness(m, H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]),
         naive.tensor_stiffness(m, H)),
        (squared_field_mass(m, v), naive.squared_field_mass(m, v)),
    ]
    for A, R in pairs:
        assert np.array_equal(A.indptr, R.indptr) and np.array_equal(A.indices, R.indices)
        assert naive.relative_error(A, R) <= 1e-13


@pytest.mark.parametrize("kind", ["structured", "shuffled", "perturbed"])
def test_basis_and_vertex_product_kernels_match_coo_assembly(kind, rng):
    """tensor_stiffness, on component-major element blocks, and
    squared_field_mass, six vertex products times a constant matrix, equal
    the naive einsum assembly, also on a mesh without right angles."""
    m = build_structured_mesh(5, 4, ((0.0, 0.0), (1.0, 0.8)))
    m = {"structured": m, "shuffled": naive.shuffled(m), "perturbed": perturbed_mesh()}[kind]
    H = rng.standard_normal((m.n_elements, 2, 2))
    H = H + H.transpose(0, 2, 1)
    w, v = rng.uniform(0.5, 2.0, m.n_elements), rng.standard_normal(m.n_nodes)
    for A, R in ((tensor_stiffness(m, H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]),
                  naive.tensor_stiffness(m, H)),
                 (tensor_stiffness(m, w, 0.0, w), naive.stiffness(m, w)),
                 (squared_field_mass(m, v), naive.squared_field_mass(m, v)),
                 (squared_field_mass(m, np.ones(m.n_nodes)), naive.mass(m))):
        assert naive.relative_error(A, R) <= 1e-13


def test_squared_field_mass_exact_on_one_element():
    """With v_h the first hat function, the entries are the integrals of
    bary_0^2 bary_a bary_b, 2|T| alpha! / (|alpha| + 2)! for the exponents
    alpha, over the unit triangle (|T| = 1/2)."""
    M = squared_field_mass(unit_triangle(), np.eye(3)[0]).toarray()
    exact = np.array([[24, 6, 6], [6, 4, 2], [6, 2, 4]]) / 720.0
    assert np.abs(M - exact).max() <= 1e-14 * exact.max()


def test_operators_edges_match_stiffness(pattern_mesh):
    for m in (pattern_mesh, perturbed_mesh()):
        K = assemble_stiffness(m)
        ei, ej, k = naive.edges(m)
        assert np.array_equal(m.edges.lo, ei) and np.array_equal(m.edges.hi, ej)
        assert np.abs(m.edge_k - k).max() <= 1e-13 * np.abs(k).max()
        # the stiffness takes its couplings from the mesh, bit for bit
        assert np.array_equal(-K.data[m.pattern.upper], m.edge_k)
        assert np.array_equal(K.data[m.pattern.lower], K.data[m.pattern.upper])


def test_interior_pattern_map_matches_slicing(pattern_mesh, rng):
    """The pattern's interior map gives the free block of a matrix on the
    pattern bit for bit as slicing does, and the constrained solve lifts
    the right-hand side by the boundary values and solves that block."""
    from lcdroplet.solver import SchemeConfig, _constrained_solve

    m = pattern_mesh
    K = assemble_stiffness(m)
    b = rng.standard_normal(m.n_nodes)
    vals = rng.standard_normal(len(m.boundary_nodes))
    free, keep, indptr, indices = m.pattern.interior
    assert np.array_equal(np.flatnonzero(~free), m.boundary_nodes)
    ref = K[free][:, free]
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert np.array_equal(K.data[keep], ref.data)
    g = np.zeros(m.n_nodes)
    g[m.boundary_nodes] = vals
    x, r, _ = _constrained_solve(m, K, b, vals, SchemeConfig(linear_solver="direct"), "s")
    assert np.array_equal(x[m.boundary_nodes], vals) and not r[m.boundary_nodes].any()
    # the residual is b_f - A_ff x_f, so it gives back the lifted right-hand side
    assert np.allclose(r[free] + ref @ x[free], (b - K @ g)[free], rtol=0, atol=1e-13)
    x_ref = spla.spsolve(ref.tocsc(), (b - K @ g)[free])
    assert np.abs(x[free] - x_ref).max() <= 1e-12 * np.abs(x_ref).max()


def test_mmd_ordered_spd_solve_matches_spsolve(pattern_mesh, rng):
    from lcdroplet.solver import SchemeConfig, _solve_spd

    m = pattern_mesh
    A = assemble_stiffness(m) + 3.0 * assemble_mass(m)
    b = rng.standard_normal(m.n_nodes)
    ref = spla.spsolve(A.tocsc(), b)
    x, _, _ = _solve_spd(A, b, SchemeConfig(linear_solver="direct"), "s")
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
