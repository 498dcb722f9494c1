"""P1 finite-element operator assembly.

Every operator is built from the element geometry the mesh owns
(``TriMesh.areas`` and ``TriMesh.grads``, computed once by its
validation).  The stiffness takes its off-diagonal entries from the
mesh's edge couplings (``TriMesh.edge_k``).  All other element matrices
are closed-form (the weighted mass, and ``tensor_stiffness``, the one
kernel for gradient terms with a piecewise-constant symmetric tensor
weight) or use the degree-4 triangle rule (quartic integrands such as
the double wells), written as products with constant matrices.  Sparse
operators are plain ``scipy.sparse.csr_matrix`` objects on the mesh's
fixed pattern (``TriMesh.pattern``, built once per mesh): 0/1 sum operators
add the element blocks into its data slots and vertex values into the
nodes, bit for bit as ``np.bincount`` (``mesh._sum_operator``).  Explicit
stored zeros are kept, so the sparsity pattern always equals the mesh
adjacency pattern, and operators on one mesh share their index arrays: a
linear combination of them is one of their ``data`` arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature as quad
from .mesh import TriMesh

SparseOperator = sp.csr_matrix

# reference P1 element mass matrix, scaled by |T| on use
_MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _scatter(mesh: TriMesh, ke: np.ndarray) -> SparseOperator:
    """Sum per-element 3x3 blocks, shape (9, ne) with row 3a + b for entry
    (a, b), into a CSR matrix on the mesh pattern."""
    p = mesh.pattern
    return p.csr(p.block_to_slot @ ke.ravel())


def assemble_stiffness(mesh: TriMesh) -> SparseOperator:
    """Matrix of the gradient inner product, entry (i,j) = integral of
    grad(eta_i) . grad(eta_j): -k_ij (``mesh.edge_k``) off the diagonal.
    Symmetric PSD with constants in the kernel."""
    g, area, p = mesh.grads.transpose(1, 2, 0), mesh.areas, mesh.pattern  # g[a, i]: rows
    data = np.empty(p.nnz)
    data[p.diag] = mesh.vertex_to_node @ ((g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]) * area).T.ravel()
    data[p.upper] = data[p.lower] = -mesh.edge_k
    return p.csr(data)


def assemble_mass(mesh: TriMesh) -> SparseOperator:
    """Consistent mass matrix, entry (i,j) = integral of eta_i eta_j."""
    return weighted_mass(mesh, 1.0)


def element_gradients(mesh: TriMesh, values: np.ndarray) -> np.ndarray:
    """Constant gradient of the affine interpolant on each element.

    ``values`` holds nodal values; returns an (ne, 2) array.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (mesh.n_nodes,):
        raise ValueError(f"expected {mesh.n_nodes} nodal values, got {vals.shape}")
    vE, g = vals[mesh.elements], mesh.grads
    return vE[:, 0, None] * g[:, 0] + vE[:, 1, None] * g[:, 1] + vE[:, 2, None] * g[:, 2]


def weighted_mass(mesh: TriMesh, elem_weights) -> SparseOperator:
    """Mass matrix with a piecewise-constant weight: integral of
    w_T eta_i eta_j."""
    return _scatter(mesh, _MASS_REF.reshape(9, 1) * (mesh.areas * elem_weights))


def tensor_stiffness(mesh: TriMesh, hxx, hxy, hyy) -> SparseOperator:
    """Stiffness matrix with a piecewise-constant symmetric tensor weight
    H_T = [[hxx, hxy], [hxy, hyy]], each component a scalar or an (ne,)
    array: entry (i,j) = sum_T |T| grad(eta_i) . H_T grad(eta_j)."""
    gx, gy = mesh.grads.transpose(2, 1, 0)  # (3, ne) each
    a = mesh.areas
    # |T| H_T grad(eta_b) per vertex b, then its product with grad(eta_a)
    hx = (a * hxx) * gx + (a * hxy) * gy
    hy = (a * hxy) * gx + (a * hyy) * gy
    return _scatter(mesh, (gx[:, None] * hx + gy[:, None] * hy).reshape(9, -1))


# degree-4 rule as constant matrices: _QUAD_LOAD[q, a] = w_q bary[q, a], and
# _SQUARE_MASS[k, 3a + b] = m_k sum_q w_q bary[q, c] bary[q, d] bary[q, a] bary[q, b]
# for the k-th vertex product v_c v_d of _SQUARES, m_k = 2 when c != d (exact)
_QUAD_LOAD = quad.TRI4_WEIGHTS[:, None] * quad.TRI4_BARY
_SQUARES = ((0, 1, 2, 0, 1, 2), (0, 1, 2, 1, 2, 0))
_SQUARE_MASS = ((quad.TRI4_BARY[:, _SQUARES[0]] * quad.TRI4_BARY[:, _SQUARES[1]]
                 * [1, 1, 1, 2, 2, 2]).T
                @ (_QUAD_LOAD[:, :, None] * quad.TRI4_BARY[:, None, :]).reshape(6, 9))


def squared_field_mass(mesh: TriMesh, values: np.ndarray) -> SparseOperator:
    """Matrix with entries integral of (v_h)^2 eta_i eta_j for P1 ``v_h``
    (exact): the six products of its vertex values times ``_SQUARE_MASS``."""
    q = np.take(values, mesh.verts)  # (3, ne)
    products = np.take(q, _SQUARES[0], axis=0) * np.take(q, _SQUARES[1], axis=0) * mesh.areas
    return _scatter(mesh, _SQUARE_MASS.T @ products)


def quad_values(mesh: TriMesh, values) -> np.ndarray:
    """The P1 field of nodal ``values`` at the degree-4 quadrature points, (6, ne)."""
    return quad.TRI4_BARY @ np.take(values, mesh.verts)


def nodal_load(mesh: TriMesh, values_at_quad: np.ndarray) -> np.ndarray:
    """Load vector L_i = integral of g eta_i with ``g`` given at the
    degree-4 quadrature points, shape (6, ne)."""
    return mesh.vertex_to_node @ ((values_at_quad * mesh.areas).T @ _QUAD_LOAD).ravel()


def integrate(mesh: TriMesh, values_at_quad: np.ndarray) -> float:
    """Integral of g given at the degree-4 quadrature points, shape (6, ne)."""
    return float(quad.TRI4_WEIGHTS @ values_at_quad @ mesh.areas)


@dataclass(frozen=True)
class Operators:
    """The operators assembled once per mesh and reused across time steps,
    on the mesh pattern (``mesh.pattern``); a plain record.  The stiffness
    couplings -K_ij of the mesh edges are ``mesh.edge_k``, from which the
    gradient energies are edge sums (``energy.grad_square``).
    ``mass_rows`` holds the row sums of ``mass`` (the integrals of the hat
    functions), computed as ``mass @ ones``; they are also the vertex-rule
    (lumped) mass weights, the sum of |T|/3 over the elements touching
    each node."""

    mesh: TriMesh
    stiffness: SparseOperator
    mass: SparseOperator
    mass_rows: np.ndarray


def build_operators(mesh: TriMesh) -> Operators:
    M = assemble_mass(mesh)
    return Operators(mesh, assemble_stiffness(mesh), M, M @ np.ones(mesh.n_nodes))

