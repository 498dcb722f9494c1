"""P1 finite-element operator assembly.

All element matrices are closed-form (stiffness, mass) or use the
degree-4 triangle rule (quartic integrands such as the double wells),
written as products with constant matrices.  Sparse operators are plain
``scipy.sparse.csr_matrix`` objects on the mesh's fixed pattern
(``TriMesh.pattern``, built once per mesh): one ``np.bincount`` sums the
element blocks into its data slots.  Explicit stored zeros are kept, so
the sparsity pattern always equals the mesh adjacency pattern (the
weak-acuteness audit relies on this), and operators on one mesh share
their index arrays: a linear combination of them is one of their
``data`` arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature as quad
from .mesh import MeshError, SparsityPattern, TriMesh

SparseOperator = sp.csr_matrix

# reference P1 element mass matrix, scaled by |T| on use
_MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass(frozen=True)
class ElementGeometry:
    """Per-element geometric data for a 2D triangulation.

    ``grads[e, a]`` is the (constant) gradient of the hat function of
    local vertex ``a`` on element ``e``; ``areas[e]`` the element area.
    """

    areas: np.ndarray  # (ne,)
    grads: np.ndarray  # (ne, 3, 2)


def element_geometry(mesh: TriMesh) -> ElementGeometry:
    xy = mesh.nodes[mesh.elements]  # (ne, 3, 2)
    x, y = xy[..., 0], xy[..., 1]
    # b_a = y_{a+1} - y_{a+2}, c_a = x_{a+2} - x_{a+1} (cyclic)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    if np.any(det <= 0.0):
        bad = int(np.argmin(det))
        raise MeshError(f"degenerate element {bad} (area {det[bad] / 2.0:g})")
    areas = 0.5 * det
    grads = np.stack([b, c], axis=2) / det[:, None, None]
    return ElementGeometry(areas, grads)


def _scatter(mesh: TriMesh, ke: np.ndarray) -> SparseOperator:
    """Sum per-element 3x3 blocks, shape (ne, 3, 3) or (ne, 9) row-major,
    into a CSR matrix on the mesh pattern."""
    p = mesh.pattern
    return p.csr(np.bincount(p.slots.ravel(), ke.ravel(), minlength=p.nnz))


def vertex_sum(mesh: TriMesh, contrib: np.ndarray) -> np.ndarray:
    """Nodal sums of per-element vertex values, shape (ne, 3)."""
    return np.bincount(mesh.elements.ravel(), contrib.ravel(), minlength=mesh.n_nodes)


def _grad_products(geom: ElementGeometry, elem_weights) -> np.ndarray:
    """Element blocks w_T |T| grad(eta_a) . grad(eta_b), shape (ne, 3, 3)."""
    gx, gy = geom.grads[:, :, 0], geom.grads[:, :, 1]
    w = (geom.areas * elem_weights)[:, None, None]
    return (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]) * w


def assemble_stiffness(mesh: TriMesh, geom: ElementGeometry | None = None) -> SparseOperator:
    """Matrix of the gradient inner product, entry (i,j) = integral of
    grad(eta_i) . grad(eta_j).  Symmetric PSD with constants in the kernel."""
    geom = geom or element_geometry(mesh)
    return _scatter(mesh, _grad_products(geom, 1.0))


def assemble_mass(mesh: TriMesh, geom: ElementGeometry | None = None) -> SparseOperator:
    """Consistent mass matrix, entry (i,j) = integral of eta_i eta_j."""
    geom = geom or element_geometry(mesh)
    return weighted_mass(mesh, geom, 1.0)


def element_gradients(mesh: TriMesh, values: np.ndarray, geom: ElementGeometry | None = None) -> np.ndarray:
    """Constant gradient of the affine interpolant on each element.

    ``values`` holds nodal values; returns an (ne, 2) array.
    """
    geom = geom or element_geometry(mesh)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (mesh.n_nodes,):
        raise ValueError(f"expected {mesh.n_nodes} nodal values, got {vals.shape}")
    vE, g = vals[mesh.elements], geom.grads
    return vE[:, 0, None] * g[:, 0] + vE[:, 1, None] * g[:, 1] + vE[:, 2, None] * g[:, 2]


def weighted_mass(mesh: TriMesh, geom: ElementGeometry, elem_weights) -> SparseOperator:
    """Mass matrix with a piecewise-constant weight: integral of
    w_T eta_i eta_j."""
    return _scatter(mesh, (geom.areas * elem_weights)[:, None] * _MASS_REF.ravel())


def weighted_stiffness(mesh: TriMesh, geom: ElementGeometry, elem_weights: np.ndarray) -> SparseOperator:
    """Stiffness matrix with a piecewise-constant scalar weight."""
    return _scatter(mesh, _grad_products(geom, elem_weights))


def tensor_stiffness(mesh: TriMesh, geom: ElementGeometry, tensors: np.ndarray) -> SparseOperator:
    """Stiffness matrix with a piecewise-constant 2x2 tensor weight:
    entry (i,j) = sum_T |T| grad(eta_i) . H_T grad(eta_j)."""
    g = geom.grads
    H = tensors * geom.areas[:, None, None]
    # (H grad eta_b) per element and vertex, then its product with grad eta_a
    hx = H[:, None, 0, 0] * g[:, :, 0] + H[:, None, 0, 1] * g[:, :, 1]
    hy = H[:, None, 1, 0] * g[:, :, 0] + H[:, None, 1, 1] * g[:, :, 1]
    ke = g[:, :, None, 0] * hx[:, None, :] + g[:, :, None, 1] * hy[:, None, :]
    return _scatter(mesh, ke)


# degree-4 rule as constant matrices: _QUAD_LOAD[q, a] = w_q bary[q, a]
# and _QUAD_MASS[q, 3a + b] = w_q bary[q, a] bary[q, b]
_QUAD_LOAD = quad.TRI4_WEIGHTS[:, None] * quad.TRI4_BARY
_QUAD_MASS = (_QUAD_LOAD[:, :, None] * quad.TRI4_BARY[:, None, :]).reshape(6, 9)


def squared_field_mass(mesh: TriMesh, geom: ElementGeometry, values: np.ndarray) -> SparseOperator:
    """Matrix with entries integral of (v_h)^2 eta_i eta_j for P1 ``v_h``
    (degree-4 rule, exact)."""
    vq = quad.at_quad_points(values[mesh.elements])  # (ne, 6)
    return _scatter(mesh, (vq * vq * geom.areas[:, None]) @ _QUAD_MASS)


def nodal_load(mesh: TriMesh, geom: ElementGeometry, values_at_quad: np.ndarray) -> np.ndarray:
    """Load vector L_i = integral of g eta_i with ``g`` given at the
    degree-4 quadrature points, shape (ne, 6)."""
    return vertex_sum(mesh, (values_at_quad * geom.areas[:, None]) @ _QUAD_LOAD)


def integrate_p1_function(mesh: TriMesh, geom: ElementGeometry, f, values: np.ndarray) -> float:
    """Integral of f(v_h) for a pointwise map ``f`` of a P1 field
    (degree-4 rule; exact when f(v_h) has degree <= 4 per element)."""
    vq = quad.at_quad_points(values[mesh.elements])
    return quad.integrate_elementwise(f(vq), geom.areas)


@dataclass(frozen=True)
class Operators:
    """Per-mesh discrete structures reused across time steps.

    The two matrices are on the mesh pattern (``mesh.pattern``);
    ``edge_i``, ``edge_j`` are the mesh edges (``mesh.edges``) and
    ``edge_k`` their stiffness couplings.  ``lumped_diag`` is the
    diagonal of the vertex-rule mass matrix: the sum of |T|/3 over the
    elements touching each node.  ``mass_rows`` holds the row sums of
    ``mass`` (the integrals of the hat functions), computed as
    ``mass @ ones``."""

    mesh: TriMesh
    geom: ElementGeometry
    stiffness: SparseOperator
    mass: SparseOperator
    lumped_diag: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_k: np.ndarray
    mass_rows: np.ndarray

    def grad_form(self, u: np.ndarray, v: np.ndarray) -> float:
        """Gradient inner product of one or more P1 fields.

        For (n,) arrays returns u^T K v; for (n, d) arrays sums over
        components (Frobenius gradient product of vector fields).
        """
        if u.ndim == 1:
            return float(u @ (self.stiffness @ v))
        return float(np.sum(u * (self.stiffness @ v)))

    def l2_form(self, u: np.ndarray, v: np.ndarray) -> float:
        """L2 inner product (consistent mass) of one or more P1 fields."""
        if u.ndim == 1:
            return float(u @ (self.mass @ v))
        return float(np.sum(u * (self.mass @ v)))


def build_operators(mesh: TriMesh) -> Operators:
    geom = element_geometry(mesh)
    K = assemble_stiffness(mesh, geom)
    M = assemble_mass(mesh, geom)
    diag = vertex_sum(mesh, np.repeat((geom.areas / 3.0)[:, None], 3, axis=1))
    return Operators(mesh, geom, K, M, diag, mesh.edges.lo, mesh.edges.hi,
                     -K.data[mesh.pattern.upper], M @ np.ones(mesh.n_nodes))


def apply_dirichlet(A: SparseOperator, b: np.ndarray, fixed: np.ndarray, values: np.ndarray,
                    pattern: SparsityPattern):
    """Symmetric row/column elimination of Dirichlet constraints.

    ``A`` is a CSR matrix on ``pattern`` (``mesh.pattern``), whose cached
    index map gives its free block.  Returns (A_ff, b_f, free) where
    ``free`` is the boolean mask of retained dofs and the right-hand side
    has been lifted by the prescribed values.
    """
    n = A.shape[0]
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    g = np.zeros(n)
    g[fixed] = values
    b_f = (b - A @ g)[free]
    return pattern.free_block(free).csr(A.data), b_f, free
