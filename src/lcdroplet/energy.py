"""Discrete energies, multilinear forms, and variational derivatives.

The total free energy of a state (s, n, phi) is the weighted sum

    W_erk * E_erk + W_dw * E_dw + W_chdw * E_chdw + W_chgd * E_chgd
    + W_wan * E_wan + W_was * E_was

with the elastic part discretized through stiffness couplings
``k_ij = -(stiffness)_ij`` over node pairs,

    E_erk = kappa/2 * sum_ij k_ij (s_i - s_j)^2
            + 1/2 * sum_ij k_ij (s_i^2 + s_j^2)/2 * |n_i - n_j|^2,

and the director/interface coupling evaluated by the vertex quadrature
rule (mass lumping), which is what makes nodewise normalization of the
director energy-decreasing.  ``eform`` and ``cform`` are the two
multilinear forms underlying E_erk, E_wan and all their derivatives.
E_chgd, E_was and E_wan are quadratic in grad phi, so their part of the
chemical-potential equation is one tensor-weighted stiffness
(``ch_step_matrix``).  E_dw integrates the one orientation double well,
``double_well`` = f_c - f_e, whose convex split is fixed: the orientation
stage loads f_c' implicitly and f_e' explicitly.  The variational
derivatives exist only inside the time-step systems
(``residual_director``, ``residual_s`` and the mu block of
``residual_ch``), where ``verify.fd_derivative_check`` checks them.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import assembly
from .assembly import Operators, SparseOperator

S_RANGE = (-0.5, 1.0)


# ---------------------------------------------------------------------------
# double well and model weights
# ---------------------------------------------------------------------------

# The orientation double well f(s) = 16 s^4 - (64/3) s^3 + 6 s^2, with
# minima at s = 0 and s = 3/4, and its fixed convex split f = f_c - f_e:
# f_c = 63 s^2 is implicit, so that the orientation stage is one linear
# solve, and f_e = 63 s^2 - f is explicit.  f_e is convex on the
# admissible range because f''(s) = 192 s^2 - 128 s + 12 stays below
# 2 * 63 there (its maximum, 120.8, is at s = -0.49).  Ascending
# coefficients; every value of the well and its parts is ``_polyval`` on
# these arrays, bit for bit ``npoly.polyval``.
DW_FC = np.array([0.0, 0.0, 63.0])
DW_FE = np.array([0.0, 0.0, 57.0, 64.0 / 3.0, -16.0])
DW_DFC, DW_DFE = npoly.polyder(DW_FC), npoly.polyder(DW_FE)
for _coeffs in (DW_FC, DW_FE, DW_DFC, DW_DFE):
    _coeffs.setflags(write=False)


def _polyval(x, c):
    """Bit for bit ``npoly.polyval(x, c)``: its Horner steps, in place and on floats."""
    y = x * 0 + c[-1]
    for ci in c.tolist()[-2::-1]:
        y *= x
        y += ci
    return y


def double_well(s):
    """f(s) = f_c(s) - f_e(s)."""
    return _polyval(s, DW_FC) - _polyval(s, DW_FE)


@dataclass(frozen=True)
class ModelWeights:
    """Energy weights and model constants."""

    w_erk: float = 1.0
    w_dw: float = 1.0
    w_chdw: float = 1.0
    w_chgd: float = 1.0
    w_wan: float = 1.0
    w_was: float = 1.0
    kappa: float = 1.0
    rho: float = 1.0
    eps: float = 0.1
    s_star: float = 0.750025

    def __post_init__(self):
        for name in ("w_erk", "w_dw", "w_chdw", "w_chgd", "w_wan", "w_was"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        for name in ("kappa", "rho", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (S_RANGE[0] < self.s_star < S_RANGE[1]):
            raise ValueError(f"s_star must lie in ({S_RANGE[0]}, {S_RANGE[1]})")


@dataclass(frozen=True)
class EnergyReport:
    """Unweighted energy components and the weighted total."""

    e_erk: float
    e_dw: float
    e_chdw: float
    e_chgd: float
    e_wan: float
    e_was: float
    total: float


# ---------------------------------------------------------------------------
# multilinear forms
# ---------------------------------------------------------------------------

def eform(ops: Operators, s, z, n, w) -> float:
    """Elastic coupling form: over all node pairs,

        sum_ij k_ij * (s_i z_i + s_j z_j)/2 * (n_i - n_j) . (w_i - w_j).

    Linear in each of the four arguments; only pairs sharing an element
    contribute (k_ij vanishes otherwise).
    """
    nn = ops.mesh.n_nodes
    if len(s) != nn or len(z) != nn or len(n) != nn or len(w) != nn:
        raise ValueError(f"eform fields must have {nn} nodal values")
    ei, ej, k = ops.mesh.edges.lo, ops.mesh.edges.hi, ops.mesh.edge_k
    sz = np.asarray(s) * np.asarray(z)
    dn = edge_diff(ops, n)
    dw_ = dn if w is n else edge_diff(ops, w)
    pair = dn[0] * dw_[0] + dn[1] * dw_[1]
    # ordered double sum = 2x the edge sum, cancelling the 1/2 average
    return float(np.sum(k * (sz[ei] + sz[ej]) * pair))


def edge_diff(ops: Operators, x) -> np.ndarray:
    """x_i - x_j over the edges (i, j) of an (n, 2) array, as its two
    component rows, shape (2, n_edges); ``np.take`` gathers the rows an
    order of magnitude faster than ``x[i]`` does."""
    return (np.take(x, ops.mesh.edges.lo, axis=0) - np.take(x, ops.mesh.edges.hi, axis=0)).T


def eform_drop(ops: Operators, s, n_tilde, n, dn) -> float:
    """eform(s, s, n_tilde, n_tilde) - eform(s, s, n, n) as one edge sum,

        sum_edges k_ij (s_i^2 + s_j^2) (a - b) . (a + b),

    with a = n~_i - n~_j and b = n_i - n_j (``dn``, the ``edge_diff`` of n),
    accurate to its own size where the difference of the two forms is
    accurate only to theirs.  a - b is formed as d_i - d_j with d = n~ - n,
    which is exact at a node where the two directors' components are
    within a factor of two (Sterbenz).
    """
    ei, ej, k = ops.mesh.edges.lo, ops.mesh.edges.hi, ops.mesh.edge_k
    s2 = np.asarray(s) ** 2
    dd, a = edge_diff(ops, n_tilde - n), edge_diff(ops, n_tilde)
    pair = dd[0] * (a[0] + dn[0]) + dd[1] * (a[1] + dn[1])
    return float(np.sum(k * (s2[ei] + s2[ej]) * pair))


def coupling_tensors(ops: Operators, gphi, gpsi) -> np.ndarray:
    """Nodal 2x2 tensors G_i = sum over elements T containing i of
    |T|/3 * [(gphi_T . gpsi_T) I - gphi_T gpsi_T^T], shape (n, 2, 2).

    The lumped coupling form is their pairing at the nodes:

        cform(v, gphi, w, gpsi, s, z) = sum_i s_i z_i v_i . G_i w_i.
    """
    px, py = gphi[:, 0], gphi[:, 1]
    qx, qy = gpsi[:, 0], gpsi[:, 1]
    gg = px * qx + py * qy
    per_elem = np.column_stack([gg - px * qx, -px * qy, -py * qx, gg - py * qy])
    per_elem *= (ops.mesh.areas / 3.0)[:, None]
    # each element's row once per vertex, as vertex values summed into the nodes
    return (ops.mesh.vertex_to_node @ np.repeat(per_elem, 3, axis=0)).reshape(-1, 2, 2)


def tensor_pairing(G: np.ndarray, v, w) -> np.ndarray:
    """Nodal values v_i . G_i w_i of tensors G, shape (n, 2, 2)."""
    return (v[:, 0] * (G[:, 0, 0] * w[:, 0] + G[:, 0, 1] * w[:, 1])
            + v[:, 1] * (G[:, 1, 0] * w[:, 0] + G[:, 1, 1] * w[:, 1]))


def cform(ops: Operators, v, gphi, w, gpsi, s, z) -> float:
    """Lumped director/interface coupling form (vertex quadrature rule).

    ``gphi`` and ``gpsi`` are per-element constant gradients, shape (ne, 2).
    """
    shape = (ops.mesh.n_elements, 2)
    if gphi.shape != shape or gpsi.shape != shape:
        raise ValueError(
            f"expected per-element gradients of shape {shape}, "
            f"got {gphi.shape} and {gpsi.shape}"
        )
    gamma = tensor_pairing(coupling_tensors(ops, gphi, gpsi), v, w)
    return float(np.sum(np.asarray(s) * np.asarray(z) * gamma))


def cform_square(ops: Operators, n, g, s) -> float:
    """cform(n, g, n, g, s, s) without the coupling tensors: the sum over
    the elements T of |T|/3 sum_a (s_a g_T x n_a)^2, by Lagrange's identity
    |g|^2 |n|^2 - (g . n)^2 = (g x n)^2; nonnegative by construction."""
    v, s = ops.mesh.verts, np.asarray(s)
    cross = g[:, 0] * np.take(s * n[:, 1], v) - g[:, 1] * np.take(s * n[:, 0], v)
    return float(np.sum(cross * cross, axis=0) @ ops.mesh.areas) / 3.0


def was_weights(ops: Operators, s, s_star: float) -> np.ndarray:
    """Per-element mean of (s_h - s_star)^2, the weight of the axial
    anchoring term: integral over T of (s_h - s_star)^2 divided by |T|,
    ((q_0 + q_1 + q_2)^2 + q_0^2 + q_1^2 + q_2^2) / 12 for the vertex
    values q of s - s_star."""
    q = np.take(np.asarray(s) - s_star, ops.mesh.elements)
    q2, t = q * q, q[:, 0] + q[:, 1] + q[:, 2]
    return (t * t + q2[:, 0] + q2[:, 1] + q2[:, 2]) / 12.0


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_dw(ops: Operators, s) -> float:
    smin, smax = float(np.min(s)), float(np.max(s))
    if smin <= S_RANGE[0] or smax >= S_RANGE[1]:
        warnings.warn(
            f"orientation field leaves ({S_RANGE[0]}, {S_RANGE[1]}): "
            f"range [{smin:.4g}, {smax:.4g}]",
            RuntimeWarning,
            stacklevel=2,
        )
    return assembly.integrate(ops.mesh, double_well(assembly.quad_values(ops.mesh, np.asarray(s))))


def energy_was(ops: Operators, a: np.ndarray, gphi, eps: float) -> float:
    """Axial anchoring energy, ``a`` the ``was_weights`` of s."""
    per_elem = a * ops.mesh.areas
    gg = np.sum(gphi * gphi, axis=1)
    return 0.5 * eps * float(gg @ per_elem)


def total_energy(ops: Operators, weights: ModelWeights, s, n, phi, gphi=None, coupling=None,
                 a=None, elastic_diag=None, phi_quad=None) -> EnergyReport:
    """Evaluate all six components for nodal arrays (s, n, phi); a caller
    may pass what it has evaluated: the per-element gradient of phi, the
    ``coupling_tensors`` there, the ``was_weights`` of s, the
    ``eform_scalar_diag`` of n and phi at the quadrature points."""
    gphi = assembly.element_gradients(ops.mesh, np.asarray(phi)) if gphi is None else gphi
    coupling = coupling_tensors(ops, gphi, gphi) if coupling is None else coupling
    a = was_weights(ops, s, weights.s_star) if a is None else a
    d = eform_scalar_diag(ops, n) if elastic_diag is None else elastic_diag
    pq = assembly.quad_values(ops.mesh, phi) if phi_quad is None else phi_quad
    eps = weights.eps
    # eform(s, s, n, n) is the sum of s_i^2 d_i
    e_erk = weights.kappa * ops.grad_form(s, s) + 0.5 * float(np.sum(s * s * d))
    e_dw = energy_dw(ops, s)
    e_chdw = assembly.integrate(ops.mesh, (pq * pq - 1.0) ** 2) / (4.0 * eps)
    e_chgd = 0.5 * eps * ops.grad_form(phi, phi)
    e_wan = 0.5 * eps * float(np.sum(np.square(s) * tensor_pairing(coupling, n, n)))
    e_was = energy_was(ops, a, gphi, eps)
    total = (
        weights.w_erk * e_erk
        + weights.w_dw * e_dw
        + weights.w_chdw * e_chdw
        + weights.w_chgd * e_chgd
        + weights.w_wan * e_wan
        + weights.w_was * e_was
    )
    return EnergyReport(e_erk, e_dw, e_chdw, e_chgd, e_wan, e_was, total)


# ---------------------------------------------------------------------------
# pieces of the variational derivatives (assembled vectors; pairing with a
# test field gives the directional derivative)
# ---------------------------------------------------------------------------

def eform_scalar_diag(ops: Operators, n, dn=None) -> np.ndarray:
    """Nodal coefficients D with eform(s, z, n, n) = sum_i s_i z_i D_i;
    ``dn`` is ``edge_diff`` of n, evaluated when absent."""
    dx, dy = edge_diff(ops, n) if dn is None else dn
    w = ops.mesh.edge_k * (dx * dx + dy * dy)
    return ops.mesh.edge_to_node @ np.concatenate([w, w])


# ---------------------------------------------------------------------------
# time-step systems
# ---------------------------------------------------------------------------

def residual_director(
    ops: Operators,
    weights: ModelWeights,
    tau: float,
    s_prev,
    n_prev,
    coupling: np.ndarray,
    tangent: np.ndarray,
):
    """Tangent-coefficient system for the director update.

    The unknown is the nodal tangential velocity v = c_i t_i, with the
    trial director n~ = n_prev + tau * v.  ``coupling`` is
    ``coupling_tensors`` at grad phi_prev.  Returns (A, b) on all nodes,
    A on the mesh pattern and symmetric positive definite; the caller
    eliminates the nodes where the director is prescribed.
    """
    p = ops.mesh.pattern
    s2 = np.asarray(s_prev) ** 2
    ei, ej = ops.mesh.edges.lo, ops.mesh.edges.hi
    # weighted graph Laplacian sum_edges w (e_i - e_j)(e_i - e_j)^T, w = k c
    w = ops.mesh.edge_k * 0.5 * (s2[ei] + s2[ej])
    L = np.zeros(p.nnz)
    L[p.upper] = L[p.lower] = -w
    L[p.diag] = ops.mesh.edge_to_node @ np.tile(w, 2)
    tx, ty = tangent[:, 0], tangent[:, 1]
    tdot = (np.take(tx, p.rows) * np.take(tx, p.indices)
            + np.take(ty, p.rows) * np.take(ty, p.indices))
    A = (weights.rho * ops.mass.data + (2.0 * tau * weights.w_erk) * L) * tdot

    c = weights.w_wan * weights.eps * s2
    A[p.diag] += tau * c * tensor_pairing(coupling, tangent, tangent)
    # the components of D with sum_i D_i . u_i = eform(s_prev, s_prev, n_prev, u)
    Dx, Dy = (ops.mesh.edge_to_node @ np.concatenate([d, -d])
              for d in (2.0 * w) * edge_diff(ops, n_prev))
    b = -(weights.w_erk * (Dx * tx + Dy * ty) + c * tensor_pairing(coupling, tangent, n_prev))
    return p.csr(A), b


def residual_s(
    ops: Operators,
    weights: ModelWeights,
    tau: float,
    s_prev,
    n_new,
    gphi_prev,
    coupling: np.ndarray,
    elastic_diag: np.ndarray,
    dw_load: np.ndarray,
):
    """Linear system for the orientation update (quadratic convex part),
    given ``coupling_tensors`` at ``gphi_prev``, ``eform_scalar_diag`` at
    ``n_new`` and ``explicit_dw_load`` at ``s_prev``.

    The averaged coupling coefficient (s_new + s_prev)/2 in the lumped
    anchoring term puts half the nodal weight in the matrix and half on
    the right-hand side.  Returns (A, b) with A symmetric positive
    definite.
    """
    s_prev = np.asarray(s_prev)
    p = ops.mesh.pattern
    gamma = tensor_pairing(coupling, n_new, n_new)
    W_phi = assembly.weighted_mass(ops.mesh, np.sum(gphi_prev * gphi_prev, axis=1))

    data = (
        ops.mass.data / tau
        + (2.0 * weights.w_erk * weights.kappa) * ops.stiffness.data
        + (weights.w_was * weights.eps) * W_phi.data
    )
    data[p.diag] += (weights.w_erk * elastic_diag
                     + 0.5 * weights.w_wan * weights.eps * gamma)
    data += (DW_DFC[1] * weights.w_dw) * ops.mass.data  # f_c'(s) = DW_DFC[1] s
    A = p.csr(data)

    b = (
        ops.mass @ s_prev / tau
        + weights.w_dw * dw_load
        + weights.w_was * weights.eps * weights.s_star * (W_phi @ np.ones_like(s_prev))
        - 0.5 * weights.w_wan * weights.eps * gamma * s_prev
    )
    return A, b


def explicit_dw_load(ops: Operators, s_prev) -> np.ndarray:
    """Vector with entries integral of f_e'(s_h) eta_i (explicit part)."""
    return assembly.nodal_load(ops.mesh, _polyval(assembly.quad_values(ops.mesh, s_prev), DW_DFE))


def ch_step_matrix(ops: Operators, weights: ModelWeights, s_new, n_new,
                   a: np.ndarray) -> SparseOperator:
    """phi-coefficient matrix of the chemical-potential equation that stays
    fixed across Newton iterations: the gradient and the two anchoring terms
    as one stiffness with the tensor weight H_T = eps (w_chgd + w_was a_T) I
    + w_wan eps/3 sum_vertices s^2 (|n|^2 I - n n^T), a the ``was_weights``
    of s_new."""
    s = np.asarray(s_new)
    s2, nx, ny = s * s, n_new[:, 0], n_new[:, 1]
    # the products at the nodes, then added over each element's vertices in order
    q0, q1, q2 = np.take(np.column_stack([s2 * nx * nx, s2 * nx * ny, s2 * ny * ny]),
                         ops.mesh.verts, axis=0)
    xx, xy, yy = (q0 + q1 + q2).T
    eps = weights.eps
    iso = eps * (weights.w_chgd + weights.w_was * a)
    c = weights.w_wan * eps / 3.0
    return assembly.tensor_stiffness(ops.mesh, iso + c * yy, -c * xy, iso + c * xx)


def residual_ch(ops: Operators, weights: ModelWeights, tau: float, phi, mu, phi_prev,
                m_prev: np.ndarray, A0: SparseOperator):
    """Residual of the coupled interface/chemical-potential system;
    ``m_prev`` is M phi_prev, fixed across Newton iterations.

    Equation blocks (for all test functions):
      R_phi = <(phi - phi_prev)/tau, nu> + eps (grad mu, grad nu)
      R_mu  = W_chdw/eps <phi^3 - phi_prev, psi> - <mu, psi> + (A0 phi, psi)
    """
    phi, mu, phi_prev = np.asarray(phi), np.asarray(mu), np.asarray(phi_prev)
    M = ops.mass
    r_phi = M @ (phi - phi_prev) / tau + weights.eps * (ops.stiffness @ mu)
    pq = assembly.quad_values(ops.mesh, phi)  # phi^3 by the degree-4 rule
    r_mu = (
        (weights.w_chdw / weights.eps) * (assembly.nodal_load(ops.mesh, pq * pq * pq) - m_prev)
        + A0 @ phi
        - M @ mu
    )
    return np.concatenate([r_phi, r_mu])


def jacobian_ch(ops: Operators, weights: ModelWeights, phi, A0: SparseOperator) -> SparseOperator:
    """B = 3 W_chdw/eps M(phi^2) + A0 on the mesh pattern: the block of the interface
    Jacobian [[M/tau, eps K], [B, -M]] that depends on phi (``solver.InterfaceJacobian``)."""
    M2 = assembly.squared_field_mass(ops.mesh, np.asarray(phi))
    return ops.mesh.pattern.csr((3.0 * weights.w_chdw / weights.eps) * M2.data + A0.data)
