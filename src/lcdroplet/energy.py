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
(``ch_step_matrix``).  The variational derivatives exist only inside the
time-step systems (``residual_director``, ``residual_s`` and the mu block
of ``residual_ch``), where ``verify.fd_derivative_check`` checks them.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import assembly, quadrature as quad
from .assembly import Operators, SparseOperator

S_RANGE = (-0.5, 1.0)


# ---------------------------------------------------------------------------
# double well and model weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubleWell:
    """Convex-split double well f = f_c - f_e.

    ``fc_coeffs`` and ``fe_coeffs`` are ascending polynomial coefficients.
    Both parts must be convex on the admissible range of the orientation
    parameter; this is validated on a fine grid at construction.  The
    implicit part f_c is at most quadratic, so that the orientation stage
    is one linear solve; any f splits so, as f_c = c s^2 and
    f_e = c s^2 - f with 2c >= max f'' on the range.
    """

    fc_coeffs: tuple
    fe_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "fc_coeffs", tuple(float(c) for c in self.fc_coeffs))
        object.__setattr__(self, "fe_coeffs", tuple(float(c) for c in self.fe_coeffs))
        if any(c != 0.0 for c in self.fc_coeffs[3:]):
            raise ValueError(
                f"f_c must be at most quadratic, got coefficients {self.fc_coeffs}; "
                "split f again as f_c = c s^2 and f_e = c s^2 - f "
                "with 2c >= max f'' on [-0.49, 0.99]"
            )
        grid = np.arange(-0.49, 0.99 + 1e-9, 1e-3)
        for name, coeffs in (("f_c", self.fc_coeffs), ("f_e", self.fe_coeffs)):
            dd = npoly.polyval(grid, npoly.polyder(np.array(coeffs), 2))
            if np.any(dd < 0.0):
                raise ValueError(f"{name} is not convex on [-0.49, 0.99]")

    def f(self, s):
        return self.fc(s) - self.fe(s)

    def fc(self, s):
        return npoly.polyval(s, np.array(self.fc_coeffs))

    def fe(self, s):
        return npoly.polyval(s, np.array(self.fe_coeffs))

    def df(self, s):
        return self.dfc(s) - self.dfe(s)

    def dfc(self, s):
        return npoly.polyval(s, npoly.polyder(np.array(self.fc_coeffs)))

    def dfe(self, s):
        return npoly.polyval(s, npoly.polyder(np.array(self.fe_coeffs)))


def default_double_well() -> DoubleWell:
    """f(s) = 16 s^4 - (64/3) s^3 + 6 s^2, split as
    f_c = 63 s^2 and f_e = -16 s^4 + (64/3) s^3 + 57 s^2."""
    return DoubleWell(
        fc_coeffs=(0.0, 0.0, 63.0),
        fe_coeffs=(0.0, 0.0, 57.0, 64.0 / 3.0, -16.0),
    )


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
    dw: DoubleWell = field(default_factory=default_double_well)

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
    ei, ej, k = ops.mesh.edges.lo, ops.mesh.edges.hi, ops.edge_k
    sz = np.asarray(s) * np.asarray(z)
    dn, dw_ = _edge_diff(ops, n), _edge_diff(ops, w)
    pair = dn[:, 0] * dw_[:, 0] + dn[:, 1] * dw_[:, 1] if dn.ndim == 2 else dn * dw_
    # ordered double sum = 2x the edge sum, cancelling the 1/2 average
    return float(np.sum(k * (sz[ei] + sz[ej]) * pair))


def _edge_diff(ops: Operators, x) -> np.ndarray:
    """x_i - x_j over the edges (i, j); ``np.take`` gathers the rows of an
    (n, 2) array an order of magnitude faster than ``x[i]`` does."""
    return np.take(x, ops.mesh.edges.lo, axis=0) - np.take(x, ops.mesh.edges.hi, axis=0)


def eform_drop(ops: Operators, s, n_tilde, n) -> float:
    """eform(s, s, n_tilde, n_tilde) - eform(s, s, n, n) as one edge sum,

        sum_edges k_ij (s_i^2 + s_j^2) (a - b) . (a + b),

    with a = n~_i - n~_j and b = n_i - n_j, accurate to its own size where
    the difference of the two forms is accurate only to theirs.  a - b is
    formed as d_i - d_j with d = n~ - n, which is exact at a node where
    the two directors' components are within a factor of two (Sterbenz).
    """
    ei, ej, k = ops.mesh.edges.lo, ops.mesh.edges.hi, ops.edge_k
    s2 = np.asarray(s) ** 2
    d = n_tilde - n
    pair = np.sum(_edge_diff(ops, d) * (_edge_diff(ops, n_tilde) + _edge_diff(ops, n)), axis=1)
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
    return np.column_stack([assembly.vertex_sum(ops.mesh, np.repeat(c[:, None], 3, axis=1))
                            for c in per_elem.T]).reshape(-1, 2, 2)


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

def energy_ericksen(ops: Operators, s, n, kappa: float) -> float:
    return kappa * ops.grad_form(s, s) + 0.5 * eform(ops, s, s, n, n)


def energy_dw(ops: Operators, s, dw: DoubleWell) -> float:
    smin, smax = float(np.min(s)), float(np.max(s))
    if smin <= S_RANGE[0] or smax >= S_RANGE[1]:
        warnings.warn(
            f"orientation field leaves ({S_RANGE[0]}, {S_RANGE[1]}): "
            f"range [{smin:.4g}, {smax:.4g}]",
            RuntimeWarning,
            stacklevel=2,
        )
    return assembly.integrate_p1_function(ops.mesh, dw.f, np.asarray(s))


def energy_ch_dw(ops: Operators, phi, eps: float) -> float:
    val = assembly.integrate_p1_function(
        ops.mesh, lambda p: (p * p - 1.0) ** 2, np.asarray(phi)
    )
    return val / (4.0 * eps)


def energy_ch_grad(ops: Operators, phi, eps: float) -> float:
    return 0.5 * eps * ops.grad_form(phi, phi)


def energy_wan(s, n, coupling: np.ndarray, eps: float) -> float:
    """Uniaxial anchoring energy, ``coupling`` the coupling_tensors of grad phi."""
    return 0.5 * eps * float(np.sum(np.square(s) * tensor_pairing(coupling, n, n)))


def energy_was(ops: Operators, a: np.ndarray, gphi, eps: float) -> float:
    """Axial anchoring energy, ``a`` the ``was_weights`` of s."""
    per_elem = a * ops.mesh.areas
    gg = np.sum(gphi * gphi, axis=1)
    return 0.5 * eps * float(gg @ per_elem)


def total_energy(ops: Operators, weights: ModelWeights, s, n, phi) -> EnergyReport:
    """Evaluate all six components for nodal arrays (s, n, phi)."""
    gphi = assembly.element_gradients(ops.mesh, np.asarray(phi))
    return energy_report(ops, weights, s, n, phi, gphi, coupling_tensors(ops, gphi, gphi),
                         was_weights(ops, s, weights.s_star))


def energy_report(ops: Operators, weights: ModelWeights, s, n, phi, gphi: np.ndarray,
                  coupling: np.ndarray, a: np.ndarray) -> EnergyReport:
    """``total_energy`` given the per-element gradient of phi, the
    ``coupling_tensors`` there and the ``was_weights`` of s."""
    e_erk = energy_ericksen(ops, s, n, weights.kappa)
    e_dw = energy_dw(ops, s, weights.dw)
    e_chdw = energy_ch_dw(ops, phi, weights.eps)
    e_chgd = energy_ch_grad(ops, phi, weights.eps)
    e_wan = energy_wan(s, n, coupling, weights.eps)
    e_was = energy_was(ops, a, gphi, weights.eps)
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

def eform_derivative_n(ops: Operators, s, n) -> np.ndarray:
    """Vector D with sum_i D_i . w_i = eform(s, s, n, w)."""
    ei, ej, k = ops.mesh.edges.lo, ops.mesh.edges.hi, ops.edge_k
    nn = ops.mesh.n_nodes
    s2 = np.asarray(s) ** 2
    wgt = 2.0 * k * 0.5 * (s2[ei] + s2[ej])
    both = np.concatenate([ei, ej])
    return np.column_stack([
        np.bincount(both, np.concatenate([w, -w]), minlength=nn)
        for w in (wgt[:, None] * _edge_diff(ops, n)).T
    ])


def eform_scalar_diag(ops: Operators, n) -> np.ndarray:
    """Nodal coefficients D with eform(s, z, n, n) = sum_i s_i z_i D_i."""
    ei, ej, k = ops.mesh.edges.lo, ops.mesh.edges.hi, ops.edge_k
    diff2 = np.sum(_edge_diff(ops, n) ** 2, axis=1)
    kd = k * diff2
    return np.bincount(np.concatenate([ei, ej]), np.concatenate([kd, kd]),
                       minlength=ops.mesh.n_nodes)


def cubic_load(ops: Operators, phi) -> np.ndarray:
    """Vector with entries integral of (phi_h)^3 eta_i (degree-4 rule)."""
    pq = quad.at_quad_points(np.asarray(phi)[ops.mesh.elements])
    return assembly.nodal_load(ops.mesh, pq * pq * pq)


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
    w = ops.edge_k * 0.5 * (s2[ei] + s2[ej])
    L = np.zeros(p.nnz)
    L[p.upper] = L[p.lower] = -w
    L[p.diag] = np.bincount(np.concatenate([ei, ej]), np.concatenate([w, w]),
                            minlength=p.n)
    tx, ty = tangent[:, 0], tangent[:, 1]
    tdot = tx[p.rows] * tx[p.indices] + ty[p.rows] * ty[p.indices]
    A = (weights.rho * ops.mass.data + (2.0 * tau * weights.w_erk) * L) * tdot

    G = coupling * s2[:, None, None]
    Gt = np.einsum("idc,ic->id", G, tangent)
    A[p.diag] += tau * weights.w_wan * weights.eps * np.sum(tangent * Gt, axis=1)

    Dn = weights.w_erk * eform_derivative_n(ops, s_prev, n_prev)
    Dn += weights.w_wan * weights.eps * np.einsum("idc,ic->id", G, n_prev)
    b = -np.sum(Dn * tangent, axis=1)
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
    fc = weights.dw.fc_coeffs + (0.0, 0.0, 0.0)
    c1, c2 = fc[1], fc[2]

    data = (
        ops.mass.data / tau
        + (2.0 * weights.w_erk * weights.kappa) * ops.stiffness.data
        + (weights.w_was * weights.eps) * W_phi.data
    )
    data[p.diag] += (weights.w_erk * elastic_diag
                     + 0.5 * weights.w_wan * weights.eps * gamma)
    data += (2.0 * c2 * weights.w_dw) * ops.mass.data
    A = p.csr(data)

    b = (
        ops.mass @ s_prev / tau
        - weights.w_dw * c1 * ops.mass_rows
        + weights.w_dw * dw_load
        + weights.w_was * weights.eps * weights.s_star * (W_phi @ np.ones_like(s_prev))
        - 0.5 * weights.w_wan * weights.eps * gamma * s_prev
    )
    return A, b


def explicit_dw_load(ops: Operators, dw: DoubleWell, s_prev) -> np.ndarray:
    """Vector with entries integral of f_e'(s_h) eta_i (explicit part)."""
    sq = quad.at_quad_points(np.asarray(s_prev)[ops.mesh.elements])
    return assembly.nodal_load(ops.mesh, dw.dfe(sq))


def implicit_dw_load(ops: Operators, dw: DoubleWell, s_new) -> np.ndarray:
    """Vector with entries integral of f_c'(s_h) eta_i (implicit part)."""
    sq = quad.at_quad_points(np.asarray(s_new)[ops.mesh.elements])
    return assembly.nodal_load(ops.mesh, dw.dfc(sq))


def ch_step_matrix(ops: Operators, weights: ModelWeights, s_new, n_new,
                   a: np.ndarray) -> SparseOperator:
    """phi-coefficient matrix of the chemical-potential equation that stays
    fixed across Newton iterations: the gradient and the two anchoring terms
    as one stiffness with the tensor weight H_T = eps (w_chgd + w_was a_T) I
    + w_wan eps/3 sum_vertices s^2 (|n|^2 I - n n^T), a the ``was_weights``
    of s_new."""
    e = ops.mesh.elements
    s = np.asarray(s_new)
    s2E = (s * s)[e]
    nx, ny = np.take(n_new, e, axis=0).transpose(2, 0, 1)
    xx = np.sum(s2E * nx * nx, axis=1)
    xy = np.sum(s2E * nx * ny, axis=1)
    yy = np.sum(s2E * ny * ny, axis=1)
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
    r_mu = (
        (weights.w_chdw / weights.eps) * (cubic_load(ops, phi) - m_prev)
        + A0 @ phi
        - M @ mu
    )
    return np.concatenate([r_phi, r_mu])


def jacobian_ch(ops: Operators, weights: ModelWeights, phi, A0: SparseOperator) -> SparseOperator:
    """B = 3 W_chdw/eps M(phi^2) + A0 on the mesh pattern: the block of the interface
    Jacobian [[M/tau, eps K], [B, -M]] that depends on phi (``solver.InterfaceJacobian``)."""
    M2 = assembly.squared_field_mass(ops.mesh, np.asarray(phi))
    return ops.mesh.pattern.csr((3.0 * weights.w_chdw / weights.eps) * M2.data + A0.data)
